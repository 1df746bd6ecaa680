"""Record/replay subsystem: traces as the primary regression instrument.

Three pieces turn live and simulated traffic into executable
regressions (DESIGN.md §1.4):

* :class:`TraceRecorder` captures every admission decision from any
  serving path (in-process, gateway, cluster worker, simulator) into a
  v2 :class:`~repro.traffic.trace.Trace`;
* :class:`TraceReplayer` feeds a recorded request stream back through a
  freshly built pipeline — in-process, gateway-batched, or sharded like
  the cluster — at recorded or accelerated pacing;
* :func:`diff_decisions` compares two decision streams field-by-field
  and renders a structured report.

:mod:`repro.replay.campaign` composes attackers and traffic profiles
into named scenario specs whose recorded runs are the golden traces
under ``tests/golden/``.
"""

from repro.replay.campaign import (
    CAMPAIGNS,
    CampaignRun,
    CampaignSpec,
    ScaleSpec,
    run_campaign,
)
from repro.replay.diff import DiffReport, FieldDiff, diff_decisions
from repro.replay.recorder import TraceRecorder, spec_hash
from repro.replay.replayer import (
    ReplayResult,
    TraceReplayer,
    feed_live,
    loopback_plan,
    parse_target,
    record_live,
    replay_live,
    spec_from_trace,
)

__all__ = [
    "CAMPAIGNS",
    "CampaignRun",
    "CampaignSpec",
    "DiffReport",
    "FieldDiff",
    "ReplayResult",
    "TraceRecorder",
    "TraceReplayer",
    "diff_decisions",
    "feed_live",
    "loopback_plan",
    "parse_target",
    "record_live",
    "replay_live",
    "ScaleSpec",
    "run_campaign",
    "spec_from_trace",
    "spec_hash",
]
