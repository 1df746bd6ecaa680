"""Trace records: replayable request streams.

A :class:`TraceEntry` is one timestamped request with its generating
client's metadata (profile, ground-truth intensity).  A :class:`Trace`
is an ordered collection with JSONL persistence, so a workload generated
once can be replayed against different policies — the discipline that
makes policy A/B comparisons apples-to-apples.

Schema versions
---------------
* **v1** (legacy): one JSON object per line, request + ground truth
  only.  Files have no header; the loader still reads them.
* **v2**: the first line is a :class:`TraceHeader` (format version,
  a hash of the framework configuration that produced the decisions,
  the workload seed, free-form metadata); each entry line may carry
  the admission :class:`~repro.core.records.DecisionRecord` the serving
  path produced for that request.  v2 is what the record/replay
  subsystem (:mod:`repro.replay`) writes and diffs.

Unknown format versions, corrupt or truncated lines, and duplicate
request ids all fail loudly with the offending line number
(:class:`~repro.core.errors.TraceFormatError`): replay correctness
depends on the trace being exactly what was recorded.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Iterable, Iterator, Sequence

from repro.core.errors import TraceFormatError
from repro.core.records import ClientRequest, DecisionRecord

__all__ = ["TraceEntry", "Trace", "TraceHeader", "TRACE_FORMAT_VERSION"]

#: The trace format this module writes.  Readers accept v1 (headerless)
#: and v2; anything else fails loudly.
TRACE_FORMAT_VERSION = 2

#: Key identifying a header line.  v1 entry lines never contain it.
_HEADER_KEY = "trace_format"


@dataclasses.dataclass(frozen=True, slots=True)
class TraceHeader:
    """First line of a v2 trace file.

    Parameters
    ----------
    version:
        Trace format version; this module writes
        :data:`TRACE_FORMAT_VERSION`.
    config_hash:
        Hash of the framework recipe the decisions were recorded under
        (see :func:`repro.replay.spec_hash`); empty for request-only
        traces.  Replayers compare it against the replay-side recipe so
        a diff against decisions from a different pipeline is flagged
        before any request is fed.
    seed:
        Workload master seed, when the trace came from a generator.
    meta:
        Free-form JSON-safe metadata (campaign name, recorder, ...).
    """

    version: int = TRACE_FORMAT_VERSION
    config_hash: str = ""
    seed: int | None = None
    meta: dict = dataclasses.field(default_factory=dict)

    def to_json(self) -> str:
        """Serialise to the header line."""
        return json.dumps(
            {
                _HEADER_KEY: self.version,
                "config_hash": self.config_hash,
                "seed": self.seed,
                "meta": dict(self.meta),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str, *, line_number: int = 1) -> "TraceHeader":
        """Parse a header line; loud failure on unknown versions."""
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"corrupt trace header: {exc}", line=line_number
            ) from exc
        version = data.get(_HEADER_KEY)
        if version != TRACE_FORMAT_VERSION:
            raise TraceFormatError(
                f"unknown trace format version {version!r} "
                f"(this reader understands v{TRACE_FORMAT_VERSION} and "
                "headerless v1 files)",
                line=line_number,
            )
        seed = data.get("seed")
        return cls(
            version=int(version),
            config_hash=str(data.get("config_hash", "")),
            seed=None if seed is None else int(seed),
            meta=dict(data.get("meta") or {}),
        )


@dataclasses.dataclass(frozen=True, slots=True)
class TraceEntry:
    """One generated request plus its ground truth.

    ``true_score`` (10 × the generating client's intensity) is carried
    alongside so experiments can measure how the AI model's mistakes
    propagate into latency — without peeking during scoring.

    ``decision`` (schema v2) is the admission decision the recorded
    serving path produced for this request, when the trace was captured
    by :class:`repro.replay.TraceRecorder`; request-only traces leave
    it ``None``.
    """

    request: ClientRequest
    profile: str
    true_score: float
    decision: DecisionRecord | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.true_score <= 10.0:
            raise ValueError(
                f"true_score must be in [0, 10], got {self.true_score}"
            )

    def to_json(self) -> str:
        """Serialise to one JSON line."""
        data = {
            "ip": self.request.client_ip,
            "resource": self.request.resource,
            "timestamp": self.request.timestamp,
            "features": dict(self.request.features),
            "request_id": self.request.request_id,
            "profile": self.profile,
            "true_score": self.true_score,
        }
        if self.decision is not None:
            data["decision"] = self.decision.to_mapping()
        return json.dumps(data, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "TraceEntry":
        """Parse a line produced by :meth:`to_json`."""
        data = json.loads(line)
        request = ClientRequest(
            client_ip=data["ip"],
            resource=data["resource"],
            timestamp=float(data["timestamp"]),
            features=data["features"],
            request_id=data.get("request_id", ""),
        )
        decision = data.get("decision")
        return cls(
            request=request,
            profile=data["profile"],
            true_score=float(data["true_score"]),
            decision=(
                DecisionRecord.from_mapping(decision)
                if decision is not None
                else None
            ),
        )


class Trace:
    """An ordered, replayable sequence of :class:`TraceEntry`.

    Entries are kept sorted by request timestamp; iteration yields them
    in arrival order, which is what the simulator consumes.  ``header``
    is the v2 file header; traces built in memory may leave it ``None``
    (they serialise as v2 with a default header).
    """

    def __init__(
        self,
        entries: Iterable[TraceEntry] = (),
        header: TraceHeader | None = None,
    ) -> None:
        self._entries: list[TraceEntry] = sorted(
            entries, key=lambda e: e.request.timestamp
        )
        self.header = header

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> TraceEntry:
        return self._entries[index]

    @property
    def entries(self) -> Sequence[TraceEntry]:
        return tuple(self._entries)

    def append(self, entry: TraceEntry) -> None:
        """Insert ``entry`` keeping timestamp order."""
        import bisect

        keys = [e.request.timestamp for e in self._entries]
        index = bisect.bisect_right(keys, entry.request.timestamp)
        self._entries.insert(index, entry)

    def duration(self) -> float:
        """Time span covered by the trace (0 for empty/singleton traces)."""
        if len(self._entries) < 2:
            return 0.0
        return (
            self._entries[-1].request.timestamp
            - self._entries[0].request.timestamp
        )

    def decisions(self) -> list[DecisionRecord]:
        """The recorded decision stream, in trace order (v2 traces)."""
        return [
            entry.decision
            for entry in self._entries
            if entry.decision is not None
        ]

    def dump_jsonl(self, path) -> None:
        """Write the trace as v2 JSONL (header line + one entry per line)."""
        header = self.header or TraceHeader()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(header.to_json() + "\n")
            for entry in self._entries:
                handle.write(entry.to_json() + "\n")

    @classmethod
    def load_jsonl(cls, path) -> "Trace":
        """Load a trace written by :meth:`dump_jsonl` (or a legacy v1 file).

        Fails loudly — with the offending line number — on unknown
        format versions, corrupt lines, and duplicate request ids
        (replay matches decisions by request id, so a duplicated entry
        would silently corrupt every comparison downstream).
        """
        entries: list[TraceEntry] = []
        header: TraceHeader | None = None
        seen_ids: set[str] = set()
        with open(path, encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                if header is None and not entries:
                    if _looks_like_header(line):
                        header = TraceHeader.from_json(
                            line, line_number=line_number
                        )
                        continue
                try:
                    entry = TraceEntry.from_json(line)
                except (
                    json.JSONDecodeError,
                    KeyError,
                    TypeError,
                    ValueError,
                ) as exc:
                    raise TraceFormatError(
                        f"corrupt trace entry: {exc}", line=line_number
                    ) from exc
                request_id = entry.request.request_id
                if request_id:
                    if request_id in seen_ids:
                        raise TraceFormatError(
                            f"duplicate request_id {request_id!r} "
                            "(replay needs unique ids)",
                            line=line_number,
                        )
                    seen_ids.add(request_id)
                entries.append(entry)
        return cls(entries, header=header)


def _looks_like_header(line: str) -> bool:
    """True when ``line`` parses as a JSON object with a version key.

    Unparseable first lines are *not* headers — they fall through to
    entry parsing, whose error message carries the line number.
    """
    try:
        data = json.loads(line)
    except json.JSONDecodeError:
        return False
    return isinstance(data, dict) and _HEADER_KEY in data
