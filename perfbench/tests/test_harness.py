"""Fast checks of the harness itself — no child servers.

Run with ``python -m pytest perfbench/tests -q`` from the repo root.
"""

from __future__ import annotations

import io
import json
import re
import signal
import socket
import threading
import time

import pytest

import perfbench

perfbench.import_program()

from repro.pow.puzzle import Puzzle  # noqa: E402

from perfbench import inputs, report, stats  # noqa: E402
from perfbench.calibrate import Calibrator  # noqa: E402
from perfbench.loadgen import LoadGenerator  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, RunResult  # noqa: E402


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [
        (5, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
        (9_999, 99.0), (10_000, 99.9), (100_000, 99.99),
    ],
)
def test_top_percentile_needs_ten_samples_beyond(count, expected):
    assert stats.top_percentile(count) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50.0) == 50
    assert stats.percentile(values, 99.0) == 99
    assert stats.percentile(values, 100.0) == 100
    assert stats.percentile([], 99.0) == 0.0


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert stats.quartile_spread(values) == pytest.approx((17.25 - 11.75) / 14.5)


# ----------------------------------------------------------------------
# Due-time accounting (no coordinated omission)
# ----------------------------------------------------------------------
class _StallingServer:
    """Serial stub speaking just enough protocol; stalls once for 200 ms."""

    STALL_AT, STALL = 40, 0.2

    def __init__(self) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0), backlog=512)
        self._listener.settimeout(0.05)  # so the thread notices the stop
        self._stop = threading.Event()
        self.address = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._puzzle = Puzzle(
            seed="ab" * 8, timestamp=1.0, difficulty=1, tag="00"
        ).to_wire().encode("ascii") + b"\n"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join(timeout=5.0)
        assert not self._thread.is_alive()
        self._listener.close()

    def _serve(self) -> None:
        served = 0
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            conn.settimeout(5.0)
            with conn:
                conn.makefile("rb").readline()
                if served == self.STALL_AT:
                    time.sleep(self.STALL)
                conn.sendall(self._puzzle)
            served += 1


def test_a_server_stall_raises_the_later_requests_latency():
    client = inputs.ServeClient(
        ip="127.0.0.1", benign=False, request_line=b"REQUEST /x {}\n"
    )
    rate, count = 200.0, 200
    offsets = [i / rate for i in range(count)]
    with _StallingServer() as server, LoadGenerator(server.address) as generator:
        generator.open_loop([client] * count, offsets, generator.clock() + 0.05)
    exchanges = generator.exchanges
    assert len(exchanges) == count and all(x.ok for x in exchanges)
    # The generator kept its schedule through the stall ...
    assert max(x.launched - x.due for x in exchanges) < 0.05
    # ... so every request due during it waited, not just the one in
    # flight: ~200 ms at 200/s is ~40 requests; a closed loop sees one.
    slow = [x for x in exchanges if x.admitted - x.due > 0.05]
    assert len(slow) >= 20
    assert max(x.admitted - x.due for x in exchanges) >= _StallingServer.STALL * 0.9


def test_drain_returns_once_the_last_timer_has_fired():
    fired = []
    with LoadGenerator(("127.0.0.1", 1)) as generator:
        began = generator.clock()
        generator.call_at(began + 0.05, lambda: fired.append(generator.clock()))
        generator.open_loop([], [], began)
        took = generator.clock() - began
    assert fired and 0.05 <= took < 1.0  # not DRAIN_TIMEOUT


def test_closed_loop_keeps_callers_in_flight():
    client = inputs.ServeClient(
        ip="127.0.0.1", benign=False, request_line=b"REQUEST /x {}\n"
    )
    with _StallingServer() as server, LoadGenerator(server.address) as generator:
        generator.closed_loop(iter(lambda: client, None), 4, generator.clock() + 0.5)
    assert generator.inflight == 0
    assert generator.inflight_max == 4
    assert len(generator.exchanges) > 8 and all(x.ok for x in generator.exchanges)


# ----------------------------------------------------------------------
# Inputs are a function of the seed
# ----------------------------------------------------------------------
def test_inputs_are_deterministic_per_seed():
    assert inputs.poisson_schedule(5, 100.0, 1.0) == inputs.poisson_schedule(5, 100.0, 1.0)
    assert inputs.poisson_schedule(5, 100.0, 1.0) != inputs.poisson_schedule(6, 100.0, 1.0)
    first, again, other = (
        [(c.ip, c.request_line) for c in inputs.pick_clients(seed, 64, 0.25)]
        for seed in (5, 5, 6)
    )
    assert first == again and first != other
    stream, twin, rival = inputs.AdmitStream(5), inputs.AdmitStream(5), inputs.AdmitStream(6)
    for index in (0, 3, stream.PASS_FLUSHES + 1):
        assert stream.flush(index) == twin.flush(index)
    assert stream.flush(3) != rival.flush(3)
    assert stream.features == twin.features and stream.features != rival.features
    # One pass visits every client exactly once.
    seen = [c for i in range(stream.PASS_FLUSHES) for c in stream.flush(i)[1]]
    assert sorted(seen) == list(range(len(stream.ips)))


def test_pools_are_separated_by_model_score():
    benign, hostile = inputs.serve_clients(1)
    assert len(benign) == len(hostile) == inputs.POOL_SIZE
    assert not {c.ip for c in benign} & {c.ip for c in hostile}
    assert all(c.benign for c in benign) and not any(c.benign for c in hostile)


# ----------------------------------------------------------------------
# Names printed by ``run`` are the contract's
# ----------------------------------------------------------------------
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_printed_names_equal_the_contract():
    contract = report.contract()
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    end_to_end = [e["name"] for e in contract["end_to_end"]]
    per_layer = [e["name"] for e in contract["per_layer"]]
    for name in [*WORKLOADS, *end_to_end, *per_layer]:
        assert _NAME.fullmatch(name), name
    assert len(set(end_to_end + per_layer)) == len(end_to_end) + len(per_layer)
    assert "setup_s" in end_to_end

    result = RunResult(
        attempted=10, failed=0,
        metrics={name: 1.5 for name in end_to_end},
        layers={"sample_count": 10.0},
    )
    plain = report.run_record("admit-inproc", 1, False, result)
    traced = report.run_record("admit-inproc", 1, True, result)
    assert list(json.loads(report.result_line(plain))["metrics"]) == end_to_end
    assert list(json.loads(report.result_line(traced))["metrics"]) == per_layer
    assert set(json.loads(report.result_line(plain))) == {
        "correct", "attempted", "failed", "metrics"
    }
    for name in end_to_end:
        assert re.search(rf"^{re.escape(name)}\s", report.render_run(plain), re.M)

    result.layers["not.in.contract"] = 1.0
    with pytest.raises(KeyError):
        report.run_record("admit-inproc", 1, True, result)
    del result.metrics["setup_s"]
    with pytest.raises(KeyError):
        report.run_record("admit-inproc", 1, False, result)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _document(throughput: float, generator_bound: bool = False) -> dict:
    names = [e["name"] for e in report.contract()["end_to_end"]]
    metrics = {name: 10.0 for name in names} | {"throughput_per_s": throughput}
    result = RunResult(
        attempted=1, failed=0, metrics=metrics, generator_bound=generator_bound
    )
    return {
        "fingerprint": {"cpus": 2},
        "runs": [report.run_record("serve-saturate", 1, False, result)],
    }


def test_compare_gates_on_the_bound_and_defers_when_generator_bound():
    bound = next(
        e["bound"] for e in report.contract()["end_to_end"]
        if e["name"] == "throughput_per_s"
    )
    inside, outside = 1000.0 * (1 - bound / 2), 1000.0 * (1 - bound * 1.2)
    out = io.StringIO()
    assert report.compare(_document(1000.0), _document(inside), out) == 0
    assert report.compare(_document(1000.0), _document(outside), out) == 1
    assert "REGRESSION" in out.getvalue()
    out = io.StringIO()
    assert report.compare(_document(1000.0), _document(outside, True), out) == 0
    assert "unresolved" in out.getvalue()


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------
def test_self_time_excludes_child_spans():
    tracer = Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    time.sleep(0.01)
    tracer.end(inner)
    tracer.end(outer)
    totals = tracer.totals()
    assert totals["inner"].seconds >= 0.01
    assert totals["outer"].seconds >= totals["inner"].seconds
    assert totals["outer"].self_seconds == pytest.approx(
        totals["outer"].seconds - totals["inner"].seconds
    )
    assert tracer.count_under("inner", "outer") == 1
    assert tracer.count_under("inner", "inner") == 0


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------
def test_calibrator_samples_on_a_timer_and_scales_durations():
    calibrator = Calibrator()
    began = calibrator.clock()
    calibrator.every(0.005)
    try:
        while calibrator.clock() - began < 0.1:
            pass  # the workload: the timer interrupts it
    finally:
        calibrator.stop()
    ended = calibrator.clock()
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert len(calibrator.samples) >= 5
    slowdown = calibrator.slowdown(began, ended)
    assert slowdown > 0.2
    assert 0.0 < calibrator.spent(began, ended) < ended - began
    with pytest.raises(ValueError):
        calibrator.slowdown(ended + 1.0, ended + 2.0)

    result, took = calibrator.bracket(lambda: time.sleep(0.02) or "done")
    assert result == "done"
    # 20 ms of sleeping, divided by whatever the host's slowdown is now.
    assert 0.02 / 10 < took < 0.02 * 10
