"""Process-parallel fastsim: hash-sharded shared-memory SoA cohorts.

Single-core, :class:`~repro.net.sim.fastsim.FastSimulation` does 100k
agents in ~0.2s — but wall-clock does not scale with cores, which keeps
multi-million-agent campaigns at minutes.  This module is the multi-core
lever: :class:`ParallelSimulation` partitions an
:class:`~repro.net.sim.agents.AgentPopulation` by a hash of each
agent's packed IP (the array-rate analogue of the BLAKE2b address
sharding :class:`~repro.state.sharding.ShardedStateStore` and the
gateway cluster use), places each shard's SoA arrays in
``multiprocessing.shared_memory`` blocks, and runs one independent
``FastSimulation`` per worker process, lock-stepped in fixed simulated-
time **epochs** with a barrier at every epoch boundary.

Execution model
---------------
Each shard is a complete miniature of the single-process engine: its
own calendar queue, FIFO server, link queues and RNG stream, over its
own agents only.  The epoch barrier exists for one reason — a coherent
*global* load signal: at each boundary every worker publishes its
:class:`~repro.policies.adaptive.LoadAdaptivePolicy` EWMA into a shared
control block and folds the other shards' values back in fixed shard
order 0..N-1.  Deterministic policies (the campaign default) exchange
nothing, and the barrier is pure synchronisation.

Parity envelope (DESIGN §1.8)
-----------------------------
* **Per shard, bit-identical.**  Epoch slicing drains the calendar
  queue through :meth:`CalendarQueue.drain_until`, which visits exactly
  the cohorts an unbounded drain would, in the same (time, FIFO)
  order — so a shard's decision stream, outcome buffers and report are
  bit-identical to a single-process ``FastSimulation`` run over the
  same sub-population with the same seed (``shard_seed``).
* **Globally, counts and extremes exact; means isclose.**  The parent
  rebuilds the global collector by folding shard outcome rows in shard
  order, which is a different accumulation order than one interleaved
  run — sums of floats reassociate, so global means agree to
  ``isclose``, never guaranteed bitwise.
* **Load-adaptive runs are reproducible, not shard-invariant.**  Each
  worker observes its own FIFO backlog per request plus the peers'
  EWMAs once per epoch; the signal depends on the shard count and the
  epoch length (both recorded), but is deterministic given them.
* **Links are per-shard.**  A link profile shared by two populations
  shares one uplink queue *within* a shard; cross-shard coupling
  through a common bottleneck is out of envelope (each worker owns its
  own :class:`~repro.net.sim.links.LinkSet`).

Shared-memory lifecycle
-----------------------
Segments are named per run (``repro-parsim-<token>-…``), created and
unlinked by the parent in a ``try/finally`` that also covers SIGTERM
(a handler re-raises into the cleanup path) and worker crashes (the
parent monitors child exit codes, terminates stragglers, then
unlinks).  Workers only ever attach and close; spawned workers share
the parent's ``resource_tracker`` process, so the attach aliases the
create-side registration and the parent's single ``unlink`` retires
it cleanly.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
import traceback
import uuid
from multiprocessing import shared_memory
from queue import Empty
from typing import Mapping, Sequence

import numpy as np

from repro.core.spec import FrameworkSpec
from repro.net.sim.agents import AgentPopulation
from repro.net.sim.links import _mix64
from repro.net.sim.simulation import ServerModel, SimulationReport

__all__ = [
    "ParallelReport",
    "ParallelSimulation",
    "partition_population",
    "phase_summary_from_snapshot",
    "shard_of_agents",
    "shard_seed",
]

#: Environment hook: a directory path makes every worker dump cProfile
#: stats to ``<dir>/parsim-worker-<shard>.pstats`` (``repro profile``).
PROFILE_DIR_ENV = "REPRO_PARSIM_PROFILE_DIR"
#: Test hook: a shard number makes that worker SIGKILL itself mid-run,
#: exercising the crash-cleanup path.
TEST_CRASH_ENV = "REPRO_PARSIM_TEST_CRASH"

_PARTITION_SALT = np.uint64(0x51A2D5EED)


# ----------------------------------------------------------------------
# Partitioning (the array-rate analogue of BLAKE2b address sharding)
# ----------------------------------------------------------------------
def shard_of_agents(packed_ips: np.ndarray, shards: int) -> np.ndarray:
    """Shard assignment per agent from the packed-IP hash.

    The object-world stores route by BLAKE2b over the address *string*
    (:func:`repro.state.sharding.stable_hash`); at array rates a Python
    hash per agent would cost seconds per million, so this uses the
    SplitMix64 mixer the link layer already derives per-address draws
    from — same property (uniform, deterministic, keyed by address,
    stable across processes), array speed.
    """
    mixed = _mix64(
        np.asarray(packed_ips, dtype=np.int64).astype(np.uint64)
        ^ _PARTITION_SALT
    )
    return (mixed % np.uint64(shards)).astype(np.int64)


def partition_population(
    population: AgentPopulation, shards: int
) -> list[np.ndarray]:
    """Global agent-index arrays per shard (each ascending)."""
    assign = shard_of_agents(population.packed_ips(), shards)
    return [np.nonzero(assign == s)[0] for s in range(shards)]


def shard_seed(seed: int, shard: int) -> int:
    """Decorrelated per-shard engine seed (deterministic in both args)."""
    mixed = _mix64(
        np.uint64([(seed & 0xFFFFFFFFFFFFFFFF) ^ (shard + 1)])
    )
    return int(mixed[0])


def phase_summary_from_snapshot(snapshot: Mapping) -> dict[str, dict]:
    """:meth:`PhaseTimer.summary`-shaped totals from a merged snapshot."""
    fields = {
        "sim_phase_seconds_total": "seconds",
        "sim_phase_cohorts_total": "cohorts",
        "sim_phase_items_total": "items",
    }
    out: dict[str, dict] = {}
    for metric in snapshot.get("metrics", ()):
        field = fields.get(metric.get("name"))
        if field is None:
            continue
        for row in metric.get("series", ()):
            phase = row.get("labels", {}).get("phase")
            if phase is None:
                continue
            stats = out.setdefault(
                phase, {"seconds": 0.0, "cohorts": 0, "items": 0}
            )
            stats[field] = row["value"]
    for stats in out.values():
        seconds = stats["seconds"]
        stats["items_per_second"] = (
            stats["items"] / seconds if seconds > 0 else 0.0
        )
        stats["cohorts"] = int(stats["cohorts"])
        stats["items"] = int(stats["items"])
    return dict(sorted(out.items()))


# ----------------------------------------------------------------------
# Shared-memory plumbing
# ----------------------------------------------------------------------
def _input_specs(n: int, k: int, m: int) -> dict[str, tuple[tuple, np.dtype]]:
    """Per-shard input array layout: (shape, dtype) by field name."""
    return {
        "features": ((n, k), np.dtype(np.float64)),
        "intensity": ((n,), np.dtype(np.float64)),
        "profile_id": ((n,), np.dtype(np.int32)),
        "ip_index": ((n,), np.dtype(np.int64)),
        "fire_times": ((m,), np.dtype(np.float64)),
        "fire_agents": ((m,), np.dtype(np.int64)),
    }


def _outcome_specs(m: int) -> dict[str, tuple[tuple, np.dtype]]:
    """Per-shard outcome array layout; ``m`` rows is a hard cap (one
    terminal outcome per fire at most)."""
    return {
        "out_count": ((1,), np.dtype(np.int64)),
        "out_cid": ((m,), np.dtype(np.int32)),
        "out_code": ((m,), np.dtype(np.int8)),
        "out_latency": ((m,), np.dtype(np.float64)),
        "out_score": ((m,), np.dtype(np.float64)),
        "out_difficulty": ((m,), np.dtype(np.float64)),
        "out_attempts": ((m,), np.dtype(np.float64)),
    }


def _segment_name(token: str, shard: int | None, field: str) -> str:
    if shard is None:
        return f"repro-parsim-{token}-{field}"
    return f"repro-parsim-{token}-s{shard}-{field}"


class _SegmentSet:
    """A named bundle of shared-memory-backed numpy arrays.

    The parent creates (and later unlinks) segments; workers attach and
    only ever close.  Spawned workers share the parent's resource-
    tracker process, so the attach-side registration aliases the
    create-side one and a worker exit neither unlinks a live segment
    nor leaves a leak warning behind — the parent's ``unlink`` (in a
    ``finally`` that also covers SIGTERM and crashes) is the single
    point of destruction.
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self.arrays: dict[str, np.ndarray] = {}

    def create(
        self,
        token: str,
        shard: int | None,
        specs: Mapping[str, tuple[tuple, np.dtype]],
    ) -> "_SegmentSet":
        for field, (shape, dtype) in specs.items():
            nbytes = max(1, int(np.prod(shape)) * dtype.itemsize)
            shm = shared_memory.SharedMemory(
                name=_segment_name(token, shard, field),
                create=True,
                size=nbytes,
            )
            self._segments.append(shm)
            self.arrays[field] = np.ndarray(
                shape, dtype=dtype, buffer=shm.buf
            )
        return self

    def attach(
        self,
        token: str,
        shard: int | None,
        specs: Mapping[str, tuple[tuple, np.dtype]],
    ) -> "_SegmentSet":
        for field, (shape, dtype) in specs.items():
            shm = shared_memory.SharedMemory(
                name=_segment_name(token, shard, field)
            )
            self._segments.append(shm)
            self.arrays[field] = np.ndarray(
                shape, dtype=dtype, buffer=shm.buf
            )
        return self

    def close(self) -> None:
        """Drop this process's mappings (segments stay alive)."""
        self.arrays.clear()
        for shm in self._segments:
            try:
                shm.close()
            except Exception:  # pragma: no cover - already closed
                pass

    def unlink(self) -> None:
        """Destroy the segments (parent only; idempotent)."""
        self.arrays.clear()
        for shm in self._segments:
            try:
                shm.close()
            except Exception:  # pragma: no cover - already closed
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        self._segments.clear()


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class _WorkerConfig:
    """Everything a spawn-started worker needs, picklable."""

    token: str
    shard: int
    shards: int
    n_agents: int
    n_features: int
    n_fires: int
    profiles: tuple
    schema: object
    spec: FrameworkSpec
    attacker_specs: Mapping[str, Mapping]
    server: tuple[float, float, float] | None
    hash_rates: Mapping[str, float]
    patiences: Mapping[str, float]
    tick: float | None
    links: Mapping[str, str]
    links_seed: int
    seed: int
    epoch: float
    until: float | None
    pow_enabled: bool
    feedback: bool
    decision_log: bool
    barrier_timeout: float


def build_shard_simulation(config: "_WorkerConfig | ParallelSimulation", seed: int):
    """One shard's :class:`FastSimulation`, built from the picklable recipe.

    Shared by the workers and by the parity tests' single-process
    reference runs — both sides construct the engine through this one
    function, so "same recipe" is true by construction.
    """
    from repro.attacks import make_attacker
    from repro.net.sim.fastsim import FastSimulation
    from repro.net.sim.links import LinkSet
    from repro.obs.registry import PhaseTimer

    links = (
        LinkSet(config.links, seed=config.links_seed)
        if config.links
        else None
    )
    return FastSimulation(
        config.spec.build(),
        server_model=(
            ServerModel(*config.server)
            if config.server is not None
            else None
        ),
        seed=seed,
        pow_enabled=config.pow_enabled,
        solve_deciders={
            name: make_attacker(spec)
            for name, spec in config.attacker_specs.items()
        },
        hash_rates=dict(config.hash_rates),
        patiences=dict(config.patiences),
        tick=config.tick,
        links=links,
        phase_timer=PhaseTimer(),
        decision_log=config.decision_log,
    )


def _worker_main(config: _WorkerConfig, barrier, results) -> None:
    """Run one shard to completion inside a spawned process."""
    profiler = None
    profile_dir = os.environ.get(PROFILE_DIR_ENV)
    if profile_dir:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    crash_shard = os.environ.get(TEST_CRASH_ENV)
    segments = _SegmentSet()
    try:
        from repro.net.sim.fastsim import FastFeedback
        from repro.obs.registry import MetricsRegistry
        from repro.policies.adaptive import LoadAdaptivePolicy

        specs = dict(
            _input_specs(
                config.n_agents, config.n_features, config.n_fires
            )
        )
        specs.update(_outcome_specs(config.n_fires))
        segments.attach(config.token, config.shard, specs)
        control = _SegmentSet().attach(
            config.token, None, _control_specs(config.shards)
        )
        arrays = segments.arrays
        loads = control.arrays["loads"]
        flags = control.arrays["done"]

        population = AgentPopulation(
            profiles=config.profiles,
            profile_id=arrays["profile_id"],
            intensity=arrays["intensity"],
            features=arrays["features"],
            ip_index=arrays["ip_index"],
            schema=config.schema,
        )
        simulation = build_shard_simulation(config, seed=config.seed)
        feedback = (
            FastFeedback(config.n_agents) if config.feedback else None
        )
        simulation.start_fires(
            population,
            arrays["fire_times"],
            arrays["fire_agents"],
            until=config.until,
            feedback=feedback,
        )
        policy = simulation.framework.policy
        adaptive = policy if isinstance(policy, LoadAdaptivePolicy) else None

        if crash_shard is not None and int(crash_shard) == config.shard:
            # Mid-epoch hard kill: peers block at the barrier, the
            # parent detects the exit code and cleans up.
            os.kill(os.getpid(), signal.SIGKILL)

        bound = config.epoch
        more = True
        while True:
            if more:
                more = simulation.step(bound)
            if adaptive is not None:
                loads[config.shard] = adaptive.load
            flags[config.shard] = 0 if more else 1
            # Barrier 1: every shard has published load + done flag.
            barrier.wait(timeout=config.barrier_timeout)
            all_done = bool(np.all(flags != 0))
            if adaptive is not None and not all_done:
                # Fixed fold order (0..N-1, self excluded) keeps the
                # EWMA deterministic for a given shard count.
                for other in range(config.shards):
                    if other != config.shard:
                        adaptive.observe_load(float(loads[other]))
            # Barrier 2: everyone has *read* the epoch's values; only
            # now may the next epoch overwrite them.
            barrier.wait(timeout=config.barrier_timeout)
            if all_done:
                break
            bound += config.epoch

        report = simulation.finish()
        rows = simulation._buffers.export_rows(
            list(population.profile_names)
        )
        count = int(rows[0].size)
        arrays["out_count"][0] = count
        for field, column in zip(
            (
                "out_cid",
                "out_code",
                "out_latency",
                "out_score",
                "out_difficulty",
                "out_attempts",
            ),
            rows,
        ):
            arrays[field][:count] = column

        registry = MetricsRegistry()
        simulation.phase_timer.publish(registry)
        if report.link_stats is not None:
            report.link_stats.publish(registry)
        results.put(
            (
                config.shard,
                None,
                {
                    "requests": report.requests,
                    "events_processed": report.events_processed,
                    "duration": report.duration,
                    "arrival_batches": simulation.arrival_batches,
                    "largest_arrival_batch": simulation.largest_arrival_batch,
                    "link_stats": report.link_stats,
                    "snapshot": registry.snapshot(),
                    "decisions": simulation.decisions,
                    "offsets": (
                        feedback.offset.copy()
                        if feedback is not None
                        else None
                    ),
                },
            )
        )
        control.close()
    except BaseException:
        try:
            results.put((config.shard, traceback.format_exc(), None))
        except Exception:  # pragma: no cover - queue already broken
            pass
        raise SystemExit(1)
    finally:
        segments.close()
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(
                os.path.join(
                    profile_dir, f"parsim-worker-{config.shard}.pstats"
                )
            )


def _control_specs(shards: int) -> dict[str, tuple[tuple, np.dtype]]:
    return {
        "loads": ((shards,), np.dtype(np.float64)),
        "done": ((shards,), np.dtype(np.int64)),
    }


# ----------------------------------------------------------------------
# Parent driver
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ParallelReport:
    """A parallel run's merged result.

    ``report`` quacks like a single-process
    :class:`~repro.net.sim.simulation.SimulationReport`: global counts,
    extremes and outcome tallies are exact; means are fold-order
    dependent (see the module parity envelope).
    """

    report: SimulationReport
    procs: int
    epoch: float
    shard_members: tuple[np.ndarray, ...]
    shard_requests: tuple[int, ...]
    arrival_batches: int
    largest_arrival_batch: int
    metrics_snapshot: dict
    decisions: tuple[list, ...] | None
    feedback_offsets: np.ndarray | None

    def phase_summary(self) -> dict[str, dict]:
        """Merged per-phase totals across every worker."""
        return phase_summary_from_snapshot(self.metrics_snapshot)


class _Terminated(BaseException):
    """SIGTERM re-raised as an exception so ``finally`` cleanup runs."""


class ParallelSimulation:
    """Hash-sharded multi-process driver over ``FastSimulation``.

    Construction takes the same picklable *recipe* the gateway cluster
    ships to its workers — a :class:`~repro.core.spec.FrameworkSpec`
    plus attacker specs and scalar knobs — because live frameworks
    cannot cross a spawn boundary.  See the module docstring for the
    execution model and parity envelope.

    Parameters mirror :class:`FastSimulation` where they overlap;
    the additions are ``procs`` (worker count = shard count),
    ``epoch`` (simulated seconds per lock-step window),
    ``attacker_specs`` (JSON-style ``make_attacker`` specs per
    profile), ``links``/``links_seed`` (each worker builds its own
    :class:`~repro.net.sim.links.LinkSet`), ``feedback`` (thread a
    per-shard :class:`FastFeedback` table; offsets are scattered back
    into one global array), ``decision_log`` (collect per-cohort
    decision streams for parity assertions) and ``barrier_timeout``
    (hang backstop for the epoch barrier, seconds).
    """

    def __init__(
        self,
        spec: FrameworkSpec,
        *,
        procs: int,
        epoch: float = 0.25,
        seed: int = 1234,
        server: tuple[float, float, float] | None = None,
        attacker_specs: Mapping[str, Mapping] | None = None,
        hash_rates: Mapping[str, float] | None = None,
        patiences: Mapping[str, float] | None = None,
        tick: float | None = None,
        links: Mapping[str, str] | None = None,
        links_seed: int = 0,
        pow_enabled: bool = True,
        feedback: bool = False,
        decision_log: bool = False,
        barrier_timeout: float = 600.0,
    ) -> None:
        if procs < 1:
            raise ValueError(f"procs must be >= 1, got {procs}")
        if epoch <= 0:
            raise ValueError(f"epoch must be > 0, got {epoch}")
        if barrier_timeout <= 0:
            raise ValueError(
                f"barrier_timeout must be > 0, got {barrier_timeout}"
            )
        if spec.feedback:
            raise ValueError(
                "spec.feedback builds a stateful scoring wrapper, which "
                "the vectorized engine rejects; model behavioural "
                "feedback with feedback=True (the FastFeedback table) "
                "instead"
            )
        self.spec = spec
        self.procs = procs
        self.epoch = epoch
        self.seed = seed
        self.server = server
        self.attacker_specs = dict(attacker_specs or {})
        self.hash_rates = dict(hash_rates or {})
        self.patiences = dict(patiences or {})
        self.tick = tick
        self.links = dict(links or {})
        self.links_seed = links_seed
        self.pow_enabled = pow_enabled
        self.feedback = feedback
        self.decision_log = decision_log
        self.barrier_timeout = barrier_timeout

    # ------------------------------------------------------------------
    def run_fires(
        self,
        population: AgentPopulation,
        fire_times: np.ndarray,
        fire_agents: np.ndarray,
        until: float | None = None,
    ) -> ParallelReport:
        """Partition, fan out, lock-step, merge — the parallel hot path."""
        fire_times = np.asarray(fire_times, dtype=np.float64)
        fire_agents = np.asarray(fire_agents, dtype=np.int64)
        members = partition_population(population, self.procs)
        token = uuid.uuid4().hex[:12]
        assign = shard_of_agents(population.packed_ips(), self.procs)
        fire_shard = assign[fire_agents]

        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        created: list[_SegmentSet] = []
        workers: list = []
        old_handler = None
        handler_installed = False

        def _on_sigterm(signum, frame):
            raise _Terminated()

        try:
            try:
                old_handler = signal.signal(signal.SIGTERM, _on_sigterm)
                handler_installed = True
            except ValueError:
                # Not the main thread; the caller owns signal handling.
                pass

            control = _SegmentSet().create(
                token, None, _control_specs(self.procs)
            )
            created.append(control)
            control.arrays["loads"][:] = 0.0
            control.arrays["done"][:] = 0

            configs = []
            for shard in range(self.procs):
                shard_agents = members[shard]
                mask = fire_shard == shard
                shard_times = fire_times[mask]
                # Fires address agents shard-locally (positions in the
                # sub-population); members is ascending, so searchsorted
                # is an exact inverse of the gather.
                shard_fires = np.searchsorted(
                    shard_agents, fire_agents[mask]
                )
                sub = population.subset(shard_agents)
                specs = dict(
                    _input_specs(
                        len(sub),
                        population.features.shape[1],
                        int(shard_times.size),
                    )
                )
                specs.update(_outcome_specs(int(shard_times.size)))
                segments = _SegmentSet().create(token, shard, specs)
                created.append(segments)
                arrays = segments.arrays
                arrays["features"][:] = sub.features
                arrays["intensity"][:] = sub.intensity
                arrays["profile_id"][:] = sub.profile_id
                arrays["ip_index"][:] = sub.ip_index
                arrays["fire_times"][:] = shard_times
                arrays["fire_agents"][:] = shard_fires
                arrays["out_count"][0] = 0
                configs.append(
                    _WorkerConfig(
                        token=token,
                        shard=shard,
                        shards=self.procs,
                        n_agents=len(sub),
                        n_features=population.features.shape[1],
                        n_fires=int(shard_times.size),
                        profiles=population.profiles,
                        schema=population.schema,
                        spec=self.spec,
                        attacker_specs=self.attacker_specs,
                        server=self.server,
                        hash_rates=self.hash_rates,
                        patiences=self.patiences,
                        tick=self.tick,
                        links=self.links,
                        links_seed=self.links_seed,
                        seed=shard_seed(self.seed, shard),
                        epoch=self.epoch,
                        until=until,
                        pow_enabled=self.pow_enabled,
                        feedback=self.feedback,
                        decision_log=self.decision_log,
                        barrier_timeout=self.barrier_timeout,
                    )
                )

            barrier = ctx.Barrier(self.procs)
            results_queue = ctx.Queue()
            for config in configs:
                worker = ctx.Process(
                    target=_worker_main,
                    args=(config, barrier, results_queue),
                    daemon=True,
                )
                worker.start()
                workers.append(worker)

            payloads, errors = self._collect(workers, results_queue)
            if not errors:
                # Every shard reported; let workers retire on their own
                # so post-report work (profile dumps) completes before
                # the finally-block terminates stragglers.
                for worker in workers:
                    worker.join(timeout=30.0)
            if errors:
                detail = "\n".join(
                    f"--- shard {shard} ---\n{text}"
                    for shard, text in sorted(errors.items())
                )
                raise RuntimeError(
                    f"{len(errors)} of {self.procs} parsim workers "
                    f"failed:\n{detail}"
                )

            return self._merge(
                population, members, created, configs, payloads
            )
        finally:
            for worker in workers:
                if worker.is_alive():
                    worker.terminate()
            for worker in workers:
                worker.join(timeout=10.0)
            for segments in created:
                segments.unlink()
            if handler_installed:
                signal.signal(signal.SIGTERM, old_handler)

    # ------------------------------------------------------------------
    def _collect(self, workers, results_queue):
        """Drain worker results, watching exit codes for crashes."""
        payloads: dict[int, dict] = {}
        errors: dict[int, str] = {}
        pending = set(range(self.procs))
        while pending:
            try:
                shard, error, payload = results_queue.get(timeout=0.25)
            except Empty:
                pass
            else:
                pending.discard(shard)
                if error is not None:
                    errors[shard] = error
                else:
                    payloads[shard] = payload
                continue
            crashed = [
                shard
                for shard, worker in enumerate(workers)
                if worker.exitcode not in (None, 0)
                and shard in pending
                and shard not in errors
            ]
            if crashed:
                # Give already-queued error reports a moment to land,
                # then mark the rest as hard crashes.
                deadline = time.monotonic() + 2.0
                while pending and time.monotonic() < deadline:
                    try:
                        shard, error, payload = results_queue.get(
                            timeout=0.1
                        )
                    except Empty:
                        continue
                    pending.discard(shard)
                    if error is not None:
                        errors[shard] = error
                    else:
                        payloads[shard] = payload
                for shard in list(pending):
                    worker = workers[shard]
                    if worker.exitcode not in (None, 0):
                        errors[shard] = (
                            "worker died without a report (exit code "
                            f"{worker.exitcode})"
                        )
                        pending.discard(shard)
                if errors:
                    # Peers may be blocked at the epoch barrier waiting
                    # for the dead shard; nothing further is coming.
                    for shard in list(pending):
                        errors[shard] = (
                            "aborted: a sibling shard failed first"
                        )
                        pending.discard(shard)
        return payloads, errors

    def _merge(self, population, members, created, configs, payloads):
        """Fold shard outcomes/telemetry into one global report."""
        from repro.net.sim.fastsim import (
            _OutcomeBuffers,
            collector_from_buffers,
        )
        from repro.net.sim.links import LinkStats
        from repro.obs.registry import merge_snapshots

        class_names = list(population.profile_names)
        buffers = _OutcomeBuffers()
        link_stats = None
        offsets = (
            np.zeros(len(population)) if self.feedback else None
        )
        duration = 0.0
        events = 0
        requests = []
        arrival_batches = 0
        largest_batch = 0
        decisions: list = []
        # created[0] is the control block; shard blocks follow in order.
        for shard in range(self.procs):
            payload = payloads[shard]
            arrays = created[shard + 1].arrays
            count = int(arrays["out_count"][0])
            buffers.record(
                class_names,
                arrays["out_cid"][:count].copy(),
                arrays["out_code"][:count].copy(),
                arrays["out_latency"][:count].copy(),
                arrays["out_score"][:count].copy(),
                arrays["out_difficulty"][:count].copy(),
                arrays["out_attempts"][:count].copy(),
            )
            requests.append(int(payload["requests"]))
            events += int(payload["events_processed"])
            duration = max(duration, float(payload["duration"]))
            arrival_batches += int(payload["arrival_batches"])
            largest_batch = max(
                largest_batch, int(payload["largest_arrival_batch"])
            )
            if payload["link_stats"] is not None:
                if link_stats is None:
                    link_stats = LinkStats()
                for field in dataclasses.fields(LinkStats):
                    setattr(
                        link_stats,
                        field.name,
                        getattr(link_stats, field.name)
                        + getattr(payload["link_stats"], field.name),
                    )
            if offsets is not None and payload["offsets"] is not None:
                offsets[members[shard]] = payload["offsets"]
            decisions.append(payload["decisions"])

        report = SimulationReport(
            metrics=collector_from_buffers(buffers),
            duration=duration,
            requests=int(sum(requests)),
            events_processed=events,
            link_stats=link_stats,
        )
        return ParallelReport(
            report=report,
            procs=self.procs,
            epoch=self.epoch,
            shard_members=tuple(members),
            shard_requests=tuple(requests),
            arrival_batches=arrival_batches,
            largest_arrival_batch=largest_batch,
            metrics_snapshot=merge_snapshots(
                [payloads[s]["snapshot"] for s in range(self.procs)]
            ),
            decisions=(
                tuple(decisions) if self.decision_log else None
            ),
            feedback_offsets=offsets,
        )
