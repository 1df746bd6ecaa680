"""Process-parallel driver: partitioning, parity, shm lifecycle.

Three claims gate the parallel fastsim (DESIGN.md §1.8):

* **Partitioning** is the packed-IP hash — deterministic, exhaustive,
  order-preserving per shard.
* **Parity** — each shard's decision stream is bit-identical to a
  single-process ``FastSimulation`` over the same sub-population with
  the same per-shard seed, and the merged report's decision aggregates
  match counts/extremes exactly (means to accumulation noise).
* **Lifecycle** — no ``/dev/shm`` segment survives a normal run, a
  SIGTERM mid-run, or a worker hard-kill.

The speedup floor lives in ``benchmarks/test_bench_parsim.py``; this
file runs multi-process but is sized for correctness, not throughput.
"""

from __future__ import annotations

import glob
import math
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.core.spec import FrameworkSpec
from repro.net.sim.agents import AgentPopulation
from repro.net.sim.parsim import (
    ParallelSimulation,
    build_shard_simulation,
    partition_population,
    shard_of_agents,
    shard_seed,
)
from repro.traffic.profiles import BENIGN_PROFILE, MALICIOUS_PROFILE

SPEC = FrameworkSpec(
    policy="policy-2", corpus_size=300, corpus_seed=7, feedback=False
)
SEED = 424242


def _shm_leftovers() -> list[str]:
    return glob.glob("/dev/shm/repro-parsim-*")


def _workload(n_benign=400, n_bots=100, fires=1200, duration=3.0):
    population = AgentPopulation.make(
        [(BENIGN_PROFILE, n_benign), (MALICIOUS_PROFILE, n_bots)],
        seed=11,
    )
    rng = np.random.default_rng(3)
    fire_agents = rng.integers(0, len(population), fires).astype(np.int64)
    fire_times = np.sort(rng.uniform(0.0, duration, fires))
    return population, fire_times, fire_agents


def _driver(**overrides) -> ParallelSimulation:
    kwargs = dict(
        procs=2,
        epoch=0.5,
        seed=SEED,
        tick=0.01,
        server=(1e-4, 5e-5, 5e-4),
        attacker_specs={MALICIOUS_PROFILE.name: {"kind": "flood"}},
        decision_log=True,
    )
    kwargs.update(overrides)
    return ParallelSimulation(SPEC, **kwargs)


@pytest.fixture(scope="module")
def parallel_run():
    """One shared 2-worker run (spawning workers costs seconds)."""
    population, fire_times, fire_agents = _workload()
    outcome = _driver().run_fires(population, fire_times, fire_agents)
    return population, fire_times, fire_agents, outcome


class TestPartitioning:
    def test_partition_is_exhaustive_and_disjoint(self):
        population, _, _ = _workload(fires=1)
        members = partition_population(population, 3)
        merged = np.sort(np.concatenate(members))
        assert np.array_equal(merged, np.arange(len(population)))
        for block in members:
            assert np.all(np.diff(block) > 0)  # ascending, no dupes

    def test_assignment_keyed_by_address_not_position(self):
        population, _, _ = _workload(fires=1)
        assign = shard_of_agents(population.packed_ips(), 4)
        subset = population.subset(np.arange(0, len(population), 2))
        again = shard_of_agents(subset.packed_ips(), 4)
        # Agents keep their shard wherever they sit in the arrays —
        # the property that makes sub-population runs comparable.
        assert np.array_equal(again, assign[::2])

    def test_shard_seeds_are_decorrelated(self):
        seeds = {shard_seed(SEED, s) for s in range(8)}
        assert len(seeds) == 8
        assert shard_seed(SEED, 0) != SEED

    def test_validation(self):
        with pytest.raises(ValueError, match="procs"):
            _driver(procs=0)
        with pytest.raises(ValueError, match="epoch"):
            _driver(epoch=0.0)
        with pytest.raises(ValueError, match="feedback"):
            ParallelSimulation(
                FrameworkSpec(feedback=True), procs=2
            )


class TestParity:
    def test_per_shard_decision_streams_bit_identical(self, parallel_run):
        population, fire_times, fire_agents, outcome = parallel_run
        driver = _driver()
        members = partition_population(population, 2)
        assign = shard_of_agents(population.packed_ips(), 2)
        fire_shard = assign[fire_agents]
        for shard in range(2):
            mask = fire_shard == shard
            sub = population.subset(members[shard])
            local = np.searchsorted(members[shard], fire_agents[mask])
            reference = build_shard_simulation(
                driver, seed=shard_seed(SEED, shard)
            )
            report = reference.run_fires(sub, fire_times[mask], local)
            assert outcome.shard_requests[shard] == report.requests
            got = outcome.decisions[shard]
            want = reference.decisions
            assert len(got) == len(want)
            for mine, theirs in zip(got, want):
                assert mine[0] == theirs[0]  # cohort time
                for j in range(1, 4):  # agent idx, scores, difficulties
                    assert np.array_equal(mine[j], theirs[j])

    def test_global_aggregates_match_single_process_run(
        self, parallel_run
    ):
        population, fire_times, fire_agents, outcome = parallel_run
        single = build_shard_simulation(_driver(), seed=SEED)
        report = single.run_fires(population, fire_times, fire_agents)
        merged = outcome.report
        assert merged.requests == report.requests
        mine, theirs = (
            merged.metrics.overall,
            report.metrics.overall,
        )
        # Decisions are timing-independent under the deterministic
        # policy: counts and extremes exact, means to fold-order noise.
        assert mine.total == theirs.total
        assert mine.difficulties.min == theirs.difficulties.min
        assert mine.difficulties.max == theirs.difficulties.max
        assert math.isclose(
            mine.difficulties.mean,
            theirs.difficulties.mean,
            rel_tol=1e-9,
        )
        assert math.isclose(
            mine.scores.mean, theirs.scores.mean, rel_tol=1e-9
        )

    def test_merged_telemetry_covers_every_worker(self, parallel_run):
        _, _, _, outcome = parallel_run
        phases = outcome.phase_summary()
        assert "arrive" in phases
        assert phases["arrive"]["cohorts"] >= outcome.procs
        assert outcome.arrival_batches == phases["arrive"]["cohorts"]
        assert sum(outcome.shard_requests) == outcome.report.requests

    def test_feedback_offsets_scatter_back_per_shard(self):
        population, fire_times, fire_agents = _workload(fires=600)
        driver = _driver(feedback=True, decision_log=False)
        outcome = driver.run_fires(population, fire_times, fire_agents)
        assert outcome.feedback_offsets is not None
        assert outcome.feedback_offsets.shape == (len(population),)

        from repro.net.sim.fastsim import FastFeedback

        members = partition_population(population, 2)
        assign = shard_of_agents(population.packed_ips(), 2)
        fire_shard = assign[fire_agents]
        expected = np.zeros(len(population))
        for shard in range(2):
            mask = fire_shard == shard
            sub = population.subset(members[shard])
            local = np.searchsorted(members[shard], fire_agents[mask])
            reference = build_shard_simulation(
                driver, seed=shard_seed(SEED, shard)
            )
            feedback = FastFeedback(len(sub))
            reference.run_fires(
                sub, fire_times[mask], local, feedback=feedback
            )
            expected[members[shard]] = feedback.offset
        assert np.array_equal(outcome.feedback_offsets, expected)


class TestLifecycle:
    def test_normal_run_leaves_no_segments(self, parallel_run):
        assert _shm_leftovers() == []

    def test_worker_crash_raises_and_cleans_up(self, monkeypatch):
        population, fire_times, fire_agents = _workload(fires=300)
        monkeypatch.setenv("REPRO_PARSIM_TEST_CRASH", "1")
        with pytest.raises(RuntimeError, match="parsim workers failed"):
            _driver().run_fires(population, fire_times, fire_agents)
        assert _shm_leftovers() == []

    def test_sigterm_mid_run_cleans_up(self, tmp_path):
        # A real OS-level SIGTERM needs its own interpreter: the
        # driver's handler must convert it into the cleanup path.
        script = tmp_path / "sigterm_target.py"
        script.write_text(
            textwrap.dedent(
                """
                import numpy as np
                from repro.core.spec import FrameworkSpec
                from repro.net.sim.agents import AgentPopulation
                from repro.net.sim.parsim import ParallelSimulation
                from repro.traffic.profiles import BENIGN_PROFILE

                def main():
                    population = AgentPopulation.make(
                        [(BENIGN_PROFILE, 40_000)], seed=5
                    )
                    rng = np.random.default_rng(6)
                    fires = 120_000
                    agents = rng.integers(
                        0, len(population), fires
                    ).astype(np.int64)
                    times = np.sort(rng.uniform(0.0, 20.0, fires))
                    spec = FrameworkSpec(
                        policy="policy-2", corpus_size=300,
                        corpus_seed=7, feedback=False,
                    )
                    driver = ParallelSimulation(
                        spec, procs=2, epoch=0.05, seed=1, tick=0.005
                    )
                    driver.run_fires(population, times, agents)
                    print("COMPLETED-WITHOUT-SIGNAL")

                if __name__ == "__main__":
                    main()
                """
            )
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), *sys.path) if p
        )
        process = subprocess.Popen(
            [sys.executable, str(script)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            # Segments appearing proves the run is in flight.
            deadline = time.monotonic() + 60.0
            while not _shm_leftovers():
                if process.poll() is not None or (
                    time.monotonic() > deadline
                ):
                    pytest.fail(
                        "run never created segments: "
                        + str(process.communicate())
                    )
                time.sleep(0.02)
            time.sleep(0.2)
            process.send_signal(signal.SIGTERM)
            stdout, _ = process.communicate(timeout=120)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode != 0
        assert "COMPLETED-WITHOUT-SIGNAL" not in stdout
        # The dying parent's finally-block must have unlinked its run's
        # segments (poll briefly: unlink races process teardown).
        deadline = time.monotonic() + 10.0
        while _shm_leftovers() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _shm_leftovers() == []

    def test_profile_hook_dumps_per_worker_pstats(
        self, tmp_path, monkeypatch
    ):
        import pstats

        population, fire_times, fire_agents = _workload(fires=300)
        monkeypatch.setenv("REPRO_PARSIM_PROFILE_DIR", str(tmp_path))
        _driver(decision_log=False).run_fires(
            population, fire_times, fire_agents
        )
        dumps = sorted(tmp_path.glob("parsim-worker-*.pstats"))
        assert [d.name for d in dumps] == [
            "parsim-worker-0.pstats",
            "parsim-worker-1.pstats",
        ]
        merged = pstats.Stats(str(dumps[0]))
        merged.add(str(dumps[1]))  # `repro profile`'s aggregation step
        assert merged.total_calls > 0
        assert _shm_leftovers() == []


class TestCampaignIntegration:
    def test_scale_spec_validates_procs(self):
        from repro.replay.campaign import ScaleSpec

        with pytest.raises(ValueError, match="procs"):
            ScaleSpec(procs=0)

    def test_parallel_campaign_rejects_snapshot_writer(self, monkeypatch):
        """Refused with the other argument checks, before any minting."""
        import dataclasses

        from repro.replay.campaign import CAMPAIGNS, run_campaign

        def minted(*args, **kwargs):
            raise AssertionError("population built before the refusal")

        monkeypatch.setattr(AgentPopulation, "make", minted)
        campaign = CAMPAIGNS["mobile-flash-crowd"]
        campaign = dataclasses.replace(
            campaign,
            scale=dataclasses.replace(campaign.scale, procs=2),
        )
        with pytest.raises(ValueError, match="worker"):
            run_campaign(campaign, snapshot_path="/tmp/nope.jsonl")

    def test_flash_crowd_4m_is_registered_parallel(self):
        from repro.replay.campaign import CAMPAIGNS

        campaign = CAMPAIGNS["flash-crowd-4m"]
        assert campaign.scale.procs == 4
        assert campaign.agents == 4_000_000
