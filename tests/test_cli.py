"""Smoke tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure2"],
            ["figure2", "--trials", "5", "--mode", "grind"],
            ["calibrate", "--trials", "50"],
            ["accuracy", "--corpus-size", "1000"],
            ["throttle", "--duration", "5"],
            ["ablations"],
            ["demo", "--score", "3"],
            ["serve", "--port", "0"],
            [
                "serve", "--gateway", "--batch-window", "0.001",
                "--max-batch", "32", "--queue-limit", "128",
                "--shed-policy", "drop-reputation",
            ],
            ["serve", "--workers", "4", "--state-dir", "/tmp/state"],
            ["state", "snapshot", "--state-dir", "d", "--out", "f"],
            [
                "state", "restore", "--snapshot", "f",
                "--state-dir", "d", "--workers", "4",
            ],
            ["state", "show", "somewhere"],
            ["record", "--out", "t.jsonl", "--scenario", "flood-burst"],
            ["record", "--out", "t.jsonl", "--target", "cluster:2"],
            [
                "replay", "--trace", "t.jsonl", "--target", "cluster:4",
                "--speed", "2.0", "--diff", "--diff-report", "d.json",
            ],
            ["replay", "--trace", "t.jsonl", "--live"],
            ["campaign", "--list"],
            ["campaign", "--scenario", "benign-baseline", "--record", "g"],
            ["campaign", "--scenario", "flash-crowd-1m"],
            ["serve", "--gateway", "--record", "t.jsonl"],
            ["profile", "abl-econ"],
            ["profile", "thr-shard", "--top", "5", "--out", "s.prof"],
            ["all"],
        ],
    )
    def test_known_subcommands_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["kernels", "--size", "0"],
            ["kernels", "--repeats", "0"],
            ["profile", "abl-econ", "--top", "0"],
            [
                "state", "restore", "--snapshot", "f",
                "--state-dir", "d", "--workers", "0",
            ],
            [
                "state", "restore", "--snapshot", "f",
                "--state-dir", "d", "--replicas", "0",
            ],
        ],
        ids=[
            "kernels-size", "kernels-repeats", "profile-top",
            "restore-workers", "restore-replicas",
        ],
    )
    def test_counts_reject_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be >= 1, got 0" in capsys.readouterr().err

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_serve_gateway_flag_is_inert_and_hidden(self, capsys):
        parser = build_parser()
        bare = vars(parser.parse_args(["serve"]))
        flagged = vars(parser.parse_args(["serve", "--gateway"]))
        assert bare.pop("gateway") is False
        assert flagged.pop("gateway") is True
        assert bare == flagged
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "--help"])
        assert "--gateway" not in capsys.readouterr().out


class TestServeCommand:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_busy_port_fails_cleanly(self, workers):
        """A port already in use is one printed line and exit 2."""
        import os
        import pathlib
        import socket
        import subprocess
        import sys

        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        with socket.create_server(("127.0.0.1", 0)) as holder:
            port = holder.getsockname()[1]
            # A subprocess: serve installs SIGINT/SIGTERM handlers.
            proc = subprocess.run(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--port", str(port), "--workers", workers,
                ],
                env={**os.environ, "PYTHONPATH": str(src)},
                capture_output=True,
                text=True,
                timeout=120,
            )
        out = proc.stdout + proc.stderr
        assert proc.returncode == 2, out
        assert f"127.0.0.1:{port}" in out
        assert "Address already in use" in out
        assert "Traceback" not in out


def serve_one_exchange(argv: list[str], cwd) -> tuple[int, str]:
    """Run ``repro serve --port 0 ARGV``, solve one exchange, SIGTERM.

    A subprocess, because serve installs SIGINT/SIGTERM handlers.
    Returns the exit code and everything the server printed.
    """
    import os
    import pathlib
    import re
    import signal
    import subprocess
    import sys

    from repro.net.live.client import LiveClient
    from repro.reputation.features import FEATURE_NAMES

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        lines = []
        for line in proc.stdout:
            lines.append(line)
            banner = re.search(r"serving AI-assisted PoW on (\S+):(\d+)", line)
            if banner:
                break
        else:
            return proc.wait(timeout=60), "".join(lines)
        result = LiveClient((banner.group(1), int(banner.group(2)))).fetch(
            "/x", {name: 0.0 for name in FEATURE_NAMES}
        )
        assert result.ok, result
        proc.send_signal(signal.SIGTERM)
        rest, _ = proc.communicate(timeout=60)
        return proc.returncode, "".join(lines) + rest
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


class TestServeOneProcess:
    """``--workers 1`` is shard 0 of 1, assembled like a cluster worker."""

    def test_state_dir_split_with_other_replicas_round_trips(self, tmp_path):
        """A ring of 32 restores under ``--replicas 32`` and stays 32."""
        import json

        from repro.state import InMemoryStateStore, write_shard_file

        state_dir = tmp_path / "state"
        store = InMemoryStateStore()
        store.put("feedback", "10.9.9.9", [-0.5, 0.0])
        write_shard_file(state_dir, 0, 1, store.snapshot(), replicas=32)
        code, out = serve_one_exchange(
            ["--state-dir", str(state_dir), "--replicas", "32"], tmp_path
        )
        assert code == 0, out
        assert f"state written to {state_dir}" in out
        document = json.loads((state_dir / "shard-0-of-1.json").read_text())
        assert document["replicas"] == 32
        feedback = dict(
            (key, value)
            for key, value in document["state"]["namespaces"]["feedback"]
        )
        # The restored entry survived, and the exchange banked its own.
        assert feedback["10.9.9.9"][0] == -0.5
        assert feedback["127.0.0.1"][0] < 0

    def test_state_server_with_global_reputation_shedding(self, tmp_path):
        from repro.state import StateServer

        with StateServer() as state:
            code, out = serve_one_exchange(
                [
                    "--state-server", state.address,
                    "--shed-policy", "drop-global-reputation",
                ],
                tmp_path,
            )
            assert code == 0, out
            assert "drop-global-reputation" in out
            assert "admitted 1 in 1 batches" in out
            # The served exchange banked its reward on the server.
            assert state.store.get("feedback", "127.0.0.1")[0] < 0

    def test_state_server_excludes_state_dir(self, tmp_path, capsys):
        code = main([
            "serve", "--port", "0", "--state-dir", str(tmp_path),
            "--state-server", "127.0.0.1:9",
        ])
        assert code == 2
        assert "exclusive" in capsys.readouterr().out

    def test_global_reputation_shedding_needs_a_store(self, capsys):
        code = main([
            "serve", "--port", "0", "--shed-policy", "drop-global-reputation",
        ])
        assert code == 2
        assert "--state-server" in capsys.readouterr().out


class TestServeAnyWorkers:
    """One worker or N: the same flags, the same files."""

    @pytest.mark.slow
    def test_metrics_snapshots_need_no_metrics_port(self, tmp_path):
        import json

        path = tmp_path / "snapshots.jsonl"
        code, out = serve_one_exchange(
            ["--workers", "2", "--metrics-snapshots", str(path)], tmp_path
        )
        assert code == 0, out
        last = json.loads(path.read_text().splitlines()[-1])
        admitted = next(
            metric["series"][0]["value"]
            for metric in last["snapshot"]["metrics"]
            if metric["name"] == "gateway_admitted_total"
        )
        assert admitted >= 1

    @pytest.mark.slow
    @pytest.mark.parametrize(
        ("workers", "recorder"), [("1", "serve"), ("2", "cluster")]
    )
    def test_record_and_trace_out_leave_the_named_files(
        self, tmp_path, workers, recorder
    ):
        from repro.obs.tracing import load_spans
        from repro.traffic.trace import Trace

        out = tmp_path / "out"
        out.mkdir()
        record, spans = out / "decisions.jsonl", out / "spans.jsonl"
        code, text = serve_one_exchange(
            [
                "--workers", workers, "--record", str(record),
                "--trace-out", str(spans), "--trace-every", "1",
            ],
            tmp_path,
        )
        assert code == 0, text
        assert sorted(p.name for p in out.iterdir()) == [
            "decisions.jsonl", "spans.jsonl"
        ]
        assert len(Trace.load_jsonl(record)) == 1
        assert f"recorded 1 decisions -> {record}" in text
        meta, loaded = load_spans(spans)
        assert meta["recorder"] == recorder
        assert meta["sample_every"] == 1
        assert len(loaded) == 1
        assert f"1 sampled spans -> {spans}" in text


class TestCommands:
    def test_figure2_fast(self, capsys):
        code = main(["figure2", "--trials", "5", "--seed", "3"])
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "policy-2" in out
        # With only 5 trials the shape check may or may not pass; the
        # command still runs to completion either way.
        assert code in (0, 1)

    def test_figure2_default_passes_shape_check(self, capsys):
        code = main(["figure2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "shape check: OK" in out

    def test_calibrate(self, capsys):
        code = main(["calibrate", "--trials", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "31" in out

    def test_accuracy(self, capsys):
        code = main(["accuracy", "--corpus-size", "1500"])
        out = capsys.readouterr().out
        assert code == 0
        assert "dabr" in out

    def test_demo_with_forced_score(self, capsys):
        code = main(["demo", "--score", "2", "--policy", "policy-1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "difficulty 3" in out
        assert "served" in out

    def test_demo_with_dabr(self, capsys):
        code = main(["demo", "--policy", "policy-1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "DAbR" in out

    def test_ablations(self, capsys):
        code = main(["ablations"])
        out = capsys.readouterr().out
        assert code == 0
        assert "break_even_difficulty" in out

    def test_throttle_small(self, capsys):
        code = main(
            ["throttle", "--duration", "5", "--benign", "4", "--bots", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ai-pow" in out

    def test_analyze(self, capsys):
        code = main(["analyze", "--targets", "0.031", "0.1", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "amplification" in out
        assert "synthesized policy" in out

    def test_export_writes_json(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = main(["export", "--out", str(out_dir)])
        assert code == 0
        written = sorted(p.name for p in out_dir.glob("*.json"))
        assert "fig2.json" in written
        assert "acc80.json" in written
        assert "throttle.json" in written
        import json

        data = json.loads((out_dir / "cal31.json").read_text())
        assert data["experiment_id"] == "cal31"


class TestBadInputFiles:
    """A bad input file ends a subcommand with one line and exit 2."""

    @pytest.mark.parametrize(
        ("content", "message"),
        [
            (None, "No such file or directory"),
            ("{not json", "invalid scenario JSON"),
            ('{"duration": 5, "bogus": 1}', "unknown scenario keys"),
        ],
        ids=["missing", "invalid-json", "unknown-key"],
    )
    def test_scenario(self, tmp_path, capsys, content, message):
        path = tmp_path / "scenario.json"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        code = main(["scenario", str(path)])
        out = capsys.readouterr().out
        assert code == 2
        assert out.count("\n") == 1 and message in out

    def test_replay_missing_trace(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        code = main(["replay", "--trace", str(missing)])
        out = capsys.readouterr().out
        assert code == 2
        assert out.count("\n") == 1 and str(missing) in out


class TestReplayCommands:
    def test_campaign_list(self, capsys):
        code = main(["campaign", "--list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "flood-burst" in out
        assert "replay-probe" in out

    def test_campaign_unknown_rejected(self, capsys):
        code = main(["campaign", "--scenario", "nope"])
        out = capsys.readouterr().out
        assert code == 2
        assert "unknown campaign" in out

    def test_campaign_list_tags_large_scale_scenarios(self, capsys):
        code = main(["campaign", "--list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "flash-crowd-1m" in out
        assert "1,000,000 agents" in out

    def test_scale_campaign_record_rejected(self, tmp_path, capsys):
        code = main([
            "campaign", "--scenario", "flash-crowd-1m",
            "--record", str(tmp_path / "t.jsonl"),
        ])
        out = capsys.readouterr().out
        assert code == 2
        assert "large-scale" in out

    def test_record_of_scale_campaign_rejected(self, tmp_path, capsys):
        code = main([
            "record", "--out", str(tmp_path / "t.jsonl"),
            "--scenario", "pulse-botnet-100k",
        ])
        out = capsys.readouterr().out
        assert code == 2
        assert "large-scale" in out

    def test_campaign_trace_out_spans_all_finish(self, tmp_path, capsys):
        """Every sampled span closes on its terminal outcome.

        The simulator settles each outcome on the framework's bus, and
        that ``RESPONSE_SERVED`` is what closes a span in ``respond``;
        a span left open would be drained ``unresolved`` at dump time.
        """
        from repro.obs.tracing import load_spans

        path = tmp_path / "spans.jsonl"
        code = main([
            "campaign", "--scenario", "flood-burst",
            "--trace-out", str(path), "--trace-every", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        meta, spans = load_spans(path)
        assert meta["campaign"] == "flood-burst"
        assert f"{len(spans)} sampled spans" in out
        assert len(spans) >= 40
        assert {span["stages"][-1]["stage"] for span in spans} <= {
            "respond", "shed"
        }
        assert {span["outcome"] for span in spans} <= {
            "served", "denied", "shed"
        }
        # The flood never solves, so both outcomes are represented.
        assert {span["status"] for span in spans} >= {"served", "abandoned"}


class TestProfileCommand:
    def test_profile_prints_hotspots(self, capsys):
        code = main(["profile", "abl-econ", "--top", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "top 5 hotspots by cumulative time" in out
        assert "cumtime" in out
        # The experiment's own output still renders first.
        assert "break_even_difficulty" in out

    def test_profile_unknown_experiment_rejected(self, capsys):
        code = main(["profile", "warp-speed"])
        out = capsys.readouterr().out
        assert code == 2
        assert "unknown experiment" in out

    def test_profile_out_writes_pstats_dump(self, tmp_path, capsys):
        out_file = tmp_path / "stats.prof"
        code = main(["profile", "abl-econ", "--out", str(out_file)])
        assert code == 0
        import pstats

        stats = pstats.Stats(str(out_file))
        assert stats.total_calls > 0

    def test_record_then_replay_diff_identical(self, tmp_path, capsys):
        trace_path = tmp_path / "golden.jsonl"
        code = main(
            ["record", "--out", str(trace_path),
             "--scenario", "benign-baseline"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "recorded" in out
        assert trace_path.exists()

        report_path = tmp_path / "diff.json"
        code = main(
            ["replay", "--trace", str(trace_path), "--diff",
             "--diff-report", str(report_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "IDENTICAL" in out
        import json

        assert json.loads(report_path.read_text())["identical"] is True

    def test_replay_writes_decision_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "golden.jsonl"
        main(["campaign", "--scenario", "benign-baseline",
              "--record", str(trace_path)])
        capsys.readouterr()
        out_path = tmp_path / "replayed.jsonl"
        code = main(
            ["replay", "--trace", str(trace_path), "--target",
             "cluster:2", "--out", str(out_path)]
        )
        capsys.readouterr()
        assert code == 0
        from repro.traffic.trace import Trace

        replayed = Trace.load_jsonl(out_path)
        assert len(replayed.decisions()) == len(
            Trace.load_jsonl(trace_path)
        )

    def test_replay_diverging_config_exits_1(self, tmp_path, capsys):
        """Config-A-vs-config-B through the CLI: divergence is exit 1."""
        trace_path = tmp_path / "golden.jsonl"
        main(["campaign", "--scenario", "botnet-siege",
              "--record", str(trace_path)])
        capsys.readouterr()
        # Rewrite the recorded recipe to a different policy: the replay
        # rebuilds from the header and must now diverge.
        from repro.traffic.trace import Trace, TraceHeader

        trace = Trace.load_jsonl(trace_path)
        meta = dict(trace.header.meta)
        meta["spec"] = dict(meta["spec"], policy="policy-2")
        Trace(
            trace.entries,
            header=TraceHeader(seed=trace.header.seed, meta=meta),
        ).dump_jsonl(trace_path)
        code = main(["replay", "--trace", str(trace_path), "--diff"])
        out = capsys.readouterr().out
        assert code == 1
        assert "DIVERGED" in out

    def test_replay_corrupt_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"trace_format": 9}\n', encoding="utf-8")
        code = main(["replay", "--trace", str(bad)])
        out = capsys.readouterr().out
        assert code == 2
        assert "line 1" in out

    def test_replay_without_decisions_cannot_diff(self, tmp_path, capsys):
        from repro.traffic.trace import Trace, TraceHeader
        from repro.core.records import ClientRequest
        from repro.traffic.trace import TraceEntry

        path = tmp_path / "requests-only.jsonl"
        Trace(
            [
                TraceEntry(
                    request=ClientRequest(
                        client_ip="23.1.1.1",
                        resource="/r",
                        timestamp=0.0,
                        features={},
                        request_id="a",
                    ),
                    profile="benign",
                    true_score=1.0,
                )
            ],
            header=TraceHeader(),
        ).dump_jsonl(path)
        code = main(["replay", "--trace", str(path), "--diff"])
        out = capsys.readouterr().out
        assert code == 2
        assert "no recorded decisions" in out

    def test_live_replay_diff_of_sim_trace_identical(
        self, tmp_path, capsys
    ):
        """Regression: --live --diff used to flag every decision
        because the loopback remapping changed client_ip; live diffs
        now compare by position and ignore the remapped address."""
        trace_path = tmp_path / "golden.jsonl"
        main(["campaign", "--scenario", "benign-baseline",
              "--record", str(trace_path)])
        capsys.readouterr()
        code = main(["replay", "--trace", str(trace_path), "--live",
                     "--diff"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "IDENTICAL" in out

    def test_live_replay_rejects_speed(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        trace_path.write_text("", encoding="utf-8")
        code = main(["replay", "--trace", str(trace_path), "--live",
                     "--speed", "1.0"])
        out = capsys.readouterr().out
        assert code == 2
        assert "--speed" in out

    def test_record_unknown_campaign_exits_2(self, tmp_path, capsys):
        code = main(
            ["record", "--out", str(tmp_path / "t"), "--scenario", "nah"]
        )
        assert code == 2

    def test_record_inproc_target_rejected(self, tmp_path, capsys):
        code = main(
            ["record", "--out", str(tmp_path / "t"),
             "--target", "inproc"]
        )
        assert code == 2


class TestStateCommands:
    def _seed_state_dir(self, state_dir, shards=2):
        from repro.state import (
            InMemoryStateStore,
            split_snapshot,
            write_shard_files,
        )

        store = InMemoryStateStore()
        for i in range(10):
            store.put("feedback", f"10.0.0.{i}", [float(i), 0.0])
        write_shard_files(
            state_dir, split_snapshot(store.snapshot(), shards)
        )

    def test_snapshot_merges_state_dir(self, tmp_path, capsys):
        state_dir = tmp_path / "state"
        self._seed_state_dir(state_dir)
        out = tmp_path / "merged.json"
        code = main([
            "state", "snapshot",
            "--state-dir", str(state_dir), "--out", str(out),
        ])
        assert code == 0
        assert "merged 2 shard(s)" in capsys.readouterr().out

        from repro.state import InMemoryStateStore, load_snapshot

        restored = InMemoryStateStore()
        restored.restore(load_snapshot(out))
        assert len(restored.namespace("feedback")) == 10

    def test_snapshot_of_empty_dir_fails(self, tmp_path, capsys):
        code = main([
            "state", "snapshot",
            "--state-dir", str(tmp_path), "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    def test_restore_resplits_for_new_worker_count(self, tmp_path, capsys):
        state_dir = tmp_path / "state"
        self._seed_state_dir(state_dir, shards=2)
        merged = tmp_path / "merged.json"
        main([
            "state", "snapshot",
            "--state-dir", str(state_dir), "--out", str(merged),
        ])
        resharded = tmp_path / "resharded"
        code = main([
            "state", "restore", "--snapshot", str(merged),
            "--state-dir", str(resharded), "--workers", "4",
        ])
        assert code == 0
        from repro.state import read_shard_files

        parts = read_shard_files(resharded, shards=4)
        total = sum(
            len(part["namespaces"].get("feedback", [])) for part in parts
        )
        assert total == 10

    def test_show_summarises_directory(self, tmp_path, capsys):
        state_dir = tmp_path / "state"
        self._seed_state_dir(state_dir)
        code = main(["state", "show", str(state_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "shard 0" in out
        assert "feedback" in out

    def test_missing_paths_fail_cleanly(self, tmp_path, capsys):
        code = main([
            "state", "restore", "--snapshot", str(tmp_path / "no.json"),
            "--state-dir", str(tmp_path / "d"), "--workers", "2",
        ])
        assert code == 2
        code = main(["state", "show", str(tmp_path / "no.json")])
        assert code == 2
        # Error style: one printed line, no traceback (the command
        # returned instead of raising).
        assert "Traceback" not in capsys.readouterr().out

    def test_show_reads_a_single_shard_file(self, tmp_path, capsys):
        state_dir = tmp_path / "state"
        self._seed_state_dir(state_dir)
        shard_file = next(iter(sorted(state_dir.glob("*.json"))))
        code = main(["state", "show", str(shard_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "shard 0 of 2" in out
        assert "feedback" in out
        assert "(empty)" not in out
