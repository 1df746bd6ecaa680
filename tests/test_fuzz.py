"""Fuzz and adversarial-input tests across trust boundaries.

Anything that crosses the wire — puzzle frames, solution frames,
request lines — is attacker-controlled; these tests assert the parsers
and the gateway fail *closed* (clean error, no crash, no accept).
"""

from __future__ import annotations

import dataclasses
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ProtocolError, PuzzleError
from repro.core.framework import AIPoWFramework
from repro.net.gateway.server import GatewayServer
from repro.net.live.protocol import parse_reply, parse_request, send_line, read_line
from repro.policies.linear import policy_1
from repro.pow.generator import PuzzleGenerator
from repro.pow.puzzle import Puzzle, Solution
from repro.pow.solver import HashSolver
from repro.pow.verifier import PuzzleVerifier
from repro.reputation.ensemble import ConstantModel

printable_junk = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=200,
)


class TestFrameParserFuzz:
    @given(printable_junk)
    def test_puzzle_parser_never_crashes(self, line):
        try:
            puzzle = Puzzle.from_wire(line)
        except (ProtocolError, ValueError):
            return
        # Anything that parses must re-serialise consistently.
        assert Puzzle.from_wire(puzzle.to_wire()) == puzzle

    @given(printable_junk)
    def test_solution_parser_never_crashes(self, line):
        try:
            solution = Solution.from_wire(line)
        except (ProtocolError, ValueError):
            return
        assert Solution.from_wire(solution.to_wire()) == solution

    @given(printable_junk)
    def test_request_parser_never_crashes(self, line):
        try:
            resource, features = parse_request(line)
        except ProtocolError:
            return
        assert resource.startswith("/")
        assert isinstance(features, dict)

    @given(printable_junk)
    def test_reply_parser_never_crashes(self, line):
        try:
            ok, body = parse_reply(line)
        except ProtocolError:
            return
        assert isinstance(ok, bool)


class TestVerifierTamperFuzz:
    """Bit-flip fuzzing: no tampered puzzle may verify."""

    CLIENT = "198.51.100.44"

    @settings(max_examples=40, deadline=None)
    @given(
        field=st.sampled_from(["seed", "timestamp", "difficulty", "tag"]),
        delta=st.integers(1, 255),
    )
    def test_single_field_tampering_rejected(self, field, delta):
        generator = PuzzleGenerator()
        verifier = PuzzleVerifier()
        puzzle = generator.issue(self.CLIENT, 4, now=0.0)
        solution = HashSolver().solve(puzzle, self.CLIENT)

        if field == "seed":
            raw = bytearray(bytes.fromhex(puzzle.seed))
            raw[0] ^= delta
            tampered = dataclasses.replace(puzzle, seed=raw.hex())
        elif field == "timestamp":
            tampered = dataclasses.replace(
                puzzle, timestamp=puzzle.timestamp + delta
            )
        elif field == "difficulty":
            tampered = dataclasses.replace(
                puzzle, difficulty=max(0, puzzle.difficulty - delta % 4 - 1)
            )
        else:
            raw = bytearray(bytes.fromhex(puzzle.tag))
            raw[0] ^= delta
            tampered = dataclasses.replace(puzzle, tag=raw.hex())

        tampered_solution = Solution(
            puzzle_seed=tampered.seed,
            nonce=solution.nonce,
            attempts=solution.attempts,
        )
        with pytest.raises(PuzzleError):
            verifier.verify(tampered, tampered_solution, self.CLIENT, now=0.1)


finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, width=64
)
feature_names = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1,
    max_size=12,
)
identifier_text = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=16,
)


@st.composite
def trace_entries(draw):
    """One random-but-valid v2 trace entry (unique ids added by caller)."""
    from repro.core.records import ClientRequest, DecisionRecord
    from repro.traffic.trace import TraceEntry

    ip = ".".join(
        str(draw(st.integers(1, 254))) for _ in range(4)
    )
    decision = None
    if draw(st.booleans()):
        verdict = draw(st.sampled_from(["admit", "shed", "error"]))
        decision = DecisionRecord(
            request_id="",  # stamped by the caller alongside the request
            client_ip=ip,
            verdict=verdict,
            score=draw(finite_floats),
            difficulty=draw(st.integers(-1, 256)),
            policy_name=draw(identifier_text),
            model_name=draw(identifier_text),
            puzzle_algorithm=draw(
                st.sampled_from(["", "sha256", "blake2b"])
            ),
            puzzle_seed=draw(st.sampled_from(["", "ab" * 16])),
            detail=draw(st.text(max_size=30)),
        )
    request = ClientRequest(
        client_ip=ip,
        resource="/" + draw(identifier_text),
        timestamp=draw(
            st.floats(
                min_value=0.0,
                max_value=1e9,
                allow_nan=False,
                allow_infinity=False,
            )
        ),
        features={
            name: draw(finite_floats)
            for name in draw(
                st.lists(feature_names, max_size=4, unique=True)
            )
        },
    )
    return TraceEntry(
        request=request,
        profile=draw(identifier_text),
        true_score=draw(
            st.floats(
                min_value=0.0,
                max_value=10.0,
                allow_nan=False,
                allow_infinity=False,
            )
        ),
        decision=decision,
    )


class TestTraceRoundTripFuzz:
    """Seeded round-trip fuzzing of the v2 trace format.

    Any trace the writer can produce must survive
    write -> read -> write *byte-identically*, and damaged files must
    fail loudly with the offending line number — silent truncation of
    a golden trace would quietly shrink every regression downstream.
    """

    @settings(max_examples=30, deadline=None)
    @given(
        entries=st.lists(trace_entries(), max_size=8),
        seed=st.one_of(st.none(), st.integers(0, 2**31)),
        config_hash=st.sampled_from(["", "deadbeef"]),
    )
    def test_write_read_write_byte_identical(
        self, tmp_path_factory, entries, seed, config_hash
    ):
        import dataclasses

        from repro.traffic.trace import Trace, TraceHeader

        stamped = []
        for index, entry in enumerate(entries):
            request = dataclasses.replace(
                entry.request, request_id=f"r{index}"
            )
            decision = entry.decision
            if decision is not None:
                decision = dataclasses.replace(
                    decision, request_id=f"r{index}"
                )
            stamped.append(
                dataclasses.replace(
                    entry, request=request, decision=decision
                )
            )
        trace = Trace(
            stamped,
            header=TraceHeader(config_hash=config_hash, seed=seed),
        )
        base = tmp_path_factory.mktemp("fuzz")
        first, second = base / "first.jsonl", base / "second.jsonl"
        trace.dump_jsonl(first)
        loaded = Trace.load_jsonl(first)
        loaded.dump_jsonl(second)
        assert first.read_bytes() == second.read_bytes()
        assert loaded.header == trace.header
        assert len(loaded) == len(trace)

    @settings(max_examples=25, deadline=None)
    @given(
        cut=st.integers(1, 200),
        entry=trace_entries(),
    )
    def test_truncated_final_line_fails_with_line_number(
        self, tmp_path_factory, cut, entry
    ):
        import dataclasses

        from repro.core.errors import TraceFormatError
        from repro.traffic.trace import Trace, TraceHeader

        entry = dataclasses.replace(
            entry,
            request=dataclasses.replace(entry.request, request_id="r0"),
            decision=None,
        )
        path = tmp_path_factory.mktemp("fuzz") / "t.jsonl"
        trace = Trace([entry], header=TraceHeader())
        trace.dump_jsonl(path)
        full = path.read_text(encoding="utf-8").rstrip("\n")
        header_line, entry_line = full.split("\n")
        truncated = entry_line[: max(1, len(entry_line) - cut)]
        if truncated == entry_line:
            return  # nothing was cut; not a truncation case
        try:
            import json

            json.loads(truncated)
            return  # still valid JSON by chance; covered elsewhere
        except json.JSONDecodeError:
            pass
        path.write_text(
            header_line + "\n" + truncated + "\n", encoding="utf-8"
        )
        with pytest.raises(TraceFormatError) as excinfo:
            Trace.load_jsonl(path)
        assert "line 2" in str(excinfo.value)

    @settings(max_examples=25, deadline=None)
    @given(version=st.integers(-5, 100), data=printable_junk)
    def test_unknown_versions_fail_loudly(
        self, tmp_path_factory, version, data
    ):
        import json

        from repro.core.errors import TraceFormatError
        from repro.traffic.trace import TRACE_FORMAT_VERSION, Trace

        if version == TRACE_FORMAT_VERSION:
            return
        path = tmp_path_factory.mktemp("fuzz") / "t.jsonl"
        path.write_text(
            json.dumps({"trace_format": version, "junk": data}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(TraceFormatError) as excinfo:
            Trace.load_jsonl(path)
        message = str(excinfo.value)
        assert "line 1" in message
        assert str(version) in message

    @settings(max_examples=20, deadline=None)
    @given(junk=printable_junk)
    def test_corrupt_middle_line_reports_its_number(
        self, tmp_path_factory, junk
    ):
        import json

        from repro.core.errors import TraceFormatError
        from repro.traffic.trace import Trace, TraceHeader

        try:
            parsed = json.loads(junk)
        except json.JSONDecodeError:
            parsed = None
        if isinstance(parsed, dict) or not junk.strip():
            return  # parses as an entry-shaped object or is skipped-blank
        path = tmp_path_factory.mktemp("fuzz") / "t.jsonl"
        path.write_text(
            TraceHeader().to_json() + "\n" + junk + "\n",
            encoding="utf-8",
        )
        with pytest.raises(TraceFormatError) as excinfo:
            Trace.load_jsonl(path)
        assert "line 2" in str(excinfo.value)


class TestGatewayFuzz:
    @pytest.fixture()
    def server(self):
        framework = AIPoWFramework(ConstantModel(0.0), policy_1())
        with GatewayServer(framework, io_timeout=5.0) as gateway:
            yield gateway

    @pytest.mark.parametrize(
        "payload",
        [
            b"\n",
            b"REQUEST\n",
            b"REQUEST /r\n",
            b"REQUEST /r not-json\n",
            b"\x00\x01\x02\x03\n",
            b"PUZZLE 1 ab 1.0 8 sha256 00\n",
            ("REQUEST /r " + "x" * 1000 + "\n").encode(),
        ],
    )
    def test_malformed_first_frames_fail_closed(self, server, payload):
        host, port = server.address
        with socket.create_connection(
            (host, port), timeout=5
        ) as sock, sock.makefile("rb") as lines:
            sock.sendall(payload)
            try:
                reply = read_line(lines)
            except ProtocolError:
                return  # server closed the connection: acceptable
        assert reply.startswith("ERR")

    def test_garbage_solution_frame_drops_connection(self, server):
        host, port = server.address
        with socket.create_connection(
            (host, port), timeout=5
        ) as sock, sock.makefile("rb") as lines:
            send_line(sock, 'REQUEST /r {}')
            read_line(lines)  # the puzzle
            sock.sendall(b"GARBAGE FRAME\n")
            with pytest.raises(ProtocolError):
                read_line(lines)

    def test_server_survives_abusive_clients(self, server):
        """After a barrage of bad peers, honest clients still work."""
        from repro.net.live.client import LiveClient

        host, port = server.address
        for payload in (b"", b"\n", b"junk\n", b"\xff" * 64 + b"\n"):
            try:
                with socket.create_connection((host, port), timeout=5) as sock:
                    if payload:
                        sock.sendall(payload)
            except OSError:
                pass
        result = LiveClient(server.address).fetch("/after", {})
        assert result.ok
