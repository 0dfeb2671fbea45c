"""The ``repro serve-sim`` command: exit codes, JSON artifact, determinism."""

import json

import pytest

from repro.cli import main

ARGS = ["serve-sim", "--seed", "7", "--events", "80", "--samples", "2"]


class TestServeSimCommand:
    def test_exits_zero_and_prints_summary(self, capsys):
        assert main(ARGS) == 0
        out = capsys.readouterr().out
        assert "serve-sim" in out
        assert "queries" in out

    def test_json_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "serve.json"
        assert main(ARGS + ["--json", str(artifact)]) == 0
        capsys.readouterr()
        payload = json.loads(artifact.read_text(encoding="utf-8"))
        assert payload["events"] == 80
        assert payload["queries_answered"] > 0
        assert isinstance(payload["trace"], list)

    def test_no_trace_shrinks_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "serve.json"
        assert main(ARGS + ["--json", str(artifact), "--no-trace"]) == 0
        capsys.readouterr()
        payload = json.loads(artifact.read_text(encoding="utf-8"))
        assert "trace" not in payload

    def test_same_seed_byte_identical_artifacts(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(ARGS + ["--json", str(first)]) == 0
        assert main(ARGS + ["--json", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_policy_and_admission_flags(self, tmp_path, capsys):
        artifact = tmp_path / "serve.json"
        code = main(
            ARGS
            + [
                "--policy",
                "deadline:128",
                "--max-queue-depth",
                "2",
                "--overload-action",
                "defer",
                "--json",
                str(artifact),
            ]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads(artifact.read_text(encoding="utf-8"))
        assert payload["policy"] == "deadline"

    def test_listed_in_help(self, capsys):
        try:
            main(["--help"])
        except SystemExit:
            pass
        assert "serve-sim" in capsys.readouterr().out


class TestServeSimUsageErrors:
    """Bad specs exit 2 with a one-line message, before any run starts."""

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--kinds", "bogus"], "unknown sample kind 'bogus'"),
            (["--kinds", "weighted:x"], "integer weight modulus"),
            (["--kinds", "weighted", "--algorithm", "stack"], "kind-capable"),
            (["--policy", "bogus"], "unknown scheduling policy"),
            (["--slo", "bogus"], "bad SLO spec"),
        ],
    )
    def test_bad_spec_is_a_usage_error(self, flags, message, capsys):
        assert main(ARGS + flags) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("serve-sim: ")
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
