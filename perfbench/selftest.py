"""Self-test of the benchmark at tiny scale.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For each workload it runs ``run.py --scale tiny`` once untraced and twice
traced with the same seed, and checks that:

* each run exits 0 and ends with a result object of exactly the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics``;
* the output checks pass and no operation failed;
* the untraced run emits exactly the ``end_to_end`` metrics of
  BENCHMARK.json, each non-zero and with its unit, and the traced run
  exactly the ``per_layer`` metrics with their units;
* the two traced runs report identical deterministic counts.

It also checks that run.py exits non-zero without a result in a directory
that holds only BENCHMARK.json and perfbench/.  Exit status 0 means every
check passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1

#: Per-layer metrics that are host times, and so differ between runs.
HOST_TIMED_PREFIXES = (
    "query_ms.", "ingest_ms.", "core.refresh.", "serve.refresh_ms.", "trace.", "host."
)


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", "1",
            "--trace", str(trace),
            "--scale", "tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(label: str, proc: subprocess.CompletedProcess, errors: list[str]) -> dict:
    if proc.returncode != 0:
        errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}")
        return {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys are {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        errors.append(f"{label}: output check failed: {proc.stderr[-2000:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted is {result.get('attempted')!r}")
    return result


def check_metrics(label: str, result: dict, declared: list[dict], errors: list[str]) -> None:
    metrics = result.get("metrics", {})
    expected = {entry["name"]: entry["unit"] for entry in declared}
    if set(metrics) != set(expected):
        errors.append(
            f"{label}: missing {sorted(set(expected) - set(metrics))}, "
            f"unexpected {sorted(set(metrics) - set(expected))}"
        )
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is not None and entry.get("unit") != unit:
            errors.append(f"{label}: {name} has unit {entry.get('unit')!r}, not {unit!r}")


def deterministic_counts(result: dict) -> dict:
    return {
        name: entry["value"]
        for name, entry in result.get("metrics", {}).items()
        if not (name.endswith(".self_s") or name.startswith(HOST_TIMED_PREFIXES))
    }


def check_bare_directory(workload: str, errors: list[str]) -> None:
    """run.py must refuse to run without the program beside it."""
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
        )
        proc = run(workload, 0, cwd=Path(bare))
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors: list[str] = []
    for workload in [entry["name"] for entry in spec["workloads"]]:
        untraced = result_of(f"{workload} trace=0", run(workload, 0), errors)
        check_metrics(f"{workload} trace=0", untraced, spec["end_to_end"], errors)
        for name, entry in untraced.get("metrics", {}).items():
            if entry["value"] == 0:
                errors.append(f"{workload} trace=0: {name} is 0")
        traced = [
            result_of(f"{workload} trace=1 #{n}", run(workload, 1), errors)
            for n in (1, 2)
        ]
        for n, result in enumerate(traced, start=1):
            check_metrics(f"{workload} trace=1 #{n}", result, spec["per_layer"], errors)
        counts = [deterministic_counts(result) for result in traced]
        differing = sorted(
            name for name in counts[0] if counts[0][name] != counts[1].get(name)
        )
        if differing:
            errors.append(f"{workload}: same-seed traced runs differ in {differing}")
        print(f"{workload}: done", file=sys.stderr)
    check_bare_directory(spec["workloads"][0]["name"], errors)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest: ok" if not errors else f"selftest: {len(errors)} failure(s)")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
