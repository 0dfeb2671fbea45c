"""End-to-end benchmark of the repro package: one workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 20 --trace 0

Replays the workload's seeded rounds for at least ``--seconds`` host
seconds, checks every output, and prints one JSON object as the last line
of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
adds one round under cProfile and reports the per-layer split and the
deterministic counts instead.  A human-readable summary goes to standard
error.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "events_per_s": "1/s",
    "query_ms.p50": "ms",
    "ingest_ms.p50": "ms",
    "insert_elems_per_s": "1/s",
    "refresh_s": "s",
    "sim_latency_ms.p99": "ms",
    "sim_device_s": "s",
    "peak_rss_mb": "MB",
}

COUNT_NAMES = (
    "device.seq_reads",
    "device.seq_writes",
    "device.random_reads",
    "device.random_writes",
    "pool.hits",
    "pool.misses",
    "pool.evictions",
    "serve.queries",
    "serve.ingest_batches",
    "serve.refresh_jobs",
    "serve.forced_refreshes",
    "serve.deferred",
    "serve.shed",
    "serve.rows_scanned",
    "core.candidates",
    "core.displaced",
)

#: The per-layer self-time sum must cover the traced wall time this well.
ACCOUNTED_RANGE = (0.9, 1.02)

#: Every sub-workload is replayed at least this often; host times are the
#: fastest replay of each call.
MIN_ROUNDS = 3
#: Kernel samples taken after each pass.
CALIBRATION_SAMPLES = 6


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("serve_read", "serve_ingest", "maintain")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="input sizes: full (BENCHMARK.json) or tiny (the self-test)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no program to benchmark: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    package_dir = Path(repro.__file__).resolve().parent
    if package_dir != (SRC / "repro").resolve():
        raise SystemExit(f"run.py: imported repro from {package_dir}, not {SRC}")
    return package_dir


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (q in (0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def combined_digest(passes) -> str:
    return hashlib.sha256("".join(p.digest for p in passes).encode("ascii")).hexdigest()


def check_outputs(workload, args, rounds) -> list[str]:
    """Every output check of the run; returns the problems found.

    ``rounds[0]`` holds one pass of every sub-workload; each later round
    replays a prefix of them and must reproduce its digests.
    """
    problems = []
    first = rounds[0]
    for number, round_ in enumerate(rounds[1:], start=1):
        for index, (a, b) in enumerate(zip(first, round_)):
            if a.digest != b.digest:
                problems.append(
                    f"round {number} sub-workload {index}: digest differs from round 0"
                )
    for round_ in rounds:
        problems.extend(p.problem for p in round_ if p.problem)
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    pinned = pins.get(args.scale, {}).get(workload, {}).get(str(args.seed))
    if pinned is not None and pinned != combined_digest(first):
        problems.append(f"digest differs from the one pinned for seed {args.seed}")
    return problems


def fastest(replays, attribute: str) -> list[float]:
    """Each timed call's fastest replay, over every replayed sub-workload.

    Every round replays the same calls, so call ``i`` of a sub-workload
    does the same work in every round; the slower replays measure the
    machine's other tenants, not the program.
    """
    calls = []
    for index in range(len(replays[0])):
        times = [getattr(round_[index], attribute) for round_ in replays]
        calls.extend(min(call) for call in zip(*times))
    return calls


def fastest_setup(replays) -> list[float]:
    """Each replayed sub-workload's set-up, each step at its fastest replay."""
    return [
        sum(min(step) for step in zip(*(round_[index].setup_s for round_ in replays)))
        for index in range(len(replays[0]))
    ]


def fastest_run_s(replays) -> float:
    """One round's run time, each timed call at its fastest replay.

    The untimed remainder of a pass (scheduler bookkeeping between calls)
    takes its fastest replay too.
    """
    def untimed(p):
        return p.run_s - sum(p.query_s) - sum(p.ingest_s) - sum(p.job_s)

    timed = sum(
        sum(fastest(replays, attribute))
        for attribute in ("query_s", "ingest_s", "job_s")
    )
    return timed + sum(
        min(untimed(round_[index]) for round_ in replays)
        for index in range(len(replays[0]))
    )


def end_to_end(first, replays, scale: float) -> dict[str, float]:
    """End-to-end metrics; host times are multiplied by ``scale``.

    Cost-clock metrics come from ``first``, one pass of every
    sub-workload; host-clock metrics from ``replays``.
    """
    replayed = replays[0]
    query_s = fastest(replays, "query_s")
    ingest_s = fastest(replays, "ingest_s")
    latency = [t for p in first for t in p.sim_latency_s]
    return {
        "setup_s": scale * statistics.median(fastest_setup(replays)),
        "events_per_s": sum(p.events for p in replayed)
        / (scale * fastest_run_s(replays)),
        "query_ms.p50": scale * 1000.0 * quantile(query_s, 0.50),
        "ingest_ms.p50": scale * 1000.0 * quantile(ingest_s, 0.50),
        "insert_elems_per_s": sum(p.ingest_elements for p in replayed)
        / (scale * sum(ingest_s)),
        "refresh_s": scale * sum(fastest(replays, "refresh_s")),
        "sim_latency_ms.p99": 1000.0 * quantile(latency, 0.99),
        "sim_device_s": sum(p.sim_device_s for p in first),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(workload, first, replays, traced, scale: float) -> dict[str, float]:
    """Per-layer metrics; host times are multiplied by ``scale``.

    Counts come from ``first``; host times from ``replays`` and the
    traced round, which replays the same sub-workloads.
    """
    import workloads

    traced_wall, self_s, draw_calls = traced
    metrics = {f"{layer}.self_s": scale * seconds for layer, seconds in self_s.items()}
    # The host tails: too unsteady between runs to carry a bound (README).
    for name, attribute in (("query_ms.p90", "query_s"), ("ingest_ms.p90", "ingest_s")):
        metrics[name] = scale * 1000.0 * quantile(fastest(replays, attribute), 0.90)
    refresh_s = fastest(replays, "refresh_s")
    refresh_algorithm = [name for p in replays[0] for name in p.refresh_algorithm]
    serve_refresh = refresh_s if workload != "maintain" else []
    metrics["serve.refresh_ms.p50"] = scale * 1000.0 * quantile(serve_refresh, 0.50)
    metrics["serve.refresh_ms.p90"] = scale * 1000.0 * quantile(serve_refresh, 0.90)
    for algorithm in workloads.MAINTAIN_ALGORITHMS:
        metrics[f"core.refresh.{algorithm}_s"] = scale * sum(
            t for t, name in zip(refresh_s, refresh_algorithm) if name == algorithm
        )
    metrics["rng.draw_calls"] = draw_calls
    for name in COUNT_NAMES:
        metrics[name] = sum(p.counts.get(name, 0) for p in first)
    accesses = metrics["pool.hits"] + metrics["pool.misses"]
    metrics["pool.hit_rate"] = metrics["pool.hits"] / accesses if accesses else 0.0
    metrics["serve.sim_wait_ms.p95"] = 1000.0 * quantile(
        [t for p in first for t in p.sim_wait_s], 0.95
    )
    candidates = metrics["core.candidates"]
    metrics["core.useful_ratio"] = (
        metrics["core.displaced"] / candidates if candidates else 0.0
    )
    metrics["trace.overhead_ratio"] = traced_wall / statistics.median(
        sum(p.work_s for p in round_) for round_ in replays
    )
    metrics["trace.accounted_ratio"] = sum(self_s.values()) / traced_wall
    return metrics


def per_layer_units(metrics: dict[str, float]) -> dict[str, str]:
    units = {}
    for name in metrics:
        if name.endswith("_s"):
            units[name] = "s"
        elif "_ms." in name:
            units[name] = "ms"
        elif name.endswith(("_ratio", "_rate")):
            units[name] = "ratio"
        else:
            units[name] = "count"
    return units


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    package_dir = import_program()
    import calibrate
    import layers
    import workloads

    workload = args.workload
    subs = workloads.subworkloads(workload, args.seed, args.scale)

    host_subs = subs[: workloads.replayed(workload, args.scale)]

    def run_passes(selected):
        """Run passes, timing the calibration kernel after each."""
        passes = []
        for sub in selected:
            passes.append(workloads.run_pass(workload, sub, args.scale))
            for _ in range(CALIBRATION_SAMPLES):
                calibrator.sample()
        return passes

    # The calibration kernel runs after every pass, so it samples the
    # same machine states as the passes do.
    calibrator = calibrate.Calibrator()
    start = perf_counter()
    rounds = [run_passes(subs)]
    while len(rounds) < MIN_ROUNDS or perf_counter() - start < args.seconds:
        rounds.append(run_passes(host_subs))
    machine_s = calibrator.fast_state(len(rounds))
    scale = calibrate.REFERENCE_SECONDS / machine_s
    first = rounds[0]
    replays = [first[: len(host_subs)]] + rounds[1:]
    traced = None
    if args.trace:
        traced_round, self_s, draw_calls = layers.profile_passes(
            lambda profiler: [
                workloads.run_pass(workload, sub, args.scale, profiler)
                for sub in host_subs
            ],
            str(package_dir),
        )
        rounds.append(traced_round)
        traced = (sum(p.work_s for p in traced_round), self_s, draw_calls)

    problems = check_outputs(workload, args, rounds)
    if args.trace:
        metrics = per_layer(workload, first, replays, traced, scale)
        metrics["host.calibration_s"] = machine_s
        low, high = ACCOUNTED_RANGE
        if not low <= metrics["trace.accounted_ratio"] <= high:
            problems.append(
                "per-layer self times cover "
                f"{metrics['trace.accounted_ratio']:.3f} of the traced wall time"
            )
        units = per_layer_units(metrics)
    else:
        metrics = end_to_end(first, replays, scale)
        units = END_TO_END_UNITS
        print(
            "perfbench uncalibrated " + json.dumps(end_to_end(first, replays, 1.0)),
            file=sys.stderr,
        )

    attempted = sum(p.events for round_ in rounds for p in round_)
    failed = sum(p.failed for round_ in rounds for p in round_)
    if problems:
        failed = attempted
    print(
        f"perfbench {workload} seed={args.seed} scale={args.scale} "
        f"rounds={len(rounds)} digest={combined_digest(first)} "
        f"calibration={machine_s:.6f}s scale={scale:.4f}",
        file=sys.stderr,
    )
    for problem in problems:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:28s} {value:16.6f} {units[name]}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
