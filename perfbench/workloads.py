"""The benchmark's three workloads, driven through the public API.

Each workload is a fixed list of *sub-workloads*, all generated from the
benchmark seed.  One *pass* sets up and runs one sub-workload from
scratch.  A run makes one pass over every sub-workload, then replays the
first few until its time is up; a replay repeats the same inputs and
must reproduce the same output digest.

* ``serve_read`` and ``serve_ingest`` call
  :func:`repro.serve.sim.run_simulation`, the entry point of
  ``repro serve-sim``, with timers on the program's entry points for the
  length of the pass.  Their digest is the sha256 of the canonical
  report, trace included.
* ``maintain`` drives four bare :class:`~repro.core.maintenance.SampleMaintainer`
  objects (naive, array, stack, nomem) through the paper's offline
  setting: batched ``insert_many`` ingestion, a deferred refresh per
  round, then a few queries over the refreshed sample.  Its digest covers
  each algorithm's final sample bytes, AccessStats, PRNG state and query
  answers.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from repro.analysis.query import SampleQuery
from repro.core.maintenance import SampleMaintainer
from repro.core.policies import ManualPolicy
from repro.core.refresh import (
    ArrayRefresh,
    NaiveCandidateRefresh,
    NomemRefresh,
    StackRefresh,
)
from repro.obs.api import Instrumentation
from repro.rng.random_source import RandomSource
from repro.serve import sim
from repro.serve.catalog import SampleCatalog
from repro.serve.scheduler import DeterministicScheduler
from repro.serve.session import QuerySession
from repro.serve.sim import SimConfig, run_simulation
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import AccessStats, CostModel
from repro.storage.files import LogFile, SampleFile
from repro.storage.records import IntRecordCodec

#: Refresh algorithms the ``maintain`` workload compares, in run order.
MAINTAIN_ALGORITHMS = {
    "naive": NaiveCandidateRefresh,
    "array": ArrayRefresh,
    "stack": StackRefresh,
    "nomem": NomemRefresh,
}

#: The analyst's queries after each ``maintain`` refresh, in order.
MAINTAIN_AGGREGATES = ("fraction", "count", "sum", "avg")

_ACCESS_KINDS = ("seq_reads", "seq_writes", "random_reads", "random_writes")

#: Inserted elements are the counter stream ``BASE, BASE+1, ...``; initial
#: sample values are drawn below it, so the two never collide.
MAINTAIN_BASE = 1 << 30

#: Sizes per scale.  ``full`` is what BENCHMARK.json runs; ``tiny`` keeps
#: the self-test to seconds.  Sub-workload ``i`` of seed ``s`` uses seed
#: ``SUBSEED_STRIDE * s + i``, so each serve sub-workload can be replayed
#: with ``repro serve-sim --seed`` and the sizes below.  Every
#: sub-workload runs once for the cost-clock metrics and the output
#: checks; the first ``replayed`` of them are replayed for the host-clock
#: metrics.  ``maintain``'s set-up is a small share of its pass, so each
#: pass builds it ``setup_repeats`` times and keeps each step's fastest
#: time.
SUBSEED_STRIDE = 100
SCALES = {
    "full": {
        "serve_read": {
            "subworkloads": 6, "replayed": 3, "events": 250, "sample_size": 4096,
        },
        "serve_ingest": {
            "subworkloads": 6, "replayed": 3, "events": 800, "sample_size": 1024,
        },
        "maintain": {
            "subworkloads": 2,
            "replayed": 2,
            "sample_size": 50_000,
            "initial_dataset": 1_000_000,
            "elements": 1_000_000,
            "rounds": 3,
            "batch_range": (2_000, 6_000),
            "setup_repeats": 5,
        },
    },
    "tiny": {
        "serve_read": {
            "subworkloads": 3, "replayed": 2, "events": 40, "sample_size": 512,
        },
        "serve_ingest": {
            "subworkloads": 3, "replayed": 2, "events": 60, "sample_size": 256,
        },
        "maintain": {
            "subworkloads": 1,
            "replayed": 1,
            "sample_size": 2_000,
            "initial_dataset": 40_000,
            "elements": 80_000,
            "rounds": 2,
            "batch_range": (200, 600),
            "setup_repeats": 2,
        },
    },
}


def replayed(workload: str, scale: str) -> int:
    """How many leading sub-workloads the host-clock rounds replay."""
    return SCALES[scale][workload]["replayed"]


@dataclass
class PassResult:
    """What one pass measured (host clock) and produced (cost clock)."""

    digest: str
    #: host seconds of each set-up step, in a fixed order
    setup_s: list[float]
    run_s: float
    #: host seconds from the start of set-up to the end of the run: the
    #: region a profiler, when given, covers
    work_s: float
    #: operations attempted: scheduler events, or maintain's insert
    #: batches, refreshes and queries
    events: int
    #: operations that failed: shed queries
    failed: int
    query_s: list[float] = field(default_factory=list)
    ingest_s: list[float] = field(default_factory=list)
    ingest_elements: int = 0
    refresh_s: list[float] = field(default_factory=list)
    #: the refresh algorithm behind each refresh_s entry
    refresh_algorithm: list[str] = field(default_factory=list)
    #: host seconds of each refresh the schedule runs as a job of its own
    #: (not nested in a query); with query_s and ingest_s it covers all
    #: timed work of run_s without counting any call twice
    job_s: list[float] = field(default_factory=list)
    #: cost-clock latency of every query, seconds
    sim_latency_s: list[float] = field(default_factory=list)
    #: cost-clock queueing delay of every query, seconds
    sim_wait_s: list[float] = field(default_factory=list)
    sim_device_s: float = 0.0
    #: deterministic per-layer counts (device, pool, serve, core)
    counts: dict[str, int] = field(default_factory=dict)
    #: why the pass's output check failed ("" when it passed)
    problem: str = ""


def subworkloads(workload: str, seed: int, scale: str) -> list:
    """The seeded inputs of one run: SimConfigs or maintain seeds."""
    params = SCALES[scale][workload]
    seeds = [SUBSEED_STRIDE * seed + i for i in range(params["subworkloads"])]
    if workload == "serve_read":
        return [
            SimConfig(
                seed=s,
                samples=4,
                sample_size=params["sample_size"],
                algorithm="stack",
                events=params["events"],
                ingest_fraction=0.3,
                pool_capacity=16,
            )
            for s in seeds
        ]
    if workload == "serve_ingest":
        return [
            SimConfig(
                seed=s,
                samples=4,
                sample_size=params["sample_size"],
                algorithm="array",
                kinds=("weighted", "window"),
                events=params["events"],
                ingest_fraction=0.8,
                pool_capacity=64,
            )
            for s in seeds
        ]
    return seeds


def instrumented(workload: str) -> bool:
    """serve_read carries serve-sim's Instrumentation; the others run bare."""
    return workload == "serve_read"


def run_pass(workload: str, sub, scale: str, profiler=None) -> PassResult:
    """Set up and run one sub-workload, then check its outputs.

    ``profiler`` (a :class:`cProfile.Profile`) is enabled for the set-up
    and run only, so the benchmark's own checks stay out of the profile.
    """
    if workload == "maintain":
        return maintain_pass(sub, SCALES[scale]["maintain"], profiler)
    return serve_pass(sub, instrumented(workload), profiler)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _timed(function, sink: list, results: list | None = None):
    """Wrap a bound method so each call appends its host seconds to sink."""

    def wrapper(*args, **kwargs):
        start = perf_counter()
        result = function(*args, **kwargs)
        sink.append(perf_counter() - start)
        if results is not None:
            results.append(result)
        return result

    return wrapper


# -- serve workloads ---------------------------------------------------------


@contextmanager
def _timers(targets):
    """Time calls to each ``(owner, name, sink, results)`` for the block.

    ``owner`` is a class or module of the program; its attribute ``name``
    is replaced by a timed wrapper and restored afterwards, so the
    program's own code is untouched.
    """
    saved = []
    try:
        for owner, name, sink, results in targets:
            original = vars(owner)[name]
            saved.append((owner, name, original))
            setattr(owner, name, _timed(original, sink, results))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def serve_pass(
    config: SimConfig, with_instrumentation: bool, profiler=None
) -> PassResult:
    """Run one serving simulation through ``run_simulation``, as serve-sim does.

    Set-up is the catalog build plus ``synthetic_workload``.  A
    maintainer's ``refresh()`` is timed as well as the catalog's, because
    forced refreshes bypass ``SampleCatalog.refresh``.
    """
    instrumentation = (
        Instrumentation(cost_model=CostModel()) if with_instrumentation else None
    )
    setup_s: list[float] = []
    catalogs: list = []
    run_s: list[float] = []
    query_s: list[float] = []
    answers: list = []
    ingest_s: list[float] = []
    job_s: list[float] = []
    refresh_s: list[float] = []
    refresh_results: list = []
    with _timers(
        [
            (sim, "build_catalog", setup_s, catalogs),
            (sim, "synthetic_workload", setup_s, None),
            (DeterministicScheduler, "run", run_s, None),
            (QuerySession, "execute", query_s, answers),
            (SampleCatalog, "ingest", ingest_s, None),
            (SampleCatalog, "refresh", job_s, None),
            (SampleMaintainer, "refresh", refresh_s, refresh_results),
        ]
    ):
        if profiler is not None:
            profiler.enable()
        start = perf_counter()
        report = run_simulation(config, instrumentation)
        work_s = perf_counter() - start
        if profiler is not None:
            profiler.disable()

    queries = [entry for entry in report.trace if entry["kind"] == "query"]
    done = [result for result in refresh_results if result is not None]
    pool = report.pool
    counts = {
        "device.seq_reads": report.device["seq_reads"],
        "device.seq_writes": report.device["seq_writes"],
        "device.random_reads": report.device["random_reads"],
        "device.random_writes": report.device["random_writes"],
        "pool.hits": pool["hits"],
        "pool.misses": pool["misses"],
        "pool.evictions": pool["evictions"],
        "serve.queries": report.queries_answered,
        "serve.ingest_batches": report.ingest_batches,
        "serve.refresh_jobs": report.refresh_jobs,
        "serve.forced_refreshes": report.forced_refreshes,
        "serve.deferred": report.queries_deferred,
        "serve.shed": report.queries_shed,
        "serve.rows_scanned": sum(answer.rows_scanned for answer in answers),
        "core.candidates": sum(result.candidates for result in done),
        "core.displaced": sum(result.displaced for result in done),
    }
    return PassResult(
        digest=_sha256(report.to_json()),
        setup_s=setup_s,
        run_s=run_s[0],
        work_s=work_s,
        events=report.events,
        failed=report.queries_shed,
        query_s=query_s,
        ingest_s=ingest_s,
        ingest_elements=report.elements_ingested,
        refresh_s=refresh_s,
        refresh_algorithm=[config.algorithm] * len(refresh_s),
        job_s=job_s,
        sim_latency_s=[entry["latency"] for entry in queries],
        sim_wait_s=[entry["start"] - entry["arrival"] for entry in queries],
        sim_device_s=AccessStats(**report.device).cost_seconds(
            catalogs[0].cost_model.disk
        ),
        counts=counts,
    )


# -- maintain workload ---------------------------------------------------------


def maintain_schedule(seed: int, params: dict) -> tuple[list[int], list[list[int]]]:
    """(initial sample values, insert batch sizes per refresh round)."""
    root = RandomSource(seed)
    initial_rng = root.spawn("initial")
    initial = [
        initial_rng.randrange(MAINTAIN_BASE) for _ in range(params["sample_size"])
    ]
    sizes_rng = root.spawn("batches")
    low, high = params["batch_range"]
    per_round = params["elements"] // params["rounds"]
    rounds = []
    for _ in range(params["rounds"]):
        sizes, left = [], per_round
        while left > 0:
            size = min(left, low + sizes_rng.randrange(high - low + 1))
            sizes.append(size)
            left -= size
        rounds.append(sizes)
    return initial, rounds


def maintain_setup(seed: int, params: dict):
    """Build one sub-workload's schedule and maintainers, timing each step.

    Returns (initial sample values, batch sizes per round, maintainers by
    algorithm, host seconds per step).
    """
    steps = []
    start = perf_counter()
    initial, rounds = maintain_schedule(seed, params)
    steps.append(perf_counter() - start)
    maintainers: dict[str, tuple[SampleMaintainer, CostModel, RandomSource]] = {}
    for name, algorithm in MAINTAIN_ALGORITHMS.items():
        start = perf_counter()
        cost = CostModel()
        codec = IntRecordCodec()
        sample = SampleFile(
            SimulatedBlockDevice(cost, f"{name}.sample"), codec, params["sample_size"]
        )
        sample.initialize(initial)
        # The same maintenance seed for every algorithm: they see the same
        # data and start from the same PRNG state.
        rng = RandomSource(seed).spawn("maintain")
        maintainer = SampleMaintainer(
            sample,
            rng,
            strategy="candidate",
            initial_dataset_size=params["initial_dataset"],
            log=LogFile(SimulatedBlockDevice(cost, f"{name}.log"), codec),
            algorithm=algorithm(),
            policy=ManualPolicy(),
            cost_model=cost,
        )
        maintainers[name] = (maintainer, cost, rng)
        steps.append(perf_counter() - start)
    return initial, rounds, maintainers, steps


def maintain_pass(seed: int, params: dict, profiler=None) -> PassResult:
    """Ingest, refresh and query one seeded schedule under each algorithm.

    ``profiler`` covers the last set-up, the one the run uses.
    """
    spare = [
        maintain_setup(seed, params)[3] for _ in range(params["setup_repeats"] - 1)
    ]
    if profiler is not None:
        profiler.enable()
    work_start = perf_counter()
    initial, rounds, maintainers, steps = maintain_setup(seed, params)
    setup_s = [min(times) for times in zip(steps, *spare)]

    result = PassResult(
        digest="", setup_s=setup_s, run_s=0.0, work_s=0.0, events=0, failed=0
    )
    refreshed: dict[str, list] = {name: [] for name in maintainers}
    answers: dict[str, list] = {name: [] for name in maintainers}
    marks = {name: cost.checkpoint() for name, (_, cost, _) in maintainers.items()}
    start = perf_counter()
    for name, (maintainer, cost, _) in maintainers.items():
        next_value = MAINTAIN_BASE
        for sizes in rounds:
            for size in sizes:
                batch = range(next_value, next_value + size)
                t0 = perf_counter()
                maintainer.insert_many(batch)
                result.ingest_s.append(perf_counter() - t0)
                next_value += size
            due = cost.checkpoint()
            t0 = perf_counter()
            refreshed[name].append(maintainer.refresh())
            result.refresh_s.append(perf_counter() - t0)
            result.refresh_algorithm.append(name)
            # The analyst's queries over the refreshed sample, all due
            # when the round's ingest ends: aggregates over the rows that
            # arrived after the initial load, one full scan each.
            for aggregate in MAINTAIN_AGGREGATES:
                t0 = perf_counter()
                rows = list(maintainer.sample.scan())
                query = SampleQuery(rows, maintainer.dataset_size).where(
                    lambda value: value >= MAINTAIN_BASE
                )
                if aggregate in ("sum", "avg"):
                    estimate = getattr(query, aggregate)(float)
                else:
                    estimate = getattr(query, aggregate)()
                result.query_s.append(perf_counter() - t0)
                result.sim_latency_s.append(cost.since(due).cost_seconds(cost.disk))
                answers[name].append([estimate.value, estimate.low, estimate.high])
    result.run_s = perf_counter() - start
    result.work_s = perf_counter() - work_start
    if profiler is not None:
        profiler.disable()

    inserted = params["elements"] // params["rounds"] * params["rounds"]
    batches = sum(len(sizes) for sizes in rounds)
    counts = dict.fromkeys(
        ("core.candidates", "core.displaced")
        + tuple(f"device.{key}" for key in _ACCESS_KINDS),
        0,
    )
    outputs = {}
    for name, (maintainer, cost, rng) in maintainers.items():
        result.ingest_elements += inserted
        result.events += batches + len(rounds) * (1 + len(MAINTAIN_AGGREGATES))
        device = cost.since(marks[name])
        result.sim_device_s += device.cost_seconds(cost.disk)
        for key in _ACCESS_KINDS:
            counts[f"device.{key}"] += getattr(device, key)
        counts["core.candidates"] += sum(r.candidates for r in refreshed[name])
        counts["core.displaced"] += sum(r.displaced for r in refreshed[name])
        result.problem = result.problem or _maintain_invariants(
            name, maintainer, refreshed[name], set(initial), inserted
        )
        outputs[name] = _maintain_output(maintainer, rng, answers[name])
    result.job_s = result.refresh_s
    result.counts = counts
    result.digest = _sha256(json.dumps(outputs, sort_keys=True))
    return result


def _maintain_output(
    maintainer: SampleMaintainer, rng: RandomSource, answers: list
) -> dict:
    """Everything the maintain check pins for one algorithm."""
    blocks = maintainer.sample.device.snapshot_blocks()
    sample_hash = hashlib.sha256()
    for index in sorted(blocks):
        sample_hash.update(blocks[index])
    mt_state, w = rng.snapshot()
    rng_hash = hashlib.sha256(
        json.dumps([list(mt_state.key), mt_state.position, w]).encode("utf-8")
    ).hexdigest()
    stats = maintainer.stats
    return {
        "sample_sha256": sample_hash.hexdigest(),
        "rng_sha256": rng_hash,
        "online": vars(stats.online),
        "offline": vars(stats.offline),
        "candidates_logged": stats.candidates_logged,
        "displaced_total": stats.displaced_total,
        "answers": answers,
    }


def _maintain_invariants(
    name: str,
    maintainer: SampleMaintainer,
    refreshed: list,
    initial: set,
    inserted: int,
) -> str:
    """Seed-independent checks of one algorithm's final state ("" = ok)."""
    if maintainer.pending_log_elements != 0:
        return f"{name}: log not drained after the final refresh"
    if sum(r.candidates for r in refreshed) != maintainer.stats.candidates_logged:
        return f"{name}: refreshes did not consume every logged candidate"
    offline = maintainer.stats.offline
    if name != "naive" and (offline.random_reads or offline.random_writes):
        return f"{name}: deferred refresh made random accesses ({offline})"
    values = maintainer.sample.peek_all()
    fresh = [v for v in values if v >= MAINTAIN_BASE]
    if len(set(fresh)) != len(fresh):
        return f"{name}: an inserted element appears twice in the sample"
    if any(v >= MAINTAIN_BASE + inserted for v in fresh):
        return f"{name}: the sample holds an element never inserted"
    if any(v not in initial for v in values if v < MAINTAIN_BASE):
        return f"{name}: the sample holds an element not in the initial sample"
    return ""
