"""Pluggable sample kinds: uniform, weighted (A-ES) and sliding-window.

The paper states deferred maintenance for *uniform* reservoirs, but the
decomposition it rests on -- an **acceptance test** at insert time, a
**victim-slot choice** at refresh time, and a candidate log in between --
generalises to other sampling schemes.  This module owns that
generalisation: a :class:`SampleKind` captures, per scheme,

* what a stored **row** is (value plus kind payload: A-ES key, arrival
  sequence) and which codec serialises it;
* the **acceptance test** run at insert time against *stale* state (state
  as of the last refresh), which decides what enters the candidate log;
* the **victim rule** at refresh time: uniform slots the refresh
  algorithm draws itself, or a **replay** that folds logged candidates
  into the on-disk sample and picks victim slots by content.

Deferred-maintenance proof obligations (checked bit-exactly by
``tests/properties/test_prop_kinds.py``; see ``docs/sample_kinds.md``):

* **uniform** (:class:`UniformKind`) -- the paper's scheme: acceptance
  with probability ``M/(|R|+1)`` via Vitter skips, so a batch costs
  O(accepted) Python work; victim slots are drawn uniformly by the
  refresh algorithm itself, which is what lets Array/Stack/Nomem read
  only the *final* candidate of each slot.
* **weighted** (:class:`WeightedKind`) -- A-ES exponential keys: each
  record draws exactly one uniform and gets the key ``-ln(1-u)/w``; the
  sample holds the ``M`` *smallest* keys.  The insert-time acceptance
  test compares against the stale threshold (the sample's max key as of
  the last refresh).  Because the live threshold is non-increasing, the
  log is a superset of every eagerly-accepted record, and the refresh
  replay -- which re-filters against the evolving threshold -- lands on
  exactly the eager sample.  The victim slot is the arg-max key, so no
  refresh-time randomness is needed and the PRNG stream (one draw per
  record) is identical between the eager and deferred paths.
* **window** (:class:`WindowKind`) -- the last ``W`` rows; fully
  deterministic (no RNG draws at all).  Every arriving row is accepted
  and logged with its arrival sequence; expiry happens at refresh time
  from the log: only the last ``min(pending, W)`` logged rows can be
  live, and each maps to the fixed slot ``seq mod W``.

Every kind offers one batch acceptance call, :meth:`SampleKind.accept_many`,
which the single :class:`~repro.core.logs.CandidateLogger` drives.  The
one uniform/non-uniform distinction left is :attr:`SampleKind.random_victims`:
whether the refresh algorithm draws victim slots itself (uniform) or
replays the kind's content-dependent victim rule (weighted, window).
"""

from __future__ import annotations

import heapq
import math
from typing import Protocol, Sequence

from repro.core.reservoir import ReservoirSampler, build_reservoir
from repro.rng.random_source import RandomSource
from repro.storage.records import (
    IntRecordCodec,
    RecordCodec,
    TimestampedRecordCodec,
    WeightedRecordCodec,
)
from repro.storage.superblock import KINDS, MaintenanceCheckpoint

__all__ = [
    "SampleKind",
    "UniformKind",
    "WeightedKind",
    "WindowKind",
    "KINDS",
    "DEFAULT_WEIGHT_MOD",
    "parse_kind_spec",
    "make_kind",
    "checkpoint_kind_spec",
    "eager_oracle",
]

DEFAULT_WEIGHT_MOD = 16


class SampleKind(Protocol):
    """The per-scheme contract the maintenance stack drives.

    A kind owns the mutable per-sample state that insert-time acceptance
    depends on (dataset size, pending skip, stale threshold, next arrival
    sequence).  One kind instance belongs to one sample; the candidate
    logger and the refresh algorithm share it.  The replay methods
    (``draw``/``accept``/``replay_start``/``begin_replay``/``commit_replay``)
    exist only on kinds whose :attr:`random_victims` is False.
    """

    name: str

    #: True when the refresh algorithm draws victim slots uniformly
    #: itself; False when it must replay the kind's victim rule
    random_victims: bool

    @property
    def capacity(self) -> int:  # pragma: no cover - protocol
        ...

    @property
    def seen(self) -> int:  # pragma: no cover - protocol
        ...

    def params(self) -> dict:  # pragma: no cover - protocol
        ...

    def spec(self) -> str:  # pragma: no cover - protocol
        ...

    def codec(self, record_size: int) -> RecordCodec:  # pragma: no cover
        ...

    def values(self, rows: list) -> list:  # pragma: no cover - protocol
        ...

    def population(self) -> int:  # pragma: no cover - protocol
        ...

    def effective_staleness(self, pending: int) -> int:  # pragma: no cover
        ...

    def build_initial(self, dataset: Sequence[int], rng: RandomSource) -> list:
        ...  # pragma: no cover - protocol

    def accept_many(
        self, elements: Sequence, rng: RandomSource, max_accepts: int | None = None
    ) -> tuple[int, list]:  # pragma: no cover - protocol
        ...

    def accept_one(self, element, rng: RandomSource):  # pragma: no cover
        ...

    def checkpoint_fields(self) -> dict:  # pragma: no cover - protocol
        ...

    def restore_state(self, checkpoint: MaintenanceCheckpoint) -> None:
        ...  # pragma: no cover - protocol

    def plausible(self, rows: Sequence, seen: int) -> bool:  # pragma: no cover
        ...


class _ReplayKind:
    """What weighted and window share: ``(value, payload)`` rows, victims
    picked by a content replay, and element-wise acceptance.

    Acceptance draws per element -- one uniform per record for weighted,
    none for window -- and the batch call stops right after the
    ``max_accepts``-th acceptance like uniform skip jumps, so refresh
    policies fire at identical points under every kind and batch inserts
    consume exactly the draws of scalar ones.
    """

    random_victims = False

    def values(self, rows: list) -> list:
        return [row[0] for row in rows]

    def accept_many(
        self, elements: Sequence, rng: RandomSource, max_accepts: int | None = None
    ) -> tuple[int, list]:
        draw = self.draw
        accept = self.accept
        records: list = []
        consumed = 0
        for element in elements:
            consumed += 1
            record = draw(element, rng)
            if accept(record):
                records.append(record)
                if max_accepts is not None and len(records) >= max_accepts:
                    break
        return consumed, records

    def accept_one(self, element, rng: RandomSource):
        """Scalar acceptance: the log record, or None when rejected."""
        record = self.draw(element, rng)
        return record if self.accept(record) else None


# ---------------------------------------------------------------------------
# Uniform (the paper's scheme: Vitter-skip acceptance, random victims)
# ---------------------------------------------------------------------------


class UniformKind:
    """The paper's uniform reservoir.

    Owns the acceptance state through a
    :class:`~repro.core.reservoir.ReservoirSampler`: the dataset size
    ``|R|``, the pending skip decision and the skip method.  Rows are the
    bare values.  Victim slots are not the kind's business: the refresh
    algorithm draws them uniformly (:attr:`random_victims`), so there is
    no replay here.
    """

    name = "uniform"
    random_victims = True

    def __init__(self, capacity: int, seen: int = 0, skip_method: str = "auto") -> None:
        self._sampler = ReservoirSampler(
            capacity, None, initial_size=seen, skip_method=skip_method
        )

    @property
    def capacity(self) -> int:
        return self._sampler.capacity

    @property
    def seen(self) -> int:
        return self._sampler.seen

    @property
    def sampler(self) -> ReservoirSampler:
        """The acceptance state; immediate maintenance offers through it."""
        return self._sampler

    def params(self) -> dict:
        return {}

    def spec(self) -> str:
        return "uniform"

    def codec(self, record_size: int) -> RecordCodec:
        return IntRecordCodec(record_size)

    def values(self, rows: list) -> list:
        return rows

    def population(self) -> int:
        return self._sampler.seen

    def effective_staleness(self, pending: int) -> int:
        return pending

    def build_initial(self, dataset: Sequence[int], rng: RandomSource) -> list:
        """One reservoir pass over the dataset; returns the sample rows.

        Maintenance then starts with no pending skip: the build's own
        sampler, and any skip it drew, are discarded.
        """
        sampler = self._sampler
        rows, seen = build_reservoir(
            dataset, sampler.capacity, rng, skip_method=sampler.skip_method
        )
        sampler.restore(seen, None)
        return rows

    def accept_many(
        self, elements: Sequence, rng: RandomSource, max_accepts: int | None = None
    ) -> tuple[int, list]:
        """Skip-jump from candidate to candidate: O(accepted) Python work."""
        sampler = self._sampler
        sampler.rng = rng
        consumed, accepted = sampler.test_many(len(elements), max_accepts)
        return consumed, [elements[i] for i in accepted]

    def accept_one(self, element, rng: RandomSource):
        """Scalar acceptance: the element itself, or None when rejected."""
        sampler = self._sampler
        sampler.rng = rng
        return element if sampler.test() else None

    def checkpoint_fields(self) -> dict:
        return {
            "kind_param": 0,
            "kind_threshold": 0.0,
            "pending_accept": self._sampler.pending_accept,
        }

    def restore_state(self, checkpoint: MaintenanceCheckpoint) -> None:
        self._sampler.restore(checkpoint.dataset_size, checkpoint.pending_accept)

    def plausible(self, rows: Sequence, seen: int) -> bool:
        return all(isinstance(row, int) for row in rows)


# ---------------------------------------------------------------------------
# Weighted reservoir (A-ES exponential keys)
# ---------------------------------------------------------------------------


class _WeightedReplay:
    """Evolving-threshold application of weighted records to sample rows.

    This is the *eager* maintenance rule -- keep the ``M`` smallest keys,
    evict the arg-max -- applied in memory.  The deferred refresh runs it
    over the candidate log; the immediate oracle runs it per arrival.
    The max-key lookup is a lazy-invalidation heap: stale entries (slots
    whose key has since shrunk) are popped on sight, ties break on the
    lower slot, so the victim choice is deterministic.
    """

    __slots__ = ("_rows", "_keys", "_heap")

    def __init__(self, rows: list) -> None:
        self._rows = rows
        self._keys = [row[1] for row in rows]
        self._heap = [(-key, slot) for slot, key in enumerate(self._keys)]
        heapq.heapify(self._heap)

    def _peek_max(self) -> tuple[float, int]:
        heap = self._heap
        keys = self._keys
        while True:
            neg_key, slot = heap[0]
            if keys[slot] == -neg_key:
                return -neg_key, slot
            heapq.heappop(heap)

    @property
    def max_key(self) -> float:
        """The live threshold: the largest key currently in the sample."""
        return self._peek_max()[0]

    def step(self, record) -> int | None:
        """Apply one record; returns the displaced slot, or None."""
        key = record[1]
        max_key, slot = self._peek_max()
        if key < max_key:
            self._rows[slot] = record
            self._keys[slot] = key
            heapq.heapreplace(self._heap, (-key, slot))
            return slot
        return None


class WeightedKind(_ReplayKind):
    """Weighted reservoir via A-ES exponential keys, one draw per record.

    A record of value ``v`` has weight ``w(v) = 1 + (v mod weight_mod)``
    and key ``-ln(1-u)/w(v)`` for a single uniform ``u``; the sample is
    the ``M`` records with the smallest keys (equivalently, A-ES keeps
    the largest ``u^(1/w)``).  The classic A-ES *exponential jump* skips
    rejected records without drawing for them -- but the jump length
    depends on the live threshold, which deferred maintenance does not
    know between refreshes.  This implementation deliberately trades the
    jump for one draw per record, which buys the property everything
    here is built on: the eager path, the deferred path, the scalar path
    and the batch path all consume the identical PRNG stream.
    """

    name = "weighted"
    def __init__(self, capacity: int, weight_mod: int = DEFAULT_WEIGHT_MOD) -> None:
        if capacity <= 0:
            raise ValueError("sample capacity must be positive")
        if weight_mod <= 0:
            raise ValueError("weight_mod must be positive")
        self._capacity = capacity
        self._mod = weight_mod
        self._seen = 0
        #: stale acceptance threshold: the sample's max key as of the
        #: last refresh (+inf before the initial sample exists)
        self._threshold = math.inf

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def seen(self) -> int:
        return self._seen

    @property
    def threshold(self) -> float:
        return self._threshold

    @property
    def weight_mod(self) -> int:
        return self._mod

    def params(self) -> dict:
        return {"weight_mod": self._mod}

    def spec(self) -> str:
        if self._mod == DEFAULT_WEIGHT_MOD:
            return "weighted"
        return f"weighted:{self._mod}"

    def codec(self, record_size: int) -> RecordCodec:
        return WeightedRecordCodec(record_size)

    def population(self) -> int:
        return self._seen

    def effective_staleness(self, pending: int) -> int:
        return pending

    def weight(self, value: int) -> int:
        return 1 + (value % self._mod)

    def draw(self, element: int, rng: RandomSource):
        """One record, one uniform: ``(value, -ln(1-u)/w)``."""
        u = rng.random()
        self._seen += 1
        return (element, -math.log(1.0 - u) / self.weight(element))

    def accept(self, record) -> bool:
        """Insert-time test against the *stale* threshold.

        Thresholds only shrink, so everything the eager rule would ever
        accept passes this test -- the log is a superset, re-filtered at
        refresh by the replay.
        """
        return record[1] < self._threshold

    def replay_start(self, total: int) -> int:
        return 0

    def begin_replay(self, rows: list) -> _WeightedReplay:
        return _WeightedReplay(rows)

    def commit_replay(self, replay: _WeightedReplay) -> None:
        self._threshold = replay.max_key

    def build_initial(self, dataset: Sequence[int], rng: RandomSource) -> list:
        """Eager A-ES over the initial dataset; returns the sample rows."""
        if len(dataset) < self._capacity:
            raise ValueError(
                f"initial dataset ({len(dataset)}) smaller than the "
                f"sample ({self._capacity})"
            )
        rows = [self.draw(value, rng) for value in dataset[: self._capacity]]
        replay = self.begin_replay(rows)
        for value in dataset[self._capacity :]:
            replay.step(self.draw(value, rng))
        self.commit_replay(replay)
        return rows

    def checkpoint_fields(self) -> dict:
        return {
            "kind_param": self._mod,
            "kind_threshold": self._threshold,
            "pending_accept": None,
        }

    def restore_state(self, checkpoint) -> None:
        if checkpoint.kind_param != self._mod:
            raise ValueError(
                f"checkpoint weight_mod {checkpoint.kind_param} != {self._mod}"
            )
        self._seen = checkpoint.dataset_size
        self._threshold = checkpoint.kind_threshold

    def plausible(self, rows: Sequence, seen: int) -> bool:
        if any(len(row) != 2 for row in rows):
            return False
        keys = [row[1] for row in rows]
        if any(key < 0 or not math.isfinite(key) for key in keys):
            return False
        # The stale threshold can only over-admit, never under-admit:
        # every live key must sit at or below it.
        return not math.isfinite(self._threshold) or max(keys) <= self._threshold


# ---------------------------------------------------------------------------
# Sliding window (last W rows; deterministic)
# ---------------------------------------------------------------------------


class _WindowReplay:
    """Apply window records to their fixed slots, newest sequence wins."""

    __slots__ = ("_rows", "_capacity")

    def __init__(self, rows: list, capacity: int) -> None:
        self._rows = rows
        self._capacity = capacity

    def step(self, record) -> int | None:
        slot = record[1] % self._capacity
        current = self._rows[slot]
        if current is None or current[1] < record[1]:
            self._rows[slot] = record
            return slot
        return None


class WindowKind(_ReplayKind):
    """The last ``W`` rows of the stream (``W`` = the sample capacity).

    Fully deterministic: a row with arrival sequence ``s`` lives in slot
    ``s mod W`` until the row with sequence ``s + W`` arrives.  Every
    arriving row is accepted and logged; *expiry is deferred* to refresh
    time, where only the last ``min(pending, W)`` logged rows are read
    back (:meth:`replay_start` skips the expired prefix without touching
    it).  Staleness in rows is therefore naturally capped at ``W`` --
    :meth:`effective_staleness` reports that cap, which is what makes
    ``bounded_staleness:k`` (and the ``bounded_expiry`` fraction form)
    well-defined for window samples.
    """

    name = "window"
    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("sample capacity must be positive")
        self._capacity = capacity
        self._seen = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def seen(self) -> int:
        return self._seen

    def params(self) -> dict:
        return {"window": self._capacity}

    def spec(self) -> str:
        return "window"

    def codec(self, record_size: int) -> RecordCodec:
        return TimestampedRecordCodec(record_size)

    def population(self) -> int:
        return min(self._seen, self._capacity)

    def effective_staleness(self, pending: int) -> int:
        """Rows of the live window not yet applied from the log."""
        return min(pending, self._capacity)

    def expired_fraction(self, pending: int) -> float:
        """The window fraction the pending log has already expired."""
        return self.effective_staleness(pending) / self._capacity

    def draw(self, element: int, rng: RandomSource):
        record = (element, self._seen)
        self._seen += 1
        return record

    def accept(self, record) -> bool:
        return True

    def replay_start(self, total: int) -> int:
        """Logged rows older than the window are expired unread."""
        return max(0, total - self._capacity)

    def begin_replay(self, rows: list) -> _WindowReplay:
        return _WindowReplay(rows, self._capacity)

    def commit_replay(self, replay: _WindowReplay) -> None:
        return None

    def build_initial(self, dataset: Sequence[int], rng: RandomSource) -> list:
        if len(dataset) < self._capacity:
            raise ValueError(
                f"initial dataset ({len(dataset)}) smaller than the "
                f"window ({self._capacity})"
            )
        rows: list = [None] * self._capacity
        replay = self.begin_replay(rows)
        for value in dataset:
            replay.step(self.draw(value, rng))
        return rows

    def checkpoint_fields(self) -> dict:
        return {
            "kind_param": self._capacity,
            "kind_threshold": 0.0,
            "pending_accept": None,
        }

    def restore_state(self, checkpoint) -> None:
        if checkpoint.kind_param != self._capacity:
            raise ValueError(
                f"checkpoint window {checkpoint.kind_param} != {self._capacity}"
            )
        self._seen = checkpoint.dataset_size

    def plausible(self, rows: Sequence, seen: int) -> bool:
        if any(row is None or len(row) != 2 for row in rows):
            return False
        for slot, (_, seq) in enumerate(rows):
            if seq % self._capacity != slot or not 0 <= seq < seen:
                return False
        return True


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def parse_kind_spec(spec: str) -> tuple[str, int | None]:
    """Split ``"name"`` / ``"name:param"`` into ``(name, param)``."""
    name, _, arg = spec.partition(":")
    name = name.strip()
    if name not in KINDS:
        raise ValueError(f"unknown sample kind {name!r} (known: {KINDS})")
    if not arg:
        return name, None
    if name != "weighted":
        raise ValueError(f"kind {name!r} takes no parameter, got {arg!r}")
    try:
        return name, int(arg)
    except ValueError:
        raise ValueError(
            f"kind 'weighted' takes an integer weight modulus, got {arg!r}"
        ) from None


def make_kind(spec: str, capacity: int) -> SampleKind:
    """Build the kind a spec string names, bound to one sample's capacity.

    Specs: ``"uniform"``, ``"weighted"``, ``"weighted:MOD"`` (weight
    modulus), ``"window"``.
    """
    name, param = parse_kind_spec(spec)
    if name == "uniform":
        return UniformKind(capacity)
    if name == "weighted":
        if param is not None:
            return WeightedKind(capacity, weight_mod=param)
        return WeightedKind(capacity)
    return WindowKind(capacity)


def checkpoint_kind_spec(checkpoint: MaintenanceCheckpoint) -> str:
    """The spec of the kind a manifest records (weighted keeps its modulus)."""
    if checkpoint.kind_name == "weighted":
        return f"weighted:{checkpoint.kind_param}"
    return checkpoint.kind_name


# ---------------------------------------------------------------------------
# The immediate-maintenance oracle (property-test reference)
# ---------------------------------------------------------------------------


def eager_oracle(
    kind: SampleKind, dataset: Sequence[int], elements: Sequence[int], rng: RandomSource
) -> list:
    """Immediate maintenance in memory: apply each arrival on the spot.

    This is the reference the deferred path is proven against: same
    initial build, then one :meth:`SampleKind.draw` plus one eager replay
    step per arriving element.  Because kinds draw element-wise, the
    PRNG stream here is identical to the deferred path's, and the
    bit-identity property (``tests/properties/test_prop_kinds.py``)
    checks rows *and* PRNG state after the deferred run's final refresh.
    """
    rows = kind.build_initial(dataset, rng)
    replay = kind.begin_replay(rows)
    for element in elements:
        replay.step(kind.draw(element, rng))
    kind.commit_replay(replay)
    return rows
