"""Naive refresh strategies (Sec. 3).

These are the paper's strawmen: correct, but they inherit reservoir
sampling's random sample I/O and write non-final candidates only to
overwrite them moments later.  They exist here as baselines for the cost
experiments and as behavioural oracles for the optimised algorithms (all
refresh strategies must leave the sample uniformly distributed).
"""

from __future__ import annotations

from repro.core.logs import CandidateLogSource, CandidateSource
from repro.core.refresh.base import RefreshResult, replay_displacements
from repro.obs.api import maybe_span
from repro.rng.random_source import RandomSource
from repro.storage.files import SampleFile
from repro.storage.memory import MemoryReport

__all__ = ["NaiveFullRefresh", "NaiveCandidateRefresh"]


class NaiveCandidateRefresh:
    """Write every candidate to a random sample slot, in log order.

    ``|C|`` sequential log reads, ``|C|`` *random* sample writes -- and
    non-final candidates get overwritten by later ones (Sec. 3.2 calls out
    both inefficiencies; Sec. 4 removes them).
    """

    name = "naive-candidate"

    #: Optional telemetry (see :mod:`repro.obs`); wired automatically by
    #: an instrumented :class:`~repro.core.maintenance.SampleMaintainer`.
    instrumentation = None

    #: Optional non-uniform :class:`~repro.core.kinds.SampleKind`; wired
    #: automatically by a kind-aware SampleMaintainer.  When set, victim
    #: slots come from the kind's replay (content-dependent, no RNG)
    #: instead of uniform ``randrange`` draws.
    kind = None

    def __init__(self, kind=None) -> None:
        if kind is not None:
            self.kind = kind

    def refresh(
        self,
        sample: SampleFile,
        source: CandidateSource,
        rng: RandomSource,
    ) -> RefreshResult:
        if self.kind is not None:
            return self._refresh_kind(sample, source, rng)
        total = source.count()
        if total == 0:
            return RefreshResult(candidates=0, displaced=0)
        # No precomputation phase: the strawman goes straight to disk.
        with maybe_span(
            self.instrumentation,
            "refresh.write",
            algorithm=self.name,
            candidates=total,
        ) as span:
            reader = source.open_reader()
            touched: set[int] = set()
            for ordinal in range(1, total + 1):
                element = reader.read(ordinal)
                slot = rng.randrange(sample.size)
                # The naive strawman *is* random-write I/O -- that inefficiency
                # is the point of the Sec. 3 baselines, not a violation of the
                # Alg. 1-3 sequential-only claim.
                sample.write_random(slot, element)  # repro-lint: disable=IO001
                touched.add(slot)
            if span is not None:
                span.set("displaced", len(touched))
        return RefreshResult(
            candidates=total,
            displaced=len(touched),
            memory=MemoryReport(),
        )

    def _refresh_kind(
        self,
        sample: SampleFile,
        source: CandidateSource,
        rng: RandomSource,
    ) -> RefreshResult:
        """Naive replay for a non-uniform kind: write every displacement.

        Each replay step that displaces a slot is written immediately,
        non-final writes included: that is the naive baseline's signature
        cost, as in the uniform strawman above.
        """
        total = source.count()
        if total == 0:
            return RefreshResult(candidates=0, displaced=0)
        with maybe_span(
            self.instrumentation,
            "refresh.write",
            algorithm=self.name,
            candidates=total,
        ) as span:
            touched: set[int] = set()
            for slot, record in replay_displacements(self.kind, sample, source, total):
                sample.write_random(slot, record)  # repro-lint: disable=IO001
                touched.add(slot)
            if span is not None:
                span.set("displaced", len(touched))
        return RefreshResult(
            candidates=total,
            displaced=len(touched),
            memory=MemoryReport(),
        )


class NaiveFullRefresh:
    """Reservoir sampling replayed over a full log (Sec. 3.1).

    Scans the whole log; each element is accepted with probability
    ``M/(|R|+i)`` and written to a random slot immediately.  This is
    literally "apply reservoir sampling subsequently to each of its
    elements".  Requires a :class:`CandidateLogSource`-style scan, so it
    accepts the raw log source plus the dataset size before the logged
    insertions.
    """

    name = "naive-full"

    #: Optional telemetry (see :mod:`repro.obs`); wired automatically by
    #: an instrumented :class:`~repro.core.maintenance.SampleMaintainer`.
    instrumentation = None

    def __init__(self, dataset_size_before: int) -> None:
        if dataset_size_before < 0:
            raise ValueError("dataset_size_before must be non-negative")
        self._dataset_size_before = dataset_size_before

    def refresh(
        self,
        sample: SampleFile,
        source: CandidateSource,
        rng: RandomSource,
    ) -> RefreshResult:
        if not isinstance(source, CandidateLogSource):
            raise TypeError(
                "NaiveFullRefresh scans a raw log; wrap the full log in a "
                "CandidateLogSource (its elements are ALL insertions)"
            )
        if self._dataset_size_before < sample.size:
            raise ValueError("dataset smaller than sample: nothing to refresh")
        with maybe_span(
            self.instrumentation, "refresh.write", algorithm=self.name
        ) as span:
            elements = source.scan_all()
            seen = self._dataset_size_before
            accepted = 0
            touched: set[int] = set()
            for element in elements:
                seen += 1
                if rng.random() * seen < sample.size:
                    slot = rng.randrange(sample.size)
                    # Same as above: the Sec. 3.1 baseline pays random writes
                    # by design; the cost experiments rely on it doing so.
                    sample.write_random(slot, element)  # repro-lint: disable=IO001
                    touched.add(slot)
                    accepted += 1
            if span is not None:
                span.set("displaced", len(touched))
        return RefreshResult(
            candidates=accepted,
            displaced=len(touched),
            memory=MemoryReport(),
        )
