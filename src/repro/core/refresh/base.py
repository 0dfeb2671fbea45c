"""Common interface and result type for refresh algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Protocol, runtime_checkable

from repro.core.logs import CandidateSource
from repro.rng.random_source import RandomSource
from repro.storage.files import SampleFile
from repro.storage.memory import MemoryReport

__all__ = ["RefreshAlgorithm", "RefreshResult", "replay_displacements"]


@dataclass
class RefreshResult:
    """What one refresh did, for experiments and assertions.

    ``displaced`` is the paper's ``Psi``: sample elements overwritten by a
    final candidate.  ``candidates`` is ``|C|``.  The I/O cost itself is
    charged to the sample/log cost model as the refresh runs; callers
    checkpoint around the call to isolate it.
    """

    candidates: int
    displaced: int
    memory: MemoryReport = field(default_factory=MemoryReport)

    @property
    def stable(self) -> int | None:
        """Stable elements, when the sample size is known to the caller."""
        return None  # computed by callers as M - displaced when needed

    def __post_init__(self) -> None:
        if self.candidates < 0:
            raise ValueError("candidates must be non-negative")
        if self.displaced < 0:
            raise ValueError("displaced must be non-negative")
        if self.displaced > self.candidates:
            raise ValueError(
                f"displaced ({self.displaced}) cannot exceed candidates "
                f"({self.candidates}): every displaced slot has a final candidate"
            )


@runtime_checkable
class RefreshAlgorithm(Protocol):
    """A deferred refresh strategy: apply a candidate source to the sample."""

    #: Human-readable name used in experiment tables.
    name: str

    def refresh(
        self,
        sample: SampleFile,
        source: CandidateSource,
        rng: RandomSource,
    ) -> RefreshResult:  # pragma: no cover - protocol
        ...


def replay_displacements(
    kind, sample: SampleFile, source: CandidateSource, total: int
) -> Iterator[tuple[int, object]]:
    """Replay a non-uniform kind's victim rule over this round's log.

    A kind's victims depend on sample *contents*, so the current rows are
    read back first (one sequential scan); then the unexpired log tail,
    ordinals ``replay_start + 1 .. total``, is read in order (sequential
    reads).  Yields ``(slot, record)`` for every displacement, and commits
    the replay to the kind once the log is exhausted.  Consumes no
    randomness, so every algorithm built on it leaves the PRNG untouched.
    """
    replay = kind.begin_replay(list(sample.scan()))
    reader = source.open_reader()
    for ordinal in range(kind.replay_start(total) + 1, total + 1):
        record = reader.read(ordinal)
        slot = replay.step(record)
        if slot is not None:
            yield slot, record
    kind.commit_replay(replay)
