"""The C-backed MT19937 against the pure-Python oracle, and state safety."""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.rng.mt19937 import MT19937, MTState
from repro.rng.random_source import RandomSource
from tests.rng.mt19937_oracle import PureMT19937

#: randrange bounds at and around every power of two up to 64 bits
BOUNDS = sorted(
    {n for k in range(65) for n in (2**k - 1, 2**k, 2**k + 1) if 1 <= n <= 2**64}
)

WORD = st.integers(0, 2**32 - 1)
COUNT = st.integers(0, 1300)  # more than one 624-word twist

OPERATIONS = st.one_of(
    st.tuples(st.just("seed"), st.integers(0, 2**64)),
    st.tuples(st.just("seed_by_array"), st.lists(WORD, min_size=1, max_size=700)),
    st.tuples(st.just("next_uint32"), COUNT),
    st.tuples(st.just("random"), COUNT),
    st.tuples(st.just("randrange"), st.sampled_from(BOUNDS), st.integers(1, 200)),
    st.tuples(st.just("jump_discard"), COUNT),
    st.tuples(st.just("getstate")),
    st.tuples(st.just("setstate"), st.integers(0, 2**16)),
)


def _apply(gen, op, snapshots):
    """Run one operation on ``gen``; returns its outputs."""
    name = op[0]
    if name == "seed":
        gen.seed(op[1])
    elif name == "seed_by_array":
        gen.seed_by_array(op[1])
    elif name == "next_uint32":
        return [gen.next_uint32() for _ in range(op[1])]
    elif name == "random":
        return [gen.random() for _ in range(op[1])]
    elif name == "randrange":
        return [gen.randrange(op[1]) for _ in range(op[2])]
    elif name == "jump_discard":
        gen.jump_discard(op[1])
    elif name == "getstate":
        return gen.getstate()
    elif name == "setstate":
        gen.setstate(snapshots[op[1] % len(snapshots)])
    return None


@given(seed=st.integers(0, 2**32 - 1), ops=st.lists(OPERATIONS, max_size=12))
@settings(max_examples=150, deadline=None)
def test_c_backed_generator_matches_oracle(seed, ops):
    """Every operation gives the oracle's outputs and leaves its state."""
    fast, oracle = MT19937(seed), PureMT19937(seed)
    snapshots = [fast.getstate()]
    for op in ops:
        assert _apply(fast, op, snapshots) == _apply(oracle, op, snapshots)
        state = fast.getstate()
        assert state == oracle.getstate()
        snapshots.append(state)


def test_randrange_above_64_bits_rejected_like_oracle():
    for gen in (MT19937(1), PureMT19937(1)):
        with pytest.raises(ValueError):
            gen.randrange(2**64 + 1)


class TestStateWords:
    @pytest.mark.parametrize("word", [2**32 + 5, 2**33, -1])
    def test_out_of_range_word_rejected(self, word):
        key = [0] * 624
        key[17] = word
        with pytest.raises(ValueError):
            MTState(key=tuple(key), position=0)

    def test_full_range_words_round_trip(self):
        key = tuple([0xFFFFFFFF, 0] * 312)
        gen = MT19937()
        gen.setstate(MTState(key=key, position=624))
        assert gen.getstate() == MTState(key=key, position=624)


class TestCopies:
    """A copy is a second generator at the same position, never an alias."""

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_generator_copy_is_independent(self, clone):
        gen = MT19937(seed=11)
        gen.jump_discard(3)
        twin = clone(gen)
        ahead = [gen.random() for _ in range(5)] + [gen.next_uint32()]
        assert [twin.random() for _ in range(5)] + [twin.next_uint32()] == ahead
        assert twin.getstate() == gen.getstate()

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
        ids=["deepcopy", "pickle"],
    )
    def test_random_source_copy_is_independent(self, clone):
        source = RandomSource(seed=4)
        source.random()
        twin = clone(source)
        ahead = [source.random() for _ in range(5)] + [source.randrange(1000)]
        assert [twin.random() for _ in range(5)] + [twin.randrange(1000)] == ahead
        assert twin.snapshot() == source.snapshot()
