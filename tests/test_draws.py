"""`EpisodeDraws` against `numpy.random.Generator`: any sequence of reads,
with blocks small enough that they grow, returns the values of the
Generator calls it stands for, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import GeneratorDraws
from shieldcraft.env import EpisodeDraws

BOUNDS = (1, 2, 3, 4, 5, 7, 1000, 3_000_000_000, 2**32 - 1)

READS = st.lists(
    st.one_of(
        st.tuples(st.just("random")),
        st.tuples(st.just("uniforms"), st.integers(0, 7)),
        st.tuples(st.just("integers"), st.sampled_from(BOUNDS)),
        st.tuples(st.just("noise")),
    ),
    max_size=40,
)


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _double(raw) -> float:
    return float(raw >> np.uint64(11)) * 2.0**-53


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**63), size=st.integers(1, 5), reads=READS)
def test_reads_equal_generator_calls(seed, size, reads):
    draws = EpisodeDraws([seed, 2, 7], size)
    reference = GeneratorDraws([seed, 2, 7])
    for name, *args in reads:
        got = getattr(draws, name)(*args)
        want = getattr(reference, name)(*args)
        if name == "integers":
            assert got == want and type(got) is int
        else:
            assert _bits(got) == _bits(want)


@pytest.mark.parametrize("n", [2, 4, 7, 1000])
def test_pending_half_survives_other_reads(n):
    # one output serves two integers calls, low half first; the reads in
    # between take whole outputs and leave the high half pending. With
    # these bounds Lemire's method rejects at most n in 2**32 halves, and
    # at this seed none.
    raw = np.random.PCG64([11]).random_raw(8)
    draws = EpisodeDraws([11], 2)
    reference = GeneratorDraws([11])
    first = draws.integers(n)
    assert draws.random() == _double(raw[1])
    assert draws.uniforms(2) == [_double(raw[2]), _double(raw[3])]
    second = draws.integers(n)
    assert draws.random() == _double(raw[4])
    want = [reference.integers(n), reference.random(), reference.uniforms(2),
            reference.integers(n), reference.random()]
    assert [first, second] == [want[0], want[3]]
    assert first == (int(raw[0]) & 0xFFFFFFFF) * n >> 32
    assert second == (int(raw[0]) >> 32) * n >> 32


def test_one_value_draws_nothing():
    raw = np.random.PCG64([3]).random_raw(2)
    draws = EpisodeDraws([3], 4)
    assert draws.integers(1) == 0
    assert draws.random() == _double(raw[0])


@pytest.mark.parametrize("n", [0, -1, 2**32, 2**40])
def test_out_of_range_bound_raises(n):
    with pytest.raises(ValueError, match="integers"):
        EpisodeDraws([0], 4).integers(n)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**63), size=st.integers(1, 4), reads=READS)
def test_extended_blocks_equal_one_block(seed, size, reads):
    # each kind of read, then the drawn reads, then each kind again: a block
    # of at most 4 outputs is extended three or more times on the way
    reads = [("random",), ("uniforms", 5), ("noise",), ("integers", 7),
             *reads, ("random",), ("noise",), ("uniforms", 3), ("integers", 1000)]
    draws = EpisodeDraws([seed, 2, 9], size)
    whole = EpisodeDraws([seed, 2, 9], 4096)
    ends = {draws._end}  # a read extends the block at most once
    for name, *args in reads:
        got = getattr(draws, name)(*args)
        want = getattr(whole, name)(*args)
        if name == "integers":
            assert got == want
        else:
            assert _bits(got) == _bits(want)
        ends.add(draws._end)
    assert len(ends) - 1 >= 3


def test_random_lists_each_output_once():
    # after each extension `random` appends the new outputs to its list
    # rather than listing the whole block again
    draws = EpisodeDraws([5], 2)
    draws.random()
    listed = draws._doubles
    for _ in range(8):
        draws.random()
        assert draws._doubles is listed and len(listed) == draws._end
    assert listed == EpisodeDraws([5], 16)._array[:draws._end].tolist()
