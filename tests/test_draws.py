"""`EpisodeDraws` against `numpy.random.Generator`: any sequence of reads
from a block that holds them returns the values of the Generator calls it
stands for, bit for bit, and a read past the block raises
`DrawsExhaustedError`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import GeneratorDraws
from shieldcraft.env import DrawsExhaustedError, EpisodeDraws

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


def _outputs_read(words, reads) -> int:
    """The outputs that ``reads`` take from the stream of ``words``."""
    draws = EpisodeDraws(words, 4096)
    for name, *args in reads:
        getattr(draws, name)(*args)
    return draws._pos


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**63), reads=READS)
def test_reads_equal_generator_calls(seed, reads):
    # the block holds exactly the outputs the reads take
    draws = EpisodeDraws([seed, 2, 7], _outputs_read([seed, 2, 7], reads))
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
    draws = EpisodeDraws([11], 8)
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


@pytest.mark.parametrize("read, left", [
    (("random",), 0), (("uniforms", 3), 2), (("noise",), 2), (("integers", 7), 0),
])
def test_read_past_the_block_raises(read, left):
    # each read wants one output more than the block has left
    name, *args = read
    draws = EpisodeDraws([5], 6)
    draws.random()
    draws.uniforms(5 - left)
    with pytest.raises(DrawsExhaustedError, match="block of 6 outputs"):
        getattr(draws, name)(*args)
