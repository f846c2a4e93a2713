"""Abstraction row streams against numpy: `pcg64_states` seeds each row as
``np.random.PCG64(words)`` does, `RowStreams.raw` reads what that bit
generator's ``random_raw`` reads, and `SpacecraftEnv.sample_in_cell` gives,
row by row and bit for bit, the batch of the Generator-based one-row
sampler (`oracles.generator_sample_in_cell`) on the row's own stream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import generator_sample_in_cell, lemire_modes
from shieldcraft.abstraction import PartitionSpec, make_partition
from shieldcraft.env import Discretizer, EnvParams, RowStreams, SpacecraftEnv, pcg64_states

# the word widths SeedSequence splits on: 0 is one word, 2**32 two
WORD = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64]),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**100),
)

FINE = PartitionSpec(
    attitude_rate_edges=tuple(np.linspace(0.0, 0.01, 11)),
    wheel_edges=tuple(np.linspace(0.0, 1.0, 11)),
    charge_edges=tuple(np.linspace(0.0, 1.0, 16)),
)


def _numpy_state(words) -> tuple[int, int]:
    state = np.random.PCG64(words).state["state"]
    return state["state"], state["inc"]


def _rows(states_incs) -> list[tuple[int, int]]:
    return list(zip(*states_incs))


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


class TestSeeding:
    @settings(max_examples=300, deadline=None)
    @given(words=st.lists(WORD, max_size=9))
    def test_scalar_words_seed_as_pcg64(self, words):
        assert _rows(pcg64_states(*words)) == [_numpy_state(words)]

    @settings(max_examples=150, deadline=None)
    @given(
        prefix=st.lists(WORD, max_size=3),
        suffix=st.lists(WORD, max_size=3),
        columns=st.integers(1, 3).flatmap(
            lambda width: st.lists(
                st.lists(st.integers(0, 2**32 - 1), min_size=width, max_size=width),
                min_size=1, max_size=12,
            )
        ),
    )
    def test_array_words_seed_each_row(self, prefix, suffix, columns):
        rows = np.array(columns, dtype=np.int64)
        got = _rows(pcg64_states(*prefix, *rows.T, *suffix))
        assert got == [_numpy_state([*prefix, *map(int, row), *suffix]) for row in rows]

    def test_abstraction_rows(self):
        cells = np.repeat(np.arange(50), 4)
        actions = np.tile(np.arange(4), 50)
        for seed in (0, 3, 2**32 - 1, 2**40 + 5):
            got = _rows(pcg64_states(seed, 1, cells, actions))
            assert got == [_numpy_state([seed, 1, q, a]) for q, a in zip(cells, actions)]

    @pytest.mark.parametrize("words", [(-1,), (0, 1, -3), (0, np.array([2, -1, 4]))])
    def test_negative_word_rejected(self, words):
        with pytest.raises(ValueError, match="non-negative"):
            pcg64_states(*words)
        scalar_words = [w if np.isscalar(w) else int(w.min()) for w in words]
        with pytest.raises(ValueError):
            np.random.PCG64(scalar_words)

    def test_float_word_rejected(self):
        with pytest.raises(TypeError):
            pcg64_states(0, np.array([1.0, 2.0]))

    def test_wide_array_word_rejected(self):
        # an int word may take several uint32 words, an array word only one
        with pytest.raises(ValueError, match="below 2"):
            pcg64_states(0, np.array([1, 2**32], dtype=np.uint64))


class TestRowStreams:
    def test_doubles_read_each_rows_stream(self):
        cells, actions = np.array([0, 7, 7, 99]), np.array([3, 0, 1, 2])
        streams = RowStreams.seeded(5, 1, cells, actions)
        doubles = streams.doubles(33)
        assert doubles.shape == (4, 33) and doubles.dtype == np.float64
        for i, (q, a) in enumerate(zip(cells.tolist(), actions.tolist())):
            want = np.random.default_rng([5, 1, q, a]).random(33)
            assert np.array_equal(_bits(doubles[i]), _bits(want))
        # a slice, one row included, reads its rows from the start of their
        # streams, every time
        assert np.array_equal(_bits(streams[1:3].doubles(5)), _bits(doubles[1:3, :5]))
        assert np.array_equal(_bits(streams[3:].doubles(33)), _bits(doubles[3:]))
        assert np.array_equal(_bits(streams.doubles(33)), _bits(doubles))


class TestChunkSampling:
    @pytest.mark.parametrize("n", [1, 2, 3, 199, 200, 201, 2000])
    @pytest.mark.parametrize("spec", [PartitionSpec(), FINE], ids=["default", "fine"])
    @pytest.mark.parametrize("seed", [0, 2**40 + 5])
    def test_rows_equal_generator_rows(self, seed, spec, n):
        partition = make_partition(spec)
        env = SpacecraftEnv(EnvParams(), Discretizer(partition))
        # seven rows spread over the partition and the actions
        cells = np.linspace(0, partition.n_cells - 1, 7).astype(np.int64)
        actions = np.arange(7) % 4
        streams = RowStreams.seeded(seed, 1, cells, actions)
        batch = env.sample_in_cell(partition.bounds[cells], n, streams)
        assert set(batch) == {"rate", "wheel", "charge", "err", "minutes", "u"}
        assert all(v.shape[-1] == 7 * n for v in batch.values())
        for i, (q, a) in enumerate(zip(cells.tolist(), actions.tolist())):
            rng = np.random.default_rng([seed, 1, q, a])
            want = generator_sample_in_cell(env.params, partition.bounds[q], n, rng)
            for name, values in batch.items():
                got = values[..., i * n:(i + 1) * n]
                assert np.array_equal(_bits(got), _bits(want[name])), (q, a, name)
            # the skipped outputs are the mode draw, and the row reads no more
            raw = np.random.PCG64([seed, 1, q, a]).random_raw(8 * n + (n + 1) // 2 + 1)
            assert lemire_modes(raw[5 * n:], n).tolist() == want["mode"].tolist()
            assert rng.bit_generator.random_raw() == raw[-1]

    def test_other_params(self):
        params = EnvParams(sample_pointing_error=(0.01, 0.2), orbit_minutes=95.5)
        partition = make_partition(FINE)
        env = SpacecraftEnv(params, Discretizer(partition))
        cells, actions = np.array([4, 1499]), np.array([2, 1])
        batch = env.sample_in_cell(
            partition.bounds[cells], 50, RowStreams.seeded(9, 1, cells, actions)
        )
        for i, (q, a) in enumerate(zip(cells.tolist(), actions.tolist())):
            rng = np.random.default_rng([9, 1, q, a])
            want = generator_sample_in_cell(params, partition.bounds[q], 50, rng)
            for name, values in batch.items():
                assert np.array_equal(_bits(values[..., i * 50:(i + 1) * 50]), _bits(want[name]))
