"""The scalar binning (``Discretizer.__call__``, the reference of the
bins that ``SpacecraftEnv._enter`` computes inline, whose observation
index and shield cell come from ``bisect_right`` over Python floats) and
``Partition.locate_one`` must give the bins of the vectorized
``Partition.locate`` and of ``np.searchsorted(side="right")``, at random
points and exactly on every interior edge."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_failure
from shieldcraft.abstraction import PartitionSpec, make_partition
from shieldcraft.env import SpacecraftState
from shieldcraft.learner import Discretizer

PARTITIONS = {
    "default_4x5x5": make_partition(),
    "fine_10x10x15": make_partition(
        PartitionSpec(
            attitude_rate_edges=tuple(np.linspace(0.0, 0.01, 11)),
            wheel_edges=tuple(np.linspace(0.0, 1.0, 11)),
            charge_edges=tuple(np.linspace(0.0, 1.0, 16)),
        )
    ),
}
# the discretizer's pointing-error bins
POINTING_EDGES = (0.008, 0.04)


def searchsorted_obs_index(partition, obs) -> int:
    """The observation index computed with numpy, as the discretizer
    computed it before it moved to bisect."""
    s = partition.spec
    dims = []
    bins = []
    for edges, value in (
        (s.attitude_rate_edges, obs[1]),
        (s.wheel_edges, obs[2]),
        (s.charge_edges, obs[3]),
    ):
        n = len(edges) - 1
        dims.append(n)
        bins.append(min(int(np.searchsorted(np.asarray(edges[1:-1]), value, side="right")), n - 1))
    pi = int(np.searchsorted(np.asarray(POINTING_EDGES), obs[0], side="right"))
    (ri, wi, ci), (_nr, nw, nc) = bins, dims
    idx = ((ri * nw + wi) * nc + ci) * (len(POINTING_EDGES) + 1) + pi
    return (idx * 2 + int(obs[4])) * 2 + int(obs[5])


def check_point(partition, err, rate, wheel, charge, sun=1, target=0):
    obs = np.array([err, rate, wheel, charge, sun, target, 1.0, 0.0, 0.0, 0.0])
    st = SpacecraftState(
        pointing_error=err, attitude_rate=rate, wheel_speed=wheel, charge=charge,
        sun=sun, target=target, mode=0, minutes=0.0,
    )
    index, shield_cell = Discretizer(partition)(
        st, is_failure(rate, wheel, charge)
    )
    assert index == searchsorted_obs_index(partition, obs)
    cell = int(partition.locate(np.array([[rate, wheel, charge]]))[0])
    assert partition.locate_one(rate, wheel, charge) == cell
    assert shield_cell == cell
    if cell >= 0:
        # the discretizer's safety part is the partition cell
        assert index // (4 * (len(POINTING_EDGES) + 1)) == cell


coordinate = st.tuples(
    st.floats(-0.001, 0.15),
    st.floats(-0.001, 0.012),
    st.floats(-0.1, 1.1),
    st.floats(-0.1, 1.1),
    st.integers(0, 1),
    st.integers(0, 1),
)


@pytest.mark.parametrize("name", sorted(PARTITIONS))
@settings(max_examples=300, deadline=None)
@given(point=coordinate)
def test_random_points_agree(name, point):
    check_point(PARTITIONS[name], *point)


@pytest.mark.parametrize("name", sorted(PARTITIONS))
def test_every_interior_edge_agrees(name):
    partition = PARTITIONS[name]
    s = partition.spec
    inside = [0.02, 0.003, 0.5, 0.5]
    axes = (
        (0, POINTING_EDGES),
        (1, s.attitude_rate_edges),
        (2, s.wheel_edges),
        (3, s.charge_edges),
    )
    for axis, edges in axes:
        for edge in edges:
            for value in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                point = list(inside)
                point[axis] = float(value)
                check_point(partition, *point)
