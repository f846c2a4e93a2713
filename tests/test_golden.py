"""Golden digests: two reduced pipelines at seed 0 must reproduce their
outputs byte for byte.

The digests pin the determinism contract inside the suite, so an
optimisation of the episode loop, the abstraction or the shields can show
that it changes no output. Each pipeline's ``mdp.json`` and
``mdp_report.json`` are pinned too, and so is one abstraction alone on the
benchmark's fine partition (10 x 10 x 15 cells, 200 samples per cell),
whose chunks hold ten rows each. The digests depend on the numpy and
scipy versions (RNG streams, special functions, BLAS reductions), so the
tests skip when either differs from the versions they were taken with.

After an intended output change, print the new digests with

    PYTHONPATH=src python tests/test_golden.py

and record why they changed.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

from shieldcraft.abstraction import PartitionSpec, make_partition
from shieldcraft.pipeline import default_config, estimate_mdp, run_pipeline

NUMPY_VERSION = "2.4.6"
SCIPY_VERSION = "1.17.1"

DIGESTED = (
    "metrics.csv",
    "policy_*.json",
    "trainlog_*.csv",
    "episodes_*.jsonl",
    "trajectories_*.jsonl",
)
MDP_DIGESTED = ("mdp.json", "mdp_report.json")


def golden_config(name: str):
    if name == "simple":
        cfg = default_config("simple", seed=0)
        return replace(
            cfg,
            samples_per_cell=500,
            learner=replace(cfg.learner, episodes=60),
            eval_episodes=40,
        )
    if name == "complex":
        cfg = default_config("complex", seed=0)
        return replace(
            cfg,
            samples_per_cell=300,
            shield_kinds=("none", "q"),
            learner=replace(cfg.learner, episodes=80),
            inloop_train_episodes=60,
            eval_episodes=20,
        )
    raise ValueError(name)


def fine_abstraction_config():
    """The complex preset's dynamics on a 10 x 10 x 15 partition, 200
    samples per cell: 6,000 rows, ten to a chunk."""
    cfg = default_config("complex", seed=0)
    spec = PartitionSpec(
        attitude_rate_edges=tuple(np.linspace(0.0, 0.01, 11)),
        wheel_edges=tuple(np.linspace(0.0, 1.0, 11)),
        charge_edges=tuple(np.linspace(0.0, 1.0, 16)),
    )
    return replace(cfg, partition=spec, samples_per_cell=200)


GOLDEN = {
    'complex': {
        'metrics.csv': '45e646b9c90448c56f05f98a844ff3c9f4d354b01bd8fa326fd17d62c8fec9fc',
        'policy_liveness_and_safety.json': '3ddf110098be9186f8cff04eb41474c2c6373927e11c377ec07210891108e93a',
        'policy_liveness_and_safety__inloop_q.json': 'b2ddb102717aef440c2447340bdb9119fa43ace2e86ffc6a351f44441ae2239b',
        'policy_liveness_only.json': '8f529b301eb9cf7fd4342565575056783dc1e7be7ea3a821940d1195ed8218a7',
        'policy_liveness_only__inloop_q.json': '89f6b13d89903b1a785737ecc84aea143503fe1f087fde67bc74b3a99295d74f',
        'trainlog_liveness_and_safety.csv': '2821859145acee764dc419fa02bb16e3ceaa29c7e82a145fa0469290dc19dea9',
        'trainlog_liveness_and_safety__inloop_q.csv': 'c4a1864bf72c7eaf376cc6b2736b392b89d5baa1fab81f89a391fea83c695159',
        'trainlog_liveness_only.csv': 'bedc11305711e320a576809da31abfa97e5d9bc5a8d614f3269d088a4f3a9922',
        'trainlog_liveness_only__inloop_q.csv': 'c4a1864bf72c7eaf376cc6b2736b392b89d5baa1fab81f89a391fea83c695159',
        'episodes_none__trained-with-shield-no__liveness_and_safety.jsonl': 'aaabbedf53730aeef3b8d4c47ec8973b5c508a5fd0fafaf975d0428cdea938a5',
        'episodes_none__trained-with-shield-no__liveness_only.jsonl': 'abca5c4e2f1ae5588c04a895ff7a8ce75b2a822cfefa0a64323a3935505eed3d',
        'episodes_q__trained-with-shield-no__liveness_and_safety.jsonl': '6c5fd4c9e4df91d648e43cdfd15ea1d33df0da516c79f08d14e22ffceece3955',
        'episodes_q__trained-with-shield-no__liveness_only.jsonl': '8f170696ca18fa461d54b4468866cbac22b03d1518971ee382264e259800f99f',
        'episodes_q__trained-with-shield-yes__liveness_and_safety.jsonl': 'bd5cb9bc508508c89d6075b945b0cb9262906d2bcd234b289f0a8909769b44ff',
        'episodes_q__trained-with-shield-yes__liveness_only.jsonl': 'bd5cb9bc508508c89d6075b945b0cb9262906d2bcd234b289f0a8909769b44ff',
        'trajectories_none__trained-with-shield-no__liveness_and_safety.jsonl': '928d9446e1d38c51a03b98a79715307d2c8b8970fad86ace1842071c8e2fcb6c',
        'trajectories_none__trained-with-shield-no__liveness_only.jsonl': '651df184d386b3525e84aeb3526f8056c7000dd199e44f4eddfa0f489ac52fe8',
        'trajectories_q__trained-with-shield-no__liveness_and_safety.jsonl': '88767643242bd3e1bd8ecbeb037365cb7749082606bdb286c564936fa116a656',
        'trajectories_q__trained-with-shield-no__liveness_only.jsonl': 'a6509117ebdbf42402ccc17af91583770ba45977227696b72f2d286c06ff7cb8',
        'trajectories_q__trained-with-shield-yes__liveness_and_safety.jsonl': 'e268374ff6bc68c3da705302110ff90f45f8d6469ebd2967bf35a8751d78c53a',
        'trajectories_q__trained-with-shield-yes__liveness_only.jsonl': '02fac6532f0748aebfbe5d5f5768e7ef0821ec47b478be641b554b4162d91206',
    },
    'simple': {
        'metrics.csv': 'a64fd910ab5778e8a1dda4388ddb36f4e47a128e9c85fcb1be7d3808349e5d50',
        'policy_liveness_and_safety.json': '63c06efae5c0b241add1b4622a5f8496a52cb5f407a39c2799501a28f83fde26',
        'policy_liveness_only.json': '4ffd7e9e75e605736127e51e9f53490c168e99ad476a886a45832e60c6c04667',
        'trainlog_liveness_and_safety.csv': '721f9aacb2c033b6a7ea9a304c99a8e55cc37f74ad184407a916f29d936a4f6d',
        'trainlog_liveness_only.csv': '1ea65b3a86739d7317c624d92acb7fe637929a812c25e42ed47c655ecd16a6ab',
        'episodes_none__trained-with-shield-no__liveness_and_safety.jsonl': 'f96825da2087bd8c196e636e4b393ae6e180a82e5021e979d134b18dd79fb372',
        'episodes_none__trained-with-shield-no__liveness_only.jsonl': 'dcd733b29bb4e2fd2d46ef46a6ca966f98b6f0eab3db51fbebf956a68063664d',
        'trajectories_none__trained-with-shield-no__liveness_and_safety.jsonl': '5f18fb0298bc378a586490e86eb22a6b5a8b79d7ac38f171fe5f8248e741c3be',
        'trajectories_none__trained-with-shield-no__liveness_only.jsonl': 'cae10b9348d19d469721737f2f557fc5ab54a8c3f3813af0a53b7736d3ee9128',
    },
}


MDP_GOLDEN = {
    'complex': {
        'mdp.json': '1b483ddf907cc895651603a0d4ba500ce91151e0d8c103c8dfff8bec1681fa84',
        'mdp_report.json': '5e201d7b708ec54ceca2df21b25fe40ccfaaa18031870e79974c95bd677ba695',
    },
    'simple': {
        'mdp.json': '352f1d0ff686683a5327c0b0a8fab4303fd1623a06fee44ca421e04aad47268c',
        'mdp_report.json': '6a2057f08d0e79037fd5ce59a6448d7a6f523aac415d8fabfc6bde27738feca6',
    },
    'fine_abstraction': {
        'mdp.json': '81d322c1260fb99eadd8b8920531275c5a020c0f1e0850983f2348a83dd62b9c',
        'mdp_report.json': '4fd498132e5ccf11dfa6c4d44b02dbc0ae0b43197b0b82572c3a0c4e059f2101',
    },
}


def digests(run_dir: Path, patterns=DIGESTED) -> dict:
    out = {}
    for pattern in patterns:
        for path in sorted(run_dir.glob(pattern)):
            out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def fine_abstraction_digests(out_dir: Path) -> dict:
    cfg = fine_abstraction_config()
    estimate_mdp(cfg, make_partition(cfg.partition),
                 out_dir / "mdp.json", out_dir / "mdp_report.json")
    return digests(out_dir, MDP_DIGESTED)


def _require_pinned_versions():
    if (np.__version__, scipy.__version__) != (NUMPY_VERSION, SCIPY_VERSION):
        pytest.skip(
            f"golden digests were taken with numpy {NUMPY_VERSION} and scipy "
            f"{SCIPY_VERSION}; installed are numpy {np.__version__} and scipy "
            f"{scipy.__version__}"
        )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden_digests(name, tmp_path):
    _require_pinned_versions()
    run_pipeline(golden_config(name), tmp_path)
    assert digests(tmp_path) == GOLDEN[name]
    assert digests(tmp_path, MDP_DIGESTED) == MDP_GOLDEN[name]


def test_fine_abstraction_matches_golden_digests(tmp_path):
    _require_pinned_versions()
    assert fine_abstraction_digests(tmp_path) == MDP_GOLDEN["fine_abstraction"]


if __name__ == "__main__":
    import tempfile

    print(f"numpy {np.__version__}, scipy {scipy.__version__}", file=sys.stderr)
    mdp_digests = {}
    print("GOLDEN = {")
    for name in sorted(GOLDEN):
        with tempfile.TemporaryDirectory() as tmp:
            run_pipeline(golden_config(name), tmp)
            mdp_digests[name] = digests(Path(tmp), MDP_DIGESTED)
            print(f"    {name!r}: {{")
            for file, digest in digests(Path(tmp)).items():
                print(f"        {file!r}: {digest!r},")
            print("    },")
    print("}")
    with tempfile.TemporaryDirectory() as tmp:
        mdp_digests["fine_abstraction"] = fine_abstraction_digests(Path(tmp))
    print("MDP_GOLDEN = {")
    for name, files in mdp_digests.items():
        print(f"    {name!r}: {{")
        for file, digest in files.items():
            print(f"        {file!r}: {digest!r},")
        print("    },")
    print("}")
