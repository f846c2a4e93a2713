import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

import shieldcraft.pipeline as pipeline
from shieldcraft import ltl
from shieldcraft.cli import main
from shieldcraft.abstraction import make_partition
from shieldcraft.env import MODES, Discretizer, SpacecraftEnv, proposition_table
from shieldcraft.learner import Metrics, qtable_from_json, qtable_to_json
from shieldcraft.mdp import FiniteMdp
from shieldcraft.pipeline import (
    ExperimentConfig,
    MissingRunError,
    RowSpec,
    config_from_dict,
    config_to_dict,
    default_config,
    report,
    run_pipeline,
)
from shieldcraft.shields import Shield

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"


def tiny_config(task="simple", **overrides):
    cfg = default_config(task, seed=0)
    cfg = replace(
        cfg,
        samples_per_cell=200,
        learner=replace(cfg.learner, episodes=40),
        inloop_train_episodes=20,
        eval_episodes=25,
        record_trajectories=2,
        **overrides,
    )
    return cfg


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_run")
    cfg = tiny_config()
    result = run_pipeline(cfg, out)
    return cfg, result


def write_config(cfg, path):
    path.write_text(json.dumps(config_to_dict(cfg)))
    return str(path)


def shield_args(cfg, mdp_path, out, kind="q"):
    return [
        "shield", "--mdp", str(mdp_path), "--spec", str(SPECS / "power_wheel_safety.ltl"),
        "--kind", kind, "--p", str(cfg.shield_threshold), "--horizon", str(cfg.shield_horizon),
        "--out", str(out),
    ]


class TestCompileCommand:
    def test_simple_liveness_reports_two_states(self, capsys):
        assert main(["compile", "--spec", str(SPECS / "imaging_once.ltl")]) == 0
        out = capsys.readouterr().out
        assert "states: 2" in out
        assert "fragment: co-safe" in out

    def test_safety_formula_compiles_violation_monitor(self, capsys):
        assert main(["compile", "--spec", str(SPECS / "power_wheel_safety.ltl")]) == 0
        out = capsys.readouterr().out
        assert "states: 2" in out
        assert "violation monitor" in out

    def test_alternating_chain_state_count(self, capsys):
        assert main(["compile", "--spec", str(SPECS / "alternating_images.ltl")]) == 0
        assert "states: 6" in capsys.readouterr().out

    def test_combined_spec_builds_training_monitor(self, capsys):
        spec = SPECS / "imaging_with_safety.ltl"
        assert main(["compile", "--spec", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "training monitor" in out and "states: 3" in out

    def test_malformed_file_nonzero_exit_with_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.ltl"
        bad.write_text("U p0\n")
        assert main(["compile", "--spec", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "position 0" in err

    def test_true_neither_rejected(self, tmp_path, capsys):
        bad = tmp_path / "neither.ltl"
        bad.write_text("F G p0\n")
        assert main(["compile", "--spec", str(bad)]) == 1
        assert "neither" in capsys.readouterr().err

    def test_writes_dfa_json(self, tmp_path, capsys):
        out = tmp_path / "dfa.json"
        main(["compile", "--spec", str(SPECS / "imaging_once.ltl"), "--out", str(out)])
        data = json.loads(out.read_text())
        assert data["atoms"] == ["p0", "p1", "p2", "p3", "p4"]

    def test_explicit_atom_order(self, tmp_path, capsys):
        out = tmp_path / "dfa.json"
        main([
            "compile", "--spec", str(SPECS / "imaging_once.ltl"),
            "--atoms", "p1,p0", "--out", str(out),
        ])
        assert json.loads(out.read_text())["atoms"] == ["p1", "p0"]


    def test_state_cap_exceeded_is_an_error(self, tmp_path, capsys):
        spec = tmp_path / "chain.ltl"
        spec.write_text("F (p3 & X F (p4 & X F p3))\n")
        assert main(["compile", "--spec", str(spec), "--max-states", "2"]) == 1
        assert "error: progression exceeded the configured state cap (2)" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, task, pick", [
        ("imaging_once", "simple", lambda specs: specs.dfa_liveness),
        ("alternating_images", "complex", lambda specs: specs.dfa_liveness),
        ("power_wheel_safety", "simple", lambda specs: specs.dfa_violation),
        ("imaging_with_safety", "simple", lambda specs: specs.monitors["liveness_and_safety"]),
    ])
    def test_compiles_the_pipeline_automaton(self, spec, task, pick, tmp_path, capsys):
        out = tmp_path / "dfa.json"
        assert main(["compile", "--spec", str(SPECS / f"{spec}.ltl"), "--out", str(out)]) == 0
        expected = pick(pipeline.build_specs(default_config(task)))
        assert out.read_text() == json.dumps(expected.to_json()) + "\n"

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_rejects_non_positive_max_states(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compile", "--spec", str(SPECS / "imaging_once.ltl"), "--max-states", value])
        assert exc.value.code == 2
        assert "--max-states" in capsys.readouterr().err


class TestToolCommands:
    def test_abstract_then_shield(self, tmp_path, capsys):
        mdp_path = tmp_path / "mdp.json"
        code = main([
            "abstract", "--task", "simple", "--samples", "100", "--seed", "3",
            "--out", str(mdp_path),
        ])
        assert code == 0
        assert mdp_path.exists() and mdp_path.with_suffix(".report.json").exists()
        out = capsys.readouterr().out
        assert "101 states" in out

        shield_path = tmp_path / "shield.json"
        code = main([
            "shield", "--mdp", str(mdp_path), "--spec",
            str(SPECS / "power_wheel_safety.ltl"), "--kind", "two",
            "--p", "0.05", "--out", str(shield_path),
        ])
        assert code == 0
        data = json.loads(shield_path.read_text())
        assert data["kind"] == "two" and data["p"] == 0.05

    def test_abstract_cells_flag(self, tmp_path, capsys):
        mdp_path = tmp_path / "mdp.json"
        code = main([
            "abstract", "--task", "simple", "--cells", "2,5,5",
            "--samples", "50", "--out", str(mdp_path),
        ])
        assert code == 0
        assert "51 states" in capsys.readouterr().out
        # bin counts that miss a region boundary are rejected
        code = main([
            "abstract", "--task", "simple", "--cells", "2,3,5",
            "--samples", "50", "--out", str(mdp_path),
        ])
        assert code == 1
        assert "p2 boundary" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_abstract_rejects_non_positive_samples(self, value, tmp_path, capsys):
        # a zero count must not fall back to the config default
        with pytest.raises(SystemExit) as exc:
            main([
                "abstract", "--task", "simple", "--samples", value,
                "--out", str(tmp_path / "mdp.json"),
            ])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err
        assert not (tmp_path / "mdp.json").exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_evaluate_rejects_non_positive_episodes(self, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "evaluate", "--task", "simple", "--policy", str(tmp_path / "policy.json"),
                "--episodes", value,
            ])
        assert exc.value.code == 2
        assert "--episodes" in capsys.readouterr().err

    def test_train_original_reward_flag(self, tmp_path, capsys):
        cfg = tiny_config()
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        policy = tmp_path / "policy.json"
        code = main([
            "train", "--config", str(cfg_path), "--train-spec", "liveness_only",
            "--reward", "original", "--out", str(policy),
        ])
        assert code == 0 and policy.exists()

    def test_train_reward_defaults_to_config(self, tmp_path, capsys):
        # without --reward the config's reward style holds; the complex
        # task's monitor has intermediate states, where the styles differ
        shaped = tiny_config("complex")
        original = replace(shaped, reward=replace(shaped.reward, style="original"))
        from_config = tmp_path / "from_config.json"
        code = main([
            "train", "--config", write_config(original, tmp_path / "original.json"),
            "--train-spec", "liveness_only", "--out", str(from_config),
        ])
        assert code == 0
        from_flag = tmp_path / "from_flag.json"
        code = main([
            "train", "--config", write_config(shaped, tmp_path / "shaped.json"),
            "--train-spec", "liveness_only", "--reward", "original", "--out", str(from_flag),
        ])
        assert code == 0
        assert from_config.read_bytes() == from_flag.read_bytes()

    def test_mismatched_shield_fails_by_name(self, tmp_path, capsys):
        # a shield over 2x5x5 cells cannot filter the default 4x5x5 partition
        cfg = default_config("simple")
        mdp_path, shield_path = tmp_path / "mdp.json", tmp_path / "shield.json"
        code = main([
            "abstract", "--task", "simple", "--cells", "2,5,5", "--samples", "20",
            "--out", str(mdp_path),
        ])
        assert code == 0
        assert main(shield_args(cfg, mdp_path, shield_path, kind="one")) == 0
        capsys.readouterr()
        policy = tmp_path / "policy.json"
        code = main([
            "train", "--task", "simple", "--shield", str(shield_path), "--out", str(policy),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "shield mismatch" in err and "102 product states" in err and "make 202" in err
        assert not policy.exists()

    def test_corrupt_mdp_fails_by_name(self, tmp_path, capsys):
        # one row dropped and one probability of another row tripled: the
        # shield command refuses the file, naming the first defect
        cfg = default_config("simple")
        mdp_path, shield_path = tmp_path / "mdp.json", tmp_path / "shield.json"
        code = main([
            "abstract", "--task", "simple", "--cells", "2,5,5", "--samples", "20",
            "--out", str(mdp_path),
        ])
        assert code == 0
        data = json.loads(mdp_path.read_text())
        data["transitions"] = [t for t in data["transitions"] if t[:2] != [3, 2]]
        tripled = next(t for t in data["transitions"] if t[:2] == [7, 1] and t[3] < 1 / 3)
        tripled[3] *= 3
        mdp_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(shield_args(cfg, mdp_path, shield_path, kind="one")) == 1
        err = capsys.readouterr().err
        assert "corrupt MDP: 2 defect(s)" in err
        assert "first: MissingActionError(state=3, action=2)" in err
        assert not shield_path.exists()

    def test_mdp_row_outside_the_states_fails_by_name(self, tmp_path, capsys):
        # a row for the state past the exit state: the shield command
        # refuses the file by name rather than failing inside synthesis
        cfg = default_config("simple")
        mdp_path, shield_path = tmp_path / "mdp.json", tmp_path / "shield.json"
        code = main([
            "abstract", "--task", "simple", "--cells", "2,5,5", "--samples", "20",
            "--out", str(mdp_path),
        ])
        assert code == 0
        data = json.loads(mdp_path.read_text())
        n = data["states"]["count"]
        data["transitions"].append([n, 0, 0, 1.0])
        mdp_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(shield_args(cfg, mdp_path, shield_path, kind="q")) == 1
        err = capsys.readouterr().err
        assert f"corrupt MDP: 1 defect(s), first: RowIndexError(state={n}, action=0)" in err
        assert not shield_path.exists()

    def test_malformed_mdp_entry_fails_by_name(self, tmp_path, capsys):
        # a null probability: the shield command exits 1 and names the entry,
        # with no traceback
        cfg = default_config("simple")
        mdp_path, shield_path = tmp_path / "mdp.json", tmp_path / "shield.json"
        code = main([
            "abstract", "--task", "simple", "--cells", "2,5,5", "--samples", "20",
            "--out", str(mdp_path),
        ])
        assert code == 0
        data = json.loads(mdp_path.read_text())
        data["transitions"][5][3] = None
        mdp_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(shield_args(cfg, mdp_path, shield_path, kind="q")) == 1
        err = capsys.readouterr().err
        assert ("corrupt MDP: 1 defect(s), first: "
                "MalformedEntryError(field='transitions', index=5)") in err
        assert "Traceback" not in err
        assert not shield_path.exists()

    def test_corrupt_shield_fails_by_name(self, tiny_q_run, tmp_path, capsys):
        # one scores row dropped and one fallback out of range: train and
        # evaluate refuse the file before any episode, naming the first defect
        cfg, result = tiny_q_run
        data = json.loads((result.out_dir / "shield_q.json").read_text())
        n_states = len(data["allowed"])
        data["scores"].pop()
        data["fallback"][3] = 9
        shield = tmp_path / "shield.json"
        shield.write_text(json.dumps(data))
        config = write_config(cfg, tmp_path / "config.json")
        policy = tmp_path / "policy.json"
        capsys.readouterr()
        code = main(["train", "--config", config, "--shield", str(shield), "--out", str(policy)])
        assert code == 1
        err = capsys.readouterr().err
        assert "corrupt shield: 2 defect(s)" in err
        assert f"first: LengthError(field='scores', length={n_states - 1}, n_states={n_states})" in err
        assert not policy.exists()
        code = main([
            "evaluate", "--config", config, "--policy",
            str(result.out_dir / "policy_liveness_only.json"), "--shield", str(shield),
        ])
        assert code == 1
        assert "corrupt shield: 2 defect(s)" in capsys.readouterr().err

    def test_malformed_scalar_fields_fail_by_name(self, tiny_q_run, tmp_path, capsys):
        # a null p failed inside the loader with a TypeError traceback, and a
        # string state count with a bare ValueError
        cfg, result = tiny_q_run
        data = json.loads((result.out_dir / "shield_q.json").read_text())
        data["p"] = None
        shield = tmp_path / "shield.json"
        shield.write_text(json.dumps(data))
        policy = tmp_path / "policy.json"
        capsys.readouterr()
        code = main(["train", "--config", write_config(cfg, tmp_path / "config.json"),
                     "--shield", str(shield), "--out", str(policy)])
        assert code == 1
        err = capsys.readouterr().err
        assert "corrupt shield: 1 defect(s), first: MalformedFieldError(field='p')" in err
        assert "Traceback" not in err
        assert not policy.exists()
        mdp = json.loads((result.out_dir / "mdp.json").read_text())
        mdp["states"]["count"] = "x"
        mdp_path = tmp_path / "mdp.json"
        mdp_path.write_text(json.dumps(mdp))
        assert main(shield_args(cfg, mdp_path, shield)) == 1
        err = capsys.readouterr().err
        assert "corrupt MDP: 1 defect(s), first: MalformedFieldError(field='states.count')" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value, problem", [
        ("7,0", [0.5, float("nan"), 0.1, 0.0], "a value is not finite"),
        ("7,0", [0.5, "1.0", 0.1, 0.0], "not a non-empty list of numbers"),
        ("07,0", [0.0] * 4, "not '<obs_index>,<monitor_state>'"),
    ])
    def test_corrupt_policy_fails_by_name(self, tiny_q_run, tmp_path, capsys, key, value, problem):
        # argmax and the first maximum disagree on a NaN row: the loader
        # refuses it rather than change the greedy action silently
        cfg, result = tiny_q_run
        data = json.loads((result.out_dir / "policy_liveness_only.json").read_text())
        data[key] = value
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps(data))
        capsys.readouterr()
        code = main(["evaluate", "--config", write_config(cfg, tmp_path / "config.json"),
                     "--policy", str(policy), "--episodes", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"corrupt policy: key {key!r}: {problem}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("train_spec, key", [
        ("liveness_and_safety", "99999,0"),
        ("liveness_only", "0,3"),
    ])
    def test_policy_key_outside_the_run_fails_by_name(self, tiny_q_run, tmp_path, capsys,
                                                      train_spec, key):
        # a policy of another partition or monitor evaluated with every row
        # unseen, as a constant policy, and exited 0
        cfg, result = tiny_q_run
        n_observations = Discretizer(make_partition(cfg.partition)).capacity
        n_monitor_states = pipeline.build_specs(cfg).monitors[train_spec].n_states
        obs, z = map(int, key.split(","))
        assert obs >= n_observations or z >= n_monitor_states
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({key: [0.0] * len(MODES)}))
        capsys.readouterr()
        code = main(["evaluate", "--config", write_config(cfg, tmp_path / "config.json"),
                     "--train-spec", train_spec, "--policy", str(policy), "--episodes", "2"])
        assert code == 1
        err = capsys.readouterr().err
        if obs >= n_observations:
            problem = f"observation index {obs} is outside the {n_observations} of this run"
        else:
            problem = f"monitor state {z} is outside the {n_monitor_states} of this run"
        assert f"corrupt policy: key {key!r}: {problem}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("grow", [True, False])
    def test_policy_of_another_action_count_fails_by_name(self, tiny_q_run, tmp_path, capsys,
                                                          grow):
        # a value appended to every row made evaluation die with a bare
        # IndexError in the env step
        cfg, result = tiny_q_run
        data = json.loads((result.out_dir / "policy_liveness_only.json").read_text())
        for row in data.values():
            if grow:
                row.append(0.0)
            else:
                row.pop()
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps(data))
        capsys.readouterr()
        code = main(["evaluate", "--config", write_config(cfg, tmp_path / "config.json"),
                     "--policy", str(policy), "--episodes", "2"])
        assert code == 1
        err = capsys.readouterr().err
        n = len(MODES)
        length = n + 1 if grow else n - 1
        assert f"corrupt policy: key {next(iter(data))!r}: a row of {length} values, not {n}" in err
        assert "Traceback" not in err

    def test_shield_counts_empty_sets_of_non_final_states(self, tmp_path, capsys):
        # a final state has already violated; its empty allowed set is
        # reported among the final states, not as a state missing an action
        cfg = default_config("simple")
        mdp_path, shield_path = tmp_path / "mdp.json", tmp_path / "shield.json"
        assert main(["abstract", "--task", "simple", "--samples", "100", "--seed", "3",
                     "--out", str(mdp_path)]) == 0
        capsys.readouterr()
        assert main(shield_args(cfg, mdp_path, shield_path, kind="one")) == 0
        out = capsys.readouterr().out
        table = proposition_table()
        safety = ltl.parse((SPECS / "power_wheel_safety.ltl").read_text(), table)
        violation = pipeline.violation_monitor(safety, table)
        shield = Shield.load(shield_path)
        final = {s for s in range(shield.n_states) if s % violation.n_states in violation.accepting}
        empty = {s for s, allowed in enumerate(shield.allowed) if not allowed}
        assert len(final) == 101 and final <= empty and empty - final
        assert (f"product-states=202 final-states=101 "
                f"non-final-states-without-allowed-action={len(empty - final)}\n") in out

    def test_q_shield_without_horizon_fails_by_name(self, tiny_run, tmp_path, capsys):
        _cfg, result = tiny_run
        out = tmp_path / "shield.json"
        code = main([
            "shield", "--mdp", str(result.out_dir / "mdp.json"), "--spec",
            str(SPECS / "power_wheel_safety.ltl"), "--kind", "q", "--out", str(out),
        ])
        assert code == 1
        assert "horizon" in capsys.readouterr().err
        assert not out.exists()

    def test_shield_rejects_non_safe_spec(self, tmp_path, capsys):
        mdp_path = tmp_path / "mdp.json"
        main(["abstract", "--task", "simple", "--samples", "50", "--out", str(mdp_path)])
        capsys.readouterr()
        code = main([
            "shield", "--mdp", str(mdp_path), "--spec",
            str(SPECS / "imaging_once.ltl"), "--kind", "one", "--out",
            str(tmp_path / "s.json"),
        ])
        assert code == 1

    def test_shield_accepts_boolean_safe_spec(self, tmp_path, capsys):
        # no temporal operator: safe and co-safe at once; the shield keeps
        # the product out of p1 | p2 from the first step on
        mdp_path = tmp_path / "mdp.json"
        main(["abstract", "--task", "simple", "--samples", "50", "--out", str(mdp_path)])
        capsys.readouterr()
        spec = tmp_path / "boolean.ltl"
        spec.write_text("!(p1 | p2)\n")
        out = tmp_path / "s.json"
        code = main([
            "shield", "--mdp", str(mdp_path), "--spec", str(spec), "--kind", "one",
            "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        violation = pipeline.violation_monitor(
            ltl.parse("!(p1 | p2)", proposition_table()), proposition_table()
        )
        assert violation.n_states == 3
        # (cells + exit state) x violation monitor states
        assert len(data["allowed"]) == 101 * violation.n_states
        assert f"product-states={101 * violation.n_states}" in capsys.readouterr().out

    def test_shield_rejects_spec_with_eventually(self, tmp_path, capsys):
        mdp_path = tmp_path / "mdp.json"
        main(["abstract", "--task", "simple", "--samples", "50", "--out", str(mdp_path)])
        capsys.readouterr()
        spec = tmp_path / "eventually.ltl"
        spec.write_text("G !p1 & F p0\n")
        out = tmp_path / "s.json"
        code = main([
            "shield", "--mdp", str(mdp_path), "--spec", str(spec), "--kind", "one",
            "--out", str(out),
        ])
        assert code == 1
        assert "expects a safe formula" in capsys.readouterr().err
        assert not out.exists()

    def test_train_and_evaluate(self, tmp_path, capsys):
        cfg = tiny_config()
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        policy = tmp_path / "policy.json"
        code = main([
            "train", "--config", str(cfg_path), "--train-spec",
            "liveness_and_safety", "--out", str(policy),
        ])
        assert code == 0 and policy.exists()
        code = main([
            "evaluate", "--config", str(cfg_path), "--train-spec",
            "liveness_and_safety", "--policy", str(policy), "--episodes", "10",
        ])
        assert code == 0
        assert "episodes=10" in capsys.readouterr().out


@pytest.fixture(scope="module")
def tiny_q_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_q_run")
    cfg = tiny_config(shield_kinds=("none", "q"), include_inloop_rows=True)
    return cfg, run_pipeline(cfg, out)


class TestOneWiringPath:
    """The CLI stage commands run the pipeline's own stage functions, so
    they write what run_pipeline writes."""

    def test_abstract_and_shield_match_pipeline(self, tiny_q_run, tmp_path, capsys):
        cfg, result = tiny_q_run
        mdp_path, shield_path = tmp_path / "mdp.json", tmp_path / "shield.json"
        config = write_config(cfg, tmp_path / "config.json")
        assert main(["abstract", "--config", config, "--out", str(mdp_path)]) == 0
        assert main(shield_args(cfg, mdp_path, shield_path)) == 0
        run_mdp = json.loads((result.out_dir / "mdp.json").read_text())
        run_shield = json.loads((result.out_dir / "shield_q.json").read_text())
        assert FiniteMdp.load(mdp_path).to_json() == run_mdp
        assert Shield.load(shield_path).to_json() == run_shield
        assert mdp_path.read_bytes() == (result.out_dir / "mdp.json").read_bytes()
        assert shield_path.read_bytes() == (result.out_dir / "shield_q.json").read_bytes()

    def test_train_matches_pipeline_policy(self, tiny_q_run, tmp_path, capsys):
        cfg, result = tiny_q_run
        policy = tmp_path / "policy.json"
        code = main([
            "train", "--config", write_config(cfg, tmp_path / "config.json"),
            "--train-spec", "liveness_only", "--out", str(policy),
        ])
        assert code == 0
        assert policy.read_bytes() == (result.out_dir / "policy_liveness_only.json").read_bytes()

    def test_train_with_shield_matches_inloop_policy(self, tiny_q_run, tmp_path, capsys):
        cfg, result = tiny_q_run
        assert cfg.inloop_train_episodes != cfg.learner.episodes
        policy = tmp_path / "policy.json"
        code = main([
            "train", "--config", write_config(cfg, tmp_path / "config.json"),
            "--train-spec", "liveness_only", "--shield", str(result.out_dir / "shield_q.json"),
            "--out", str(policy),
        ])
        assert code == 0
        assert f"trained {cfg.inloop_train_episodes} episodes" in capsys.readouterr().out
        inloop = result.out_dir / "policy_liveness_only__inloop_q.json"
        assert policy.read_bytes() == inloop.read_bytes()

    @pytest.mark.parametrize("row", [
        RowSpec("none", False, "liveness_only"),
        RowSpec("q", True, "liveness_and_safety"),
    ], ids=lambda row: row.row_id)
    def test_policy_file_replays_its_episodes(self, tiny_q_run, tmp_path, row):
        # the policy and shield files read back as `evaluate` reads them
        # give the run's own episode records, byte for byte
        cfg, result = tiny_q_run
        out = result.out_dir
        specs, partition = pipeline.build_specs(cfg), make_partition(cfg.partition)
        qtable = qtable_from_json(json.loads((out / f"policy_{row.policy_key}.json").read_text()),
                                  len(MODES), Discretizer(partition).capacity,
                                  specs.monitors[row.train_spec].n_states)
        shield = Shield.load(out / f"shield_{row.shield}.json") if row.shield != "none" else None
        evaluated = pipeline.evaluate_policy(cfg, specs, partition, qtable, row.train_spec, shield)
        assert evaluated.metrics.episodes == cfg.eval_episodes
        episodes = tmp_path / "episodes.jsonl"
        pipeline.write_lines(episodes, [json.dumps(vars(r)) for r in evaluated.episodes])
        assert episodes.read_bytes() == (out / f"episodes_{row.row_id}.jsonl").read_bytes()

    def test_policy_file_round_trip(self, tiny_q_run, tmp_path):
        cfg, result = tiny_q_run
        n_observations = Discretizer(make_partition(cfg.partition)).capacity
        n_monitor_states = pipeline.build_specs(cfg).monitors["liveness_and_safety"].n_states
        policies = sorted(result.out_dir.glob("policy_*.json"))
        assert len(policies) == len(result.policies)
        for path in policies:
            data = json.loads(path.read_text())
            assert data
            again = tmp_path / path.name
            qtable = qtable_from_json(data, len(MODES), n_observations, n_monitor_states)
            pipeline.write_json(again, qtable_to_json(qtable))
            assert again.read_bytes() == path.read_bytes(), path.name

    def test_json_artifacts_are_compact(self, tiny_q_run):
        _cfg, result = tiny_q_run
        for path in sorted(result.out_dir.glob("*.json")):
            text = path.read_text()
            assert text == json.dumps(json.loads(text)) + "\n", path.name

    def test_both_paths_reach_the_probed_entry_points(self, monkeypatch, tmp_path, capsys):
        # the benchmark wraps these module attributes of pipeline and reads
        # the arguments checked here
        names = (
            "build_specs", "estimate_transitions", "abstraction_report", "product",
            "synthesize", "train", "evaluate",
        )
        calls = {name: 0 for name in names}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "estimate_transitions":
                    assert len(args) == 3 and not kwargs
                if name == "synthesize":
                    assert len(args) == 2 and not kwargs
                if name == "train":
                    assert isinstance(args[0], SpacecraftEnv)
                    assert "shield_runtime" in kwargs
                if name == "evaluate":
                    assert isinstance(args[1], SpacecraftEnv)
                    assert "shield_runtime" in kwargs
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
        # the traced benchmark counts env steps by replacing the class's
        # step, so every step that train and evaluate take must call it
        env_steps = 0
        step = SpacecraftEnv.step

        def counted_step(self, action, draws):
            nonlocal env_steps
            env_steps += 1
            return step(self, action, draws)

        monkeypatch.setattr(SpacecraftEnv, "step", counted_step)

        cfg = tiny_config(shield_kinds=("none", "q"))
        out = tmp_path / "run"
        run_pipeline(cfg, out)
        assert all(calls.values()), calls
        info = json.loads((out / "run_info.json").read_text())
        trained = sum(policy["train_steps"] for policy in info["policies"].values())
        evaluated = sum(json.loads(line)["steps"] for path in sorted(out.glob("episodes_*.jsonl"))
                        for line in path.read_text().splitlines())
        assert trained > 0 and evaluated > 0
        assert env_steps == trained + evaluated

        calls.update((name, 0) for name in names)
        config = write_config(cfg, tmp_path / "config.json")
        mdp_path, shield_path = tmp_path / "mdp.json", tmp_path / "shield.json"
        policy = tmp_path / "policy.json"
        for argv in (
            ["abstract", "--config", config, "--out", str(mdp_path)],
            shield_args(cfg, mdp_path, shield_path),
            ["train", "--config", config, "--shield", str(shield_path), "--out", str(policy)],
            ["evaluate", "--config", config, "--policy", str(policy),
             "--shield", str(shield_path), "--episodes", "5"],
        ):
            assert main(argv) == 0, argv
        assert all(calls.values()), calls


class TestPipeline:
    def test_artifacts_written(self, tiny_run):
        _cfg, result = tiny_run
        out = result.out_dir
        for name in (
            "config.json", "dfa_liveness.json", "dfa_violation.json",
            "dfa_monitor.json", "mdp.json", "mdp_report.json", "metrics.csv",
            "run_info.json",
        ):
            assert (out / name).exists(), name
        assert (out / "policy_liveness_only.json").exists()
        assert (out / "trainlog_liveness_and_safety.csv").exists()
        rows = (out / "metrics.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + len(result.rows)

    def test_metrics_columns_are_the_record_fields(self, tiny_run):
        _cfg, result = tiny_run
        header = (result.out_dir / "metrics.csv").read_text().split("\n")[0]
        names = [f.name for f in fields(RowSpec)] + ["train_avg_vf"]
        assert header.split(",") == names + [f.name for f in fields(Metrics)]
        assert header == (
            "shield,trained_with_shield,train_spec,train_avg_vf,sat_pct,violate_pct,"
            "failure_pct,interventions_sat,interventions_unsat,interventions_mean,"
            "eval_mean_vf,episodes"
        )

    def test_run_info_counts_steps(self, tiny_run):
        _cfg, result = tiny_run
        out = result.out_dir
        info = json.loads((out / "run_info.json").read_text())
        assert set(info["policies"]) == set(result.policies)
        for key, policy in info["policies"].items():
            assert policy["train_steps"] == result.policies[key].steps > 0
            assert policy["train_steps_per_s"] == pytest.approx(
                policy["train_steps"] / policy["train_s"]
            )
        assert set(info["rows"]) == {row.spec.row_id for row in result.rows}
        for row_id, row in info["rows"].items():
            lines = (out / f"episodes_{row_id}.jsonl").read_text().splitlines()
            assert row["eval_steps"] == sum(json.loads(line)["steps"] for line in lines) > 0
            assert row["eval_steps_per_s"] == pytest.approx(row["eval_steps"] / row["eval_s"])

    def test_rerun_byte_identical(self, tiny_run, tmp_path):
        cfg, result = tiny_run
        again = run_pipeline(cfg, tmp_path / "again")
        a = (result.out_dir / "metrics.csv").read_bytes()
        b = (tmp_path / "again" / "metrics.csv").read_bytes()
        assert a == b

    def test_effective_config_reproduces_run(self, tiny_run, tmp_path):
        _cfg, result = tiny_run
        loaded = config_from_dict(
            json.loads((result.out_dir / "config.json").read_text())
        )
        again = run_pipeline(loaded, tmp_path / "fromconfig")
        assert (result.out_dir / "metrics.csv").read_bytes() == (
            tmp_path / "fromconfig" / "metrics.csv"
        ).read_bytes()

    def test_config_holds_one_seed_and_one_reward(self, tiny_run):
        _cfg, result = tiny_run
        data = json.loads((result.out_dir / "config.json").read_text())
        paths = []

        def walk(node, path):
            for key, value in node.items():
                if key in ("seed", "reward"):
                    paths.append(path + key)
                if isinstance(value, dict):
                    walk(value, f"{path}{key}.")

        walk(data, "")
        assert sorted(paths) == ["reward", "seed"]

    def test_episode_records_jsonl(self, tiny_run):
        _cfg, result = tiny_run
        path = result.out_dir / f"episodes_{result.rows[0].spec.row_id}.jsonl"
        lines = path.read_text().strip().split("\n")
        assert len(lines) == result.rows[0].metrics.episodes
        record = json.loads(lines[0])
        assert {"satisfied_liveness", "violated_safety", "failed", "interventions"} <= set(record)

    def test_trajectory_dump_format(self, tiny_run):
        _cfg, result = tiny_run
        path = result.out_dir / f"trajectories_{result.rows[0].spec.row_id}.jsonl"
        rows = [json.loads(line) for line in path.read_text().strip().split("\n")]
        assert {r["episode"] for r in rows} == {0, 1}
        step_row = rows[1]
        assert {"step", "mode", "observation", "labels", "reward", "dfa_state", "intervened"} <= set(step_row)
        assert len(step_row["observation"]) == 10


class TestReport:
    def test_merged_and_timeseries(self, tiny_run, tmp_path, capsys):
        _cfg, result = tiny_run
        out = tmp_path / "report"
        summary = report([result.out_dir], out)
        merged = Path(summary["merged_metrics"]).read_text().strip().split("\n")
        assert merged[0].startswith("run,shield,")
        assert len(merged) == 1 + len(result.rows)
        assert summary["timeseries"]
        series = (out / summary["timeseries"][0]).read_text().strip().split("\n")
        assert series[0] == "step,mode,wheel_speed,charge,sun,target_access,intervened"
        assert len(series) > 2

    def test_side_by_side_runs(self, tiny_run, tmp_path):
        _cfg, result = tiny_run
        out = tmp_path / "side"
        summary = report([result.out_dir, result.out_dir], out)
        merged = Path(summary["merged_metrics"]).read_text().strip().split("\n")
        assert len(merged) == 1 + 2 * len(result.rows)

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(MissingRunError):
            report([], tmp_path / "empty")
        with pytest.raises(MissingRunError):
            report([tmp_path / "nonexistent"], tmp_path / "bad")

    def test_cli_report(self, tiny_run, tmp_path, capsys):
        _cfg, result = tiny_run
        code = main([
            "report", "--runs", str(result.out_dir), "--out", str(tmp_path / "r"),
        ])
        assert code == 0


# a top-level key, its malformed value, and the message naming it
MALFORMED_CONFIGS = [
    pytest.param(key, value, message, id=name)
    for name, key, value, message in [
        ("partition", "partition", None, "config section partition must be a JSON object"),
        ("env", "env", 5, "config section env must be a JSON object"),
        ("learner", "learner", [], "config section learner must be a JSON object"),
        ("reward", "reward", {"gamma": "x"}, "config field reward.gamma must be float, got 'x'"),
        ("train_specs", "train_specs", 5, "config field train_specs must be tuple[str, ...]"),
        ("shield_kinds", "shield_kinds", [], "shield_kinds must name at least one selector"),
        # a string where a list belongs is not read as its characters
        ("shield_kinds-string", "shield_kinds", "none",
         "config field shield_kinds must be tuple[str, ...], got 'none'"),
        ("shield_horizon-string", "shield_horizon", "x",
         "config field shield_horizon must be int | None, got 'x'"),
        ("eval_episodes-float", "eval_episodes", 2.5,
         "config field eval_episodes must be int, got 2.5"),
        ("seed-bool", "seed", True, "config field seed must be int, got True"),
        ("samples_per_cell-bool", "samples_per_cell", False,
         "config field samples_per_cell must be int, got False"),
        ("include_inloop_rows-int", "include_inloop_rows", 1,
         "config field include_inloop_rows must be bool, got 1"),
        ("task-list", "task", ["simple"], "config field task must be str, got ('simple',)"),
        ("env.sun_window-length", "env", {"sun_window": [0.0, 0.5, 1.0]},
         "config field env.sun_window must be tuple[float, float], got (0.0, 0.5, 1.0)"),
        ("env.target_windows-element", "env", {"target_windows": [[0.1, "a"]]},
         "config field env.target_windows must be tuple[tuple[float, float], ...]"),
        ("env.rate_noise-nan", "env", {"rate_noise": [math.nan, 0.0006, 0.0004, 0.0004]},
         "rate_noise needs one finite entry per mode, got (nan, 0.0006, 0.0004, 0.0004)"),
        ("learner.episodes-string", "learner", {"episodes": "10"},
         "config field learner.episodes must be int, got '10'"),
        # an int too large for a float is no float, as a field or an element
        ("env.orbit_minutes-huge-int", "env", {"orbit_minutes": 10**400},
         "config field env.orbit_minutes must be float, got 1000"),
        ("env.rate_noise-huge-int", "env", {"rate_noise": [0.0005, 10**309, 0.0004, 0.0004]},
         "config field env.rate_noise must be tuple[float, float, float, float], got (0.0005, 1000"),
    ]
]

# a command's files and arguments (run in the files' directory), and the one
# stderr line that names the failed stage, simulator row or MDP row
STAGE_FAILURES = [
    pytest.param(
        {"bad.json": {"liveness_spec": "F (p0"}},
        ["pipeline", "--config", "bad.json", "--out", "run"],
        r"error: pipeline stage 'compile' failed: syntax error at position 5",
        id="pipeline-compile",
    ),
    pytest.param(
        {"bad.json": {"env": {"wheel_noise": [1e308] * 4}}},
        ["abstract", "--config", "bad.json", "--out", "m.json"],
        r"error: simulator failed at cell \d+, action \d+: non-finite state coordinates",
        id="abstract-simulator",
    ),
    pytest.param(
        {"bad.json": {"env": {"wheel_noise": [1e308] * 4}}},
        ["pipeline", "--config", "bad.json", "--out", "run"],
        r"error: pipeline stage 'abstract' failed: simulator failed at cell \d+, action \d+: ",
        id="pipeline-simulator",
    ),
    pytest.param(
        {"mdp.json": {"states": {"count": 10**12}, "actions": ["a", "b"],
                      "transitions": [[0, 0, 0, 1.0], [0, 1, 0, 1.0]], "labels": [],
                      "atoms": ["p1", "p2"]}},
        ["shield", "--mdp", "mdp.json", "--spec", str(SPECS / "power_wheel_safety.ltl"),
         "--kind", "one", "--out", "shield.json"],
        r"error: corrupt MDP: 1 defect\(s\), first: MissingActionError\(state=1, action=0\)",
        id="shield-mdp-count",
    ),
]


class TestConfigSerialization:
    def test_round_trip(self):
        cfg = default_config("complex", seed=7)
        data = json.loads(json.dumps(config_to_dict(cfg)))
        assert config_from_dict(data) == cfg

    def test_unknown_key_rejected(self):
        data = config_to_dict(default_config("simple"))
        data["typo_field"] = 1
        with pytest.raises(ValueError):
            config_from_dict(data)
        # seed and reward live at the top level only; an old config that
        # still nests them under learner fails and names both keys
        data = config_to_dict(default_config("simple"))
        data["learner"] = {**data["learner"], "seed": 0, "reward": data["reward"]}
        with pytest.raises(ValueError, match=r"learner: \['reward', 'seed'\]"):
            config_from_dict(data)
        # so does an old config that still sets the deleted abstraction_workers
        data = config_to_dict(default_config("simple"))
        data["abstraction_workers"] = 2
        with pytest.raises(ValueError, match=r"<root>: \['abstraction_workers'\]"):
            config_from_dict(data)

    def test_episode_length_conventions(self):
        assert default_config("simple").learner.episode_length == 100
        assert default_config("complex").learner.episode_length == 90

    def test_invalid_selectors(self):
        with pytest.raises(ValueError):
            ExperimentConfig(task="medium")
        with pytest.raises(ValueError):
            ExperimentConfig(shield_kinds=("zero",))

    def test_q_shield_requires_horizon(self):
        with pytest.raises(ValueError, match="shield_horizon"):
            ExperimentConfig(shield_kinds=("q",))
        assert ExperimentConfig(shield_kinds=("none", "q"), shield_horizon=5).shield_horizon == 5

    @pytest.mark.parametrize("overrides, name", [
        ({"shield_threshold": 1.5, "shield_kinds": ("one",)}, "shield_threshold"),
        ({"shield_threshold": 0.0}, "shield_threshold"),
        ({"shield_horizon": 0}, "shield_horizon"),
        ({"eval_episodes": 0}, "eval_episodes"),
        ({"inloop_train_episodes": 0}, "inloop_train_episodes"),
        ({"record_trajectories": -1}, "record_trajectories"),
        ({"samples_per_cell": 0}, "samples_per_cell"),
        ({"samples_per_cell": 2.5}, "samples_per_cell"),
        ({"seed": True}, "seed"),
        ({"seed": -1}, "seed"),
        # an empty selector runs no row, a repeated one writes its rows twice
        ({"train_specs": ()}, "train_specs must name at least one selector"),
        ({"shield_kinds": ()}, "shield_kinds must name at least one selector"),
        ({"train_specs": ("liveness_only",) * 2}, "train_specs must name .* each once"),
        ({"shield_kinds": ("none", "none")}, "shield_kinds must name .* each once"),
    ])
    def test_bad_values_fail_at_construction(self, overrides, name):
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**overrides)

    def test_bad_values_in_a_loaded_config_fail_by_name(self):
        data = config_to_dict(default_config("complex"))
        data["shield_threshold"] = 1.5
        with pytest.raises(ValueError, match="shield_threshold"):
            config_from_dict(data)

    @pytest.mark.parametrize("key, value, message", MALFORMED_CONFIGS)
    def test_malformed_section_fails_by_name(self, key, value, message):
        data = config_to_dict(default_config("simple"))
        data[key] = value
        with pytest.raises(ValueError) as info:
            config_from_dict(data)
        assert message in str(info.value)

    @pytest.mark.parametrize("data", [
        {"shield_horizon": None},
        {"inloop_optimism": 1, "samples_per_cell": 3},
        {"env": {"sun_window": [0, 1], "target_windows": []}},
        {"learner": {"alpha": 1}},
    ])
    def test_json_values_of_the_field_types_load(self, data):
        # an int is a float, null an absent horizon and a list a tuple
        cfg = config_from_dict(data)
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    def test_a_large_int_that_fits_a_float_loads_unconverted(self):
        cfg = config_from_dict({"env": {"orbit_minutes": 10**300}})
        assert cfg.env.orbit_minutes == 10**300
        assert type(config_to_dict(cfg)["env"]["orbit_minutes"]) is int

    def test_config_that_is_not_an_object_fails_by_name(self):
        with pytest.raises(ValueError, match="config section <root> must be a JSON object"):
            config_from_dict([])

    @pytest.mark.parametrize("key, value, message", MALFORMED_CONFIGS)
    def test_cli_exits_1_on_a_malformed_config(self, key, value, message, tmp_path):
        # the installed console script runs main() the same way
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({key: value}))
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "shieldcraft.cli", "abstract", "--config", str(bad),
             "--out", str(tmp_path / "m.json")],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.splitlines()) == 1
        assert message in proc.stderr
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("files, argv, line", STAGE_FAILURES)
    def test_cli_exits_1_naming_the_failed_stage_or_row(self, files, argv, line, tmp_path):
        for name, data in files.items():
            (tmp_path / name).write_text(json.dumps(data))
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "shieldcraft.cli", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, check=False,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert re.match(line, proc.stderr), proc.stderr

    def test_a_stage_failure_of_another_cause_keeps_its_traceback(self, monkeypatch, tmp_path):
        def broken(cfg):
            raise RuntimeError("not a reported error")

        monkeypatch.setattr(pipeline, "build_specs", broken)
        with pytest.raises(pipeline.PipelineStageError) as info:
            main(["pipeline", "--task", "simple", "--out", str(tmp_path / "run")])
        assert isinstance(info.value.__cause__, RuntimeError)
