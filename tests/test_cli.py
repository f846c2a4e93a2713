import json
from dataclasses import replace
from pathlib import Path

import pytest

from shieldcraft.cli import main
from shieldcraft.pipeline import (
    ExperimentConfig,
    MissingRunError,
    config_from_dict,
    config_to_dict,
    default_config,
    report,
    run_pipeline,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"


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

    def test_episode_length_conventions(self):
        assert default_config("simple").learner.episode_length == 100
        assert default_config("complex").learner.episode_length == 90

    def test_invalid_selectors(self):
        with pytest.raises(ValueError):
            ExperimentConfig(task="medium")
        with pytest.raises(ValueError):
            ExperimentConfig(shield_kinds=("zero",))
