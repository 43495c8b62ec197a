import json
import warnings

import numpy as np
import pytest

from koopctl import cli, config
from koopctl.config import ConfigError, config_hash, load_config, merge_defaults

STAGE_NAMES = ["babble", "factorize", "identify", "synthesize", "evaluate"]
# the leading raw-state features of a custom single-pendulum map
RAW_STATE = [{"label": "theta", "poly": [1, 0]},
             {"label": "theta_dot", "poly": [0, 1]}]


def smoke_config(tmp_path, **overrides):
    cfg = {
        "plant": {"kind": "single_pendulum", "params": {"gravity": 1.0}},
        "observables": {"kind": "single_pendulum"},
        "babbling": {"num_gains": 10, "num_initial_conditions": 9,
                     "steps": 40},
        "synthesis": {"max_resamples": 15},
        "evaluation": {
            "horizon_seconds": 10.0,
            "initial_conditions": {"kind": "uniform",
                                   "ranges": [[-1.5, 1.5], [-3.0, 3.0]],
                                   "count": 6},
            "success_gate": 0.5,
            "fidelity_steps": 40,
        },
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
    }
    for key, val in overrides.items():
        cfg.setdefault(key, {})
        if isinstance(val, dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            merge_defaults({"plnat": {}})

    def test_comment_keys_skipped(self):
        cfg = merge_defaults({"_doc": "hi", "seed": 3})
        assert cfg["seed"] == 3

    def test_hash_stable_under_key_order(self):
        a = merge_defaults({"seed": 1, "output_dir": "x"})
        b = merge_defaults({"output_dir": "x", "seed": 1})
        assert config_hash(a) == config_hash(b)

    @pytest.mark.parametrize("key, value", [
        ("backend", "bisection"), ("rate_budget", 0), ("ridge_delta", 0.0)])
    def test_removed_backend_key_exits_2(self, tmp_path, capsys, key, value):
        cfgfile = smoke_config(tmp_path, synthesis={key: value})
        assert cli.main(["babble", "--config", str(cfgfile)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"synthesis.{key}" in err and err.count("\n") == 1

    def test_every_doc_key_names_a_default(self):
        # the koopctl init template documents only keys that exist
        for key in config._DOC:
            *sections, name = key.split(".")
            section = config.DEFAULTS
            for part in sections:
                section = section[part]
            assert name in section, key

    @pytest.mark.parametrize("section, values, key", [
        ("synthesis", {"eps_p": 0}, "synthesis.eps_p"),
        ("factorization", {"eps_h": -1}, "factorization.eps_h"),
        ("synthesis", {"lambda_tol": "a"}, "synthesis.lambda_tol"),
        ("evaluation", {"horizon_seconds": "a"}, "evaluation.horizon_seconds"),
        ("evaluation", {"fidelity_steps": -1}, "evaluation.fidelity_steps"),
        ("evaluation", {"initial_conditions": {"kind": "uniform", "count": "x"}},
         "evaluation.initial_conditions.count"),
        ("evaluation", {"initial_conditions": {
            "kind": "grid", "ranges": [[0, 1, 2], [-3, 3]], "shape": [2, 2]}},
         "evaluation.initial_conditions"),
        ("evaluation", {"initial_conditions": {
            "kind": "grid", "ranges": [[0, 1, 2], [-3, 3, 0]],
            "shape": [2, 2]}}, "ranges must be 2 x 2, got (2, 3)"),
        ("synthesis", {"max_resamples": -1}, "synthesis.max_resamples"),
        ("synthesis", {"max_resamples": 2.0}, "synthesis.max_resamples"),
        ("synthesis", {"eps_p": float("nan")}, "synthesis.eps_p"),
        ("synthesis", {"feas_tol": True}, "synthesis.feas_tol"),
        ("synthesis", {"assumption_gate": "a"}, "synthesis.assumption_gate"),
        ("evaluation", {"initial_conditions": {"kind": "uniform", "count": 0}},
         "initial states must be (n, 2) with n >= 1"),
        ("evaluation", {"settle_tol": "a"}, "evaluation.settle_tol"),
        ("evaluation", {"success_gate": "a"}, "evaluation.success_gate"),
        ("identification", {"ridge": "a"}, "identification.ridge"),
        ("identification", {"holdout_fraction": 1.5},
         "identification.holdout_fraction must lie in [0, 1)"),
        ("babbling", {"dt": -0.01}, "babbling.dt"),
        ("babbling", {"num_gains": 2.5}, "babbling.num_gains"),
        ("babbling", {"num_initial_conditions": 9.0},
         "babbling.num_initial_conditions"),
        ("babbling", {"steps": 20.5}, "babbling.steps"),
        ("babbling", {"grid_shape": [3.0, 3]}, "babbling.grid_shape"),
        ("evaluation", {"fidelity_steps": 2001, "horizon_seconds": 20.0},
         "evaluation.fidelity_steps"),
        ("evaluation", {"horizon_seconds": 10 ** 400},
         "evaluation.horizon_seconds / babbling.dt overflows"),
        ("evaluation", {"initial_conditions": {
            "kind": "grid", "ranges": [[-1, 1], [-2, 2]], "shape": [2]}},
         "shape must hold 2 counts"),
        ("evaluation", {"initial_conditions": {
            "kind": "list", "states": [[0.1, float("nan")]]}},
         "states must be finite"),
        ("evaluation", {"extra_states": [[float("nan"), 0.0]]},
         "states must be finite"),
        ("evaluation", {"initial_conditions": {
            "kind": "uniform", "ranges": [[-1, 1], [0, float("inf")]]}},
         "ranges must be finite"),
        ("plant", {"params": [1, 2]}, "plant.params must be an object"),
        ("observables", {"kind": "custom", "state_dim": 2, "features":
                         RAW_STATE + [{"label": "z", "poly": [0, 0, 1]}]},
         "feature 'z' has more exponents or coefficients than the 2"),
        ("observables", {"kind": "custom", "state_dim": 2,
                         "features": RAW_STATE[:1]},
         "1 features cannot hold the 2 raw state components"),
        ("observables", {"kind": "custom", "state_dim": None,
                         "features": RAW_STATE},
         "custom observables need an integer 'state_dim', got None"),
        ("observables", {"kind": "custom", "state_dim": 2, "features": "abc"},
         "custom observables need a 'features' list"),
        ("observables", {"kind": "custom", "state_dim": 2, "features":
                         RAW_STATE + [{"label": "t", "trigs": [["tan", [1, 0]]]}]},
         "feature 't' has a trig kind other than sin or cos"),
        ("observables", {"kind": "double_pendulum"},
         "observables map 'double_pendulum' has state_dim 4, the "
         "single_pendulum plant 2"),
        ("observables", {"controller": {"kind": "custom", "state_dim": 1,
                                        "features": [{"label": "x", "poly": [1]}]}},
         "observables.controller map 'custom' has state_dim 1"),
    ])
    def test_malformed_value_exits_2_before_any_stage(
            self, tmp_path, capsys, section, values, key):
        cfgfile = smoke_config(tmp_path, **{section: values})
        assert cli.main(["pipeline", "--config", str(cfgfile)]) \
            == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert key in err
        assert not (tmp_path / "out").exists()

    def test_integer_beyond_the_float_range_is_valid(self):
        config.validate(merge_defaults({"seed": 10 ** 400}))
        with pytest.raises(ConfigError, match="synthesis.eps_p"):
            config.validate(merge_defaults({"synthesis": {"eps_p": 1e400}}))

    def test_fidelity_steps_fit_the_evaluation_horizon(self):
        # 20 s at dt 0.01 is 2000 steps; the fidelity prefix may use them all
        config.validate(merge_defaults({"evaluation": {"fidelity_steps": 2000}}))
        with pytest.raises(ConfigError, match="at most the 2000 evaluation"):
            config.validate(merge_defaults(
                {"evaluation": {"fidelity_steps": 2001}}))
        # a step count beyond the float range is an error, not a traceback
        for horizon, dt in [(10 ** 400, 0.01), (1e300, 1e-300)]:
            with pytest.raises(ConfigError, match="overflows"):
                config.validate(merge_defaults(
                    {"evaluation": {"horizon_seconds": horizon},
                     "babbling": {"dt": dt}}))

    @pytest.mark.parametrize("section, states", [
        ({"initial_conditions": {"kind": "grid", "shape": [2, 3],
                                 "ranges": [[-1.0, 1.0], [-2.0, 2.0]]}},
         [[-1.0, -2.0], [-1.0, 0.0], [-1.0, 2.0],
          [1.0, -2.0], [1.0, 0.0], [1.0, 2.0]]),
        ({"initial_conditions": {"kind": "list",
                                 "states": [[0.1, 0.0], [-0.2, 0.3]]}},
         [[0.1, 0.0], [-0.2, 0.3]]),
        ({"initial_conditions": {"kind": "list", "states": [[0.1, 0.0]]},
          "extra_states": [[0.5, -0.5]]},
         [[0.1, 0.0], [0.5, -0.5]]),
    ])
    def test_evaluation_state_kinds_through_pipeline(self, tmp_path, capsys,
                                                      section, states):
        cfgfile = smoke_config(tmp_path, evaluation=section)
        assert cli.main(["pipeline", "--config", str(cfgfile)]) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [r["initial_state"] for r in report["records"]] == states

    def test_evaluation_states_checked_only_where_evaluated(self, tmp_path,
                                                            capsys):
        # the default two-row evaluation ranges do not fit the double
        # pendulum; babble never reads them, pipeline does
        cfgfile = smoke_config(
            tmp_path, plant={"kind": "double_pendulum"},
            observables={"kind": "double_pendulum"},
            babbling={"state_grid": [[-1.0, 1.0]] * 4, "num_gains": 2,
                      "num_initial_conditions": 2, "steps": 5})
        assert cli.main(["babble", "--config", str(cfgfile)]) == cli.EXIT_OK
        capsys.readouterr()
        assert cli.main(["pipeline", "--config", str(cfgfile)]) \
            == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert "ranges must be 4 x 2" in err and err.count("\n") == 1
        assert out == ""  # stopped before the babble cache check

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.json")

    def test_unreadable_config_exits_2_with_one_line(self, tmp_path, capsys):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe{")
        for path in (tmp_path, binary):  # a directory, then not UTF-8
            assert cli.main(["babble", "--config", str(path)]) \
                == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1

    def test_singular_mass_matrix_exits_2_with_one_line(self, tmp_path,
                                                         capsys):
        cfgfile = smoke_config(
            tmp_path, plant={"kind": "double_pendulum",
                             "params": {"m1": 1e-17}},
            observables={"kind": "double_pendulum"},
            babbling={"state_grid": [[-1.0, 1.0]] * 4})
        assert cli.main(["babble", "--config", str(cfgfile)]) \
            == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "singular mass matrix" in err and err.count("\n") == 1

    @pytest.mark.parametrize("plant, key", [
        ({"input_bound": -1}, "plant.input_bound"),
        ({"input_bound": float("inf")}, "plant.input_bound"),
        ({"params": {"gravity": 1.0, "input_bound": 0.0}},
         "plant.params.input_bound"),
    ])
    def test_bad_input_bound_exits_2_before_babble(self, tmp_path, capsys,
                                                   plant, key):
        # a bound of -1 used to babble, identify and synthesize, then
        # exit 5 with every evaluation trajectory failing
        cfgfile = smoke_config(tmp_path, plant=plant)
        assert cli.main(["pipeline", "--config", str(cfgfile)]) \
            == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be a positive "
                              "finite number")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_state_grid_must_match_the_plant(self, tmp_path, capsys):
        # the default grid has the single pendulum's two rows
        cfgfile = smoke_config(
            tmp_path, plant={"kind": "double_pendulum"},
            observables={"kind": "double_pendulum"})
        assert cli.main(["babble", "--config", str(cfgfile)]) \
            == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "babbling.state_grid" in err and err.count("\n") == 1
        assert not (tmp_path / "out" / "dataset").exists()

    def test_malformed_state_grid_row_exits_2(self, tmp_path, capsys):
        cfgfile = smoke_config(tmp_path, babbling={
            "state_grid": [[-1.0, 1.0], [None, 1.0]]})
        assert cli.main(["babble", "--config", str(cfgfile)]) \
            == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: bad babbling config")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("shape, why", [
        ([3, 3], "(3, 3) does not factor 4 initial conditions"),
        ([4], "(4,) needs 2 counts, one per state component"),
    ])
    def test_bad_grid_shape_exits_2(self, tmp_path, capsys, shape, why):
        cfgfile = smoke_config(tmp_path, babbling={
            "grid_shape": shape, "num_initial_conditions": 4})
        assert cli.main(["babble", "--config", str(cfgfile)]) \
            == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: bad babbling config: grid_shape {why}\n"


class TestInit:
    def test_template_is_valid_config(self, tmp_path):
        path = tmp_path / "template.json"
        assert cli.main(["init", str(path)]) == 0
        cfg = load_config(path)
        assert cfg["plant"]["kind"] == "single_pendulum"

    def test_template_passes_its_own_gate(self, tmp_path, capsys):
        path = tmp_path / "template.json"
        assert cli.main(["init", str(path)]) == 0
        assert load_config(path)["plant"]["params"] == {"gravity": 1.0}
        code = cli.main(["pipeline", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0, out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["success_rate"] >= 0.9

    def test_unwritable_path_exits_7_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "no-such-dir" / "template.json"
        assert cli.main(["init", str(path)]) == cli.EXIT_WRITE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "template.json" in err


class TestPipeline:
    def test_end_to_end_and_caching(self, tmp_path, capsys):
        cfgfile = smoke_config(tmp_path)
        assert cli.main(["pipeline", "--config", str(cfgfile)]) == 0
        out = capsys.readouterr().out
        assert "babble:" in out and "synthesize:" in out
        outdir = tmp_path / "out"
        for name in ("pair.json", "model.json", "result.json", "report.json"):
            assert (outdir / name).exists()
        with open(outdir / "result.json") as fh:
            result = json.load(fh)
        assert result["status"] == "optimal"
        assert result["lambda"] < 1.0
        assert result["meta"]["config_hash"] == cli.stage_key(
            load_config(cfgfile), "synthesize")
        # second run hits every cache, evaluate's included, and rewrites
        # no file
        files = [outdir / "report.json"] + [
            outdir / "plots" / n for n in cli.evaluation.PLOT_FILES]
        mtimes = [p.stat().st_mtime_ns for p in files]
        assert cli.main(["pipeline", "--config", str(cfgfile)]) == 0
        out2 = capsys.readouterr().out
        assert out2.count("cache hit") == 5
        assert [p.stat().st_mtime_ns for p in files] == mtimes

    def test_equal_configs_give_bitwise_identical_artifacts(self, tmp_path,
                                                            capsys):
        import shutil

        cfgfile = smoke_config(tmp_path)
        assert cli.main(["pipeline", "--config", str(cfgfile)]) == 0
        outdir = tmp_path / "out"
        first = {n: (outdir / n).read_bytes()
                 for n in ("pair.json", "model.json", "result.json",
                           "report.json")}
        first["manifest"] = (outdir / "dataset" / "manifest.json").read_bytes()
        shutil.rmtree(outdir)
        assert cli.main(["pipeline", "--config", str(cfgfile)]) == 0
        capsys.readouterr()
        for name, blob in first.items():
            path = outdir / "dataset" / "manifest.json" \
                if name == "manifest" else outdir / name
            assert path.read_bytes() == blob, f"{name} differs between runs"

    def test_seed_override_changes_hash(self, tmp_path, capsys):
        cfgfile = smoke_config(tmp_path)
        assert cli.main(["pipeline", "--config", str(cfgfile)]) == 0
        capsys.readouterr()
        # overriding the seed invalidates the cache
        assert cli.main(["pipeline", "--config", str(cfgfile),
                         "--seed", "5"]) == 0
        assert "cache hit" not in capsys.readouterr().out

    @pytest.mark.parametrize("section, value, reruns", [
        ("plant", {"input_bound": 6.0}, STAGE_NAMES),
        ("observables", {"controller": {"kind": "single_pendulum"}},
         STAGE_NAMES),
        ("babbling", {"gain_scale": 0.9}, STAGE_NAMES),
        ("seed", 1, STAGE_NAMES),
        ("factorization", {"eps_h": 1e-4},
         ["factorize", "identify", "synthesize", "evaluate"]),
        ("identification", {"holdout_fraction": 0.2},
         ["identify", "synthesize", "evaluate"]),
        ("synthesis", {"lambda_tol": 2e-3}, ["synthesize", "evaluate"]),
        ("evaluation", {"settle_tol": 0.06}, ["evaluate"]),
    ])
    def test_section_edit_reruns_its_stage_and_downstream(
            self, tmp_path, capsys, section, value, reruns):
        assert cli.main(["pipeline", "--config",
                         str(smoke_config(tmp_path))]) == 0
        capsys.readouterr()
        cfgfile = smoke_config(tmp_path, **{section: value})
        assert cli.main(["pipeline", "--config", str(cfgfile)]) == 0
        # one head line per stage; the factorize table lines are indented
        heads = [line for line in capsys.readouterr().out.splitlines()
                 if not line.startswith(" ")]
        assert [line.split(":")[0] for line in heads] == STAGE_NAMES
        assert [line.split(":")[0] for line in heads
                if line.endswith(": cache hit")] \
            == [name for name in STAGE_NAMES if name not in reruns]

    def test_separate_controller_map_is_evaluated_with_its_own_lift(
            self, tmp_path, capsys, monkeypatch):
        # psi_u = [theta, theta_dot, 1, sin theta, cos theta] differs from
        # the 9-feature psi_x: K_u applies to psi_u only, so the fidelity
        # metrics must read the closed loop that evaluation ran under psi_u
        controller = {"kind": "custom", "state_dim": 2, "features": [
            {"label": "theta", "poly": [1, 0]},
            {"label": "theta_dot", "poly": [0, 1]},
            {"label": "1"},
            {"label": "sin(theta)", "trigs": [["sin", [1.0, 0.0]]]},
            {"label": "cos(theta)", "trigs": [["cos", [1.0, 0.0]]]}]}
        cfgfile = smoke_config(tmp_path,
                               observables={"controller": controller})
        calls = []
        rollout = cli.evaluation.rollout
        monkeypatch.setattr(cli.evaluation, "rollout",
                            lambda *a: calls.append(a) or rollout(*a))
        code = cli.main(["pipeline", "--config", str(cfgfile)])
        out, err = capsys.readouterr()
        assert code in (cli.EXIT_OK, cli.EXIT_EVAL_GATE), err
        assert len(calls) == 1  # the evaluation's one batched rollout
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert (result["K_u"]["rows"], result["K_u"]["cols"]) == (1, 5)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        fidelity = report["fidelity"]
        assert fidelity["steps"] == 40 and len(fidelity["per_step_mean"]) == 40
        assert np.isfinite(fidelity["one_step_rmse"])
        assert sorted(p.name for p in (tmp_path / "out" / "plots").iterdir()) \
            == ["trajectories_controlled.csv", "trajectories_uncontrolled.csv"]

    def test_every_config_section_is_read_by_one_stage(self):
        # a section no row names would be in no stage key
        read = [s for stage in cli.STAGES.values() for s in stage.sections]
        assert sorted(read) == sorted(set(config.DEFAULTS) - {"output_dir"})

    def test_output_dir_is_in_no_key(self, tmp_path, capsys):
        cfgfile = smoke_config(tmp_path)
        for out in ("a", "b"):
            assert cli.main(["pipeline", "--config", str(cfgfile),
                             "--out", str(tmp_path / out)]) == 0
        for name in ("pair.json", "model.json", "result.json", "report.json",
                     "dataset/manifest.json", "dataset/snapshots.npz"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes(), name

    def test_snapshot_count_matches_arithmetic(self, tmp_path):
        cfgfile = smoke_config(tmp_path)
        cli.main(["babble", "--config", str(cfgfile)])
        with open(tmp_path / "out" / "dataset" / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["snapshots"] == 10 * 9 * 40
        assert manifest["trajectories"] == 90


class TestStageOrdering:
    def test_identify_requires_pair(self, tmp_path, capsys):
        cfgfile = smoke_config(tmp_path)
        assert cli.main(["babble", "--config", str(cfgfile)]) == 0
        code = cli.main(["identify", "--config", str(cfgfile)])
        assert code == cli.EXIT_PRECONDITION
        assert "missing stage artifact" in capsys.readouterr().err

    def test_factorize_requires_dataset(self, tmp_path, capsys):
        cfgfile = smoke_config(tmp_path)
        assert cli.main(["factorize", "--config", str(cfgfile)]) \
            == cli.EXIT_PRECONDITION

    def test_stale_dataset_exits_3_naming_it_and_babble(self, tmp_path,
                                                        capsys):
        cfgfile = smoke_config(tmp_path)
        assert cli.main(["babble", "--config", str(cfgfile)]) == 0
        smoke_config(tmp_path, babbling={"steps": 41})  # same file, edited
        capsys.readouterr()
        assert cli.main(["factorize", "--config", str(cfgfile)]) \
            == cli.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "stale" in err
        assert "manifest.json" in err and "'babble'" in err
        assert not (tmp_path / "out" / "pair.json").exists()

    def test_bad_config_is_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"plant": {"kind": "tripod"}}')
        assert cli.main(["babble", "--config", str(path)]) == cli.EXIT_CONFIG


class TestFactorizationFailureCode:
    def test_tiny_eps_exits_6_with_one_line(self, tmp_path, capsys):
        cfgfile = smoke_config(tmp_path, factorization={"eps_h": 1e-300})
        assert cli.main(["babble", "--config", str(cfgfile)]) == 0
        capsys.readouterr()
        code = cli.main(["factorize", "--config", str(cfgfile)])
        assert code == cli.EXIT_FACTORIZATION == 6
        err = capsys.readouterr().err
        assert err.startswith("factorization failed: no block residual")
        assert err.count("\n") == 1


class TestBabbleFailureCode:
    def test_all_diverged_exits_3_with_one_line(self, tmp_path, capsys):
        # every grid corner starts at +-1e200: the lift overflows and
        # every row leaves the floats, with no RuntimeWarning on stderr
        cfgfile = smoke_config(tmp_path, babbling={
            "state_grid": [[-1e200, 1e200], [-1e200, 1e200]],
            "num_gains": 2, "num_initial_conditions": 4})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["babble", "--config", str(cfgfile)])
        assert code == cli.EXIT_PRECONDITION
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err == ("error: cannot babble: all trajectories diverged; "
                       "nothing to identify from\n")
        assert not (tmp_path / "out" / "dataset" / "manifest.json").exists()


class TestIdentifyFailureCode:
    def test_split_without_training_rows_exits_3_with_one_line(
            self, tmp_path, capsys):
        # one gain x one initial condition: the held-out split takes the
        # only trajectory
        cfgfile = smoke_config(tmp_path, babbling={
            "num_gains": 1, "num_initial_conditions": 1})
        code = cli.main(["pipeline", "--config", str(cfgfile)])
        assert code == cli.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.startswith("error: cannot identify: no training snapshots")
        assert "holdout_fraction 0.1" in err and "trajectory count 1" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out" / "model.json").exists()


def zero_authority_model(tmp_path):
    """Babble, factorize and identify, then strip the model's control
    authority and make its lifted map unstable; returns the config."""
    cfgfile = smoke_config(tmp_path, synthesis={"max_resamples": 2})
    cfg = load_config(cfgfile)
    ds = cli.cmd_babble(cfg)
    pair = cli.cmd_factorize(cfg, ds)
    cli.cmd_identify(cfg, ds, pair)
    with open(tmp_path / "out" / "model.json") as fh:
        payload = json.load(fh)
    payload["K_xu"]["data"] = [0.0] * len(payload["K_xu"]["data"])
    kxx = np.asarray(payload["K_xx"]["data"]).reshape(9, 9)
    kxx[0, 0] = 1.5
    payload["K_xx"]["data"] = kxx.ravel().tolist()
    with open(tmp_path / "out" / "model.json", "w") as fh:
        json.dump(payload, fh)
    return cfgfile


class TestSynthesisFailureCode:
    def test_zero_authority_model_exits_4(self, tmp_path, capsys):
        cfgfile = zero_authority_model(tmp_path)
        capsys.readouterr()
        code = cli.main(["synthesize", "--config", str(cfgfile)])
        assert code == cli.EXIT_INFEASIBLE
        with open(tmp_path / "out" / "result.json") as fh:
            assert json.load(fh)["status"] == "max-resamples-exceeded"

    def test_cached_failed_synthesis_is_a_cache_miss(self, tmp_path, capsys):
        cfgfile = zero_authority_model(tmp_path)
        # the second pipeline finds the failed result.json under its own
        # key, reads it as a miss, synthesizes again and fails again
        for _ in range(2):
            capsys.readouterr()
            assert cli.main(["pipeline", "--config", str(cfgfile)]) \
                == cli.EXIT_INFEASIBLE
            out, err = capsys.readouterr()
            assert "identify: cache hit" in out
            assert "synthesize: cache hit" not in out
            assert err.startswith("error: synthesis failed")
        with open(tmp_path / "out" / "result.json") as fh:
            assert json.load(fh)["status"] == "max-resamples-exceeded"
        assert cli.main(["evaluate", "--config", str(cfgfile)]) \
            == cli.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "result.json" in err
        assert "max-resamples-exceeded" in err and "'synthesize'" in err


class TestEvaluateCache:
    @pytest.mark.parametrize("evaluation, code", [
        ({}, cli.EXIT_OK),
        # one trajectory in six settles within one second
        ({"horizon_seconds": 1.0}, cli.EXIT_EVAL_GATE)])
    def test_same_exit_code_fresh_and_cached(self, tmp_path, capsys,
                                             evaluation, code):
        cfgfile = smoke_config(tmp_path, evaluation=evaluation)
        runs = []
        for _ in range(2):
            assert cli.main(["pipeline", "--config", str(cfgfile)]) == code
            out, err = capsys.readouterr()
            runs.append((out.count("cache hit"), out.splitlines()[-1], err))
        fresh, cached = runs
        assert fresh[0] == 0
        if code == cli.EXIT_OK:
            assert cached == (5, "evaluate: cache hit", "")
        else:  # a gated report is a miss: evaluate reruns and fails again
            assert cached == (4,) + fresh[1:]
            assert fresh[1].startswith("evaluate: success rate ")
            assert fresh[2].startswith("error: success rate ")
            assert fresh[2].endswith(" below gate 50.00%\n")

    def test_deleted_plot_file_reruns_evaluate_only(self, tmp_path, capsys):
        cfgfile = smoke_config(tmp_path)
        assert cli.main(["pipeline", "--config", str(cfgfile)]) == 0
        plot = tmp_path / "out" / "plots" / cli.evaluation.PLOT_FILES[1]
        blob = plot.read_bytes()
        plot.unlink()
        capsys.readouterr()
        assert cli.main(["pipeline", "--config", str(cfgfile)]) == 0
        heads = [line for line in capsys.readouterr().out.splitlines()
                 if line.endswith(": cache hit")]
        assert heads == [f"{name}: cache hit" for name in STAGE_NAMES[:4]]
        assert plot.read_bytes() == blob

    def test_failed_export_exits_7_and_is_a_cache_miss(self, tmp_path, capsys,
                                                       monkeypatch):
        cfgfile = smoke_config(tmp_path)
        assert cli.main(["pipeline", "--config", str(cfgfile)]) == 0
        report = tmp_path / "out" / "report.json"
        blob = report.read_bytes()

        def disk_full(report, outdir):
            path = outdir / cli.evaluation.PLOT_FILES[0]
            path.write_text("traj,k")
            raise OSError(28, "No space left on device", str(path))

        capsys.readouterr()
        with monkeypatch.context() as m:
            m.setattr(cli.evaluation, "export_plot_data", disk_full)
            assert cli.main(["evaluate", "--config", str(cfgfile)]) \
                == cli.EXIT_WRITE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "trajectories_controlled.csv" in err
        # the current report went before the export: no hit on a cut plot
        assert not report.exists()
        assert cli.main(["pipeline", "--config", str(cfgfile)]) == 0
        out = capsys.readouterr().out
        assert out.count("cache hit") == 4 and "evaluate: success" in out
        assert report.read_bytes() == blob

    def test_bad_evaluation_states_exit_2_in_evaluate(self, tmp_path,
                                                      capsys):
        # evaluate checks the states it reads: a ConfigError raised inside
        # a stage stays exit 2, not a stage's exit 3
        assert cli.main(["pipeline", "--config",
                         str(smoke_config(tmp_path))]) == 0
        cfgfile = smoke_config(
            tmp_path, evaluation={"extra_states": [[float("nan"), 0.0]]})
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(cfgfile)]) \
            == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: bad evaluation.initial_conditions or "
            "extra_states: states must be finite\n")

    def test_non_finite_lift_exits_3_at_factorize(self, tmp_path, capsys):
        # 1 / (0 + 0 cos theta) is inf at every state; babble lifts only
        # the separate controller map, factorize lifts the state map
        cfgfile = smoke_config(tmp_path, observables={
            "kind": "custom", "state_dim": 2, "features": RAW_STATE + [
                {"label": "inf", "denom": {"offset": 0.0, "scale": 0.0,
                                           "coeffs": [1.0, 0.0]}}],
            "controller": {"kind": "single_pendulum"}})
        assert cli.main(["babble", "--config", str(cfgfile)]) == 0
        capsys.readouterr()
        assert cli.main(["factorize", "--config", str(cfgfile)]) \
            == cli.EXIT_PRECONDITION
        assert capsys.readouterr().err == (
            "error: cannot factorize: non-finite feature values at state "
            "index 0\n")
        assert not (tmp_path / "out" / "pair.json").exists()


class TestFactorizeOutputs:
    def test_residual_table_printed(self, tmp_path, capsys):
        cfgfile = smoke_config(tmp_path)
        cfg = load_config(cfgfile)
        ds = cli.cmd_babble(cfg)
        capsys.readouterr()
        pair = cli.cmd_factorize(cfg, ds)
        out = capsys.readouterr().out
        assert "retained 1 of 9 blocks" in out
        assert "sin(theta)" in out

    def test_huge_eps_keeps_all_blocks(self, tmp_path):
        cfgfile = smoke_config(tmp_path,
                               factorization={"eps_h": 1e9})
        cfg = load_config(cfgfile)
        ds = cli.cmd_babble(cfg)
        pair = cli.cmd_factorize(cfg, ds)
        np.testing.assert_array_equal(pair.S, np.eye(9))

    def test_custom_observables_through_config(self, tmp_path):
        from koopctl.config import build_maps

        cfg = merge_defaults({
            "observables": {
                "kind": "custom",
                "state_dim": 1,
                "features": [
                    {"label": "x", "poly": [1]},
                    {"label": "x^2", "poly": [2]},
                    {"label": "sin(x)", "trigs": [["sin", [1.0]]]},
                ],
            },
        })
        map_x, map_u = build_maps(cfg)
        assert map_x is map_u
        np.testing.assert_allclose(map_x([2.0]), [2.0, 4.0, np.sin(2.0)])

    def test_polynomial_toy_with_zero_like_eps(self):
        # eps_h at the numerical floor keeps exactly the expressible blocks
        from koopctl.factorization import fit_pair
        from koopctl.observables import polynomial_map

        rng = np.random.default_rng(0)
        states = rng.uniform(-2, 2, size=(500, 1))
        map_x = polynomial_map("cubic", (1, 2, 3))
        map_u = polynomial_map("lin", (1,))
        pair = fit_pair(states, map_x, map_u, eps_h=1e-9)
        np.testing.assert_array_equal(pair.mask, [1, 1, 0])


class TestBrokenArtifacts:
    def test_truncated_pair_exits_3_naming_the_file(self, tmp_path, capsys):
        cfgfile = smoke_config(tmp_path)
        assert cli.main(["babble", "--config", str(cfgfile)]) == 0
        assert cli.main(["factorize", "--config", str(cfgfile)]) == 0
        pair = tmp_path / "out" / "pair.json"
        text = pair.read_text()
        pair.write_text(text[: len(text) // 2])
        capsys.readouterr()
        code = cli.main(["identify", "--config", str(cfgfile)])
        assert code == cli.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "pair.json" in err and err.count("\n") == 1

    def test_truncated_pair_is_a_cache_miss(self, tmp_path, capsys):
        cfgfile = smoke_config(tmp_path)
        assert cli.main(["pipeline", "--config", str(cfgfile)]) == 0
        pair = tmp_path / "out" / "pair.json"
        pair.write_text(pair.read_text()[:100])
        capsys.readouterr()
        assert cli.main(["pipeline", "--config", str(cfgfile)]) == 0
        out = capsys.readouterr().out
        assert "factorize: eps_h" in out and "babble: cache hit" in out

    @pytest.mark.parametrize("damage", ["missing", "truncated", "empty"])
    def test_unreadable_npz_exits_3_naming_the_file(self, damage, tmp_path,
                                                     capsys):
        cfgfile = smoke_config(tmp_path)
        assert cli.main(["babble", "--config", str(cfgfile)]) == 0
        data = tmp_path / "out" / "dataset"
        assert sorted(p.name for p in data.iterdir()) \
            == ["manifest.json", "snapshots.npz"]
        npz = data / "snapshots.npz"
        if damage == "missing":
            npz.unlink()
        else:
            blob = npz.read_bytes()
            npz.write_bytes(blob[: len(blob) // 2] if damage == "truncated"
                            else b"")
        capsys.readouterr()
        code = cli.main(["factorize", "--config", str(cfgfile)])
        assert code == cli.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "snapshots.npz" in err and err.count("\n") == 1

    @pytest.mark.parametrize("array,row,value,stage", [
        ("x", 5, np.inf, "factorize"),
        # row 0 is in trajectory 0, which the held-out split takes
        ("u", 0, np.nan, "identify")])
    def test_non_finite_dataset_exits_3_naming_the_file(
            self, array, row, value, stage, tmp_path, capsys):
        cfgfile = smoke_config(tmp_path)
        assert cli.main(["babble", "--config", str(cfgfile)]) == 0
        assert cli.main(["factorize", "--config", str(cfgfile)]) == 0
        npz = tmp_path / "out" / "dataset" / "snapshots.npz"
        with np.load(npz) as f:
            arrays = dict(f)
        arrays[array][row, 0] = value
        with open(npz, "wb") as fh:
            np.savez(fh, **arrays)
        capsys.readouterr()
        code = cli.main([stage, "--config", str(cfgfile)])
        assert code == cli.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "snapshots.npz" in err and f"in {array} of" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("array,cut", [("x", "one column"),
                                           ("u", "5 rows short")])
    def test_misshapen_dataset_exits_3_naming_the_file(
            self, array, cut, tmp_path, capsys):
        cfgfile = smoke_config(tmp_path)
        assert cli.main(["babble", "--config", str(cfgfile)]) == 0
        npz = tmp_path / "out" / "dataset" / "snapshots.npz"
        with np.load(npz) as f:
            arrays = dict(f)
        arrays[array] = arrays[array][:, :1] if cut == "one column" \
            else arrays[array][:-5]
        with open(npz, "wb") as fh:
            np.savez(fh, **arrays)
        capsys.readouterr()
        code = cli.main(["factorize", "--config", str(cfgfile)])
        assert code == cli.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "snapshots.npz" in err and f"{array} in " in err
        assert err.count("\n") == 1

    def test_failed_dataset_write_is_a_cache_miss(self, tmp_path, capsys,
                                                  monkeypatch):
        from koopctl import babbling

        cfgfile = smoke_config(tmp_path)
        assert cli.main(["babble", "--config", str(cfgfile)]) == 0
        data = tmp_path / "out" / "dataset"
        ds = babbling.load_dataset(data)

        def disk_full(fh, **arrays):
            fh.write(b"PK")
            raise OSError(28, "No space left on device")

        with monkeypatch.context() as m:
            m.setattr(np, "savez", disk_full)
            with pytest.raises(OSError):
                babbling.save_dataset(ds, data)
        # the earlier payload may stay; without a manifest it is never read
        assert sorted(p.name for p in data.iterdir()) == ["snapshots.npz"]
        capsys.readouterr()
        assert cli.main(["pipeline", "--config", str(cfgfile)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("babble: ") and "babble: cache hit" not in out
        assert sorted(p.name for p in data.iterdir()) \
            == ["manifest.json", "snapshots.npz"]

    def test_disk_full_dataset_write_exits_7_naming_the_file(
            self, tmp_path, capsys, monkeypatch):
        def disk_full(fh, **arrays):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np, "savez", disk_full)
        cfgfile = smoke_config(tmp_path)
        assert cli.main(["babble", "--config", str(cfgfile)]) \
            == cli.EXIT_WRITE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "snapshots.npz" in err and "No space left on device" in err

    def test_disk_full_json_write_exits_7_naming_the_file(
            self, tmp_path, capsys, monkeypatch):
        def disk_full(path, payload):
            raise OSError(28, "No space left on device")

        cfgfile = smoke_config(tmp_path)
        assert cli.main(["babble", "--config", str(cfgfile)]) == 0
        for stage, artifact in [("factorize", "pair.json"),
                                ("identify", "model.json"),
                                ("synthesize", "result.json"),
                                ("evaluate", "report.json")]:
            capsys.readouterr()
            with monkeypatch.context() as m:
                m.setattr(cli, "write_json_atomic", disk_full)
                code = cli.main([stage, "--config", str(cfgfile)])
            assert code == cli.EXIT_WRITE, stage
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and artifact in err, stage
            assert not (tmp_path / "out" / artifact).exists()
            # the next stage needs this one's artifact
            assert cli.main([stage, "--config", str(cfgfile)]) == 0

    def test_failed_write_keeps_previous_artifact(self, tmp_path):
        cfg = load_config(smoke_config(tmp_path))
        outdir = tmp_path / "out"
        outdir.mkdir()
        path = outdir / "pair.json"
        cli._write_json(cfg, "factorize", {"kind": "koopctl/pair", "H": [1.0]})
        before = path.read_bytes()
        # keys are dumped sorted, so "H" is written before "z" raises
        with pytest.raises(TypeError):
            cli._write_json(cfg, "factorize", {"kind": "koopctl/pair",
                                               "H": [2.0], "z": object()})
        assert path.read_bytes() == before
        assert sorted(p.name for p in outdir.iterdir()) == ["pair.json"]


def test_pipeline_does_not_import_numpy_ma(tmp_path):
    # np.unique and np.median import numpy.ma on first use, about 20 ms of
    # every run; babbling and evaluation count and take medians without them
    import os
    import subprocess
    import sys
    from pathlib import Path

    cfgfile = smoke_config(tmp_path)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; from koopctl import cli; "
         "code = cli.main(['pipeline', '--config', sys.argv[1]]); "
         "print(code, 'numpy.ma' in sys.modules)", str(cfgfile)],
        env=env, capture_output=True, text=True, check=True, timeout=300)
    assert out.stdout.splitlines()[-1] == f"{cli.EXIT_OK} False"
