import inspect
import json
import re
import warnings

import numpy as np
import pytest

from koopctl import babbling, cli, config, plants, tensor
from koopctl.config import ConfigError, config_hash, load_config, merge_defaults

STAGE_NAMES = ["babble", "factorize", "identify", "synthesize", "evaluate"]
# an integer beyond the float range
HUGE = 10 ** 400
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

    @pytest.mark.parametrize("section, values, key", [
        *[("synthesis", {key: value}, f"synthesis.{key}") for key, value in [
            ("backend", "bisection"), ("rate_budget", 0), ("ridge_delta", 0.0),
            ("eps_p", 0.01), ("lambda_tol", 1e-3), ("feas_tol", 1e10),
            ("assumption_gate", 1e308)]],
        ("plant", {"input_bound": 3.0,
                   "params": {"gravity": 1.0, "input_bound": 4.0}},
         "plant.input_bound"),
        ("observables", {"state_dim": 2}, "observables.state_dim"),
        ("observables", {"controller": {"controller": None}},
         "observables.controller.controller"),
        ("observables", {"controller": {"state_dim": 2}},
         "observables.controller.state_dim")])
    def test_removed_key_exits_2_before_any_stage(self, tmp_path, capsys,
                                                  section, values, key):
        cfgfile = smoke_config(tmp_path, **{section: values})
        assert cli.main(["pipeline", "--config", str(cfgfile)]) \
            == cli.EXIT_CONFIG
        assert capsys.readouterr().err \
            == f"config error: unknown config key '{key}'\n"
        assert not (tmp_path / "out").exists()

    def test_every_doc_key_names_a_default(self):
        # the koopctl init template documents, and validate checks, only
        # keys that exist
        for key in [*config._DOC, *config._NUMBERS]:
            *sections, name = key.split(".")
            section = config.DEFAULTS
            for part in sections:
                section = section[part]
            assert name in section, key

    @pytest.mark.parametrize("section, values, key", [
        ("factorization", {"eps_h": -1}, "factorization.eps_h"),
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
        ("evaluation", {"initial_conditions": {"kind": "uniform", "count": 0}},
         "initial states must be (n, 2) with n >= 1"),
        ("evaluation", {"settle_tol": "a"}, "evaluation.settle_tol"),
        ("evaluation", {"success_gate": "a"}, "evaluation.success_gate"),
        pytest.param("evaluation", {"success_gate": 1.5},
                     "evaluation.success_gate must lie in [0, 1], got 1.5",
                     id="evaluation.success_gate-above-1"),
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
         "evaluation.horizon_seconds must be a positive number"),
        ("evaluation", {"initial_conditions": {
            "kind": "grid", "ranges": [[-1, 1], [-2, 2]], "shape": [2]}},
         "shape must hold 2 counts"),
        ("evaluation", {"initial_conditions": {
            "kind": "list", "states": [[0.1, float("nan")]]}},
         "states[0][1] must be a number, got nan"),
        ("evaluation", {"extra_states": [[float("nan"), 0.0]]},
         "extra_states[0][0] must be a number, got nan"),
        ("evaluation", {"initial_conditions": {
            "kind": "uniform", "ranges": [[-1, 1], [0, float("inf")]]}},
         "ranges[1][1] must be a number, got inf"),
        ("plant", {"params": [1, 2]}, "plant.params must be an object"),
        ("observables", {"kind": "custom", "features":
                         RAW_STATE + [{"label": "z", "poly": [0, 0, 1]}]},
         "feature 'z' has more exponents or coefficients than the 2"),
        ("observables", {"kind": "custom", "features": RAW_STATE[:1]},
         "1 features cannot hold the 2 raw state components"),
        ("observables", {"kind": "custom", "features": "abc"},
         "custom observables need a 'features' list"),
        ("observables", {"kind": "custom", "features":
                         RAW_STATE + [{"label": "t", "trigs": [["tan", [1, 0]]]}]},
         "feature 't' has a trig kind other than sin or cos"),
        ("observables", {"kind": "custom", "features":
                         RAW_STATE + [{"label": "t", "trigs": [["sin", ["a", 0]]]}]},
         "feature 't' coefficient must be a number"),
        ("observables", {"kind": "custom", "features":
                         RAW_STATE + [{"label": "t", "trigs": [["cos", "ab"]]}]},
         "feature 't' coefficient must be a number"),
        ("observables", {"kind": "custom", "features":
                         RAW_STATE + [{"label": "t", "trigs": [["sin", [True, 0]]]}]},
         "feature 't' coefficient must be a number"),
        ("observables", {"kind": "custom", "features":
                         RAW_STATE + [{"label": "d", "denom": {
                             "offset": 3, "scale": -2, "coeffs": [1, "0"]}}]},
         "feature 'd' coefficient must be a number, got '0'"),
        ("observables", {"kind": "custom", "features":
                         RAW_STATE + [{"label": "t", "trigs": [["sin", [10 ** 400, 0]]]}]},
         "feature 't' coefficient must be a number"),
        pytest.param(
            "observables", {"kind": "custom", "features":
                            RAW_STATE + [{"label": "p", "poly": [2.5, 0]}]},
            "feature 'p' exponent must be an integer",
            id="poly-fractional-exponent"),
        pytest.param(
            "observables", {"kind": "custom", "features":
                            RAW_STATE + [{"label": "p", "poly": [True, 0]}]},
            "feature 'p' exponent must be an integer",
            id="poly-boolean-exponent"),
        pytest.param(
            "observables", {"kind": "custom", "features":
                            RAW_STATE + [{"label": "d", "denom": {
                                "offset": "3", "scale": 1, "coeffs": [1, 0]}}]},
            "feature 'd' denominator offset must be a number, got '3'",
            id="denom-string-offset"),
        pytest.param(
            "observables", {"kind": "custom", "features":
                            RAW_STATE + [{"label": "d", "denom": {
                                "offset": 3, "scale": True, "coeffs": [1, 0]}}]},
            "feature 'd' denominator scale must be a number, got True",
            id="denom-boolean-scale"),
        ("babbling", {"gain_scale": 1e308},
         "gain_scale must be nonnegative, with a finite width 2 * gain_scale"),
        ("babbling", {"state_grid": [[-1e308, 1e308], [0, 1]]},
         "state_grid rows need lo <= hi and a finite width hi - lo"),
        ("babbling", {"state_grid": [[1, 0], [0, 1]]},
         "state_grid rows need lo <= hi"),
        ("evaluation", {"initial_conditions": {
            "kind": "uniform", "ranges": [[-1e308, 1e308], [0, 1]]}},
         "ranges must be finite, with a finite width hi - lo per row"),
        ("evaluation", {"initial_conditions": {
            "kind": "grid", "ranges": [[0, 1], [-1e308, 1e308]],
            "shape": [2, 2]}},
         "ranges must be finite, with a finite width hi - lo per row"),
        ("observables", {"kind": "double_pendulum"},
         "observables map 'double_pendulum' has state_dim 4, the "
         "single_pendulum plant 2"),
        ("observables", {"controller": {"kind": "double_pendulum"}},
         "observables.controller map 'double_pendulum' has state_dim 4"),
        ("observables", {"features": RAW_STATE},
         "observables.features is read only by kind 'custom', not "
         "'single_pendulum'"),
        ("observables", {"controller": {"features": []}},
         "observables.controller.features is read only by kind 'custom'"),
        ("evaluation", {"initial_conditions": {"states": [[0.1, 0.0]]}},
         "evaluation.initial_conditions.states is read only by kind 'list', "
         "not 'uniform'"),
        ("evaluation", {"initial_conditions": {
            "kind": "list", "states": [[0.1, 0.0]], "shape": [1, 1]}},
         "evaluation.initial_conditions.shape is read only by kind 'grid', "
         "not 'list'"),
        ("evaluation", {"extra_states": {}}, "extra_states"),
        # one number rule for every value read as a number
        *[pytest.param(section, {key: HUGE},
                       f"{section}.{key} must be a {sign} number, got {HUGE}",
                       id=f"{section}.{key}-huge")
          for section, key, sign in [
              ("babbling", "gain_scale", "nonnegative"),
              ("identification", "ridge", "nonnegative"),
              ("factorization", "eps_h", "positive"),
              ("evaluation", "settle_tol", "positive"),
              ("evaluation", "success_gate", "nonnegative")]],
        pytest.param("plant", {"params": {"m": HUGE}},
                     f"plant.params.m must be a positive number, got {HUGE}",
                     id="plant.params.m-huge"),
        pytest.param("plant", {"params": {"m": float("nan")}},
                     "plant.params.m must be a positive number, got nan",
                     id="plant.params.m-nan"),
        pytest.param("plant", {"params": {"gravity": float("inf")}},
                     "plant.params.gravity must be a nonnegative number, "
                     "got inf", id="plant.params.gravity-infinite"),
        pytest.param("plant", {"params": {"L": 1e-300}},
                     "plant.params.m and L give m L^2 = 0.0",
                     id="plant.params.L-inertia-underflows"),
        pytest.param("plant", {"params": {"input_bound": True}},
                     "plant.params.input_bound must be a positive number, "
                     "got True", id="plant.params.input_bound-true"),
        *[pytest.param("plant", {"kind": "double_pendulum",
                                 "params": {"damping": damping}}, key,
                       id=f"plant.params.damping-{name}")
          for damping, key, name in [
              ([1], "plant.params.damping must hold two entries, got [1]",
               "one-entry"),
              ([0.1, 0.1, 7], "plant.params.damping must hold two entries",
               "three-entries"),
              ([-1, 0], "plant.params.damping[0] must be a nonnegative "
                        "number, got -1", "negative")]],
        pytest.param(
            "observables", {"kind": "custom", "features":
                            RAW_STATE + [{"label": "p", "poly": [HUGE, 0]}]},
            f"feature 'p' exponent must be an integer, got {HUGE}",
            id="poly-huge-exponent"),
        *[pytest.param("evaluation", {"initial_conditions": {
            "kind": "grid", "ranges": [[-1, 1], [-2, 2]], "shape": shape}},
            "bad evaluation.initial_conditions or extra_states: shape[0] "
            f"must be a positive integer, got {shape[0]!r}",
            id=f"evaluation-grid-shape-{name}")
          for shape, name in [([2.5, 2], "fractional"), ([True, 3], "boolean")]],
        *[pytest.param("evaluation", values,
                       f"bad evaluation.initial_conditions or extra_states: "
                       f"{key}", id=f"evaluation-{name}")
          for values, key, name in [
              ({"initial_conditions": {"kind": "list",
                                       "states": [["0.5", True]]}},
               "states[0][0] must be a number, got '0.5'", "states-string"),
              ({"initial_conditions": {"kind": "list",
                                       "states": [[0.5, True]]}},
               "states[0][1] must be a number, got True", "states-boolean"),
              ({"initial_conditions": {"kind": "uniform",
                                       "ranges": [[-1, "1"], [-2, 2]]}},
               "ranges[0][1] must be a number, got '1'",
               "uniform-ranges-string"),
              ({"initial_conditions": {"kind": "grid", "shape": [2, 2],
                                       "ranges": [[-1, 1], [False, 2]]}},
               "ranges[1][0] must be a number, got False",
               "grid-ranges-boolean"),
              ({"extra_states": [[0.5, "-0.5"]]},
               "extra_states[0][1] must be a number, got '-0.5'",
               "extra-states-string"),
              ({"extra_states": [[True, 0.0]]},
               "extra_states[0][0] must be a number, got True",
               "extra-states-boolean"),
              ({"extra_states": [0.5, -0.5]},
               "extra_states must be a list of equal-length rows, got "
               "[0.5, -0.5]", "extra-states-flat")]],
    ])
    def test_malformed_value_exits_2_before_any_stage(
            self, tmp_path, capsys, section, values, key):
        cfgfile = smoke_config(tmp_path, **{section: values})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["pipeline", "--config", str(cfgfile)]) \
                == cli.EXIT_CONFIG
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert key in err
        assert not (tmp_path / "out").exists()

    def test_integer_beyond_the_float_range_is_valid(self):
        config.validate(merge_defaults({"seed": 10 ** 400}))
        with pytest.raises(ConfigError, match="babbling.dt"):
            config.validate(merge_defaults({"babbling": {"dt": 1e400}}))

    def test_fidelity_steps_fit_the_evaluation_horizon(self):
        # 20 s at dt 0.01 is 2000 steps; the fidelity prefix may use them all
        config.validate(merge_defaults({"evaluation": {"fidelity_steps": 2000}}))
        with pytest.raises(ConfigError, match="at most the 2000 evaluation"):
            config.validate(merge_defaults(
                {"evaluation": {"fidelity_steps": 2001}}))
        # a step count beyond the float range is an error, not a traceback
        with pytest.raises(ConfigError, match="overflows"):
            config.validate(merge_defaults(
                {"evaluation": {"horizon_seconds": 1e300},
                 "babbling": {"dt": 1e-300}}))

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

    @pytest.mark.parametrize("bound", [-1, float("inf"), 0.0])
    def test_bad_input_bound_exits_2_before_babble(self, tmp_path, capsys,
                                                   bound):
        # a bound of -1 used to babble, identify and synthesize, then
        # exit 5 with every evaluation trajectory failing
        cfgfile = smoke_config(tmp_path, plant={
            "params": {"gravity": 1.0, "input_bound": bound}})
        assert cli.main(["pipeline", "--config", str(cfgfile)]) \
            == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == ("config error: plant.params.input_bound must be a "
                       f"positive number, got {bound!r}\n")
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
        assert capsys.readouterr().err == ("config error: babbling.state_grid"
                                           "[1][0] must be a number, got None\n")

    @pytest.mark.parametrize("shape, why", [
        ([3, 3], "(3, 3) does not factor 4 initial conditions"),
        ([4], "must hold 2 counts, one per state component, got [4]"),
    ])
    def test_bad_grid_shape_exits_2(self, tmp_path, capsys, shape, why):
        cfgfile = smoke_config(tmp_path, babbling={
            "grid_shape": shape, "num_initial_conditions": 4})
        assert cli.main(["babble", "--config", str(cfgfile)]) \
            == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: babbling.grid_shape {why}\n"


def sweep_leaves(tree, prefix=()):
    """The key paths of every leaf of ``tree``; an empty-dict default,
    such as plant.params, is one leaf."""
    for key, value in tree.items():
        if isinstance(value, dict) and value:
            yield from sweep_leaves(value, (*prefix, key))
        else:
            yield (*prefix, key)


PLANTS = ("single_pendulum", "double_pendulum")
# (path, plant kind): every default leaf and the controller's keys under
# the single pendulum, and every constructor parameter of each plant,
# read from its signature, under its own kind
SWEEP_LEAVES = [*((path, PLANTS[0]) for path in sweep_leaves(config.DEFAULTS)),
                (("observables", "controller", "kind"), PLANTS[0]),
                (("observables", "controller", "features"), PLANTS[0]),
                *((("plant", "params", name), kind) for kind in PLANTS
                  for name in inspect.signature(getattr(plants, kind)).parameters)]
SWEEP_VALUES = [None, "x", -1, 0, 1e308, -1e308, float("nan"), [], {}, [1],
                True, 2.5, {"junk": 1}, [[-1e308, 1e308], [0, 1]]]
# the real-valued keys also take HUGE; counts do not, as a huge count is
# unbounded work, not a validation hole
REAL_NUMBERS = {("babbling", "gain_scale"), ("babbling", "dt"),
                *(tuple(key.split(".")) for key, (integral, _)
                  in config._NUMBERS.items() if not integral)}
DOCUMENTED_EXITS = {0, 2, 3, 4, 5, 6, 7}


def sweep_values(path: tuple) -> list:
    if path[:2] == ("plant", "params") and len(path) == 3:
        return [*SWEEP_VALUES, 1e-300, HUGE]
    return [*SWEEP_VALUES, HUGE] if path in REAL_NUMBERS else SWEEP_VALUES


class TestConfigSweep:
    """Every leaf of the config against a family of bad values: a
    documented exit code, one stderr line on failure, no traceback and
    no warning.  A string, an object or an integer beyond the float range
    is a config error on every leaf but output_dir."""

    @staticmethod
    def tiny_config(path: tuple, value, kind: str) -> dict:
        cfg = {
            "plant": {"kind": kind, "params": {"gravity": 1.0}},
            "observables": {"kind": kind},
            "babbling": {"num_gains": 2, "num_initial_conditions": 4,
                         "steps": 50},
            "evaluation": {"horizon_seconds": 2.0,
                           "initial_conditions": {"count": 3}},
            "output_dir": "out",
        }
        if kind == "double_pendulum":
            cfg["babbling"]["state_grid"] = [[-1.0, 1.0]] * 4
            cfg["evaluation"]["initial_conditions"]["ranges"] = \
                [[-0.5, 0.5]] * 4
        if path[:2] == ("observables", "controller") and len(path) == 3:
            cfg["observables"]["controller"] = {path[2]: value}
            return cfg
        section = cfg
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = value
        return cfg

    @pytest.mark.parametrize(
        "path, kind", SWEEP_LEAVES,
        ids=[".".join(path) + ("" if kind == PLANTS[0] else f"-{kind}")
             for path, kind in SWEEP_LEAVES])
    def test_every_value_has_a_documented_outcome(self, tmp_path, capsys,
                                                  monkeypatch, path, kind):
        monkeypatch.chdir(tmp_path)  # output_dir "x" is a relative path
        failures = []
        for value in sweep_values(path):
            cfgfile = tmp_path / "config.json"
            cfgfile.write_text(json.dumps(self.tiny_config(path, value, kind)))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(["pipeline", "--config", str(cfgfile)])
            err = capsys.readouterr().err
            strict = (value in ("x", {"junk": 1}) or value is HUGE) \
                and path != ("output_dir",)
            if (code not in DOCUMENTED_EXITS
                    or err.count("\n") != (code != 0)
                    or "Traceback" in err or caught
                    or (strict and code != cli.EXIT_CONFIG)):
                failures.append((value, code, err,
                                 [str(w.message) for w in caught]))
        assert failures == []


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
        args = ["--config", str(path), "--out", str(tmp_path / "out")]
        code = cli.main(["pipeline"] + args)
        out = capsys.readouterr().out
        assert code == 0, out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["success_rate"] >= 0.9
        # and every artifact it wrote reads back as current
        assert cli.main(["pipeline"] + args) == 0
        assert capsys.readouterr().out.count("cache hit") == 5

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
        ("plant", {"params": {"gravity": 1.0, "input_bound": 6.0}},
         STAGE_NAMES),
        ("observables", {"controller": {"kind": "single_pendulum"}},
         STAGE_NAMES),
        ("babbling", {"gain_scale": 0.9}, STAGE_NAMES),
        ("seed", 1, STAGE_NAMES),
        ("factorization", {"eps_h": 1e-4},
         ["factorize", "identify", "synthesize", "evaluate"]),
        ("identification", {"holdout_fraction": 0.2},
         ["identify", "synthesize", "evaluate"]),
        ("synthesis", {"max_resamples": 14}, ["synthesize", "evaluate"]),
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
        controller = {"kind": "custom", "features": [
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

    def test_key_without_the_artifact_format_is_stale(self, tmp_path,
                                                      capsys):
        # artifacts written before the format entered the stage key (with
        # 8192-row chunks) carry the hash of their config sections alone
        cfgfile = smoke_config(tmp_path)
        assert cli.main(["pipeline", "--config", str(cfgfile)]) == 0
        cfg = load_config(cfgfile)

        def sections(n):
            stage = cli.STAGES[n]
            return set(stage.sections).union(*map(sections, stage.upstream))

        for name in STAGE_NAMES:
            path = tmp_path / "out" / cli.STAGES[name].path
            payload = json.loads(path.read_text())
            payload["meta"]["config_hash"] = config_hash(
                {s: cfg[s] for s in sections(name)})
            assert payload["meta"]["config_hash"] != cli.stage_key(cfg, name)
            path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli.main(["synthesize", "--config", str(cfgfile)]) \
            == cli.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "stale" in err
        assert cli.main(["pipeline", "--config", str(cfgfile)]) == 0
        assert "cache hit" not in capsys.readouterr().out

    def test_synthesize_format_bump_keeps_upstream_hits(
            self, finished_run, tmp_path, capsys, monkeypatch):
        # a stage's format number enters its own key and those downstream
        args = copy_run(finished_run, tmp_path)
        stage = cli.STAGES["synthesize"]
        monkeypatch.setitem(cli.STAGES, "synthesize",
                            stage._replace(format=stage.format + 1))
        capsys.readouterr()
        assert cli.main(["pipeline"] + args) == 0
        out = capsys.readouterr().out
        assert out.count("cache hit") == 3
        for name in ("babble", "factorize", "identify"):
            assert f"{name}: cache hit" in out
        assert "synthesize: lambda*" in out and "evaluate: success" in out

    def test_key_of_the_single_artifact_format_is_stale(self, finished_run,
                                                        tmp_path, capsys):
        # before the per-stage numbers, one artifact_format (2) was hashed
        # beside the config sections into every key
        args = copy_run(finished_run, tmp_path)
        cfg = load_config(finished_run[0])

        def sections(n):
            stage = cli.STAGES[n]
            return set(stage.sections).union(*map(sections, stage.upstream))

        for name in STAGE_NAMES:
            path = tmp_path / "out" / cli.STAGES[name].path
            payload = json.loads(path.read_text())
            payload["meta"]["config_hash"] = config_hash(
                {"artifact_format": 2,
                 "sections": {s: cfg[s] for s in sections(name)}})
            path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli.main(["pipeline"] + args) == 0
        assert "cache hit" not in capsys.readouterr().out

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

    @pytest.mark.parametrize("why", ["", "Unable to allocate 74.5 GiB for an "
                                         "array with shape (10000000000,)"],
                             ids=["bare", "numpy"])
    def test_out_of_memory_exits_3_with_one_line(self, tmp_path, capsys,
                                                 monkeypatch, why):
        # raised, never allocated: the line names the stage, and numpy's
        # message when there is one
        def exhausted(*args):
            raise MemoryError(why)

        monkeypatch.setattr(cli, "generate_dataset", exhausted)
        cfgfile = smoke_config(tmp_path)
        assert cli.main(["babble", "--config", str(cfgfile)]) \
            == cli.EXIT_PRECONDITION
        assert capsys.readouterr().err == ": ".join(filter(None, (
            "error: cannot babble: out of memory", why))) + "\n"
        assert not (tmp_path / "out" / "dataset" / "manifest.json").exists()


class TestGridShape:
    """The babbling grid and the evaluation grid kind share one shape
    rule, and validation builds no grid."""

    @pytest.mark.parametrize("shape, why", [
        ([3], " must hold 2 counts, one per state component, got [3]"),
        ([3, 3, 1], " must hold 2 counts, one per state component"),
        ([0, 3], "[0] must be a positive integer, got 0"),
        ([3, 2.5], "[1] must be a positive integer, got 2.5"),
        ([True, 3], "[0] must be a positive integer, got True"),
        (["3", 3], "[0] must be a positive integer, got '3'")],
        ids=["short", "long", "zero", "fractional", "boolean", "string"])
    @pytest.mark.parametrize("section, field", [
        ("babbling", "config error: babbling.grid_shape"),
        ("evaluation", "config error: bad evaluation.initial_conditions or "
                       "extra_states: shape")], ids=["babbling", "evaluation"])
    def test_one_rule_names_its_own_field(self, tmp_path, capsys, shape,
                                          why, section, field):
        cfgfile = smoke_config(tmp_path, **{section: {
            "babbling": {"grid_shape": shape, "num_initial_conditions": 9},
            "evaluation": {"initial_conditions": {
                "kind": "grid", "ranges": [[-1, 1], [-2, 2]],
                "shape": shape}}}[section]})
        assert cli.main(["pipeline", "--config", str(cfgfile)]) \
            == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(field + why) and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("shape", [None, [10 ** 6, 10 ** 6]])
    def test_validation_builds_no_grid(self, monkeypatch, shape):
        # a grid of 1e12 points would take 16 TB: validate and
        # babbling_config resolve its shape and never call the builder
        def spy(*args):
            raise AssertionError("grid_points called")

        monkeypatch.setattr(babbling, "grid_points", spy)
        cfg = merge_defaults({"babbling": {
            "num_initial_conditions": 10 ** 12, "grid_shape": shape}})
        config.validate(cfg)
        assert config.babbling_config(cfg, 2).num_initial_conditions \
            == 10 ** 12

    def test_babble_builds_its_grid_once(self, tmp_path, monkeypatch):
        calls, build = [], babbling.grid_points

        def spy(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(babbling, "grid_points", spy)
        cfgfile = smoke_config(tmp_path)
        assert cli.main(["babble", "--config", str(cfgfile)]) == cli.EXIT_OK
        assert len(calls) == 1


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
        # evaluate checks the states before it reads any artifact: with
        # none written yet, a bad count is exit 2, not exit 3 for the
        # missing upstream file
        cfgfile = smoke_config(tmp_path, evaluation={"initial_conditions": {
            "kind": "uniform", "ranges": [[-1, 1], [-1, 1]], "count": 0}})
        assert cli.main(["evaluate", "--config", str(cfgfile)]) \
            == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: initial states must be (n, 2) with n >= 1\n")
        assert not (tmp_path / "out").exists()
        assert cli.main(["pipeline", "--config",
                         str(smoke_config(tmp_path))]) == 0
        cfgfile = smoke_config(
            tmp_path, evaluation={"extra_states": [[float("nan"), 0.0]]})
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(cfgfile)]) \
            == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: bad evaluation.initial_conditions or "
            "extra_states: extra_states[0][0] must be a number, got nan\n")

    def test_huge_finite_states_score_nan_without_warnings(self, tmp_path,
                                                           capsys):
        # from 1e100 up, psi ** 2, the slack or V overflows, or the lift
        # of x0 in the fidelity rollout does: the row's Lyapunov score is
        # NaN, as for a diverged row, and nothing is printed but the gate
        rows = [[-v, v] for v in (1e40, 1e100, 1e150, 1e200, 1e308)]
        cfgfile = smoke_config(tmp_path, evaluation={"extra_states": rows,
                                                     "success_gate": 1.0})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["pipeline", "--config", str(cfgfile)])
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert code == cli.EXIT_EVAL_GATE
        assert err.startswith("error: success rate ") and err.count("\n") == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        records = report["records"][-len(rows):]
        assert [r["initial_state"] for r in records] == rows
        lyap = [r["lyap_decrease_fraction"] for r in records]
        assert 0 <= lyap[0] <= 1 and np.isnan(lyap[1:]).all()
        # the 1e100 row stays finite and is scored, not dropped as diverged
        assert not records[1]["diverged"]

    def test_non_finite_lift_exits_3_at_factorize(self, tmp_path, capsys):
        # 1 / (0 + 0 cos theta) is inf at every state; babble lifts only
        # the separate controller map, factorize lifts the state map
        cfgfile = smoke_config(tmp_path, observables={
            "kind": "custom", "features": RAW_STATE + [
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

        # a custom map has the plant's state dimension
        cfg = merge_defaults({
            "observables": {
                "kind": "custom",
                "features": RAW_STATE + [
                    {"label": "theta^2", "poly": [2, 0]},
                    {"label": "sin(theta_dot)", "trigs": [["sin", [0.0, 1.0]]]},
                ],
            },
        })
        map_x, map_u = build_maps(cfg)
        assert map_x is map_u and map_x.state_dim == 2
        np.testing.assert_allclose(map_x([2.0, 3.0]),
                                   [2.0, 3.0, 4.0, np.sin(3.0)])

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

    def test_bad_tail_rows_exit_3_naming_the_file(self, tmp_path, capsys):
        cfgfile = smoke_config(tmp_path)
        assert cli.main(["babble", "--config", str(cfgfile)]) == 0
        npz = tmp_path / "out" / "dataset" / "snapshots.npz"
        with np.load(npz) as f:
            arrays = dict(f)
        # without the last row among the tails, next_cols would run off
        arrays["tail_rows"] = arrays["tail_rows"][:-1]
        arrays["tails"] = arrays["tails"][:-1]
        with open(npz, "wb") as fh:
            np.savez(fh, **arrays)
        capsys.readouterr()
        code = cli.main(["factorize", "--config", str(cfgfile)])
        assert code == cli.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "tail_rows in " in err and "snapshots.npz" in err

    def test_older_dataset_format_is_a_miss_for_babble_only(self, tmp_path,
                                                            capsys):
        cfgfile = smoke_config(tmp_path)
        assert cli.main(["pipeline", "--config", str(cfgfile)]) == 0
        content = ["pair.json", "model.json", "result.json", "report.json"]
        written = {n: (tmp_path / "out" / n).read_bytes() for n in content}
        # rewrite the dataset as the seven-array format of koopctl/dataset
        data = tmp_path / "out" / "dataset"
        ds = babbling.load_dataset(data)
        n_ic, steps = (ds.meta[k] for k in ("num_initial_conditions",
                                            "steps"))
        with open(data / "snapshots.npz", "wb") as fh:
            np.savez(fh, x=ds.x, u=ds.u, x_next=ds.x_next,
                     gain_index=ds.traj_id // n_ic,
                     ic_index=ds.traj_id % n_ic,
                     step_index=np.arange(len(ds)) % steps,
                     traj_id=ds.traj_id)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["kind"] = "koopctl/dataset"
        (data / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert cli.main(["factorize", "--config", str(cfgfile)]) \
            == cli.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "manifest.json" in err and "'babble'" in err
        assert cli.main(["pipeline", "--config", str(cfgfile)]) == 0
        # only the dataset is a miss, but every stage after babble reruns,
        # as after any stage that ran, and writes the same bytes again
        heads = [line for line in capsys.readouterr().out.splitlines()
                 if not line.startswith(" ")]
        assert len(heads) == 5 and "cache hit" not in "".join(heads)
        assert [h.split(":")[0] for h in heads] == STAGE_NAMES
        assert {n: (tmp_path / "out" / n).read_bytes()
                for n in content} == written
        assert json.loads((data / "manifest.json").read_text())["kind"] \
            == babbling.KIND

    def test_failed_dataset_write_is_a_cache_miss(self, tmp_path, capsys,
                                                  monkeypatch):
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


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """(config file, output directory) of one smoke pipeline."""
    tmp = tmp_path_factory.mktemp("finished")
    cfgfile = smoke_config(tmp)
    assert cli.main(["pipeline", "--config", str(cfgfile)]) == 0
    return cfgfile, tmp / "out"


def copy_run(finished_run, tmp_path):
    """A copy of the finished run's output directory; output_dir is in no
    stage key, so every artifact in it is current under ``--out``."""
    import shutil

    cfgfile, outdir = finished_run
    shutil.copytree(outdir, tmp_path / "out")
    return ["--config", str(cfgfile), "--out", str(tmp_path / "out")]


NAN = float("nan")


def rotated(values: list) -> list:
    """The list shifted one place to the right, its last entry first."""
    return values[-1:] + values[:-1]


def with_columns(m: dict, extra: int) -> dict:
    """The {rows, cols, data} matrix ``m`` with ``extra`` more zero
    columns, or -extra fewer columns when ``extra`` is negative."""
    rows = [m["data"][i * m["cols"]:(i + 1) * m["cols"]]
            for i in range(m["rows"])]
    rows = [r + [0.0] * extra if extra > 0 else r[:extra] for r in rows]
    return {"rows": m["rows"], "cols": m["cols"] + extra,
            "data": [v for r in rows for v in r]}


def with_row(m: dict) -> dict:
    """The {rows, cols, data} matrix ``m`` with its last row repeated."""
    return {**m, "rows": m["rows"] + 1,
            "data": m["data"] + m["data"][-m["cols"]:]}


class TestDamagedArtifacts:
    """An artifact whose key is current but whose content a stage cannot
    use exits 3 in one line naming the file and the field."""

    @pytest.mark.parametrize("artifact, field, value, stage", [
        pytest.param("model.json", ("map",), {}, "synthesize",
                     id="model-map-empty"),
        pytest.param("result.json", ("lambda",), "x", "evaluate",
                     id="result-lambda-string"),
        pytest.param("pair.json", ("H", "data", 0), NAN, "identify",
                     id="pair-H-nan"),
        pytest.param("pair.json", ("eps_h",), NAN, "identify",
                     id="pair-eps_h-nan"),
        pytest.param("pair.json", ("eps_h",), -1.0, "identify",
                     id="pair-eps_h-negative"),
        pytest.param("model.json", ("S", "data", 0), NAN, "synthesize",
                     id="model-S-nan"),
        pytest.param("model.json", ("K_xx", "data", 0), NAN, "synthesize",
                     id="model-K_xx-nan"),
        pytest.param("model.json", ("K_xu", "data", 0), NAN, "synthesize",
                     id="model-K_xu-nan"),
        pytest.param("result.json", ("P", "data", 0), NAN, "evaluate",
                     id="result-P-nan"),
        pytest.param("result.json", ("S_x", "data", 0), NAN, "evaluate",
                     id="result-S_x-nan"),
        pytest.param("result.json", ("K_u", "data", 0), NAN, "evaluate",
                     id="result-K_u-nan"),
        pytest.param("result.json", ("lambda",), None, "evaluate",
                     id="result-optimal-lambda-null"),
        pytest.param("result.json", ("lambda",), NAN, "evaluate",
                     id="result-optimal-lambda-nan"),
        pytest.param("result.json", ("lambda",), -1.0, "evaluate",
                     id="result-optimal-lambda-negative"),
        pytest.param("pair.json", ("H", "data", 0), "x", "identify",
                     id="pair-H-string"),
        pytest.param("pair.json", ("residuals",), "x", "identify",
                     id="pair-residuals-string"),
        pytest.param("pair.json", ("residuals", 0), NAN, "identify",
                     id="pair-residuals-nan"),
        # a well-formed map of another state dimension: 3 features
        # beside the 9 x 9 K_xx of the single-pendulum model
        pytest.param("model.json", ("map",), {
            "name": "three", "state_dim": 3,
            "features": [{"label": f"x{i}", "trigs": [],
                          "poly": [int(i == j) for j in range(3)]}
                         for i in range(3)]},
            "synthesize", id="model-map-other-feature-count"),
        # shapes that disagree with each other or with the config; a
        # callable value is applied to the field as written
        pytest.param("pair.json", ("mask",), lambda m: m[:-1], "identify",
                     id="pair-mask-one-short"),
        pytest.param("pair.json", ("mask",), rotated, "identify",
                     id="pair-mask-disagrees-with-S"),
        pytest.param("pair.json", ("residuals",), lambda r: r[:-1],
                     "identify", id="pair-residuals-one-short"),
        pytest.param("model.json", ("K_xu",), lambda m: with_columns(m, 1),
                     "synthesize", id="model-K_xu-extra-column"),
        pytest.param("model.json", ("S", "data"), rotated, "synthesize",
                     id="model-S-not-the-pairs"),
        pytest.param("pair.json", ("H",), with_row, "synthesize",
                     id="pair-H-extra-row"),
        pytest.param("pair.json", ("H",), lambda m: with_columns(m, -1),
                     "synthesize", id="pair-H-one-column-short"),
        pytest.param("result.json", ("K_u",), lambda m: with_columns(m, -1),
                     "evaluate", id="result-K_u-one-column-short"),
        pytest.param("result.json", ("P",),
                     {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 1.0]},
                     "evaluate", id="result-P-2x2"),
        pytest.param("result.json", ("S_x",),
                     {"rows": 3, "cols": 3, "data": np.eye(3).ravel().tolist()},
                     "evaluate", id="result-S_x-3x3"),
        # P must be S_x padded with zeros, S_x symmetric positive definite
        pytest.param("result.json", ("P", "data"),
                     lambda d: [0.0] * len(d), "evaluate",
                     id="result-P-zeroed"),
        pytest.param("result.json", ("S_x", "data"),
                     lambda d: [0.0] * len(d), "evaluate",
                     id="result-S_x-zeroed"),
        pytest.param("result.json", ("S_x", "data"),
                     lambda d: [d[0], d[1] + 0.5, *d[2:]], "evaluate",
                     id="result-S_x-asymmetric"),
        # meta must be an object
        pytest.param("model.json", ("meta",), None, "synthesize",
                     id="model-meta-null"),
        pytest.param("pair.json", ("meta",), "x", "identify",
                     id="pair-meta-string"),
        pytest.param("result.json", ("meta",), 1.0, "evaluate",
                     id="result-meta-number"),
        pytest.param("dataset/manifest.json", ("meta",), [], "factorize",
                     id="manifest-meta-list"),
    ])
    def test_unusable_field_exits_3_naming_it(self, finished_run, tmp_path,
                                              capsys, artifact, field, value,
                                              stage):
        args = copy_run(finished_run, tmp_path)
        path = tmp_path / "out" / artifact
        payload = json.loads(path.read_text())
        node = payload
        for key in field[:-1]:
            node = node[key]
        node[field[-1]] = value(node[field[-1]]) if callable(value) else value
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli.main([stage] + args) == cli.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{artifact}: {field[0]} " in err, err

    @pytest.mark.parametrize("damage", [
        "traj_ids-short", "traj_ids-float", "traj_ends-short",
        "traj_ends-float", "traj_ends-unsorted", "traj_ends-past-N",
        "x-float32", "x-fortran", "x-cut-off", "x-nan-in-last-chunk"])
    def test_damaged_dataset_exits_3_and_is_babbled_again(
            self, finished_run, tmp_path, capsys, monkeypatch, damage):
        from test_babbling import damage_members, write_npz

        args = copy_run(finished_run, tmp_path)
        npz = tmp_path / "out" / "dataset" / "snapshots.npz"
        written = npz.read_bytes()
        with np.load(npz) as f:
            arrays = dict(f)
        write_npz(npz, arrays, damage_members(arrays, damage))
        capsys.readouterr()
        with monkeypatch.context() as m:
            # x is read in 1000-row pieces, the NaN in its last
            m.setattr(tensor, "QR_CHUNK", 1000)
            assert len(arrays["x"]) > 3000
            assert cli.main(["factorize"] + args) == cli.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "snapshots.npz" in err and damage.split("-")[0] in err, err
        assert cli.main(["pipeline"] + args) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("babble: ") and "cache hit" not in out
        assert npz.read_bytes() == written

    @pytest.mark.parametrize("field", ["P", "S_x"])
    def test_result_of_another_formation_is_a_cache_miss(
            self, finished_run, tmp_path, capsys, field):
        args = copy_run(finished_run, tmp_path)
        path = tmp_path / "out" / "result.json"
        written = path.read_bytes()
        payload = json.loads(written)
        payload[field]["data"] = [0.0] * len(payload[field]["data"])
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli.main(["pipeline"] + args) == cli.EXIT_OK
        out = capsys.readouterr().out
        # evaluate reruns after synthesize, as every stage after one that ran
        assert out.count("cache hit") == 3 and "synthesize: lambda*" in out
        assert "evaluate: success" in out
        assert path.read_bytes() == written

    @pytest.mark.parametrize("artifact, field, edit, code", [
        pytest.param("result.json", "K_u",
                     lambda m: {**m, "data": [3.0 * v for v in m["data"]]},
                     cli.EXIT_OK, id="result-K_u-tripled"),
        pytest.param("result.json", "lambda", lambda lam: 0.5,
                     cli.EXIT_OK, id="result-lambda-0.5"),
        # the constant feature then grows by 1.05 a step whatever the gain
        pytest.param("model.json", "K_xx",
                     lambda m: {**m, "data": [m["data"][0] + 0.05,
                                              *m["data"][1:]]},
                     cli.EXIT_INFEASIBLE, id="model-K_xx-00-plus-0.05"),
    ])
    def test_result_whose_certificate_fails_is_a_cache_miss(
            self, finished_run, tmp_path, capsys, artifact, field, edit,
            code):
        # each edit is well formed; only the recomputed full-block min eig
        # at (K_u, lambda) with the model and pair shows the break, and
        # pipeline reruns synthesize: on the result's own model it writes
        # the same bytes again, on the edited model it finds no gain
        args = copy_run(finished_run, tmp_path)
        result = tmp_path / "out" / "result.json"
        written = result.read_bytes()
        path = tmp_path / "out" / artifact
        payload = json.loads(path.read_text())
        payload[field] = edit(payload[field])
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli.main(["evaluate"] + args) == cli.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "result.json: K_u and lambda fail the certificate" in err, err
        assert re.search(r"min eig -\d\.\d{3}e-\d\d < -1e-08", err), err
        assert cli.main(["pipeline"] + args) == code
        out = capsys.readouterr().out
        assert "synthesize: cache hit" not in out
        for name in ("babble", "factorize", "identify"):
            assert f"{name}: cache hit" in out
        if code == cli.EXIT_OK:
            assert result.read_bytes() == written

    def test_what_koopctl_writes_reads_back(self, finished_run, tmp_path,
                                            capsys):
        # the report's fidelity entries are NaN for a step that no
        # trajectory reaches; its reader leaves them be
        args = copy_run(finished_run, tmp_path)
        path = tmp_path / "out" / "report.json"
        report = json.loads(path.read_text())
        report["fidelity"]["per_step_mean"][-1] = NAN
        report["fidelity"]["final_step_rmse"] = NAN
        path.write_text(json.dumps(report))
        capsys.readouterr()
        assert cli.main(["pipeline"] + args) == cli.EXIT_OK
        assert capsys.readouterr().out.count("cache hit") == 5

    @pytest.mark.parametrize("rate", [NAN, True, 1.5, "x"])
    def test_unreadable_success_rate_is_a_cache_miss(self, finished_run,
                                                     tmp_path, capsys, rate):
        # the run's rate is 1.0; each of these read as passing a 0.5 gate
        # before the rate went through the number rule, but "x"
        args = copy_run(finished_run, tmp_path)
        path = tmp_path / "out" / "report.json"
        report = json.loads(path.read_text())
        report["success_rate"] = rate
        path.write_text(json.dumps(report))
        capsys.readouterr()
        assert cli.main(["pipeline"] + args) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.count("cache hit") == 4 and "evaluate: success" in out
        assert json.loads(path.read_text())["success_rate"] == 1.0

    def test_failed_synthesis_keeps_its_null_lambda(self, tmp_path, capsys):
        cfgfile = zero_authority_model(tmp_path)
        assert cli.main(["synthesize", "--config", str(cfgfile)]) \
            == cli.EXIT_INFEASIBLE
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["lambda"] is None
        assert np.isnan(cli.result_from_json(result).lam)
        capsys.readouterr()
        # evaluate names the failed status, not the lambda
        assert cli.main(["evaluate", "--config", str(cfgfile)]) \
            == cli.EXIT_PRECONDITION
        assert capsys.readouterr().err.endswith(
            "synthesis status is max-resamples-exceeded; run 'synthesize' "
            "first\n")


class TestOneResolution:
    """A command reads each artifact at most once, and ``pipeline`` reruns
    every stage after one that ran."""

    def test_report_scores_the_gain_of_a_rerun_synthesis(
            self, finished_run, tmp_path, capsys):
        # a model.json edit that synthesis still stabilizes, at another
        # lambda: the old gain fails the certificate, synthesize reruns,
        # and the report must not be the one scored under the old gain
        args = copy_run(finished_run, tmp_path)
        out = tmp_path / "out"
        before = json.loads((out / "result.json").read_text())["lambda"]
        path = out / "model.json"
        payload = json.loads(path.read_text())
        payload["K_xx"]["data"][0] += 1e-4
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli.main(["pipeline"] + args) == cli.EXIT_OK
        printed = capsys.readouterr().out
        assert "identify: cache hit" in printed
        assert "synthesize: lambda*" in printed
        assert "evaluate: success" in printed
        lam = json.loads((out / "result.json").read_text())["lambda"]
        assert lam != before
        assert json.loads((out / "report.json").read_text())["lambda"] == lam

    @pytest.mark.parametrize("command", ["evaluate", "pipeline"])
    def test_each_artifact_is_parsed_once(self, finished_run, tmp_path,
                                          capsys, monkeypatch, command):
        args = copy_run(finished_run, tmp_path)
        calls = []
        for name in ("pair_from_json", "model_from_json"):
            def counted(d, read=getattr(cli, name), name=name):
                calls.append(name)
                return read(d)
            monkeypatch.setattr(cli, name, counted)
        capsys.readouterr()
        assert cli.main([command] + args) == cli.EXIT_OK
        assert sorted(calls) == ["model_from_json", "pair_from_json"]
        if command == "pipeline":
            assert capsys.readouterr().out.count("cache hit") == 5

    def test_assumption_probe_covers_the_grid_box(self, finished_run,
                                                  tmp_path, monkeypatch):
        # the smoke config keeps the template's grid, [-pi, pi] x [-6, 6]
        args = copy_run(finished_run, tmp_path)
        probes = []

        def recorded(pair, map_x, map_u, states, check=cli.verify_assumption1):
            probes.append(np.array(states))
            return check(pair, map_x, map_u, states)

        monkeypatch.setattr(cli, "verify_assumption1", recorded)
        assert cli.main(["synthesize"] + args) == cli.EXIT_OK
        (probe,) = probes
        grid = load_config(finished_run[0])["babbling"]["state_grid"]
        assert grid == config.DEFAULTS["babbling"]["state_grid"]
        lo, hi = np.array(grid).T
        assert probe.shape == (256, 2)
        assert np.all((lo <= probe) & (probe <= hi))
        assert np.abs(probe[:, 1]).max() > 1.0


def artifact_sweep_values(value) -> list:
    """The sweep's values for an artifact field that holds ``value``: a
    fixed family, then, for a list or a {rows, cols, data} matrix, one
    entry short and one row more."""
    values = [None, "x", NAN, -1, [], {}]
    if isinstance(value, list):
        values += [value[:-1], value + value[-1:]]
    elif isinstance(value, dict) and "data" in value:
        values += [{**value, "data": value["data"][:-1]}, with_row(value)]
    return values


class TestArtifactSweep:
    """Every field of each JSON artifact against a family of bad values,
    through the one-stage command downstream of it: a documented exit
    code, one stderr line and no traceback.  A field no stage reads
    leaves exit 0; every other value exits 3 naming the file and, but
    for kind and meta, the field."""

    UNREAD = ("diagnostics",)

    @pytest.mark.parametrize("artifact, stage", [
        ("pair.json", "identify"), ("model.json", "synthesize"),
        ("result.json", "evaluate")])
    def test_every_value_has_a_documented_outcome(
            self, finished_run, tmp_path, capsys, artifact, stage):
        args = copy_run(finished_run, tmp_path)
        path = tmp_path / "out" / artifact
        written = path.read_text()
        payload = json.loads(written)
        failures = []
        for key, value in payload.items():
            for bad in artifact_sweep_values(value):
                path.write_text(json.dumps({**payload, key: bad}))
                capsys.readouterr()
                code = cli.main([stage] + args)
                err = capsys.readouterr().err
                want = cli.EXIT_OK if key in self.UNREAD \
                    else cli.EXIT_PRECONDITION
                named = code == 0 or key in ("kind", "meta") \
                    or key in err.partition(f"{artifact}: ")[2]
                if (code != want or err.count("\n") != (code != 0)
                        or "Traceback" in err or not named):
                    failures.append((key, bad, code, err))
        path.write_text(written)
        assert failures == []


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
