"""Experiment configuration: defaults, validation, hashing, template.

A single JSON file drives the whole pipeline.  Unknown keys are rejected
so typos fail loudly; omitted keys fall back to the documented defaults.
``config_hash`` is the sha256 of the canonical (sorted) JSON of a config,
or of some of its top-level sections: each artifact embeds the hash of
the sections its stage and the stages upstream of it read (see
``cli.STAGES``), so stage caching and reproducibility checks are purely
content-based and ``output_dir`` is in no hash.

``validate`` builds no babbling grid point and no evaluation state, so
a huge count or shape first allocates in babble or evaluate.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math

import numpy as np

from .babbling import (BabblingConfig, check_box, checked_shape,
                       grid_points, grid_shape, number_rows)
from .observables import (
    ObservableMap,
    double_pendulum_map,
    map_from_descriptor,
    single_pendulum_map,
)
from .plants import ControlAffinePlant, double_pendulum, single_pendulum
from .tensor import as_number


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


DEFAULTS = {
    "plant": {
        "kind": "single_pendulum",
        "params": {},           # plant constructor overrides, e.g. {"b": 0.3}
    },
    "observables": {
        "kind": "single_pendulum",   # single_pendulum | double_pendulum | custom
        "features": None,            # feature descriptors, for kind custom
        "controller": None,          # psi_u {kind, features}; None reuses psi_x
    },
    "babbling": {
        "num_gains": 25,
        "num_initial_conditions": 25,
        "gain_scale": 1.0,
        "state_grid": [[-math.pi, math.pi], [-6.0, 6.0]],
        "grid_shape": None,
        "steps": 100,
        "dt": 0.01,
    },
    "identification": {
        "ridge": None,               # None: auto 1e-8 per snapshot
        "holdout_fraction": 0.1,
    },
    "factorization": {
        "eps_h": None,               # None: auto 1e-6 * RMS ||psi_x kron psi_u||
    },
    "synthesis": {
        "max_resamples": 50,
    },
    "evaluation": {
        "horizon_seconds": 20.0,
        "settle_tol": 0.05,
        "success_gate": 0.9,
        "initial_conditions": {
            "kind": "uniform",       # uniform | grid | list
            "ranges": [[-math.pi, math.pi], [-9.0, 9.0]],
            "count": 30,
            "states": None,          # for kind = list
            "shape": None,           # for kind = grid
        },
        "extra_states": [],          # appended; counted by success_gate
        "fidelity_steps": 100,
    },
    "seed": 0,
    "output_dir": "out",
}

_DOC = {
    "plant.kind": "single_pendulum or double_pendulum",
    "plant.params": "constructor overrides (m, L, b, gravity; m1, m2, l1, l2, damping; "
                    "input_bound, the per-channel torque bound |u| <= 5.0 by default): "
                    "m, L, the masses, the lengths and input_bound are positive numbers, "
                    "b, gravity and damping, a list of two joint entries, nonnegative; "
                    "the template sets gravity 1.0 so the torque bound dominates m g L, "
                    "as in the acceptance experiments: at the default 9.81 it "
                    "stabilizes about 13% of its evaluation states, below its 0.9 gate",
    "observables.kind": "lifting map; 'custom' reads observables.features at the plant's state_dim",
    "observables.controller": "separate psi_u map {kind, features}; null reuses the state map",
    "babbling.num_gains": "random feedback gains; trajectories = num_gains * num_initial_conditions",
    "babbling.state_grid": "per-state [lo, hi] rows, lo <= hi with a finite width hi - lo",
    "babbling.grid_shape": "explicit per-dimension grid counts; null picks near-equal factors",
    "identification.ridge": "Frobenius ridge; null = 1e-8 * training snapshot count",
    "factorization.eps_h": "block residual threshold; null = 1e-6 * RMS lifted Kronecker norm",
    "synthesis.max_resamples": "sampled candidates tried after the identity start",
    "evaluation.initial_conditions": "uniform (ranges, count), grid (ranges, shape) or list (states); "
                                     "ranges follow the state_grid rule",
    "evaluation.success_gate": "smallest success rate that passes, in [0, 1]",
    "evaluation.extra_states": "stress-case states appended to the evaluation set; "
                               "their outcomes count toward success_gate",
    "evaluation.fidelity_steps": "lifted-model fidelity steps, at most horizon_seconds / dt",
    "seed": "global seed; stage streams are derived deterministically from it",
}


def merge_defaults(user: dict, defaults: dict = None, path: str = "") -> dict:
    defaults = DEFAULTS if defaults is None else defaults
    if not isinstance(user, dict):
        raise ConfigError(f"expected an object at '{path[:-1] or 'top level'}'")
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        if key.startswith("_"):
            continue  # comment keys
        if key not in defaults:
            raise ConfigError(f"unknown config key '{path}{key}'")
        if isinstance(defaults[key], dict) and defaults[key]:
            out[key] = merge_defaults(value, defaults[key], f"{path}{key}.")
        else:
            # free-form sections (empty-dict defaults) and scalars are
            # taken wholesale
            out[key] = copy.deepcopy(value)
    return out


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:  # a directory, no permission, ...
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return merge_defaults(raw)


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def template_json() -> str:
    """Defaults plus inline documentation, ready to edit; the template
    declares gravity 1.0 (see ``_DOC["plant.params"]``)."""
    doc = copy.deepcopy(DEFAULTS)
    doc["plant"]["params"] = {"gravity": 1.0}
    doc["_doc"] = _DOC
    return json.dumps(doc, indent=2, sort_keys=True)


def build_plant(cfg: dict) -> ControlAffinePlant:
    section = cfg["plant"]
    kind = section["kind"]
    if not isinstance(section["params"], dict):
        raise ConfigError("plant.params must be an object of constructor "
                          f"overrides, got {section['params']!r}")
    try:
        if kind == "single_pendulum":
            return single_pendulum(**section["params"])
        if kind == "double_pendulum":
            return double_pendulum(**section["params"])
    except TypeError as exc:  # a parameter the plant does not take
        raise ConfigError(f"bad plant params: {exc}")
    except ValueError as exc:  # each message leads with a parameter name
        raise ConfigError(f"plant.params.{exc}")
    raise ConfigError(f"unknown plant kind {kind!r}")


def _build_map(section: dict, key: str, state_dim: int) -> ObservableMap:
    """The map of one observables section; a custom map takes the plant's
    ``state_dim``, and ``features`` is read by kind custom alone."""
    kind, features = section["kind"], section["features"]
    if kind in ("single_pendulum", "double_pendulum") and features is not None:
        raise ConfigError(f"{key}.features is read only by kind 'custom', "
                          f"not {kind!r}; got {features!r}")
    if kind == "single_pendulum":
        return single_pendulum_map()
    if kind == "double_pendulum":
        return double_pendulum_map()
    if kind == "custom":
        if not (features and isinstance(features, list)
                and all(isinstance(f, dict) for f in features)):
            raise ConfigError("custom observables need a 'features' list of "
                              f"feature objects, got {features!r}")
        try:
            return map_from_descriptor(
                {"name": "custom", "state_dim": state_dim,
                 "features": features})
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad custom observables: {exc}")
    raise ConfigError(f"unknown observables kind {kind!r}")


def build_maps(cfg: dict):
    """Returns (map_x, map_u); psi_u defaults to the psi_x map object."""
    section = cfg["observables"]
    d_x = build_plant(cfg).state_dim
    map_x = _build_map(section, "observables", d_x)
    if section["controller"] is None:
        return map_x, map_x
    ctrl = merge_defaults(section["controller"],
                          {"kind": "single_pendulum", "features": None},
                          "observables.controller.")
    return map_x, _build_map(ctrl, "observables.controller", d_x)


def babbling_config(cfg: dict, state_dim: int) -> BabblingConfig:
    """The babbling section, checked, its grid shape resolved (no point)."""
    try:
        bcfg = BabblingConfig(**cfg["babbling"], seed=cfg["seed"])
        grid_shape(bcfg, state_dim)
    except ValueError as exc:  # each message leads with a field name
        raise ConfigError(f"babbling.{exc}")
    return bcfg


def evaluation_set_size(cfg: dict, d_x: int) -> int:
    """The evaluation set's size, at least 1, built from no state: count
    (which ``validate`` checks), the product of shape or the rows of
    states, plus the rows of extra_states; ranges pass ``check_box``."""
    section = cfg["evaluation"]["initial_conditions"]
    kind = section["kind"]
    for key, reader in (("states", "list"), ("shape", "grid")):
        if section[key] is not None and kind != reader:
            raise ConfigError(
                f"evaluation.initial_conditions.{key} is read only by kind "
                f"{reader!r}, not {kind!r}; got {section[key]!r}")
    try:
        if kind in ("uniform", "grid"):
            check_box(section["ranges"], d_x, "ranges")
        if kind == "uniform":
            n = section["count"]
        elif kind == "grid":
            n = math.prod(checked_shape(section["shape"], d_x, "shape"))
        elif kind == "list":
            n = len(number_rows(section["states"], d_x, "states"))
        else:
            raise ValueError(f"unknown kind {kind!r}")
        n += len(number_rows(cfg["evaluation"]["extra_states"], d_x,
                             "extra_states"))
        if n < 1:
            raise ValueError("the set must hold at least one state, got 0")
    except ValueError as exc:
        raise ConfigError(
            f"bad evaluation.initial_conditions or extra_states: {exc}")
    return n


def evaluation_initial_states(cfg: dict, d_x: int) -> np.ndarray:
    """The (n, d_x) evaluation set, seeded, of a config that passed
    ``evaluation_set_size``: the states of its kind, then the extra ones."""
    ev = cfg["evaluation"]
    section = ev["initial_conditions"]
    if section["kind"] == "list":
        states = section["states"]
    elif section["kind"] == "uniform":
        lo, hi = np.array(section["ranges"], dtype=float).T
        states = np.random.default_rng([cfg["seed"], 7001]).uniform(
            lo, hi, size=(section["count"], d_x))
    else:
        states = grid_points(np.array(section["ranges"], dtype=float),
                             section["shape"])
    return np.vstack([np.reshape(states, (-1, d_x)),
                      np.reshape(ev["extra_states"], (-1, d_x))], dtype=float)


# numbers checked before any stage runs: key -> (integral, positive); a
# key that need not be positive must be nonnegative
_NUMBERS = {
    "identification.ridge": (False, False),
    "identification.holdout_fraction": (False, False),
    "factorization.eps_h": (False, True),
    "synthesis.max_resamples": (True, False),
    "evaluation.horizon_seconds": (False, True),
    "evaluation.settle_tol": (False, True),
    "evaluation.success_gate": (False, False),
    "evaluation.fidelity_steps": (True, True), "seed": (True, False),
    "evaluation.initial_conditions.count": (True, False),
}


def validate(cfg: dict, evaluates: bool = True) -> None:
    """Check the numbers, output directory, plant, observables, babbling
    section, evaluation horizon and, if the run ``evaluates``, its states
    before any stage runs: a malformed value exits 2 in one line."""
    if not isinstance(cfg["output_dir"], str):
        raise ConfigError(
            f"output_dir must be a path string, got {cfg['output_dir']!r}")
    for key, (integral, positive) in _NUMBERS.items():
        path = key.split(".")
        x = functools.reduce(dict.get, path, cfg)
        if x is None and functools.reduce(dict.get, path, DEFAULTS) is None:
            continue  # null: the stage works the value out
        as_number(x, key, "positive" if positive else "nonnegative",
                  integer=integral, any_size=integral, error=ConfigError)
    holdout = cfg["identification"]["holdout_fraction"]
    if holdout >= 1:
        raise ConfigError("identification.holdout_fraction must lie in "
                          f"[0, 1), got {holdout!r}")
    if (gate := cfg["evaluation"]["success_gate"]) > 1:
        raise ConfigError(
            f"evaluation.success_gate must lie in [0, 1], got {gate!r}")
    d_x = build_plant(cfg).state_dim
    for key, m in zip(("observables", "observables.controller"),
                      build_maps(cfg)):
        if m.state_dim != d_x:
            raise ConfigError(
                f"{key} map {m.name!r} has state_dim {m.state_dim}, the "
                f"{cfg['plant']['kind']} plant {d_x} state components")
    babbling_config(cfg, d_x)
    ev = cfg["evaluation"]
    try:  # a step count beyond the float range
        steps = round(ev["horizon_seconds"] / cfg["babbling"]["dt"])
    except OverflowError:
        raise ConfigError("evaluation.horizon_seconds / babbling.dt overflows")
    if ev["fidelity_steps"] > steps:
        raise ConfigError(f"evaluation.fidelity_steps must be at most the "
                          f"{steps} evaluation steps, got {ev['fidelity_steps']}")
    if evaluates:
        evaluation_set_size(cfg, d_x)
