"""Experiment configuration: defaults, validation, hashing, template.

A single JSON file drives the whole pipeline.  Unknown keys are rejected
so typos fail loudly; omitted keys fall back to the documented defaults.
``config_hash`` is the sha256 of the canonical (sorted) JSON of a config,
or of some of its top-level sections: each artifact embeds the hash of
the sections its stage and the stages upstream of it read (see
``cli.STAGES``), so stage caching and reproducibility checks are purely
content-based and ``output_dir`` is in no hash.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math

import numpy as np

from .babbling import BabblingConfig, grid_initial_conditions, grid_points
from .observables import (
    ObservableMap,
    double_pendulum_map,
    map_from_descriptor,
    single_pendulum_map,
)
from .plants import ControlAffinePlant, double_pendulum, single_pendulum


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


DEFAULTS = {
    "plant": {
        "kind": "single_pendulum",
        "params": {},           # plant constructor overrides, e.g. {"b": 0.3}
        "input_bound": 5.0,
    },
    "observables": {
        "kind": "single_pendulum",   # single_pendulum | double_pendulum | custom
        "features": None,            # custom feature descriptors
        "state_dim": None,           # required for custom features
        "controller": None,          # separate psi_u config; None reuses psi_x
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
        "eps_p": 0.01,
        "lambda_tol": 1e-3,
        "feas_tol": 1e-8,
        "max_resamples": 50,
        "assumption_gate": None,     # None: 10 x the eps_h actually used
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
        "extra_states": [],          # appended, reported alongside
        "fidelity_steps": 100,
    },
    "seed": 0,
    "output_dir": "out",
}

_DOC = {
    "plant.kind": "single_pendulum or double_pendulum",
    "plant.params": "constructor overrides (m, L, b, gravity; m1, m2, l1, l2, damping); "
                    "the template sets gravity 1.0 so the torque bound dominates m g L, "
                    "as in the acceptance experiments: at the default 9.81 it "
                    "stabilizes about 13% of its evaluation states, below its 0.9 gate",
    "plant.input_bound": "per-channel torque saturation, u in [-bound, bound]",
    "observables.kind": "lifting map; 'custom' reads observables.features descriptors",
    "observables.controller": "separate controller-feature map config, null reuses the state map",
    "babbling.num_gains": "random feedback gains; trajectories = num_gains * num_initial_conditions",
    "babbling.state_grid": "per-state [lo, hi] bounds for the initial-condition grid",
    "babbling.grid_shape": "explicit per-dimension grid counts; null picks near-equal factors",
    "identification.ridge": "Frobenius ridge; null = 1e-8 * training snapshot count",
    "factorization.eps_h": "block residual threshold; null = 1e-6 * RMS lifted Kronecker norm",
    "synthesis.eps_p": "ridge inside sampled Lyapunov candidates R^T R + eps_p I",
    "synthesis.lambda_tol": "the reported lambda is at most the exact optimum plus lambda_tol",
    "synthesis.max_resamples": "sampled candidates tried after the identity start",
    "synthesis.assumption_gate": "max compatibility residual allowed before synthesis",
    "evaluation.initial_conditions": "uniform sampling, explicit grid, or a literal state list",
    "evaluation.extra_states": "stress-case states appended to the evaluation set",
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
    params = dict(section["params"])
    # the plant names input_bound; say which of the two keys set it
    where = "plant.params" if "input_bound" in params else "plant"
    params.setdefault("input_bound", section["input_bound"])
    try:
        if kind == "single_pendulum":
            return single_pendulum(**params)
        if kind == "double_pendulum":
            if "damping" in params:
                params["damping"] = tuple(params["damping"])
            return double_pendulum(**params)
    except (TypeError, ValueError) as exc:
        msg = str(exc)
        if msg.startswith("input_bound "):
            raise ConfigError(f"{where}.{msg}")
        raise ConfigError(f"bad plant params: {msg}")
    raise ConfigError(f"unknown plant kind {kind!r}")


def _build_map(section: dict) -> ObservableMap:
    kind = section["kind"]
    if kind == "single_pendulum":
        return single_pendulum_map()
    if kind == "double_pendulum":
        return double_pendulum_map()
    if kind == "custom":
        features = section["features"]
        if not (features and isinstance(features, list)
                and all(isinstance(f, dict) for f in features)):
            raise ConfigError("custom observables need a 'features' list of "
                              f"feature objects, got {features!r}")
        if type(section["state_dim"]) is not int:
            raise ConfigError("custom observables need an integer "
                              f"'state_dim', got {section['state_dim']!r}")
        try:
            return map_from_descriptor(
                {"name": "custom", "state_dim": section["state_dim"],
                 "features": features})
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad custom observables: {exc}")
    raise ConfigError(f"unknown observables kind {kind!r}")


def build_maps(cfg: dict):
    """Returns (map_x, map_u); psi_u defaults to the psi_x map object."""
    section = cfg["observables"]
    map_x = _build_map(section)
    if section.get("controller") is None:
        return map_x, map_x
    ctrl = merge_defaults(section["controller"], DEFAULTS["observables"],
                          "observables.controller.")
    return map_x, _build_map(ctrl)


def babbling_config(cfg: dict, state_dim: int) -> BabblingConfig:
    """The babbling section, its state grid checked against the plant."""
    b = cfg["babbling"]
    grid = b["state_grid"]
    if not isinstance(grid, list) or len(grid) != state_dim:
        raise ConfigError(
            f"babbling.state_grid must hold {state_dim} [lo, hi] rows, one "
            f"per {cfg['plant']['kind']} state component, got {grid!r}")
    shape = b["grid_shape"]
    if shape is not None and not (isinstance(shape, list) and all(
            type(n) is int and n > 0 for n in shape)):
        raise ConfigError("babbling.grid_shape must be null or a list of "
                          f"positive integers, got {shape!r}")
    try:
        bcfg = BabblingConfig(
            num_gains=int(b["num_gains"]),
            num_initial_conditions=int(b["num_initial_conditions"]),
            gain_scale=float(b["gain_scale"]),
            state_grid=tuple(tuple(map(float, r)) for r in b["state_grid"]),
            grid_shape=None if shape is None else tuple(shape),
            steps=int(b["steps"]),
            dt=float(b["dt"]),
            seed=int(cfg["seed"]),
        )
        grid_initial_conditions(bcfg, state_dim)  # checks grid_shape
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad babbling config: {exc}")
    return bcfg


def evaluation_initial_states(cfg: dict, d_x: int) -> np.ndarray:
    """Initial-condition set for closed-loop evaluation (seeded, deterministic)."""
    section = cfg["evaluation"]["initial_conditions"]
    kind = section["kind"]
    try:
        if kind in ("uniform", "grid"):
            ranges = np.asarray(section["ranges"], dtype=float)
            if ranges.shape != (d_x, 2):
                raise ValueError(f"ranges must be {d_x} x 2, got {ranges.shape}")
            if not np.all(np.isfinite(ranges)):
                raise ValueError("ranges must be finite")
        if kind == "list":
            states = np.asarray(section["states"], dtype=float)
        elif kind == "uniform":
            rng = np.random.default_rng([int(cfg["seed"]), 7001])
            states = rng.uniform(ranges[:, 0], ranges[:, 1],
                                 size=(int(section["count"]), d_x))
        elif kind == "grid":
            shape = section["shape"]
            if shape is None or len(shape) != d_x:
                raise ValueError(f"shape must hold {d_x} counts")
            states = grid_points(ranges, [int(n) for n in shape])
        else:
            raise ValueError(f"unknown kind {kind!r}")
        extra = cfg["evaluation"].get("extra_states") or []
        if extra:
            states = np.vstack([states, np.asarray(extra, dtype=float)])
        if not np.all(np.isfinite(states)):
            raise ValueError("states must be finite")
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"bad evaluation.initial_conditions or extra_states: {exc}")
    if states.ndim != 2 or states.shape[1] != d_x or not len(states):
        raise ConfigError(f"initial states must be (n, {d_x}) with n >= 1")
    return states


# numbers checked before any stage runs: key -> (integral, positive); a
# key that need not be positive must be nonnegative
_NUMBERS = {
    "babbling.num_gains": (True, True), "babbling.steps": (True, True),
    "babbling.num_initial_conditions": (True, True),
    "babbling.gain_scale": (False, False), "babbling.dt": (False, True),
    "identification.ridge": (False, False),
    "identification.holdout_fraction": (False, False),
    "factorization.eps_h": (False, True), "synthesis.eps_p": (False, True),
    "synthesis.lambda_tol": (False, True), "synthesis.feas_tol": (False, False),
    "synthesis.max_resamples": (True, False),
    "synthesis.assumption_gate": (False, False),
    "evaluation.horizon_seconds": (False, True),
    "evaluation.settle_tol": (False, True),
    "evaluation.success_gate": (False, False),
    "evaluation.fidelity_steps": (True, True), "seed": (True, False),
    "evaluation.initial_conditions.count": (True, False),
}


def validate(cfg: dict) -> None:
    """Check the numbers, evaluation horizon, plant, observables and
    babbling grid before any stage runs, so a malformed value exits 2 in
    one line naming its key."""
    for key, (integral, positive) in _NUMBERS.items():
        path = key.split(".")
        x = functools.reduce(dict.get, path, cfg)
        if x is None and functools.reduce(dict.get, path, DEFAULTS) is None:
            continue  # null: the stage works the value out
        number = type(x) is int or (
            not integral and type(x) is float and math.isfinite(x))
        if not (number and (x > 0 if positive else x >= 0)):
            raise ConfigError(
                f"{key} must be a {'positive' if positive else 'nonnegative'}"
                f" {'integer' if integral else 'number'}, got {x!r}")
    holdout = cfg["identification"]["holdout_fraction"]
    if holdout >= 1:
        raise ConfigError("identification.holdout_fraction must lie in "
                          f"[0, 1), got {holdout!r}")
    ev = cfg["evaluation"]
    try:  # a JSON integer or a step count beyond the float range
        steps = round(ev["horizon_seconds"] / cfg["babbling"]["dt"])
    except OverflowError:
        raise ConfigError("evaluation.horizon_seconds / babbling.dt overflows")
    if ev["fidelity_steps"] > steps:
        raise ConfigError(f"evaluation.fidelity_steps must be at most the "
                          f"{steps} evaluation steps, got {ev['fidelity_steps']}")
    d_x = build_plant(cfg).state_dim
    for key, m in zip(("observables", "observables.controller"),
                      build_maps(cfg)):
        if m.state_dim != d_x:
            raise ConfigError(
                f"{key} map {m.name!r} has state_dim {m.state_dim}, the "
                f"{cfg['plant']['kind']} plant {d_x} state components")
    babbling_config(cfg, d_x)
