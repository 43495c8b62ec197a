"""Pipeline driver: babble -> factorize -> identify -> synthesize -> evaluate.

Exit codes, each failure in one stderr line (the README lists the
cases): 0 success, 2 config error, 3 stage-precondition error (a
missing, corrupt or stale upstream artifact, or one with a field its
reader rejects and names; a stage's ValueError, such as an all-diverged
babble, or MemoryError, such as a babble of a huge grid or an evaluate
of a huge evaluation set), 4 synthesis infeasible, 5 evaluation gate
failed, 6 factorization retained no block, 7 artifact could not be
written (e.g. disk full), naming the file.  ``STAGES`` holds one row per
stage, with the reader of its artifact and its format number.  Each
artifact embeds its stage key, the hash of the format numbers and config
sections of the stage and the stages upstream of it (``output_dir`` is
in none).  ``pipeline`` reuses the artifacts whose key is current and
that their reader accepts (not a failed synthesis or an evaluation below
its gate) up to the first that is not, then reruns that stage and every
later one, as make would, since each is downstream of all before it; a
single-stage command exits 3 on a stale upstream.  Artifacts are
written atomically.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, evaluation
from .babbling import (
    KIND,
    SnapshotDataset,
    _read_dataset,
    generate_dataset,
    save_dataset,
    write_json_atomic,
)
from .config import (
    ConfigError,
    babbling_config,
    build_maps,
    build_plant,
    config_hash,
    evaluation_initial_states,
    load_config,
    template_json,
    validate,
)
from .edmd import identify_model, model_from_json, model_to_json
from .factorization import (
    FactorizationError,
    fit_pair,
    pair_from_json,
    pair_to_json,
    verify_assumption1,
)
from .synthesis import (DEFAULT_FEAS_TOL, certificate, certified_rate,
                        result_from_json, result_to_json, synthesize)
from .tensor import as_matrix, as_number

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_INFEASIBLE = 4
EXIT_EVAL_GATE = 5
EXIT_FACTORIZATION = 6
EXIT_WRITE = 7

class StageError(RuntimeError):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class Stage(NamedTuple):
    path: str                  # artifact, under output_dir
    kind: str
    sections: tuple            # config sections the stage reads itself
    upstream: tuple            # stages whose outputs ``run`` takes, in order
    read: Callable             # (cfg, payload, path, done) -> output
    run: Callable              # cmd_*(cfg, *upstream outputs)
    format: int = 1            # raised when its bytes for equal inputs move


@contextmanager
def _writing(path):
    """Turn an OSError while writing ``path`` into exit 7, in one line
    naming the file (the error's own filename when it carries one)."""
    try:
        yield
    except OSError as exc:
        raise StageError(f"artifact could not be written: "
                         f"{exc.filename or path}: {exc.strerror or exc}",
                         EXIT_WRITE) from exc


def _outdir(cfg: dict) -> Path:
    out = Path(cfg["output_dir"])
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    return out


def stage_key(cfg: dict, name: str) -> str:
    """config_hash of the format numbers of stage ``name`` and every stage
    upstream of it, and of the config sections they read."""
    def closure(n):
        return {n}.union(*map(closure, STAGES[n].upstream))
    names = closure(name)
    return config_hash({
        "formats": {n: STAGES[n].format for n in names},
        "sections": {s: cfg[s] for n in names for s in STAGES[n].sections}})


def _meta(cfg: dict, name: str) -> dict:
    return {"meta": {"config_hash": stage_key(cfg, name),
                     "seed": int(cfg["seed"]), "version": __version__}}


def _write_json(cfg: dict, name: str, payload: dict) -> Path:
    path = _outdir(cfg) / STAGES[name].path
    with _writing(path):
        write_json_atomic(path, {**payload, **_meta(cfg, name)})
    return path


def _load(cfg: dict, name: str, done: dict):
    """Stage ``name``'s output, kept in ``done`` once this command has read
    or run it, so a command reads each artifact once, readers included.  A
    missing, corrupt or stale artifact, one of another kind, or one with a
    field its reader rejects is exit 3 in one line naming the file, the
    reason and the stage to rerun."""
    if name in done:
        return done[name]
    stage = STAGES[name]
    path = Path(cfg["output_dir"]) / stage.path
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or payload.get("kind") != stage.kind:
            raise ValueError(f"not a {stage.kind} artifact")
        meta = payload.get("meta", {})
        if not isinstance(meta, dict):
            raise ValueError(f"meta must be an object, got {meta!r:.40}")
        if meta.get("config_hash") != stage_key(cfg, name):
            raise ValueError("stale, written under another config")
        return done.setdefault(name, stage.read(cfg, payload, path, done))
    except FileNotFoundError as exc:
        problem = f"missing stage artifact {exc.filename}"
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        problem = f"unusable stage artifact {path}: {exc}"
    raise StageError(f"{problem}; run '{name}' first", EXIT_PRECONDITION)


def _run(cfg: dict, name: str, done: dict):
    """Run stage ``name`` on its upstream outputs.  A ValueError it raises,
    other than a ConfigError, is exit 3: ``cannot <stage>: <message>``; so
    is a MemoryError: ``cannot <stage>: out of memory``.  A
    FactorizationError is exit 6: ``factorization failed: <message>``."""
    inputs = [_load(cfg, u, done) for u in STAGES[name].upstream]
    try:
        done[name] = STAGES[name].run(cfg, *inputs)
    except ConfigError:
        raise
    except FactorizationError as exc:
        raise StageError(f"factorization failed: {exc}",
                         EXIT_FACTORIZATION) from exc
    except ValueError as exc:
        raise StageError(f"cannot {name}: {exc}", EXIT_PRECONDITION) from exc
    except MemoryError as exc:  # numpy's message names the array
        why = ": ".join(filter(None, ("out of memory", str(exc))))
        raise StageError(f"cannot {name}: {why}", EXIT_PRECONDITION) from exc


def _read_pair(cfg: dict, payload: dict, path: Path, done: dict):
    map_x, map_u = build_maps(cfg)
    # first, as the mask's length sizes the other fields
    as_matrix(payload["mask"], "mask", (map_x.dim,))
    pair = pair_from_json(payload)
    as_matrix(pair.H, "H", (pair.d_S * map_u.dim, map_x.dim))
    return pair


def _read_model(cfg: dict, payload: dict, path: Path, done: dict):
    map_x = build_maps(cfg)[0]
    if payload["map"] != map_x.to_descriptor():
        raise ValueError("map is not the config's observables map")
    model, pair = model_from_json(payload), _load(cfg, "factorize", done)
    if not np.array_equal(model.S, pair.S):
        raise ValueError(f"S is not the S of {STAGES['factorize'].path}")
    as_matrix(model.K_xu, "K_xu",
              (map_x.dim, pair.d_S * build_plant(cfg).input_dim))
    return model


def _read_result(cfg: dict, payload: dict, path: Path, done: dict):
    plant, (map_x, map_u) = build_plant(cfg), build_maps(cfg)
    result = result_from_json(payload, {
        "K_u": (plant.input_dim, map_u.dim), "P": (map_x.dim, map_x.dim),
        "S_x": (plant.state_dim, plant.state_dim)})
    if result.status != "optimal":
        raise ValueError(f"synthesis status is {result.status}")
    if not 0 <= result.lam < 1:
        raise ValueError(f"lambda of an optimal synthesis must be in [0, 1), "
                         f"got {result.lam!r}")
    min_eig = certificate(result, _load(cfg, "identify", done),
                          _load(cfg, "factorize", done))
    if not min_eig >= -DEFAULT_FEAS_TOL:
        raise ValueError(f"K_u and lambda fail the certificate with "
                         f"model.json and pair.json: full-block min eig "
                         f"{min_eig:.3e} < -{DEFAULT_FEAS_TOL:g}")
    return result


def _read_report(cfg: dict, payload: dict, path: Path, done: dict) -> dict:
    """The report, current only with its plot file beside it and a
    success rate in [0, 1] that meets the gate: a failed one is a miss."""
    # a missing plot file is a FileNotFoundError, which names it
    (path.parent / "plots" / evaluation.PLOT_FILE).stat()
    rate = as_number(payload["success_rate"], "success_rate", "nonnegative")
    gate = cfg["evaluation"]["success_gate"]
    if rate > 1:
        raise ValueError(f"success_rate must be at most 1, got {rate!r}")
    if rate < gate:
        raise ValueError(f"success rate {rate:.2%} below gate {gate:.2%}")
    return payload


def cmd_babble(cfg: dict) -> SnapshotDataset:
    plant = build_plant(cfg)
    map_x, map_u = build_maps(cfg)
    bcfg = babbling_config(cfg, plant.state_dim)
    ds = generate_dataset(plant, map_x, map_u, bcfg)
    path = _outdir(cfg) / STAGES["babble"].path
    with _writing(path.parent):
        save_dataset(ds, path.parent, extra_meta=_meta(cfg, "babble"))
    print(f"babble: {ds.n_trajectories} trajectories "
          f"({ds.n_dropped} dropped), {len(ds)} snapshots -> {path}")
    return ds


def cmd_factorize(cfg: dict, ds: SnapshotDataset):
    map_x, map_u = build_maps(cfg)
    pair = fit_pair(ds, map_x, map_u, eps_h=cfg["factorization"]["eps_h"])
    path = _write_json(cfg, "factorize", pair_to_json(pair))
    print(f"factorize: eps_h={pair.eps_h:.3e}, retained {pair.d_S} "
          f"of {pair.mask.size} blocks -> {path}")
    print("  block  label                          residual  kept")
    for i, (label, r) in enumerate(zip(map_x.labels, pair.residuals)):
        print(f"  {i:>5}  {label:<28}  {r:9.3e}  {'yes' if pair.mask[i] else 'no'}")
    return pair


def cmd_identify(cfg: dict, ds: SnapshotDataset, pair):
    map_x, _ = build_maps(cfg)
    ident = cfg["identification"]
    model = identify_model(ds, map_x, pair.S, ridge=ident["ridge"],
                           holdout_fraction=ident["holdout_fraction"])
    path = _write_json(cfg, "identify", model_to_json(model))
    diag = model.diagnostics
    holdout = diag.get("holdout_mse")
    print(f"identify: train MSE {diag['train_mse']:.3e}"
          + (f", held-out MSE {holdout:.3e}" if holdout is not None else "")
          + f" -> {path}")
    return model


def cmd_synthesize(cfg: dict, model, pair):
    map_x, map_u = build_maps(cfg)
    gate = 10.0 * pair.eps_h  # fixed: 10 x the block threshold fit_pair used
    lo, hi = np.array(cfg["babbling"]["state_grid"], dtype=float).T
    rng = np.random.default_rng([int(cfg["seed"]), 4242])
    probe = rng.uniform(lo, hi, size=(256, len(lo)))  # over the data's box
    residual = verify_assumption1(pair, map_x, map_u, probe)
    if residual > gate:
        raise StageError(
            f"compatibility residual {residual:.3e} exceeds gate {gate:.3e}; "
            "refusing to synthesize on an invalid factorization",
            EXIT_PRECONDITION,
        )
    result = synthesize(model, pair,
                        max_resamples=cfg["synthesis"]["max_resamples"],
                        seed=cfg["seed"])
    result.diagnostics["assumption_residual"] = residual
    path = _write_json(cfg, "synthesize", result_to_json(result))
    if result.status != "optimal":
        raise StageError(
            f"synthesis failed ({result.status}) after "
            f"{result.diagnostics.get('resample_count', 0)} resamples -> {path}",
            EXIT_INFEASIBLE,
        )
    print(f"synthesize: lambda*={result.lam:.6f}, "
          f"rate sqrt(lambda*)={certified_rate(result):.6f}, "
          f"resamples={result.diagnostics['resample_count']}, "
          f"min eig {result.diagnostics['min_eig']:.2e} -> {path}")
    return result


def cmd_evaluate(cfg: dict, result, model, pair):
    plant = build_plant(cfg)
    map_x, map_u = build_maps(cfg)
    ev = cfg["evaluation"]
    states = evaluation_initial_states(cfg, plant.state_dim)
    report = evaluation.evaluate_closed_loop(
        plant, map_u, result.K_u, states, ev["horizon_seconds"],
        cfg["babbling"]["dt"], settle_tol=ev["settle_tol"], result=result,
        map_x=map_x, train_ranges=cfg["babbling"]["state_grid"],
    )
    report.fidelity = evaluation.lifted_vs_true(
        model, pair, result.K_u, map_x, report.controlled_trajs[:10],
        ev["fidelity_steps"])
    # the old report goes before the plot file is written and the new one
    # comes after it, so an interrupted export is a cache miss
    path = _outdir(cfg) / STAGES["evaluate"].path
    with _writing(path):
        path.unlink(missing_ok=True)
    with _writing(path.parent / "plots"):
        plot = evaluation.export_plot_data(report, path.parent / "plots")
    _write_json(cfg, "evaluate", report.to_json())
    print(f"evaluate: success rate {report.success_rate:.2%} over "
          f"{len(report.records)} trajectories, median settle "
          f"{report.median_settling_time:.2f} s -> {path}, {plot}")
    if report.success_rate < ev["success_gate"]:
        raise StageError(
            f"success rate {report.success_rate:.2%} below gate "
            f"{ev['success_gate']:.2%}",
            EXIT_EVAL_GATE,
        )
    return report


# Stage.format enters the stage's key and those downstream: raising it
# makes their older caches a miss.  babble 2: trajectory ids as runs
# (koopctl/dataset/3); factorize 2: 4096-row chunks in the streamed
# passes (tensor.QR_CHUNK), 3: pair.json without S; identify 2:
# model.json without map_hash; synthesize 2: the barrier method, 3: the
# Assumption-1 probe over the grid's box; evaluate 2: one
# plots/trajectories.npz for the two CSV files, 3: fidelity rolls out
# the certified Ktilde (factorization.closed_loop).  The dataset is read
# straight into the rows of its lift by the state map, from the manifest
# ``_load`` parsed and checked.
STAGES = {
    "babble": Stage(
        "dataset/manifest.json", KIND,
        ("plant", "observables", "babbling", "seed"), (),
        lambda cfg, payload, path, _: _read_dataset(
            path.parent, payload, build_maps(cfg)[0]),
        cmd_babble, 2),
    "factorize": Stage(
        "pair.json", "koopctl/pair", ("factorization",), ("babble",),
        _read_pair, cmd_factorize, 3),
    "identify": Stage(
        "model.json", "koopctl/model", ("identification",),
        ("babble", "factorize"), _read_model, cmd_identify, 2),
    "synthesize": Stage(
        "result.json", "koopctl/synthesis", ("synthesis",),
        ("identify", "factorize"), _read_result, cmd_synthesize, 3),
    "evaluate": Stage(
        "report.json", "koopctl/report", ("evaluation",),
        ("synthesize", "identify", "factorize"), _read_report, cmd_evaluate,
        3),
}


def cmd_pipeline(cfg: dict):
    done = {}
    for name in STAGES:
        try:
            _load(cfg, name, done)
        except StageError:  # missing, corrupt, other kind, stale
            break
        print(f"{name}: cache hit")
    for name in list(STAGES)[len(done):]:
        _run(cfg, name, done)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="koopctl",
        description="bilinear Koopman identification and LMI gain synthesis",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in [
        ("babble", "generate the motor-babbling dataset"),
        ("factorize", "identify the selection/measurement pair (S, H)"),
        ("identify", "fit the bilinear Koopman system matrix"),
        ("synthesize", "solve the Lyapunov LMI for the feedback gain"),
        ("evaluate", "closed-loop evaluation on the true plant"),
        ("pipeline", "run all stages with caching"),
    ]:
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="experiment JSON file")
        p.add_argument("--out", help="override output directory")
        p.add_argument("--seed", type=int, help="override the global seed")
    p_init = sub.add_parser("init", help="write a documented config template")
    p_init.add_argument("path", nargs="?", default="experiment.json")

    args = parser.parse_args(argv)
    try:
        if args.command == "init":
            with _writing(args.path):
                Path(args.path).write_text(template_json() + "\n")
            print(f"wrote template config to {args.path}")
            return EXIT_OK
        cfg = load_config(args.config)
        if args.out:
            cfg["output_dir"] = args.out
        if args.seed is not None:
            cfg["seed"] = args.seed
        validate(cfg, evaluates=args.command in ("pipeline", "evaluate"))
        if args.command == "pipeline":
            cmd_pipeline(cfg)
        else:
            _run(cfg, args.command, {})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
