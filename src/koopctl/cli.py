"""Pipeline driver: babble -> factorize -> identify -> synthesize -> evaluate.

Exit codes: 0 success, 2 config error, 3 stage-precondition error
(missing, corrupt or stale upstream artifact, a babble whose every
trajectory diverged, or a dataset identify cannot fit), 4 synthesis
infeasible, 5 evaluation gate failed, 6 factorization retained no
block, 7 artifact could not be written (e.g. disk full), reported in
one line naming the file.  Stage outputs embed the hash of the whole
config; ``pipeline`` skips a stage whose artifact carries the current
hash, so any config edit reruns every stage.  Artifacts are written
atomically.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__, evaluation
from .babbling import (
    SnapshotDataset,
    generate_dataset,
    load_dataset,
    save_dataset,
    write_json_atomic,
)
from .config import (
    ConfigError,
    artifact_meta,
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
from .synthesis import certified_rate, result_from_json, result_to_json, synthesize

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


def _write_json(path: Path, payload: dict, cfg: dict) -> None:
    payload = dict(payload)
    payload["meta"] = artifact_meta(cfg)
    with _writing(path):
        write_json_atomic(path, payload)


def _read_json(path: Path, expected_kind: str):
    if not path.exists():
        raise StageError(f"missing stage artifact: {path}", EXIT_PRECONDITION)
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise StageError(f"corrupt stage artifact {path}: {exc}",
                         EXIT_PRECONDITION)
    if payload.get("kind") != expected_kind:
        raise StageError(f"{path} is not a {expected_kind} artifact",
                         EXIT_PRECONDITION)
    return payload


def _load_dataset(outdir: Path) -> SnapshotDataset:
    """load_dataset with a missing or unreadable manifest.json or
    snapshots.npz as exit 3, in one line that names the file."""
    try:
        return load_dataset(outdir)
    except (OSError, ValueError, KeyError) as exc:
        raise StageError(f"cannot read dataset in {outdir}: {exc}",
                         EXIT_PRECONDITION)


def _cached(path: Path, kind: str, cfg: dict) -> bool:
    try:
        payload = _read_json(path, kind)
    except StageError:  # missing, corrupt or of another kind
        return False
    return payload.get("meta", {}).get("config_hash") == config_hash(cfg)


def cmd_babble(cfg: dict) -> SnapshotDataset:
    plant = build_plant(cfg)
    map_x, map_u = build_maps(cfg)
    bcfg = babbling_config(cfg, plant.state_dim)
    try:
        ds = generate_dataset(plant, map_x, map_u, bcfg)
    except ValueError as exc:
        raise StageError(f"cannot babble: {exc}", EXIT_PRECONDITION)
    outdir = _outdir(cfg) / "dataset"
    with _writing(outdir):
        save_dataset(ds, outdir, extra_meta={"meta": artifact_meta(cfg)})
    print(f"babble: {ds.n_trajectories} trajectories "
          f"({ds.n_dropped} dropped), {len(ds)} snapshots "
          f"-> {outdir / 'manifest.json'}")
    return ds


def cmd_factorize(cfg: dict, ds: SnapshotDataset):
    map_x, map_u = build_maps(cfg)
    pair = fit_pair(ds, map_x, map_u, eps_h=cfg["factorization"]["eps_h"])
    path = _outdir(cfg) / "pair.json"
    _write_json(path, pair_to_json(pair), cfg)
    print(f"factorize: eps_h={pair.eps_h:.3e}, retained {pair.d_S} "
          f"of {pair.mask.size} blocks -> {path}")
    print("  block  label                          residual  kept")
    for i, (label, r) in enumerate(zip(map_x.labels, pair.residuals)):
        print(f"  {i:>5}  {label:<28}  {r:9.3e}  {'yes' if pair.mask[i] else 'no'}")
    return pair


def cmd_identify(cfg: dict, ds: SnapshotDataset, pair):
    map_x, _ = build_maps(cfg)
    ident = cfg["identification"]
    try:
        model = identify_model(ds, map_x, pair.S, ridge=ident["ridge"],
                               holdout_fraction=ident["holdout_fraction"])
    except ValueError as exc:
        raise StageError(f"cannot identify: {exc}", EXIT_PRECONDITION)
    path = _outdir(cfg) / "model.json"
    _write_json(path, model_to_json(model), cfg)
    diag = model.diagnostics
    holdout = diag.get("holdout_mse")
    print(f"identify: train MSE {diag['train_mse']:.3e}"
          + (f", held-out MSE {holdout:.3e}" if holdout is not None else "")
          + f" -> {path}")
    return model


def cmd_synthesize(cfg: dict, model, pair):
    map_x, map_u = build_maps(cfg)
    syn = cfg["synthesis"]
    gate = syn["assumption_gate"]
    gate = 10.0 * pair.eps_h if gate is None else float(gate)
    rng = np.random.default_rng([int(cfg["seed"]), 4242])
    probe = rng.uniform(-1.0, 1.0, size=(256, map_x.state_dim))
    residual = verify_assumption1(pair, map_x, map_u, probe)
    if residual > gate:
        raise StageError(
            f"compatibility residual {residual:.3e} exceeds gate {gate:.3e}; "
            "refusing to synthesize on an invalid factorization",
            EXIT_PRECONDITION,
        )
    result = synthesize(
        model, pair, eps_p=syn["eps_p"], max_resamples=syn["max_resamples"],
        seed=cfg["seed"], lam_tol=syn["lambda_tol"], feas_tol=syn["feas_tol"])
    result.diagnostics["assumption_residual"] = residual
    path = _outdir(cfg) / "result.json"
    _write_json(path, result_to_json(result), cfg)
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
    if result.status != "optimal":
        raise StageError("cannot evaluate a non-optimal synthesis result",
                         EXIT_PRECONDITION)
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
        model, pair, result.K_u, plant, map_x, states[:10],
        int(ev["fidelity_steps"]), cfg["babbling"]["dt"])
    outdir = _outdir(cfg)
    _write_json(outdir / "report.json", report.to_json(), cfg)
    with _writing(outdir / "plots"):
        files = evaluation.export_plot_data(report, outdir / "plots")
    print(f"evaluate: success rate {report.success_rate:.2%} over "
          f"{len(report.records)} trajectories, median settle "
          f"{report.median_settling_time:.2f} s -> {outdir / 'report.json'} "
          f"(+{len(files)} plot files)")
    if report.success_rate < ev["success_gate"]:
        raise StageError(
            f"success rate {report.success_rate:.2%} below gate "
            f"{ev['success_gate']:.2%}",
            EXIT_EVAL_GATE,
        )
    return report


def cmd_pipeline(cfg: dict):
    # check the evaluation states, which only evaluate reads, before babble
    evaluation_initial_states(cfg, build_plant(cfg).state_dim)
    outdir = _outdir(cfg)
    if _cached(outdir / "dataset" / "manifest.json", "koopctl/dataset", cfg):
        print("babble: cache hit")
        ds = _load_dataset(outdir / "dataset")
    else:
        ds = cmd_babble(cfg)
    if _cached(outdir / "pair.json", "koopctl/pair", cfg):
        print("factorize: cache hit")
        pair = pair_from_json(_read_json(outdir / "pair.json", "koopctl/pair"))
    else:
        pair = cmd_factorize(cfg, ds)
    if _cached(outdir / "model.json", "koopctl/model", cfg):
        print("identify: cache hit")
        model = model_from_json(_read_json(outdir / "model.json", "koopctl/model"))
    else:
        model = cmd_identify(cfg, ds, pair)
    if _cached(outdir / "result.json", "koopctl/synthesis", cfg):
        print("synthesize: cache hit")
        result = result_from_json(
            _read_json(outdir / "result.json", "koopctl/synthesis"))
        if result.status != "optimal":
            raise StageError(f"cached synthesis is {result.status}",
                             EXIT_INFEASIBLE)
    else:
        result = cmd_synthesize(cfg, model, pair)
    return cmd_evaluate(cfg, result, model, pair)


def _load_stage_inputs(cfg: dict, *names):
    """Load prior-stage artifacts, enforcing the pipeline order."""
    outdir = _outdir(cfg)
    loaded = []
    for name in names:
        if name == "dataset":
            manifest = outdir / "dataset" / "manifest.json"
            if not manifest.exists():
                raise StageError(
                    f"missing dataset (run 'babble' first): {manifest}",
                    EXIT_PRECONDITION)
            loaded.append(_load_dataset(outdir / "dataset"))
        elif name == "pair":
            loaded.append(pair_from_json(
                _read_json(outdir / "pair.json", "koopctl/pair")))
        elif name == "model":
            loaded.append(model_from_json(
                _read_json(outdir / "model.json", "koopctl/model")))
        elif name == "result":
            loaded.append(result_from_json(
                _read_json(outdir / "result.json", "koopctl/synthesis")))
    return loaded


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
        validate(cfg)
        if args.command == "babble":
            cmd_babble(cfg)
        elif args.command == "factorize":
            (ds,) = _load_stage_inputs(cfg, "dataset")
            cmd_factorize(cfg, ds)
        elif args.command == "identify":
            ds, pair = _load_stage_inputs(cfg, "dataset", "pair")
            cmd_identify(cfg, ds, pair)
        elif args.command == "synthesize":
            model, pair = _load_stage_inputs(cfg, "model", "pair")
            cmd_synthesize(cfg, model, pair)
        elif args.command == "evaluate":
            result, model, pair = _load_stage_inputs(cfg, "result", "model",
                                                     "pair")
            cmd_evaluate(cfg, result, model, pair)
        elif args.command == "pipeline":
            cmd_pipeline(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except FactorizationError as exc:
        print(f"factorization failed: {exc}", file=sys.stderr)
        return EXIT_FACTORIZATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
