"""Motor-babbling dataset generation.

Random feedback gains are paired with gridded initial conditions and
rolled out through the plant; every (x_k, u_k, x_{k+1}) triple is kept
with its provenance.  Trajectories that go non-finite are dropped whole
(a bad suffix would leave near-singular leverage points) and counted.

All gain x initial-condition pairs are rolled out as one batch, in
gain-major, initial-condition-minor order, and snapshots are assembled
in that order, step-increasing, so identical configs and seeds give
bitwise-identical datasets.

A saved dataset is a directory of two files: ``snapshots.npz`` holds the
seven snapshot arrays as they are, and ``manifest.json`` holds the
counts and the babbling metadata.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .observables import ObservableMap
from .plants import ControlAffinePlant, rollout

PAYLOAD = "snapshots.npz"
ARRAYS = ("x", "u", "x_next", "gain_index", "ic_index", "step_index",
          "traj_id")


@dataclass(frozen=True)
class BabblingConfig:
    num_gains: int = 20
    num_initial_conditions: int = 25
    gain_scale: float = 1.0
    state_grid: tuple = ((-np.pi, np.pi), (-6.0, 6.0))  # per-dimension [lo, hi]
    grid_shape: tuple = None  # explicit per-dimension counts, optional
    steps: int = 100
    dt: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.num_gains < 1 or self.num_initial_conditions < 1:
            raise ValueError("counts must be at least 1")
        if self.gain_scale < 0:
            raise ValueError("gain_scale must be nonnegative")
        for lo, hi in self.state_grid:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError("state_grid bounds must be finite with lo <= hi")


@dataclass
class SnapshotDataset:
    """Snapshot triples with provenance (gain i, initial condition j, step k)."""

    x: np.ndarray        # (N, d_x)
    u: np.ndarray        # (N, d_u)
    x_next: np.ndarray   # (N, d_x)
    gain_index: np.ndarray
    ic_index: np.ndarray
    step_index: np.ndarray
    traj_id: np.ndarray
    n_trajectories: int = 0
    n_dropped: int = 0
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.x.shape[0]

    def split_by_trajectory(self, holdout_fraction: float = 0.1):
        """Deterministic whole-trajectory split; returns (train, holdout) masks."""
        if not 0 <= holdout_fraction < 1:
            raise ValueError("holdout_fraction must be in [0, 1)")
        if holdout_fraction == 0:
            return np.ones(len(self), dtype=bool), np.zeros(len(self), dtype=bool)
        every = max(2, int(round(1.0 / holdout_fraction)))
        holdout = (self.traj_id % every) == 0
        return ~holdout, holdout


def sample_random_gains(cfg: BabblingConfig, d_u: int, d_psi_u: int,
                        rng=None) -> list:
    """Gains with entries i.i.d. uniform on [-gain_scale, gain_scale]."""
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    return [rng.uniform(-cfg.gain_scale, cfg.gain_scale, size=(d_u, d_psi_u))
            for _ in range(cfg.num_gains)]


def near_equal_factorization(total: int, dims: int) -> tuple:
    """Factor ``total`` into ``dims`` integer factors as close as possible.

    Greedy: repeatedly take the divisor closest to the geometric mean of
    what remains.  Always succeeds (worst case (total, 1, ..., 1)).
    """
    factors = []
    remaining = int(total)
    for d in range(dims, 1, -1):
        target = remaining ** (1.0 / d)
        divisors = [k for k in range(1, remaining + 1) if remaining % k == 0]
        best = min(divisors, key=lambda k: abs(k - target))
        factors.append(best)
        remaining //= best
    factors.append(remaining)
    return tuple(factors)


def grid_initial_conditions(cfg: BabblingConfig, d_x: int = None) -> np.ndarray:
    """Cartesian-product grid over state_grid bounds, endpoints included.

    A single point per dimension sits at the lower bound by convention.
    Raises when an explicit grid_shape does not hold one count per state
    component or does not multiply to the requested count.
    """
    d_x = len(cfg.state_grid) if d_x is None else d_x
    if len(cfg.state_grid) != d_x:
        raise ValueError("state_grid dimension mismatch")
    if cfg.grid_shape is not None:
        shape = tuple(int(n) for n in cfg.grid_shape)
        if len(shape) != d_x:
            raise ValueError(f"grid_shape {shape} needs {d_x} counts, "
                             f"one per state component")
        if int(np.prod(shape)) != cfg.num_initial_conditions:
            raise ValueError(
                f"grid_shape {shape} does not factor "
                f"{cfg.num_initial_conditions} initial conditions"
            )
    else:
        shape = near_equal_factorization(cfg.num_initial_conditions, d_x)
    axes = []
    for (lo, hi), n in zip(cfg.state_grid, shape):
        axes.append(np.linspace(lo, hi, n) if n > 1 else np.array([lo]))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def generate_dataset(plant: ControlAffinePlant, map_x: ObservableMap,
                     map_u: ObservableMap,
                     cfg: BabblingConfig) -> SnapshotDataset:
    """Roll out every (gain, initial condition) pair and collect snapshots.

    u_k = clip(K_u^(i) psi_u(x_k)) is applied with zero-order hold; the
    stored u is the clipped value actually integrated.
    """
    rng = np.random.default_rng(cfg.seed)
    gains = sample_random_gains(cfg, plant.input_dim, map_u.dim, rng=rng)
    ics = grid_initial_conditions(cfg, plant.state_dim)
    n_ic = ics.shape[0]
    T = cfg.steps

    row_gains = np.repeat(np.asarray(gains), n_ic, axis=0)  # (B, d_u, d_psi_u)
    trajs = rollout(plant, np.tile(ics, (len(gains), 1)),
                    lambda x: np.einsum("baj,bj->ba", row_gains, map_u(x)),
                    T, cfg.dt)
    kept = [tid for tid, traj in enumerate(trajs) if not traj.diverged]
    if not kept:
        raise ValueError("all trajectories diverged; nothing to identify from")
    x, u, x_next = (np.concatenate(parts) for parts in
                    zip(*(trajs[tid].snapshots() for tid in kept)))
    traj_id = np.repeat(kept, T)
    ds = SnapshotDataset(
        x=x, u=u, x_next=x_next,
        gain_index=traj_id // n_ic, ic_index=traj_id % n_ic,
        step_index=np.tile(np.arange(T), len(kept)), traj_id=traj_id,
        n_trajectories=len(kept), n_dropped=len(trajs) - len(kept),
        meta={"seed": cfg.seed, "steps": T, "dt": cfg.dt,
              "num_gains": cfg.num_gains, "num_initial_conditions": n_ic,
              "grid_shape": [_distinct_count(ics[:, d])
                             for d in range(ics.shape[1])]},
    )
    return ds


def _distinct_count(v) -> int:
    """len(np.unique(v)) for a 1-d array without NaN, without the
    ``numpy.ma`` import (about 20 ms) that np.unique's first call makes."""
    s = np.sort(v)
    return int(s.size > 0) + int(np.count_nonzero(s[1:] != s[:-1]))


def save_dataset(ds: SnapshotDataset, outdir, extra_meta: dict = None) -> Path:
    """Persist as ``snapshots.npz`` (the seven arrays as they are) plus
    ``manifest.json`` (counts and babbling metadata).

    Any old manifest is removed first and the new one is written last, so
    a save that fails partway leaves no manifest: a cache miss, never a
    manifest that describes another payload.  The ``traj_*.csv`` shards
    of the older one-CSV-per-trajectory layout are deleted as well.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_path = outdir / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    for shard in outdir.glob("traj_*.csv"):
        shard.unlink()
    write_atomic(outdir / PAYLOAD, lambda tmp: _write_npz(tmp, ds))
    manifest = {
        "kind": "koopctl/dataset",
        "snapshots": len(ds),
        "trajectories": int(ds.n_trajectories),
        "dropped": int(ds.n_dropped),
        "state_dim": ds.x.shape[1],
        "input_dim": ds.u.shape[1],
        "babbling": ds.meta,
    }
    if extra_meta:
        manifest.update(extra_meta)
    write_json_atomic(manifest_path, manifest)
    return manifest_path


def _write_npz(path, ds: SnapshotDataset) -> None:
    # through a file object, so np.savez does not append ".npz" to the name
    with open(path, "wb") as fh:
        np.savez(fh, **{k: getattr(ds, k) for k in ARRAYS})


def write_atomic(path, write) -> None:
    """Call ``write`` on a temp path beside ``path``, then rename it there.

    A write that fails partway leaves any earlier file at ``path`` intact
    and removes the temp file; an OSError is raised again with ``path`` as
    its filename.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc
    finally:
        tmp.unlink(missing_ok=True)


def write_json_atomic(path, payload: dict) -> None:
    """Write ``payload`` as JSON through ``write_atomic``."""
    def dump(tmp):
        with open(tmp, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
    write_atomic(path, dump)


def load_dataset(outdir) -> SnapshotDataset:
    """Read what ``save_dataset`` wrote.  An unreadable ``snapshots.npz``,
    or one whose states or inputs hold a NaN or infinity, raises
    ValueError naming the file."""
    outdir = Path(outdir)
    with open(outdir / "manifest.json") as fh:
        manifest = json.load(fh)
    path = outdir / PAYLOAD
    try:
        with np.load(path) as npz:
            arrays = {k: npz[k] for k in ARRAYS}
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError) as exc:
        raise ValueError(f"unreadable {path}: {exc}") from exc
    for name in ("x", "u", "x_next"):
        if not np.all(np.isfinite(arrays[name])):
            raise ValueError(f"non-finite entries in {name} of {path}")
    return SnapshotDataset(**arrays, n_trajectories=manifest["trajectories"],
                           n_dropped=manifest["dropped"],
                           meta=manifest["babbling"])
