"""Motor-babbling dataset generation.

Random feedback gains are paired with gridded initial conditions and
rolled out through the plant; every (x_k, u_k, x_{k+1}) triple is kept
with the id of its trajectory.  Trajectories that go non-finite are
dropped whole (a bad suffix would leave near-singular leverage points)
and counted.

``grid_shape`` checks ``state_grid`` by the one box rule, ``check_box``,
and gives the grid's counts per axis without building a point, so a
config is checked at any count; ``generate_dataset`` builds the points
once, and its manifest records the distinct points per axis.

All gain x initial-condition pairs are rolled out as one batch, in
gain-major, initial-condition-minor order, and snapshots are assembled
in that order, step-increasing, so identical configs and seeds give
bitwise-identical datasets.

A ``SnapshotDataset`` holds each state once, inside its lift once a map
has lifted it, so the Hbar fit and the identification share one lift
and psi and u are its only N-wide arrays (see the class).

A saved dataset is a directory of two files: ``snapshots.npz`` holds the
``ARRAYS`` a dataset holds in memory, and ``manifest.json`` (kind
``KIND``) the counts and babbling metadata.  ``load_dataset`` given the
map reads x and the tails straight into the raw-state rows of the
lift's array, so a loaded x never exists on its own.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .observables import ObservableMap, evaluate_batch
from .plants import ControlAffinePlant, rollout
from .tensor import as_number, row_chunks

KIND = "koopctl/dataset/3"
PAYLOAD = "snapshots.npz"
ARRAYS = ("x", "u", "traj_ids", "traj_ends", "tail_rows", "tails")


@dataclass(frozen=True)
class BabblingConfig:
    num_gains: int = 20
    num_initial_conditions: int = 25
    gain_scale: float = 1.0
    state_grid: tuple = ((-np.pi, np.pi), (-6.0, 6.0))  # see check_box
    grid_shape: tuple = None  # explicit per-dimension counts, optional
    steps: int = 100
    dt: float = 0.01
    seed: int = 0

    def __post_init__(self):
        # messages lead with the field they name; grid_shape checks state_grid
        for name in ("num_gains", "num_initial_conditions", "steps", "seed"):
            as_number(getattr(self, name), name, "nonnegative" if name ==
                      "seed" else "positive", integer=True, any_size=True)
        as_number(self.dt, "dt", "positive")
        if not 2.0 * as_number(self.gain_scale, "gain_scale",
                               "nonnegative") < np.inf:
            raise ValueError("gain_scale must be nonnegative, with a finite "
                             f"width 2 * gain_scale, got {self.gain_scale!r}")


class SnapshotDataset:
    """Snapshot triples (x_k, u_k, x_{k+1}) with their trajectory ids.

    In memory it holds x (N, d_x) and u (N, d_u); ``tails`` (n_tails,
    d_x), the rows ``tail_rows`` of x_next that are not bitwise the next
    row's x, which in a babbled dataset are the trajectory ends; and the
    trajectory ids as runs: rows traj_ends[r - 1]:traj_ends[r] (from 0
    for r = 0) all belong to trajectory traj_ids[r].  ``x_next`` and the
    per-snapshot ``traj_id`` are rebuilt when read.  ``gain_index``,
    ``ic_index`` and ``step_index`` are kept as the constructor was given
    them, and are None in a babbled or loaded dataset.  ``lift`` keeps one
    feature-major lift of [x; tails] per map; after the first by an
    ``ObservableMap``, x and the tails are read-only views of its
    raw-state rows.  On disk (``save_dataset``) it is the ``ARRAYS``.
    """

    def __init__(self, x, u, x_next, *, traj_id, gain_index=None,
                 ic_index=None, step_index=None, n_trajectories: int = 0,
                 n_dropped: int = 0, meta: dict = None):
        x = np.ascontiguousarray(x, dtype=float)
        if np.shape(x_next) != x.shape:
            raise ValueError(f"x_next has shape {np.shape(x_next)}, "
                             f"x has {x.shape}")
        if np.shape(traj_id) != x.shape[:1]:
            raise ValueError(f"traj_id has shape {np.shape(traj_id)}, "
                             f"expected ({len(x)},)")
        self._keep(x, u, *_run_lengths(traj_id),
                   *_tails(x, np.arange(len(x)), x_next), n_trajectories,
                   n_dropped, meta)
        self.gain_index, self.ic_index, self.step_index = (
            gain_index, ic_index, step_index)

    @classmethod
    def _from_parts(cls, *parts):
        """The dataset of ``_keep``'s arguments, kept as they are."""
        ds = cls.__new__(cls)
        ds._keep(*parts)
        return ds

    def _keep(self, x, u, traj_ids, traj_ends, tail_rows, tails,
              n_trajectories, n_dropped, meta, unfilled=None):
        """``unfilled``, when given, is (map, array): x and the tails are
        views of the array's raw-state rows, and ``lift(map)`` fills its
        other rows."""
        self.x = x
        self.u = np.asarray(u, dtype=float)
        self.traj_ids, self.traj_ends = traj_ids, traj_ends
        self.tail_rows, self.tails = tail_rows, tails
        self.n_trajectories = n_trajectories
        self.n_dropped = n_dropped
        self.meta = {} if meta is None else meta
        self._psi = {}
        self._unfilled = dict([unfilled]) if unfilled else {}
        self.gain_index = self.ic_index = self.step_index = None

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def x_next(self) -> np.ndarray:
        out = np.empty(self.x.shape)
        out[:-1] = self.x[1:]
        out[self.tail_rows] = self.tails
        return out

    @property
    def traj_id(self) -> np.ndarray:
        """The trajectory id of each snapshot, expanded from the runs;
        read-only."""
        out = np.repeat(self.traj_ids, np.diff(self.traj_ends, prepend=0))
        out.flags.writeable = False
        return out

    def lift(self, m) -> np.ndarray:
        """psi of the distinct states [x; tails], feature-major
        (d_psi, N + n_tails), made on the first call for each map and kept.

        Columns :N are psi(x); psi(x_next[k]) is column ``next_cols(k)``.
        Maps are told apart by equality, so two ``ObservableMap``s built
        from one descriptor share a lift.  An ``ObservableMap``'s lift
        leads with the raw states, bit for bit: x and the tails are
        copied into its rows :d_x (unless ``load_dataset`` read them
        there), rebound to read-only views of them, so the dataset's own
        arrays go, and the other rows are filled in place from them.  A
        lift that fails keeps the states and no lift.
        """
        psi = self._psi.get(m)
        if psi is None:
            if isinstance(m, ObservableMap):
                d_x = self.x.shape[1]
                if m.state_dim != d_x:
                    raise ValueError(f"state has dimension {d_x}, map "
                                     f"expects {m.state_dim}")
                psi = self._unfilled.get(m)
                if psi is None:
                    psi = np.empty((m.dim, len(self) + len(self.tails)))
                    psi[:d_x, : len(self)] = self.x.T
                    psi[:d_x, len(self):] = self.tails.T
                    self._view_states(psi)
                evaluate_batch(m, psi[:d_x].T, out=psi)
                self._unfilled.pop(m, None)
            else:
                psi = evaluate_batch(m, np.concatenate([self.x, self.tails]))
            self._psi[m] = psi
        return psi

    def _view_states(self, block: np.ndarray) -> None:
        """Rebind x and the tails to read-only views of the raw-state
        rows of the feature-major ``block``."""
        n, d_x = self.x.shape
        self.x, self.tails = block[:d_x, :n].T, block[:d_x, n:].T
        self.x.flags.writeable = self.tails.flags.writeable = False

    def next_cols(self, rows) -> np.ndarray:
        """The columns of ``lift``'s array that hold psi(x_next[rows]):
        row k + 1 for a chained row k, N + j for tail j."""
        rows = np.asarray(rows)
        cols = rows + 1
        at = np.searchsorted(self.tail_rows, rows)
        # the last row is always a tail, so ``at`` stays in range
        hit = self.tail_rows[at] == rows
        cols[hit] = len(self) + at[hit]
        return cols

    def split_by_trajectory(self, holdout_fraction: float = 0.1):
        """Deterministic whole-trajectory split; returns (train, holdout)
        masks.  A trajectory is held out when its id is a multiple of
        round(1 / holdout_fraction), at least 2; the flags are formed per
        run and expanded."""
        if not 0 <= holdout_fraction < 1:
            raise ValueError("holdout_fraction must be in [0, 1)")
        if holdout_fraction == 0:
            return np.ones(len(self), dtype=bool), np.zeros(len(self), dtype=bool)
        every = max(2, int(round(1.0 / holdout_fraction)))
        holdout = np.repeat(self.traj_ids % every == 0,
                            np.diff(self.traj_ends, prepend=0))
        return ~holdout, holdout


def _run_lengths(labels) -> tuple:
    """(ids, ends) of the runs of equal entries of the 1-d ``labels``:
    run r is rows ends[r - 1]:ends[r] (from 0 for r = 0), all ids[r]."""
    labels = np.asarray(labels)
    last = np.ones(len(labels), dtype=bool)
    last[:-1] = labels[1:] != labels[:-1]
    ends = np.flatnonzero(last) + 1
    return labels[ends - 1], ends


def _tails(x: np.ndarray, rows, nxt) -> tuple:
    """(tail_rows, tails): the rows of x_next[rows] = nxt that are not
    bitwise x[k + 1]."""
    rows = np.asarray(rows, dtype=np.intp)
    nxt = np.ascontiguousarray(nxt, dtype=float)
    inner = rows + 1 < len(x)
    chained = np.zeros(len(rows), dtype=bool)
    chained[inner] = np.all(nxt[inner].view(np.uint64)
                            == x[rows[inner] + 1].view(np.uint64), axis=1)
    return rows[~chained], nxt[~chained]


def sample_random_gains(cfg: BabblingConfig, d_u: int, d_psi_u: int,
                        rng=None) -> list:
    """Gains with entries i.i.d. uniform on [-gain_scale, gain_scale]."""
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    return [rng.uniform(-cfg.gain_scale, cfg.gain_scale, size=(d_u, d_psi_u))
            for _ in range(cfg.num_gains)]


def near_equal_factorization(total: int, dims: int) -> tuple:
    """Factor ``total`` into ``dims`` integer factors as close as possible.

    Greedy: repeatedly take the divisor closest to the geometric mean of
    what remains, the smaller on a tie.  Always succeeds (worst case
    (total, 1, ..., 1)).  Divisors are found by trial division up to
    sqrt(remaining), so a count of 1e12 takes about 1e6 steps.
    """
    factors = []
    remaining = int(total)
    for d in range(dims, 1, -1):
        target = remaining ** (1.0 / d)
        low = [k for k in range(1, math.isqrt(remaining) + 1)
               if remaining % k == 0]
        high = [remaining // k for k in reversed(low)
                if k * k != remaining]
        best = min(low + high, key=lambda k: abs(k - target))
        factors.append(best)
        remaining //= best
    factors.append(remaining)
    return tuple(factors)


def grid_shape(cfg: BabblingConfig, d_x: int) -> tuple:
    """Grid points per state component, once state_grid passes
    ``check_box``: grid_shape, which must pass ``checked_shape`` and
    factor num_initial_conditions, else ``near_equal_factorization``."""
    check_box(cfg.state_grid, d_x, "state_grid")
    if cfg.grid_shape is None:
        return near_equal_factorization(cfg.num_initial_conditions, d_x)
    shape = checked_shape(cfg.grid_shape, d_x, "grid_shape")
    if math.prod(shape) != cfg.num_initial_conditions:
        raise ValueError(f"grid_shape {shape} does not factor "
                         f"{cfg.num_initial_conditions} initial conditions")
    return shape


def checked_shape(shape, d_x: int, name: str) -> tuple:
    """``shape`` as a tuple of d_x positive integers of any size, one per
    state component; each message leads with ``name``."""
    if not (isinstance(shape, (list, tuple)) and len(shape) == d_x):
        raise ValueError(f"{name} must hold {d_x} counts, one per state "
                         f"component, got {shape!r}")
    return tuple(as_number(n, f"{name}[{i}]", "positive", integer=True,
                           any_size=True) for i, n in enumerate(shape))


def number_rows(rows, width: int, name: str, count: int = None) -> list:
    """``count`` rows (any number when None) of ``width`` numbers each, as
    floats; entry j of row i is ``name[i][j]`` under the number rule."""
    if not (isinstance(rows, (list, tuple)) and count in (None, len(rows))):
        n = "" if count is None else f"{count} "
        raise ValueError(f"{name} must be a list of {n}rows of {width} "
                         f"numbers, got {rows!r}")
    for i, row in enumerate(rows):
        if not (isinstance(row, (list, tuple)) and len(row) == width):
            raise ValueError(f"{name}[{i}] must hold {width} numbers, got "
                             f"{row!r}")
    return [[as_number(v, f"{name}[{i}][{j}]") for j, v in enumerate(row)]
            for i, row in enumerate(rows)]


def check_box(rows, d_x: int, name: str) -> None:
    """The one box rule: d_x [lo, hi] rows of numbers, one per state
    component, each with lo <= hi and a finite width hi - lo."""
    for i, (lo, hi) in enumerate(number_rows(rows, 2, name, d_x)):
        if not 0 <= hi - lo < math.inf:
            raise ValueError(f"{name}[{i}] needs lo <= hi and a finite width "
                             f"hi - lo, got {[lo, hi]!r}")


def grid_points(bounds, shape) -> np.ndarray:
    """(prod(shape), len(bounds)) grid of the ``_axes`` points, first axis
    slowest."""
    mesh = np.meshgrid(*_axes(bounds, shape), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _axes(bounds, shape) -> list:
    """shape[i] evenly spaced points per [lo, hi] row, endpoints included
    (one point: lo)."""
    return [np.linspace(lo, hi, n) if n > 1 else np.array([lo])
            for (lo, hi), n in zip(bounds, shape)]


def generate_dataset(plant: ControlAffinePlant, map_x: ObservableMap,
                     map_u: ObservableMap,
                     cfg: BabblingConfig) -> SnapshotDataset:
    """Roll out every (gain, initial condition) pair and collect snapshots.

    u_k = clip(K_u^(i) psi_u(x_k)) is applied with zero-order hold; the
    stored u is the clipped value actually integrated.
    """
    rng = np.random.default_rng(cfg.seed)
    gains = sample_random_gains(cfg, plant.input_dim, map_u.dim, rng=rng)
    shape = grid_shape(cfg, plant.state_dim)
    ics = grid_points(cfg.state_grid, shape)
    n_ic = ics.shape[0]
    T = cfg.steps

    row_gains = np.repeat(np.asarray(gains), n_ic, axis=0)  # (B, d_u, d_psi_u)
    trajs = rollout(plant, np.tile(ics, (len(gains), 1)),
                    lambda x: np.einsum("baj,bj->ba", row_gains, map_u(x)),
                    T, cfg.dt)
    kept = [tid for tid, traj in enumerate(trajs) if not traj.diverged]
    if not kept:
        raise ValueError("all trajectories diverged; nothing to identify from")
    x = np.concatenate([trajs[tid].states[:-1] for tid in kept])
    u = np.concatenate([trajs[tid].inputs for tid in kept])
    # x_next is x one row on, except at each trajectory's last step
    ends = np.stack([trajs[tid].states[-1] for tid in kept])
    return SnapshotDataset._from_parts(
        x, u, np.array(kept), np.arange(T, len(x) + 1, T),
        *_tails(x, np.arange(T - 1, len(x), T), ends), len(kept),
        len(trajs) - len(kept),
        {"seed": cfg.seed, "steps": T, "dt": float(cfg.dt),
         "num_gains": cfg.num_gains, "num_initial_conditions": n_ic,
         # distinct points per axis: one for a [lo, lo] row
         "grid_shape": [len(set(a.tolist()))
                        for a in _axes(cfg.state_grid, shape)]})


def save_dataset(ds: SnapshotDataset, outdir, extra_meta: dict = None) -> Path:
    """Persist as ``snapshots.npz`` (the ``ARRAYS``) plus
    ``manifest.json`` (counts and babbling metadata).

    Any old manifest is removed first and the new one is written last, so
    a save that fails partway leaves no manifest: a cache miss, never a
    manifest that describes another payload.  Other files in ``outdir``
    are left as they are.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_path = outdir / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    write_npz_atomic(outdir / PAYLOAD, {k: getattr(ds, k) for k in ARRAYS})
    manifest = {
        "kind": KIND,
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


def write_npz_atomic(path, arrays: dict) -> None:
    """Write ``arrays`` as the members of an uncompressed npz through
    ``write_atomic``, each C-ordered: a Fortran-ordered array writes the
    bytes of its C-ordered copy, which ``load_dataset`` accepts."""
    def dump(tmp):
        # through a file object, so np.savez does not append ".npz" to it
        with open(tmp, "wb") as fh:
            np.savez(fh, **{k: np.ascontiguousarray(a)
                            for k, a in arrays.items()})
    write_atomic(path, dump)


def load_dataset(outdir, map_x: ObservableMap = None) -> SnapshotDataset:
    """Read what ``save_dataset`` wrote.

    Each array is read from its npz member in ``row_chunks`` of QR_CHUNK
    rows, straight into the array it ends in.  With ``map_x``, that is,
    for x and the tails, the raw-state rows of a (map_x.dim, N + n_tails)
    array that the dataset's first ``lift(map_x)`` fills, so a loaded x
    never exists on its own; without it, arrays of their own.

    Raises ValueError naming the file when ``snapshots.npz`` is
    unreadable, when a member's header is not that of the array it must
    hold (its shape, from the manifest and the other members; float64 for
    x, u and the tails, integers for the rest; C order) or its data ends
    early, when a float array holds NaN or an infinity, when ``tail_rows``
    are not increasing rows of [0, N) ending at N - 1, or when
    ``traj_ends`` are not increasing and ending at N; and naming the
    manifest when its state dimension is not ``map_x``'s.
    """
    outdir = Path(outdir)
    with open(outdir / "manifest.json") as fh:
        return _read_dataset(outdir, json.load(fh), map_x)


def _read_dataset(outdir: Path, manifest: dict,
                  map_x: ObservableMap = None) -> SnapshotDataset:
    """``load_dataset`` of the manifest already read from ``outdir``."""
    path = outdir / PAYLOAD
    n, d_x = manifest["snapshots"], manifest["state_dim"]
    if map_x is not None and map_x.state_dim != d_x:
        raise ValueError(f"state_dim in {outdir / 'manifest.json'} is {d_x}, "
                         f"the observables map takes {map_x.state_dim}")
    # a zip that cannot be opened must not leak the file
    with open(path, "rb") as fh:
        with _reading(path):
            npz = zipfile.ZipFile(fh)
        with npz:
            def read(name, shape, kind="i", out=None):
                return _read_member(npz, name, path, shape, kind, out)

            u = read("u", (n, manifest["input_dim"]), "f")
            ends = read("traj_ends", (None,))
            if not _increasing(ends, 1, n, n):
                raise ValueError(f"traj_ends in {path} are not increasing "
                                 f"row counts ending at {n}")
            ids = read("traj_ids", ends.shape)
            rows = read("tail_rows", (None,))
            # next_cols relies on the last row being a tail
            if not _increasing(rows, 0, n - 1, n):
                raise ValueError(f"tail_rows in {path} are not increasing "
                                 f"rows of [0, {n}) ending at {n - 1}")
            if map_x is None:
                unfilled = None
                x, tails = np.empty((n, d_x)), np.empty((len(rows), d_x))
            else:
                unfilled = (map_x, np.empty((map_x.dim, n + len(rows))))
                x, tails = unfilled[1][:d_x, :n].T, unfilled[1][:d_x, n:].T
            read("x", (n, d_x), "f", x)
            read("tails", (len(rows), d_x), "f", tails)
    ds = SnapshotDataset._from_parts(
        x, u, ids, ends, rows, tails, manifest["trajectories"],
        manifest["dropped"], manifest["babbling"], unfilled)
    if unfilled:
        ds._view_states(unfilled[1])
    return ds


def _increasing(a: np.ndarray, first: int, last: int, n: int) -> bool:
    """Whether ``a`` rises strictly from at least ``first`` to ``last``,
    or is empty when the dataset has no snapshot (n = 0)."""
    return bool(np.all(a[:1] >= first) and np.all(a[1:] > a[:-1])
                and a[-1:].tolist() == [last][:n])


def _read_member(npz: zipfile.ZipFile, name: str, path, shape, kind: str,
                 out: np.ndarray = None) -> np.ndarray:
    """Member ``name`` of the open npz at ``path``, read into ``out`` (a
    new array when None) one ``row_chunks`` piece at a time.

    Its header must give a C-ordered array of ``shape`` (None: any
    length) and, for ``kind`` "f", float64, else integers.  A float piece
    must be finite.  Pieces are read into ``out`` itself when it is
    C-contiguous, else through one piece-sized buffer.
    """
    fmt = np.lib.format
    with _reading(path):
        member = npz.open(f"{name}.npy")
    with member:
        with _reading(path):
            header = {(1, 0): fmt.read_array_header_1_0,
                      (2, 0): fmt.read_array_header_2_0}[fmt.read_magic(member)]
            got, fortran, dtype = header(member)
        if len(got) != len(shape) or any(
                want not in (None, g) for g, want in zip(got, shape)):
            raise ValueError(f"{name} in {path} has shape {got}, "
                             f"expected {shape}")
        if fortran or not (dtype == float if kind == "f"
                           else dtype.kind in "iu"):
            raise ValueError(
                f"{name} in {path} holds {'Fortran-ordered ' * fortran}"
                f"{dtype}, expected C-ordered "
                f"{'float64' if kind == 'f' else 'integers'}")
        if out is None:
            out = np.empty(got, dtype)
        chunks = row_chunks(len(out))
        buffer = None if out.flags.c_contiguous or not chunks \
            else np.empty((chunks[0].stop,) + got[1:])
        for s in chunks:
            piece = out[s] if buffer is None else buffer[: s.stop - s.start]
            view = memoryview(piece).cast("B")
            with _reading(path):
                if member.readinto(view) != view.nbytes:
                    raise EOFError(f"{name} ends before its {got} entries")
            if kind == "f" and not np.all(np.isfinite(piece)):
                raise ValueError(f"non-finite entries in {name} of {path}")
            if buffer is not None:
                out[s] = piece
    return out


@contextmanager
def _reading(path):
    """Turn the errors of an unreadable npz into one ValueError naming it."""
    try:
        yield
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError) as exc:
        raise ValueError(f"unreadable {path}: {exc}") from exc
