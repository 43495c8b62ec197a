"""Least-squares identification of the bilinear Koopman system matrix.

The model advances lifted states as

    psi+ = K_xx psi + K_xu ((S psi) kron u)

and K_x = [K_xx  K_xu] is the minimizer of the regularized Frobenius
objective ||Psi_out - K Psi_in||^2 + ridge ||K||^2.  The solve goes
through an orthogonal factorization of the (row-augmented) regressor,
never the normal equations, so near-collinear observables (constants and
cosines around the origin) stay harmless.

Each state is lifted once: psi(x_next) reuses psi(x) along trajectories
(``lift_snapshots``), and the train and held-out errors are taken from
slices of the same lifted arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .babbling import SnapshotDataset
from .observables import ObservableMap, descriptor_hash, evaluate_batch
from .tensor import matrix_from_json, matrix_to_json


UNDERDETERMINED = "underdetermined: fewer snapshots than regressors"


@dataclass
class RegressionProblem:
    psi_in: np.ndarray   # (d_in, N)
    psi_out: np.ndarray  # (d_out, N)
    ridge: float = 0.0
    flags: list = field(default_factory=list)

    def __post_init__(self):
        if self.psi_in.shape[1] != self.psi_out.shape[1]:
            raise ValueError("Psi_in and Psi_out must have equal column counts")
        if self.ridge < 0:
            raise ValueError("ridge must be nonnegative")
        if self.psi_in.shape[1] < self.psi_in.shape[0]:
            self.flags.append(UNDERDETERMINED)


@dataclass
class BilinearKoopmanModel:
    K_xx: np.ndarray
    K_xu: np.ndarray
    S: np.ndarray               # binary selection matrix (d_S, d_psi)
    map_descriptor: dict
    diagnostics: dict = field(default_factory=dict)

    @property
    def lifted_dim(self) -> int:
        return self.K_xx.shape[0]

    @property
    def state_dim(self) -> int:
        return int(self.map_descriptor["state_dim"])

    @property
    def input_dim(self) -> int:
        return self.K_xu.shape[1] // self.S.shape[0]


def _ridge_system(n: int, d_in: int, d_out: int, ridge: float):
    """Fortran-ordered regressor a and target b for n snapshots.

    The first n rows are left for the caller to fill; for ridge > 0 the
    d_in rows [sqrt(ridge) I | 0] below them are filled in here.
    """
    extra = d_in if ridge > 0 else 0
    a = np.empty((n + extra, d_in), order="F")
    b = np.empty((n + extra, d_out), order="F")
    if extra:
        a[n:] = np.sqrt(ridge) * np.eye(d_in)
        b[n:] = 0.0
    return a, b


def _solve_system(a: np.ndarray, b: np.ndarray, n: int, ridge: float,
                  flags: list):
    """gelsd on a system from ``_ridge_system``; returns (K, info)."""
    d_in = a.shape[1]
    kt, _, rank, sv = scipy.linalg.lstsq(a, b, lapack_driver="gelsd")
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    flags = list(flags)
    if rank < d_in and ridge == 0:
        flags.append("rank-deficient regressors: minimum-norm solution")
    info = {"rank": int(rank), "cond": cond, "flags": flags,
            "n_snapshots": int(n), "ridge": float(ridge)}
    # copy so the model does not keep LAPACK's n-row solution buffer alive
    return kt.T.copy(), info


def solve_least_squares(prob: RegressionProblem):
    """Minimize ||Psi_out - K Psi_in||_F^2 + ridge ||K||_F^2.

    Returns (K, info) where info records the regressor condition number,
    effective rank, and any flags (a rank-deficient unridged problem
    returns the minimum-norm solution and is flagged).
    """
    d_in, n = prob.psi_in.shape
    if n < 1:
        raise ValueError("empty regression problem")
    a, b = _ridge_system(n, d_in, prob.psi_out.shape[0], prob.ridge)
    a[:n] = prob.psi_in.T
    b[:n] = prob.psi_out.T
    return _solve_system(a, b, n, prob.ridge, prob.flags)


def lift_snapshots(ds: SnapshotDataset, map_x: ObservableMap):
    """(psi(x), psi(x_next)) as (N, d_psi) arrays, lifting each state once.

    Row k of psi(x_next) is row k+1 of psi(x) wherever x_next[k] equals
    x[k+1] bitwise, as it does inside every babbled or loaded trajectory;
    only the other rows of x_next, the trajectory ends, are lifted.
    """
    x = np.ascontiguousarray(ds.x, dtype=float)
    x_next = np.ascontiguousarray(ds.x_next, dtype=float)
    psi = evaluate_batch(map_x, x).T
    psi_next = np.empty_like(psi)
    psi_next[:-1] = psi[1:]
    chained = np.zeros(len(x), dtype=bool)
    chained[:-1] = np.all(x_next[:-1].view(np.uint64)
                          == x[1:].view(np.uint64), axis=1)
    ends = np.flatnonzero(~chained)
    psi_next[ends] = evaluate_batch(map_x, x_next[ends]).T
    return psi, psi_next


def _selection(S, map_x: ObservableMap) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.shape[1] != map_x.dim:
        raise ValueError(
            f"selection matrix has {S.shape[1]} columns, map has {map_x.dim}"
        )
    return S


def _bilinear_rows(S: np.ndarray, psi: np.ndarray, u: np.ndarray):
    """Columnwise (S psi) kron u: row (i*d_u + a) is (S psi)_i * u_a."""
    sel = S @ psi                                   # (d_S, N)
    return (sel[:, None, :] * u[None, :, :]).reshape(-1, psi.shape[1])


def _bilinear_flags(bil: np.ndarray) -> list:
    # rank of bil itself: bil @ bil.T would square its condition number
    if bil.size and np.linalg.matrix_rank(bil) < bil.shape[0]:
        return ["bilinear block rank-deficient: K_xu unidentifiable"]
    return []


def assemble_bilinear_regressors(ds: SnapshotDataset, map_x: ObservableMap,
                                 S: np.ndarray, ridge: float = 0.0
                                 ) -> RegressionProblem:
    """Stack input columns [psi(x_k); (S psi(x_k)) kron u_k] against psi(x_{k+1})."""
    S = _selection(S, map_x)
    psi, psi_next = lift_snapshots(ds, map_x)
    bil = _bilinear_rows(S, psi.T, ds.u.T)
    prob = RegressionProblem(psi_in=np.vstack([psi.T, bil]),
                             psi_out=psi_next.T, ridge=ridge)
    prob.flags += _bilinear_flags(bil)
    return prob


def identify_model(ds: SnapshotDataset, map_x: ObservableMap, S: np.ndarray,
                   ridge: float = None,
                   holdout_fraction: float = 0.1) -> BilinearKoopmanModel:
    """Fit K_x on a whole-trajectory train split and report held-out error.

    ridge defaults to 1e-8 per snapshot (1e-8 * N), which stabilizes the
    near-collinear constant/cosine regressors without visibly biasing
    the fit.  MSE values are per entry of the lifted prediction.

    Every state is lifted once (``lift_snapshots``); the train and
    holdout rows are slices of those arrays, and the ridge-augmented
    regressor and target are built once, in their final layout.
    """
    if len(ds) == 0:
        raise ValueError("empty dataset")
    S = _selection(S, map_x)
    train, holdout = ds.split_by_trajectory(holdout_fraction)
    n_train = int(train.sum())
    rho = 1e-8 * n_train if ridge is None else float(ridge)
    if rho < 0:
        raise ValueError("ridge must be nonnegative")
    psi, psi_next = lift_snapshots(ds, map_x)
    d_psi = map_x.dim
    psi_train = psi[train].T                        # (d_psi, N_train)
    bil = _bilinear_rows(S, psi_train, ds.u[train].T)
    d_in = d_psi + bil.shape[0]
    a, b = _ridge_system(n_train, d_in, d_psi, rho)
    a[:n_train, :d_psi] = psi_train.T
    a[:n_train, d_psi:] = bil.T
    b[:n_train] = psi_next[train]
    del psi_train
    flags = [UNDERDETERMINED] if n_train < d_in else []
    k, info = _solve_system(a, b, n_train, rho, flags + _bilinear_flags(bil))
    del a, b
    model = BilinearKoopmanModel(
        K_xx=k[:, :d_psi], K_xu=k[:, d_psi:], S=S,
        map_descriptor=map_x.to_descriptor(),
    )
    diag = {"train_mse": _one_step_mse(model, psi[train].T, bil,
                                       psi_next[train].T),
            "n_train": n_train, "n_holdout": int(holdout.sum()),
            "ridge": rho, **info}
    del bil
    if holdout.any():
        psi_hold = psi[holdout].T
        diag["holdout_mse"] = _one_step_mse(
            model, psi_hold, _bilinear_rows(S, psi_hold, ds.u[holdout].T),
            psi_next[holdout].T)
    model.diagnostics = diag
    return model


def _one_step_mse(model: BilinearKoopmanModel, psi: np.ndarray,
                  bil: np.ndarray, psi_next: np.ndarray) -> float:
    # in place on the C-ordered product: the same bits as
    # np.mean((K_xx @ psi + K_xu @ bil - psi_next) ** 2), one array fewer
    err = model.K_xx @ psi
    err += model.K_xu @ bil
    err -= psi_next
    return float(np.mean(np.square(err, out=err)))


def model_to_json(model: BilinearKoopmanModel) -> dict:
    return {
        "kind": "koopctl/model",
        "map": model.map_descriptor,
        "map_hash": descriptor_hash(model.map_descriptor),
        "S": matrix_to_json(model.S),
        "K_xx": matrix_to_json(model.K_xx),
        "K_xu": matrix_to_json(model.K_xu),
        "diagnostics": model.diagnostics,
    }


def model_from_json(d: dict) -> BilinearKoopmanModel:
    return BilinearKoopmanModel(
        K_xx=matrix_from_json(d["K_xx"]), K_xu=matrix_from_json(d["K_xu"]),
        S=matrix_from_json(d["S"]), map_descriptor=d["map"],
        diagnostics=d.get("diagnostics", {}),
    )
