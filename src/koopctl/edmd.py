"""Least-squares identification of the bilinear Koopman system matrix.

The model advances lifted states as

    psi+ = K_xx psi + K_xu ((S psi) kron u)

and K_x = [K_xx  K_xu] is the minimizer of the regularized Frobenius
objective ||Psi_out - K Psi_in||^2 + ridge ||K||^2.  Only the regressor
rows [psi | (S psi) kron u], d_psi + d_S d_u wide, are reduced, one chunk
at a time, to one small triangle R by a streamed Householder QR, with
the ridge rows [sqrt(ridge) I] as the last chunk; the target rows psi+
(and a zero block for the ridge rows) ride along as its right-hand side,
giving Q^T Psi_out without forming Q.  K is the minimum-norm solution
through the SVD of R, whose singular values are the regressor's.  The
normal equations are never formed, so near-collinear observables
(constants and cosines around the origin) stay harmless, and no N-row
copy of the regressor or target is built.

Each state is lifted once into feature-major (d_psi, N) arrays:
psi(x_next) reuses psi(x) along trajectories (``lift_snapshots``), and the
QR chunks and the train and held-out errors are built from chunks of
their columns, never from N-row copies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .babbling import SnapshotDataset
from .observables import ObservableMap, descriptor_hash, evaluate_batch
from .tensor import (matrix_from_json, matrix_to_json, row_chunks,
                     streamed_qr, truncated_svd)


UNDERDETERMINED = "underdetermined: fewer snapshots than regressors"


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


def solve_chunks(chunks, targets, d_in: int, d_out: int, ridge: float):
    """Minimize ||B - A K^T||_F^2 + ridge ||K||_F^2 over K.

    ``chunks`` yields row blocks of the regressor A (d_in columns) and
    ``targets`` the matching row blocks of the target B (d_out columns).
    Only A is factored; B rides along as ``streamed_qr``'s right-hand
    side, and the ridge rows [sqrt(ridge) I] come last with a zero target
    block.  Returns (K, info): K is the (d_out, d_in) minimum-norm
    minimizer, and info records the regressor's effective rank and
    condition number and flags a rank-deficient unridged problem.
    """
    if ridge > 0:
        chunks = itertools.chain(chunks, [np.sqrt(ridge) * np.eye(d_in)])
        targets = itertools.chain(targets, [np.zeros((d_in, d_out))])
    r, qtb = streamed_qr(chunks, targets)
    u, s, vt, cond = truncated_svd(r)
    k = ((qtb.T @ u) / s) @ vt
    flags = []
    if len(s) < d_in and ridge == 0:
        flags.append("rank-deficient regressors: minimum-norm solution")
    return k, {"rank": len(s), "cond": cond, "flags": flags}


def lift_snapshots(ds: SnapshotDataset, map_x: ObservableMap):
    """(psi(x), psi(x_next)) as feature-major (d_psi, N) arrays, lifting
    each state once.

    Column k of psi(x_next) is column k+1 of psi(x) wherever x_next[k]
    equals x[k+1] bitwise, as it does inside every babbled or loaded
    trajectory; only the other states of x_next, the trajectory ends, are
    lifted.
    """
    x = np.ascontiguousarray(ds.x, dtype=float)
    x_next = np.ascontiguousarray(ds.x_next, dtype=float)
    psi = evaluate_batch(map_x, x)
    psi_next = np.empty_like(psi)
    psi_next[:, :-1] = psi[:, 1:]
    chained = np.zeros(len(x), dtype=bool)
    chained[:-1] = np.all(x_next[:-1].view(np.uint64)
                          == x[1:].view(np.uint64), axis=1)
    ends = np.flatnonzero(~chained)
    psi_next[:, ends] = evaluate_batch(map_x, x_next[ends])
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


def _column_chunks(cols: np.ndarray):
    """The snapshot indices ``cols`` in consecutive runs of QR_CHUNK."""
    return [cols[s] for s in row_chunks(len(cols))]


def identify_model(ds: SnapshotDataset, map_x: ObservableMap, S: np.ndarray,
                   ridge: float = None,
                   holdout_fraction: float = 0.1) -> BilinearKoopmanModel:
    """Fit K_x on a whole-trajectory train split and report held-out error.

    ridge defaults to 1e-8 per snapshot (1e-8 * N), which stabilizes the
    near-collinear constant/cosine regressors without visibly biasing
    the fit.  MSE values are per entry of the lifted prediction.

    Every state is lifted once (``lift_snapshots``) into feature-major
    arrays, and (S psi) kron u is formed once for all snapshots; the
    solve and both errors read chunks of the train or held-out columns
    of those arrays.  Raises ValueError when the split leaves no
    training snapshot.
    """
    if len(ds) == 0:
        raise ValueError("empty dataset")
    S = _selection(S, map_x)
    train, holdout = ds.split_by_trajectory(holdout_fraction)
    n_train = int(train.sum())
    if n_train == 0:
        raise ValueError(
            f"no training snapshots: holdout_fraction {holdout_fraction:g} "
            f"holds out every trajectory (trajectory count "
            f"{np.unique(ds.traj_id).size})")
    rho = 1e-8 * n_train if ridge is None else float(ridge)
    if rho < 0:
        raise ValueError("ridge must be nonnegative")
    psi, psi_next = lift_snapshots(ds, map_x)
    bil = _bilinear_rows(S, psi, ds.u.T)
    d_psi = map_x.dim
    d_in = d_psi + bil.shape[0]
    train_cols = _column_chunks(np.flatnonzero(train))
    chunks = (np.vstack([psi[:, c], bil[:, c]]).T for c in train_cols)
    targets = (psi_next[:, c].T for c in train_cols)
    k, info = solve_chunks(chunks, targets, d_in, d_psi, rho)
    info["flags"] = ([UNDERDETERMINED] if n_train < d_in else []) \
        + _bilinear_flags(bil[:, train]) + info["flags"]
    model = BilinearKoopmanModel(
        K_xx=k[:, :d_psi], K_xu=k[:, d_psi:], S=S,
        map_descriptor=map_x.to_descriptor(),
    )
    diag = {"train_mse": _one_step_mse(model, psi, bil, psi_next, train_cols),
            "n_train": n_train, "n_holdout": int(holdout.sum()),
            "ridge": rho, **info, "n_snapshots": n_train}
    if holdout.any():
        diag["holdout_mse"] = _one_step_mse(
            model, psi, bil, psi_next, _column_chunks(np.flatnonzero(holdout)))
    model.diagnostics = diag
    return model


def _one_step_mse(model: BilinearKoopmanModel, psi: np.ndarray,
                  bil: np.ndarray, psi_next: np.ndarray, col_chunks) -> float:
    """Mean squared one-step error over the columns in ``col_chunks``."""
    sse = 0.0
    for c in col_chunks:
        err = model.K_xx @ psi[:, c]
        err += model.K_xu @ bil[:, c]
        err -= psi_next[:, c]
        sse += float(np.vdot(err, err))
    return sse / (psi.shape[0] * sum(len(c) for c in col_chunks))


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
