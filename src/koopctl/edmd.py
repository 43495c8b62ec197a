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

The lifted states are the dataset's (``SnapshotDataset.lift``), which
lifts each distinct state [x; tails] once per map and keeps the array,
so the Hbar fit before this stage and this stage share one lift; the
dataset's x and tails are views of its raw-state rows.
psi(x_next) is read through ``SnapshotDataset.next_cols`` and never built
as an array of its own.  The QR chunks and the train and held-out errors
gather one chunk of columns at a time and form (S psi) kron u for that
chunk only, so psi is the one N-column float array, beside u and the
boolean split masks; the split is formed from the dataset's runs of
trajectory ids, and no per-snapshot id is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .babbling import SnapshotDataset
from .observables import ObservableMap, map_from_descriptor
from .tensor import (as_matrix, as_number, matrix_from_json, matrix_to_json,
                     row_chunks, streamed_qr, truncated_svd)


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
    block.  Returns (K, info, R): K is the (d_out, d_in) minimum-norm
    minimizer, info records the regressor's effective rank and condition
    number and flags a rank-deficient unridged problem, and R is the
    triangle of A's rows alone, before the ridge rows.
    """
    r_data, qtb = streamed_qr(chunks, targets)
    r = r_data
    if ridge > 0:
        r, qtb = streamed_qr([np.sqrt(ridge) * np.eye(d_in)],
                             [np.zeros((d_in, d_out))], start=(r, qtb))
    u, s, vt, cond = truncated_svd(r)
    k = ((qtb.T @ u) / s) @ vt
    flags = []
    if len(s) < d_in and ridge == 0:
        flags.append("rank-deficient regressors: minimum-norm solution")
    return k, {"rank": len(s), "cond": cond, "flags": flags}, r_data


def _bilinear_rows(S: np.ndarray, psi: np.ndarray, u: np.ndarray):
    """Columnwise (S psi) kron u: row (i*d_u + a) is (S psi)_i * u_a.

    The (d_S d_u, N) result is snapshot-major (Fortran order), like a
    gather psi[:, c], so a regressor chunk stacked from the two is
    row-major for every d_S: ``streamed_qr`` hands its first chunk to
    LAPACK as is, and that layout sets the rounding of the reflector
    products that follow.
    """
    sel = S @ psi                                   # (d_S, N)
    out = np.empty((psi.shape[1], sel.shape[0], u.shape[0]))
    np.multiply(sel.T[:, :, None], u.T[:, None, :], out=out)
    return out.reshape(psi.shape[1], -1).T


def _regressor_rows(S: np.ndarray, psi_c: np.ndarray, u_c: np.ndarray):
    """Rows [psi | (S psi) kron u] of one chunk; psi_c is (d_psi, n) and
    u_c is (n, d_u)."""
    return np.vstack([psi_c, _bilinear_rows(S, psi_c, u_c.T)]).T


def _bilinear_flags(r_bil: np.ndarray, n_rows: int) -> list:
    """Flag a rank-deficient (S psi) kron u from its columns ``r_bil`` of
    the regressor's streamed R, over ``n_rows`` snapshots.

    The regressor is Q R, so its bilinear block is Q r_bil and has the
    singular values of r_bil; Householder QR perturbs each column only at
    rounding level relative to that column.  The cut is
    np.linalg.matrix_rank's, s_max * max(M, N) * eps for the (M, N)
    block; a Gram matrix would square the condition number.
    """
    d_bil = r_bil.shape[1]
    if d_bil == 0:
        return []
    s = np.linalg.svd(r_bil, compute_uv=False)
    tol = s.max() * max(d_bil, n_rows) * np.finfo(float).eps
    if np.count_nonzero(s > tol) < d_bil:
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

    The lifted states are the dataset's own (``SnapshotDataset.lift``,
    which ``fit_pair`` has usually made already); the solve and both
    errors gather chunks of the train or held-out columns and form
    (S psi) kron u one chunk at a time.  The bilinear rank flag reads the
    regressor's streamed R.  Raises ValueError when the split leaves no
    training snapshot.
    """
    if len(ds) == 0:
        raise ValueError("empty dataset")
    S = as_matrix(S, "S", (None, map_x.dim))
    train, holdout = ds.split_by_trajectory(holdout_fraction)
    n_train = int(train.sum())
    if n_train == 0:
        raise ValueError(
            f"no training snapshots: holdout_fraction {holdout_fraction:g} "
            f"holds out every trajectory (trajectory count "
            f"{np.unique(ds.traj_ids).size})")
    rho = (1e-8 * n_train if ridge is None
           else as_number(ridge, "ridge", "nonnegative"))
    psi = ds.lift(map_x)
    d_psi = map_x.dim
    d_in = d_psi + S.shape[0] * ds.u.shape[1]
    train_cols = _column_chunks(np.flatnonzero(train))
    chunks = (_regressor_rows(S, psi[:, c], ds.u[c]) for c in train_cols)
    targets = (psi[:, ds.next_cols(c)].T for c in train_cols)
    k, info, r = solve_chunks(chunks, targets, d_in, d_psi, rho)
    info["flags"] = ([UNDERDETERMINED] if n_train < d_in else []) \
        + _bilinear_flags(r[:, d_psi:], n_train) + info["flags"]
    model = BilinearKoopmanModel(
        K_xx=k[:, :d_psi], K_xu=k[:, d_psi:], S=S,
        map_descriptor=map_x.to_descriptor(),
    )
    diag = {"train_mse": _one_step_mse(model, ds, psi, train_cols),
            "n_train": n_train, "n_holdout": int(holdout.sum()),
            "ridge": rho, **info, "n_snapshots": n_train}
    if holdout.any():
        diag["holdout_mse"] = _one_step_mse(
            model, ds, psi, _column_chunks(np.flatnonzero(holdout)))
    model.diagnostics = diag
    return model


def _one_step_mse(model: BilinearKoopmanModel, ds: SnapshotDataset,
                  psi: np.ndarray, col_chunks) -> float:
    """Mean squared one-step error over the snapshots in ``col_chunks``;
    psi is the dataset's lift."""
    sse = 0.0
    for c in col_chunks:
        psi_c = psi[:, c]
        err = model.K_xx @ psi_c
        err += model.K_xu @ _bilinear_rows(model.S, psi_c, ds.u[c].T)
        err -= psi[:, ds.next_cols(c)]
        sse += float(np.vdot(err, err))
    return sse / (psi.shape[0] * sum(len(c) for c in col_chunks))


def model_to_json(model: BilinearKoopmanModel) -> dict:
    return {
        "kind": "koopctl/model",
        "map": model.map_descriptor,
        "S": matrix_to_json(model.S),
        "K_xx": matrix_to_json(model.K_xx),
        "K_xu": matrix_to_json(model.K_xu),
        "diagnostics": model.diagnostics,
    }


def model_from_json(d: dict) -> BilinearKoopmanModel:
    try:  # the descriptor is kept as written, once it reads as a map
        d_psi = map_from_descriptor(d["map"]).dim
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"map is not a map descriptor: {exc!r}") from exc
    return BilinearKoopmanModel(
        K_xx=matrix_from_json(d["K_xx"], "K_xx", (d_psi, d_psi)),
        K_xu=matrix_from_json(d["K_xu"], "K_xu", (d_psi, None)),
        S=matrix_from_json(d["S"], "S", (None, d_psi)),
        map_descriptor=d["map"], diagnostics=d.get("diagnostics", {}),
    )
