"""Selection/measurement pair identification and closed-loop assembly.

The compatibility condition between the state observables psi_x and the
controller features psi_u is

    (S psi_x(x)) kron psi_u(x) = H psi_x(x)

for a binary row-selector S.  With S restricted to one nonzero per row,
the candidate augmented matrix Hbar is fit blockwise: block i regresses
[psi_x]_i * psi_u onto psi_x, independently of the other blocks.  Blocks
whose RMS residual passes a threshold eps_h are retained (in increasing
index order) as the rows of S and the stacked blocks of H.

Every block is a set of product columns psi_x[i] * psi_u[a], and all of
them are fit together.  Each distinct product is formed and fit once:
when psi_u is psi_x, products (i, a) and (a, i) are the same bits, so
d(d+1)/2 columns stand for the d^2 of the blocks.  The states are lifted
once into feature-major (d_psi, N) arrays; a ``SnapshotDataset`` keeps
its lift (``SnapshotDataset.lift``), so the identification that follows
reads the same array instead of lifting again.  The fit makes two passes
over the arrays in chunks of ``QR_CHUNK`` snapshots, forming one chunk
of products at a time:

1. a streamed Householder QR of psi_x that carries the product chunks
   as its right-hand side, applying each step's reflectors in compact-WY
   form, so Q^T C comes out and Q is never formed; the coefficients of
   every product follow from the SVD of the small triangle R, cut by
   gelsd's rank rule, so a rank-deficient psi_x gets minimum-norm
   solutions;
2. the squared residual ||c - psi_x^T coef||^2 of every product column,
   formed explicitly (the kept blocks' residuals are at rounding level,
   where ||c||^2 - ||Q^T c||^2 would cancel).  The fit psi_x^T coef of a
   chunk goes into the product buffer of pass 1, and each block of
   products psi_x[i] * psi_u[h:], formed in a (d_psi_u, QR_CHUNK)
   buffer, is subtracted from its rows; fit - c is exactly -(c - fit),
   so the squares are the same bits.

Working memory beyond the lifted arrays is one chunk of products and one
block of them; the N x (d_psi_x d_psi_u) kron target is never formed.

When the condition holds, the closed-loop lifted operator becomes

    Ktilde = K_xx + K_xu (I kron K_u) H,

linear in the gain K_u for a fixed identified model: ``closed_loop`` forms
it, for the LMI of ``synthesis`` and the rollouts of ``evaluation`` alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .babbling import SnapshotDataset
from .edmd import BilinearKoopmanModel, _bilinear_rows
from .observables import ObservableMap, evaluate_batch
from .tensor import (QR_CHUNK, as_matrix, as_number, matrix_from_json,
                     matrix_to_json, row_chunks, streamed_qr, truncated_svd)


class FactorizationError(RuntimeError):
    """No block satisfied the threshold: the bilinear input term vanishes."""


@dataclass
class FactorizationPair:
    S: np.ndarray           # (d_S, d_psi_x) binary, one nonzero per row
    H: np.ndarray           # (d_S * d_psi_u, d_psi_x)
    mask: np.ndarray        # binary length d_psi_x
    residuals: np.ndarray   # per-block RMS residuals, length d_psi_x
    eps_h: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def d_S(self) -> int:
        return self.S.shape[0]

    @property
    def d_psi_u(self) -> int:
        return self.H.shape[0] // max(self.d_S, 1)


def _lift_states(data, map_x: ObservableMap, map_u: ObservableMap):
    """(psi_x, psi_u), each feature-major (d_psi, N).

    A dataset's lift is its own (``SnapshotDataset.lift``), made once per
    map and kept for the identification; an array of states is lifted
    here.  psi_u is the psi_x array itself when ``map_u is map_x``.
    """
    dataset = isinstance(data, SnapshotDataset)
    if (len(data) if dataset else np.size(data)) == 0:
        raise ValueError("empty dataset")

    def lift(m):
        return data.lift(m)[:, :len(data)] if dataset else \
            evaluate_batch(m, data)
    psi_x = lift(map_x)
    psi_u = psi_x if map_u is map_x else lift(map_u)
    return psi_x, psi_u


def _product_layout(d_x: int, d_u: int, shared: bool):
    """(blocks, index) of the distinct products psi_x[i] * psi_u[a].

    Block (i, h, rows) puts psi_x[i] * psi_u[h:] in product rows ``rows``;
    index[i, a] is the row of psi_x[i] * psi_u[a].  With a shared map,
    h = i, and (i, a) with a < i reads the row of (a, i).
    """
    blocks = []
    index = np.empty((d_x, d_u), dtype=int)
    row = 0
    for i in range(d_x):
        h = i if shared else 0
        blocks.append((i, h, slice(row, row + d_u - h)))
        index[i, h:] = np.arange(row, row + d_u - h)
        row += d_u - h
    if shared:
        lower = np.tril_indices(d_x, -1)
        index[lower] = index.T[lower]
    return blocks, index


def _fit_blocks(psi_x: np.ndarray, psi_u: np.ndarray):
    """Fit every product psi_x[i] * psi_u[a] onto psi_x in two passes.

    psi_x and psi_u are feature-major (d_psi, N); when ``psi_u is psi_x``
    each product is formed and fit once.  Returns (Hbar, residuals, info)
    as ``fit_candidate_hbar`` does.
    """
    d_x, n = psi_x.shape
    d_u = psi_u.shape[0]
    blocks, index = _product_layout(d_x, d_u, psi_u is psi_x)
    n_products = index.max() + 1
    width = min(n, QR_CHUNK)
    chunk = np.empty((n_products, width))
    block = np.empty((d_u, width))   # one block of products in pass 2

    def products(s):
        c = chunk[:, : s.stop - s.start]
        for i, h, rows in blocks:
            np.multiply(psi_x[i, s], psi_u[h:, s], out=c[rows])
        return c

    spans = row_chunks(n)
    r, qtc = streamed_qr((psi_x[:, s].T for s in spans),
                         (products(s).T for s in spans))
    w, sv_r, vt_r, cond = truncated_svd(r)
    coef_t = ((w.T @ qtc) / sv_r[:, None]).T @ vt_r     # (products, d_x)
    sq = np.zeros(n_products)
    for s in spans:
        # the fit, minus each block of products: -(residual), same squares
        c = np.matmul(coef_t, psi_x[:, s], out=chunk[:, : s.stop - s.start])
        for i, h, rows in blocks:
            c[rows] -= np.multiply(psi_x[i, s], psi_u[h:, s],
                                   out=block[: d_u - h, : c.shape[1]])
        sq += np.einsum("ij,ij->i", c, c)
    hbar = coef_t[index].reshape(d_x * d_u, d_x)
    residuals = np.sqrt(sq[index].sum(axis=1) / n)
    info = {"rank": len(sv_r), "n_snapshots": int(n), "cond": cond,
            "flags": []}
    if len(sv_r) < d_x:
        info["flags"].append("rank-deficient psi_x regressor")
    return hbar, residuals, info


def fit_candidate_hbar(data, map_x: ObservableMap, map_u: ObservableMap):
    """Blockwise least-squares fit of (psi_x kron psi_u) onto psi_x.

    ``data`` is a SnapshotDataset or an (N, d_x) array of states.  Returns
    (Hbar, residuals, info); residual i is the RMS over snapshots of the
    block-i error vector.  All blocks are fit in two streamed passes over
    the lifted arrays (see the module docstring), so working memory beyond
    them is one chunk of products and one block of them, never
    O(N d_psi_x d_psi_u) for the whole target.  Rank deficiency of the
    regressor is flagged.
    """
    return _fit_blocks(*_lift_states(data, map_x, map_u))


def _auto_eps_h(psi_x: np.ndarray, psi_u: np.ndarray) -> float:
    """1e-6 times the RMS magnitude of psi_x kron psi_u over the data;
    the norm of a shared map's lift is taken once and squared."""
    kron_sq = np.einsum("ij,ij->j", psi_x, psi_x)
    kron_sq *= kron_sq if psi_u is psi_x else \
        np.einsum("ij,ij->j", psi_u, psi_u)
    return 1e-6 * float(np.sqrt(np.mean(kron_sq)))


def threshold_mask(hbar: np.ndarray, residuals: np.ndarray, eps_h: float,
                   d_psi_u: int) -> FactorizationPair:
    """Retain blocks with residual <= eps_h; build (s, S, H) from them.

    Raises FactorizationError when nothing is retained, since the
    closed-loop factorization would lose its input term entirely.
    """
    eps_h = as_number(eps_h, "eps_h", "positive")
    residuals = np.asarray(residuals, dtype=float)
    d_psi_x = residuals.shape[0]
    mask = (residuals <= eps_h).astype(int)
    kept = np.nonzero(mask)[0]
    if kept.size == 0:
        raise FactorizationError(
            f"no block residual below eps_h={eps_h:g} "
            f"(smallest residual {residuals.min():g})"
        )
    H = hbar.reshape(d_psi_x, d_psi_u, -1)[kept].reshape(-1, hbar.shape[1])
    return FactorizationPair(S=np.eye(d_psi_x)[kept], H=H, mask=mask,
                             residuals=residuals, eps_h=eps_h)


def fit_pair(data, map_x: ObservableMap, map_u: ObservableMap,
             eps_h: float = None) -> FactorizationPair:
    """Full blockwise identification: fit Hbar, threshold, assemble (S, H).

    The states are lifted once; the automatic eps_h (1e-6 times the RMS
    magnitude of psi_x kron psi_u) is taken from the same arrays.
    """
    psi_x, psi_u = _lift_states(data, map_x, map_u)
    hbar, residuals, info = _fit_blocks(psi_x, psi_u)
    eps = _auto_eps_h(psi_x, psi_u) if eps_h is None else float(eps_h)
    pair = threshold_mask(hbar, residuals, eps, map_u.dim)
    pair.diagnostics = {**info, "eps_h_auto": eps_h is None}
    return pair


def augmented_hbar(pair: FactorizationPair) -> np.ndarray:
    """Rebuild Hbar with zero blocks where the mask rejected an index."""
    d_psi_x = pair.mask.size
    out = np.zeros((d_psi_x, pair.d_psi_u, d_psi_x))
    out[pair.mask == 1] = pair.H.reshape(pair.d_S, pair.d_psi_u, d_psi_x)
    return out.reshape(-1, d_psi_x)


def verify_assumption1(pair: FactorizationPair, map_x: ObservableMap,
                       map_u: ObservableMap, test_states) -> float:
    """Max over test states of ||(S psi_x) kron psi_u - H psi_x||_inf."""
    psi_x, psi_u = _lift_states(test_states, map_x, map_u)
    lhs = _bilinear_rows(pair.S, psi_x, psi_u)
    return float(np.max(np.abs(lhs - pair.H @ psi_x)))


@dataclass
class ClosedLoopOperator:
    """The closed-loop lifted operator Ktilde."""

    Ktilde: np.ndarray


def ktilde_terms(K_xu, H, d_psi, d_S, d_u, d_psi_u) -> np.ndarray:
    """T with Ktilde(K_u) = K_xx + sum_ab K_u[a,b] T[a,b] (``closed_loop``),
    once K_xu is checked (d_psi, d_S d_u) and H (d_S d_psi_u, d_psi)."""
    K_xu = as_matrix(K_xu, "K_xu", (d_psi, d_S * d_u))
    H = as_matrix(H, "H", (d_S * d_psi_u, d_psi))
    return np.einsum("psa,sbq->abpq", K_xu.reshape(d_psi, d_S, d_u),
                     H.reshape(d_S, d_psi_u, d_psi))


def closed_loop(K_xx, T, K_u) -> np.ndarray:
    """Ktilde(K_u) = K_xx + sum_ab K_u[a,b] T[a,b]."""
    return K_xx + np.einsum("ab,abpq->pq", np.atleast_2d(K_u), T)


def assemble_ktilde(model: BilinearKoopmanModel, K_u: np.ndarray,
                    H: np.ndarray) -> ClosedLoopOperator:
    """Ktilde = K_xx + K_xu (I_{d_S} kron K_u) H, as synthesis certifies it."""
    K_u = np.atleast_2d(as_matrix(K_u, "K_u"))
    T = ktilde_terms(model.K_xu, H, model.lifted_dim, len(model.S), *K_u.shape)
    return ClosedLoopOperator(Ktilde=closed_loop(model.K_xx, T, K_u))


def pair_to_json(pair: FactorizationPair) -> dict:
    return {
        "kind": "koopctl/pair",
        "H": matrix_to_json(pair.H),
        "mask": [int(v) for v in pair.mask],
        "residuals": [float(v) for v in pair.residuals],
        "eps_h": pair.eps_h,
        "diagnostics": pair.diagnostics,
    }


def pair_from_json(d: dict) -> FactorizationPair:
    mask = d["mask"]
    if not (isinstance(mask, list) and 1 in mask and all(
            as_number(v, "mask", integer=True) in (0, 1) for v in mask)):
        raise ValueError(f"mask must be 0s and 1s with a 1, got {mask!r}")
    mask = np.array(mask, dtype=int)
    residuals = as_matrix(d["residuals"], "residuals", (mask.size,))
    eps_h = as_number(d["eps_h"], "eps_h", "positive")
    if not np.array_equal(mask, residuals <= eps_h):  # as threshold_mask
        raise ValueError(f"mask is not residuals <= eps_h: {mask.tolist()}")
    return FactorizationPair(
        S=np.eye(mask.size)[mask == 1], mask=mask, residuals=residuals,
        H=matrix_from_json(d["H"], "H", (None, mask.size)), eps_h=eps_h,
        diagnostics=d.get("diagnostics", {}))
