"""Small dense-matrix utilities and the number rule, used by every module.

Everything in this project is desk scale (lifted dimensions of at most a
few tens), so all storage is plain dense ``numpy`` arrays.  Symmetric
eigenvalue queries use LAPACK's symmetric drivers only, never the general
nonsymmetric path, so spectra are real and deterministic.  Tall
least-squares problems (N snapshots by at most a few tens of columns) are
factored by ``streamed_qr``, one chunk of rows at a time.
"""

from __future__ import annotations

import math

import numpy as np

# Rows (or snapshots) per chunk of every streamed pass: ``streamed_qr``
# factors one chunk plus the running triangle, and the Hbar fit, the
# identification and the dataset lift hold a few chunk-wide buffers, so
# each working copy is a few MB at the widths used here.  The chunk sets
# the order of the floating-point sums, so changing it moves every
# artifact from pair.json on at rounding level (factorize's format number
# in ``cli.STAGES``).
QR_CHUNK = 4096


def as_number(x, name: str, sign: str = "", integer: bool = False,
              any_size: bool = False, error: type = ValueError):
    """``x`` read as a float (as it is, when ``integer``), if it passes the
    one number rule: an int or float, numpy scalars included, never a
    bool, finite as a float; an int when ``integer``, of any size with
    ``any_size`` (a seed or a count); > 0 or >= 0 for ``sign`` "positive"
    or "nonnegative".  Else raises ``error``: "<name> must be a ..., got x".
    """
    kinds = (int, np.integer) + (() if integer else (float, np.floating))
    ok = isinstance(x, kinds) and not isinstance(x, bool)
    try:  # an int beyond the float range is not finite as a float
        ok = ok and ((integer and any_size) or math.isfinite(x)) and (
            not sign or (x > 0 if sign == "positive" else x >= 0))
    except OverflowError:
        ok = False
    if not ok:
        what = f"{sign} {'integer' if integer else 'number'}".strip()
        raise error(f"{name} must be {'an' if what == 'integer' else 'a'} "
                    f"{what}, got {x!r}")
    return x if integer else float(x)


def constants(*values) -> tuple:
    """Each value as a read-only 0-d float64 array, for a constant operand
    of a numpy call made once per step: numpy resolves a 0-d array once
    per call, where it resolves a Python float anew as a weak scalar
    (NEP 50), which costs more than the arithmetic on a small batch."""
    arrays = tuple(np.array(v, dtype=np.float64) for v in values)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def as_matrix(a, name: str = "matrix", shape: tuple = None) -> np.ndarray:
    """Coerce to a finite 2-d float array (1-d input stays 1-d), of
    ``shape`` when one is given, where None is any size: the one shape
    rule.  A ValueError names ``name``."""
    try:
        m = np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} is not an array of numbers: {exc}") from exc
    if m.ndim > 2:
        raise ValueError(f"{name} must be at most 2-d, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    if shape is not None and (m.ndim != len(shape) or any(
            n not in (None, k) for n, k in zip(shape, m.shape))):
        raise ValueError(f"{name} has shape {m.shape}, expected {shape}")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product; block (i, j) of the result equals a[i, j] * b."""
    return np.kron(as_matrix(a, "a"), as_matrix(b, "b"))


def hadamard(a, b) -> np.ndarray:
    """Elementwise product of two equal-length vectors."""
    a = as_matrix(a, "a", (None,))
    return a * as_matrix(b, "b", a.shape)


def symmetrize(m) -> np.ndarray:
    """Return (M + M^T) / 2 after checking M is square and nearly symmetric."""
    a = as_matrix(m, "symmetric matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a - a.T)) > 1e-8 * scale:
        raise ValueError("matrix is not symmetric")
    return 0.5 * (a + a.T)


def row_chunks(n: int) -> list:
    """Consecutive slices of at most QR_CHUNK rows (or snapshots, in a
    feature-major array) covering range(n)."""
    return [slice(i, min(i + QR_CHUNK, n)) for i in range(0, n, QR_CHUNK)]


def streamed_qr(chunks, rhs, start=None):
    """(R, Q^T B) for the row stack A of the 2-d arrays ``chunks`` yields
    and the row stack B of ``rhs``, one right-hand block per chunk (its
    rows, any number of columns).

    A flat-tree tall-skinny QR: each step factors [R so far; next chunk]
    with Householder ``np.linalg.qr``, so only R and one chunk are held.
    R has min(rows, columns) rows.  Q is never formed: each step keeps
    LAPACK's raw Householder vectors and applies their transpose to
    [Q^T B so far; next block] in compact-WY form (``_apply_qt``).
    ``start``, the (R, Q^T B) of an earlier call, continues its stream:
    the result is bitwise that of one call over both streams' chunks.
    """
    r, qtb = (None, None) if start is None else start
    blocks = iter(rhs)
    for c in chunks:
        top = 0 if r is None else r.shape[0]
        if top:
            # Fortran order is what LAPACK factors, so the copy into its
            # work array is a straight one
            a = np.empty((top + c.shape[0], c.shape[1]), order="F")
            a[:top] = r
            a[top:] = c
        else:
            a = c
        h, tau = np.linalg.qr(a, mode="raw")
        f = h.T                 # R on and above the diagonal, V below it
        r = np.triu(f[: len(tau)])
        qtb = _apply_qt(f, tau, qtb, next(blocks))
    if r is None:
        raise ValueError("no rows to factor")
    return r, qtb


def _apply_qt(f, tau, qtb, block):
    """First k = len(tau) rows of Q^T [qtb; block] for the Q that ``f``
    and ``tau`` (LAPACK's raw geqrf output) stand for.

    Q = I - V T V^T with V the unit lower-trapezoidal reflectors and T
    upper triangular (Schreiber and Van Loan's compact-WY form), so Q^T X
    is X - V T^T (V^T X).  Below its first k rows V is f's strict lower
    part as it stands, so the block's rows are read in place: V^T X is
    one small product for the top rows and one GEMM for the block, and
    the update of the kept rows is a second GEMM.  T comes from LAPACK
    dlarft's column recursion, which stays exact for a zero tau (a column
    that was already reduced) where inverting T would divide by it.
    """
    k = len(tau)
    n_top = 0 if qtb is None else qtb.shape[0]
    v_head = np.tril(f[:k, :k], -1)
    np.fill_diagonal(v_head, 1.0)
    v_tail = f[k:, :k]
    # rows k: of [qtb; block] are rows k - n_top: of the block (k >= n_top)
    x_head = np.empty((k, block.shape[1]))
    x_head[:n_top] = qtb
    x_head[n_top:] = block[: k - n_top]
    vtx = v_tail.T @ block[k - n_top :]
    vtx += v_head.T @ x_head
    gram = v_tail.T @ v_tail
    gram += v_head.T @ v_head
    t = np.zeros((k, k))
    for i in range(k):
        t[:i, i] = -tau[i] * (t[:i, :i] @ gram[:i, i])
        t[i, i] = tau[i]
    x_head -= v_head @ (t.T @ vtx)
    return x_head


def truncated_svd(r: np.ndarray):
    """Thin SVD of ``r`` cut by the rank rule of LAPACK's gelsd.

    Singular values at or below eps * s_max count as zero, so a solve
    through the kept ones gives the minimum-norm least-squares solution.
    Returns (u, s, vt, cond), cut to the rank len(s); cond is s_max / s_min
    over all singular values, inf when s_min is 0.
    """
    u, s, vt = np.linalg.svd(r, full_matrices=False)
    rank = int(np.sum(s > np.finfo(float).eps * s[0])) if s[0] > 0 else 0
    cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
    return u[:, :rank], s[:rank], vt[:rank], cond


def matrix_to_json(m) -> dict:
    """Serialize to the {rows, cols, data} wire format (row-major data)."""
    a = as_matrix(m)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]),
            "data": [float(v) for v in a.ravel()]}


def matrix_from_json(d: dict, name: str = "matrix",
                     shape: tuple = None) -> np.ndarray:
    """Read the wire format under ``as_matrix``'s rule, the one
    ``matrix_to_json`` writes by; a ValueError names the field ``name``."""
    if not isinstance(d, dict) or not {"rows", "cols", "data"} <= d.keys():
        raise ValueError(f"{name} must be a {{rows, cols, data}} object, "
                         f"got {d!r:.40}")
    rows, cols = (as_number(d[k], f"{name} {k}", "nonnegative", integer=True)
                  for k in ("rows", "cols"))
    data = as_matrix(d["data"], name)
    if data.size != rows * cols:
        raise ValueError(f"{name} data length {data.size} != {rows}x{cols}")
    return as_matrix(data.reshape(rows, cols), name, shape)
