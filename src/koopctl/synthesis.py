"""Feedback-gain synthesis through the Lyapunov linear matrix inequality.

For a fixed PSD candidate P the constraint

    M(K_u, lam) = [[P, P Ktilde], [Ktilde^T P, lam P]] >= 0,  lam in [0, 1]

is jointly affine in (K_u, lam) because Ktilde = K_xx + K_xu (I kron K_u) H
is affine in K_u (formed by ``factorization.closed_loop``, bit for bit
the operator evaluation rolls out).  Minimizing lam subject to

    F(theta, lam) = blockdiag(M(K_u, lam) + feas_tol I, lam, 1 - lam) >= 0,

theta the entries of K_u, is therefore one linear semidefinite program.
``solve_fixed_p`` solves it with a barrier method (Boyd and Vandenberghe,
Convex Optimization, 2004, 11.3-11.4) built on one damped Newton routine
for c.y + rho ||y||^2 - log det G(y), G affine of order m, the barrier
parameter (Nesterov and Nemirovskii, 1994).  Phase I fixes
lam_1 = 1 - lam_tol / 10 and follows the central path of min s subject
to F(theta, lam_1) + s D > 0, D the identity on the M block, from
theta = 0, s_0 putting the M block's smallest eigenvalue at 1, and
t_0 = m / s_0.  An iterate with s < 0 is a strictly feasible gain; one
with s > m / t proves the least s positive, so no gain satisfies the LMI
at lam_1 or, as M grows with lam, below it: the candidate is rejected.
Phase II follows the central path of min lam from that gain at lam_1,
from t_0 = m, until m / t <= 1e-9.  Every iterate is strictly feasible,
so lam* <= lam(t) <= lam* + m / t.

Both bounds hold at the point reached, by this derivation.  A path
centering stops once the Newton decrement delta at y is at most 1/4 and
takes the full step d.  With G = G(y) and E = sum_j d_j G_j, the Newton
equation gives Z = G^-1 (G - E) G^-1 / t the dual equality constraints,
Z >= 0 as ||G^-1/2 E G^-1/2||_F = delta <= 1, and the duality gap at
y + d is (m - delta^2) / t.  This takes the Newton system as solved
exactly; where its Hessian is singular to working precision (condition
above 1e20), rounding can break the bound.  At large t, t c and the
barrier's gradient cancel, so no tighter decrement is reachable, and f
itself rounds a step's decrease away: the line search forms the change
from the eigenvalues of G^-1/2 E G^-1/2.

The lam-optimal gains form a flat set, and the path would stop at an
arbitrary point of it.  The gain is instead chosen at
lam_c = lam(t) + lam_tol / 10 as the minimizer of the strictly convex

    rho ||K_u||^2 - log det(M(K_u, lam_c) + feas_tol I),

found by Newton steps from the path's last gain, which makes it a smooth
function of the model.  rho = 1 / ||K_ac||^2, where K_ac is the analytic
center (the same minimization with rho = 0; its least-squares Newton
steps never move gain components that leave M unchanged).  The penalty
is then one barrier unit at the center, so it does not depend on the
units of the input and keeps the minimizer well inside the feasible set.
The reported lam is lam_c, at most the exact optimum plus lam_tol.  A
candidate is certified only when lam_c < 1 and its ``certificate``, the
smallest eigenvalue of the full block matrix at (K_u, lam_c), is
>= -feas_tol.

A candidate is a positive definite S_x: I first, then R^T R + eps_p I
with R resampled uniformly from [-1, 1].  ``synthesize`` forms its
P = A_dec^T S_x A_dec (S_x padded with zeros to d_psi) once, for the LMI
and the result, and ``result_from_json`` requires a read S_x exactly
symmetric and positive definite and P bit for bit that padding.  Such P
have rank d_x, so M carries first-block rows that are zero for every
K_u.  The solver deflates them exactly (in M + feas_tol I they are
feas_tol I), while the reported certificate is always the smallest
eigenvalue of the full block matrix.

feas_tol, lam_tol and eps_p are the module constants ``DEFAULT_FEAS_TOL``
(1e-8), ``DEFAULT_LAM_TOL`` (1e-3) and ``CANDIDATE_RIDGE`` (1e-2).  They
define what a certificate is, so no config key or argument changes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .edmd import BilinearKoopmanModel
from .factorization import FactorizationPair, closed_loop, ktilde_terms
from .tensor import (as_matrix, as_number, matrix_from_json, matrix_to_json,
                     symmetrize)

DEFAULT_FEAS_TOL = 1e-8   # smallest-eigenvalue floor for a certified LMI
DEFAULT_LAM_TOL = 1e-3    # reported lam is at most the optimum plus this
CANDIDATE_RIDGE = 1e-2    # eps_p in the sampled S_x = R^T R + eps_p I
_NEWTON_TOL = 1e-7        # Newton decrement that ends the gain centering
_NEWTON_MAXITER = 50      # Newton steps in one centering
_PATH_TOL = 0.25          # Newton decrement that ends a path centering
_PATH_STEP = 100.0        # factor on t between path centerings
_PATH_GAP = 1e-9          # duality-gap bound that ends the lam path


def energy_norm(S_x: np.ndarray, x) -> float:
    """sqrt(x^T S_x x), the energy norm whose decay rate is certified."""
    x = np.asarray(x, dtype=float)
    return float(np.sqrt(x @ S_x @ x))


def _restrict(S_x: np.ndarray, d_psi: int) -> np.ndarray:
    return np.pad(S_x, (0, d_psi - len(S_x)))  # A_dec^T S_x A_dec


def sample_candidate(d_x: int, rng: np.random.Generator) -> np.ndarray:
    """S_x = R^T R + CANDIDATE_RIDGE I with R ~ U([-1, 1]^{d_x x d_x})."""
    R = rng.uniform(-1.0, 1.0, size=(d_x, d_x))
    return R.T @ R + CANDIDATE_RIDGE * np.eye(d_x)


@dataclass
class LmiProblem:
    """Fixed (P, K_xx, K_xu, H) with decision variables (K_u, lam)."""

    P: np.ndarray
    K_xx: np.ndarray
    K_xu: np.ndarray
    H: np.ndarray
    d_S: int
    d_u: int
    d_psi_u: int

    def __post_init__(self):
        d_psi = len(self.K_xx)
        self.K_xx = as_matrix(self.K_xx, "K_xx", (d_psi, d_psi))
        self.P = symmetrize(as_matrix(self.P, "P", (d_psi, d_psi)))
        self.T = ktilde_terms(self.K_xu, self.H, d_psi, self.d_S, self.d_u,
                              self.d_psi_u)

    @property
    def d_psi(self) -> int:
        return self.K_xx.shape[0]

    @property
    def n_vars(self) -> int:
        return self.d_u * self.d_psi_u

    def gain(self, theta) -> np.ndarray:
        return np.asarray(theta, dtype=float).reshape(self.d_u, self.d_psi_u)

    def ktilde(self, K_u) -> np.ndarray:
        return closed_loop(self.K_xx, self.T, K_u)

    def block_matrix(self, K_u, lam: float) -> np.ndarray:
        kt = self.ktilde(K_u)
        pk = self.P @ kt
        return np.block([[self.P, pk], [pk.T, lam * self.P]])

    def min_eig(self, theta, lam: float) -> float:
        """Smallest eigenvalue of the full (undeflated) block matrix."""
        m = self.block_matrix(self.gain(theta), lam)
        return float(np.linalg.eigvalsh(0.5 * (m + m.T))[0])


def _sdp_terms(problem: LmiProblem) -> np.ndarray:
    """F with F_0 + sum_i theta_i F_i + lam F_{n+1} equal to
    blockdiag(M(theta, lam) + feas_tol I, lam, 1 - lam), its first-block
    rows that are zero in P deflated."""
    keep = np.nonzero(np.any(problem.P != 0.0, axis=1))[0]
    n1, d, n = keep.size, problem.d_psi, problem.n_vars
    m = n1 + d
    F = np.zeros((n + 2, m + 2, m + 2))
    F[0, :n1, :n1] = problem.P[np.ix_(keep, keep)]
    coupling = problem.P[keep] @ np.concatenate(
        [problem.K_xx[None], problem.T.reshape(n, d, d)])
    F[:-1, :n1, n1:m] = coupling
    F[:-1, n1:m, :n1] = coupling.transpose(0, 2, 1)
    F[-1, n1:m, n1:m] = problem.P
    F[0, :m, :m] += DEFAULT_FEAS_TOL * np.eye(m)
    F[0, m + 1, m + 1] = 1.0          # 1 - lam
    F[-1, m, m] = 1.0                 # lam
    F[-1, m + 1, m + 1] = -1.0
    return F


def _newton(F, y, c, rho: float, tol: float):
    """Minimize f(y) = c.y + rho ||y||^2 - log det(F_0 + sum_j y_j F_j) by
    Newton steps with a backtracking line search (Boyd and Vandenberghe,
    Convex Optimization, 2004, 9.5) from a strictly feasible y, until the
    Newton decrement is at most ``tol``; then the full step d is taken.
    Returns (y + d, steps), y None if the cap is hit or rounding stops the
    line search."""
    m, k = len(F[0]), len(F) - 1
    fj = F[1:].reshape(k, -1)
    for step in range(_NEWTON_MAXITER):
        try:
            li = np.linalg.inv(np.linalg.cholesky(
                F[0] + (y @ fj).reshape(m, m)))
        except np.linalg.LinAlgError:
            return None, step
        w = (li @ F[1:] @ li.T).reshape(k, -1)
        grad = c + 2.0 * rho * y - w[:, ::m + 1].sum(axis=1)
        hess = w @ w.T + 2.0 * rho * np.eye(k)
        d = -np.linalg.lstsq(hess, grad, rcond=None)[0]
        dec2 = max(-grad @ d, 0.0)     # squared Newton decrement
        if dec2 <= tol ** 2:
            # within the Dikin ellipsoid: the full step stays feasible
            return y + d, step + 1
        # F(y + a d) = L (I + a W) L^T, so f changes by a c.d + rho a
        # d.(2 y + a d) - sum log(1 + a mu), mu the eigenvalues of W
        mu = np.linalg.eigvalsh((d @ w).reshape(m, m))
        a = 1.0
        # full steps once the decrement is below 1/4, where they are safe
        while dec2 >= 0.0625 and not (
                a * mu[0] > -1.0
                and a * (c @ d) + rho * a * (d @ (2.0 * y + a * d))
                - np.sum(np.log1p(a * mu)) <= -0.25 * a * dec2):
            a *= 0.5
            if a < 1e-12:
                return None, step + 1
        y = y + a * d
    return None, _NEWTON_MAXITER


def _path(F, y, t: float, stop):
    """Center t y[-1] - log det(F_0 + sum_j y_j F_j) for t growing by
    _PATH_STEP until ``stop(y, m / t)``, m the order of F_0.  Returns
    (y, steps), y None when a centering fails or the centerings reach
    the Newton cap."""
    c = np.zeros(len(y))
    steps = 0
    for _ in range(_NEWTON_MAXITER):
        c[-1] = t
        y, more = _newton(F, y, c, 0.0, _PATH_TOL)
        steps += more
        if y is None or stop(y, len(F[0]) / t):
            return y, steps
        t *= _PATH_STEP
    return None, steps


def solve_fixed_p(problem: LmiProblem) -> dict:
    """Minimize lam subject to M(K_u, lam) + feas_tol I >= 0 and pick a gain.

    Returns {outcome, iterations, theta, lam, min_eig}.  ``outcome`` is
    "certified" when lam < 1 and min_eig, the smallest eigenvalue of the
    full block matrix at (theta, lam), is >= -feas_tol; "infeasible" when
    phase I rules out every lam < 1 or the chosen gain fails that check;
    "iteration-cap" when a path gives no verdict.  ``iterations`` counts
    Newton steps.  theta, lam and min_eig are None unless the centering
    step produced a gain.
    """
    F = _sdp_terms(problem)
    shift = 0.1 * DEFAULT_LAM_TOL
    m = len(F[0])
    sol = {"outcome": "iteration-cap", "iterations": 0,
           "theta": None, "lam": None, "min_eig": None}
    # phase I: minimize s subject to F(theta, 1 - shift) + s D > 0
    base = F[0] + (1.0 - shift) * F[-1]
    D = np.diag(np.arange(m) < m - 2).astype(float)
    s = 1.0 + max(0.0, -np.linalg.eigvalsh(base[:-2, :-2])[0])
    y, steps = _path(np.concatenate([[base], F[1:-1], [D]]),
                     np.append(np.zeros(problem.n_vars), s), m / s,
                     lambda y, bound: not 0.0 <= y[-1] <= bound)
    sol["iterations"] += steps
    if y is None or y[-1] >= 0.0:      # then s* >= s - m / t > 0
        sol["outcome"] = "iteration-cap" if y is None else "infeasible"
        return sol
    # phase II: the central path of min lam from that gain
    y, steps = _path(F, np.append(y[:-1], 1.0 - shift), float(m),
                     lambda y, bound: bound <= _PATH_GAP)
    sol["iterations"] += steps
    if y is None:
        return sol
    lam = float(y[-1] + shift)
    # the gain centerings: rho ||theta||^2 - log det F(theta, lam)
    G = np.concatenate([[F[0] + lam * F[-1]], F[1:-1]])
    zero = np.zeros(problem.n_vars)
    theta, steps = (_newton(G, y[:-1], zero, 0.0, _NEWTON_TOL) if lam < 1.0
                    else (None, 0))
    if theta is not None and theta.any():
        # the analytic center sets the scale of the gain penalty
        theta, more = _newton(G, theta, zero, 1.0 / (theta @ theta),
                              _NEWTON_TOL)
        steps += more
    sol["iterations"] += steps
    sol["outcome"] = "infeasible"
    if theta is not None:
        sol.update(theta=theta, lam=lam, min_eig=problem.min_eig(theta, lam))
        if sol["min_eig"] >= -DEFAULT_FEAS_TOL:
            sol["outcome"] = "certified"
    return sol


@dataclass
class SynthesisResult:
    K_u: np.ndarray
    lam: float
    P: np.ndarray
    S_x: np.ndarray
    status: str                       # optimal | infeasible | max-resamples-exceeded
    diagnostics: dict = field(default_factory=dict)


def _lmi_problem(model: BilinearKoopmanModel, pair: FactorizationPair,
                 P: np.ndarray) -> LmiProblem:
    return LmiProblem(P=P, K_xx=model.K_xx, K_xu=model.K_xu, H=pair.H,
                      d_S=pair.d_S, d_u=model.input_dim, d_psi_u=pair.d_psi_u)


def certificate(result: SynthesisResult, model: BilinearKoopmanModel,
                pair: FactorizationPair) -> float:
    """The smallest eigenvalue of the full block matrix M(K_u, lam) that
    ``result``'s P, K_u and lam form with ``model`` and ``pair``.  A result
    holds only while this is >= -DEFAULT_FEAS_TOL."""
    return _lmi_problem(model, pair, result.P).min_eig(result.K_u, result.lam)


def synthesize(model: BilinearKoopmanModel, pair: FactorizationPair,
               max_resamples: int = 50, seed: int = 0) -> SynthesisResult:
    """Iterate Lyapunov candidates until the LMI program is solved.

    The identity S_x is tried first, then up to ``max_resamples`` sampled
    ones drawn from ``seed``; the first certified candidate is returned.
    """
    d_psi, d_x = model.lifted_dim, model.state_dim
    rng = np.random.default_rng(seed)
    diagnostics = {"resample_count": max_resamples, "iterations": 0,
                   "eps_p": CANDIDATE_RIDGE, "feas_tol": DEFAULT_FEAS_TOL,
                   "lam_tol": DEFAULT_LAM_TOL, "seed": seed, "candidates": []}
    for n_sampled in range(max_resamples + 1):
        S_x = sample_candidate(d_x, rng) if n_sampled else np.eye(d_x)
        P = _restrict(S_x, d_psi)
        problem = _lmi_problem(model, pair, P)
        sol = solve_fixed_p(problem)
        diagnostics["iterations"] += sol["iterations"]
        certified = sol["outcome"] == "certified"
        diagnostics["candidates"].append({
            "tag": "sampled" if n_sampled else "identity-start",
            "feasible": certified,
            "lam": sol["lam"] if certified else None,
            "min_eig": sol["min_eig"] if certified else None,
            "iterations": sol["iterations"], "outcome": sol["outcome"]})
        if certified:
            diagnostics.update(resample_count=n_sampled,
                               min_eig=sol["min_eig"])
            return SynthesisResult(
                K_u=problem.gain(sol["theta"]), lam=sol["lam"], P=P, S_x=S_x,
                status="optimal", diagnostics=diagnostics)
    S_x = np.eye(d_x)   # a failed synthesis reports the identity start
    return SynthesisResult(
        K_u=np.zeros((model.input_dim, pair.d_psi_u)), lam=float("nan"),
        P=_restrict(S_x, d_psi), S_x=S_x, diagnostics=diagnostics,
        status="max-resamples-exceeded" if max_resamples else "infeasible")


def certified_rate(result: SynthesisResult) -> float:
    """sqrt(lam*): geometric contraction rate of the decoded-state energy
    norm ||x||_{S_x} along trajectories of the lifted closed loop."""
    if result.status != "optimal":
        raise ValueError(f"no certified rate for status {result.status!r}")
    return math.sqrt(result.lam)


def result_to_json(result: SynthesisResult) -> dict:
    return {
        "kind": "koopctl/synthesis",
        "status": result.status,
        "lambda": None if math.isnan(result.lam) else result.lam,
        "K_u": matrix_to_json(result.K_u),
        "P": matrix_to_json(result.P),
        "S_x": matrix_to_json(result.S_x),
        "diagnostics": result.diagnostics,
    }


def result_from_json(d: dict, shapes: dict = None) -> SynthesisResult:
    """Read what ``result_to_json`` wrote: K_u, P and S_x of the ``shapes``
    given (``tensor.as_matrix``), S_x symmetric positive definite and P
    formed from it as ``synthesize`` does.  A ValueError names the field."""
    K_u, P, S_x = (matrix_from_json(d[k], k, (shapes or {}).get(k))
                   for k in ("K_u", "P", "S_x"))
    if not np.array_equal(S_x, S_x.T):
        raise ValueError("S_x is not symmetric")
    try:
        np.linalg.cholesky(S_x)
    except np.linalg.LinAlgError:
        raise ValueError("S_x is not positive definite") from None
    if len(P) < len(S_x) or not np.array_equal(P, _restrict(S_x, len(P))):
        raise ValueError("P is not A_dec^T S_x A_dec, S_x padded with zeros")
    lam = d.get("lambda")   # null for a failed synthesis
    return SynthesisResult(
        K_u=K_u, lam=float("nan") if lam is None else as_number(lam, "lambda"),
        P=P, S_x=S_x, status=d["status"], diagnostics=d.get("diagnostics", {}),
    )
