"""Feedback-gain synthesis through the Lyapunov linear matrix inequality.

For a fixed PSD candidate P the constraint

    M(K_u, lam) = [[P, P Ktilde], [Ktilde^T P, lam P]] >= 0,  lam in [0, 1]

is jointly affine in (K_u, lam) because Ktilde = K_xx + K_xu (I kron K_u) H
is affine in K_u.  Minimizing lam subject to

    blockdiag(M(K_u, lam) + feas_tol I, lam, 1 - lam) >= 0

is therefore one linear semidefinite program (SDP).  ``solve_fixed_p``
solves it with a primal-dual path-following method from an infeasible
start: the HKM search direction with Mehrotra's predictor-corrector
(Helmberg, Rendl, Vanderbei and Wolkowicz, SIAM J. Optim. 1996;
Vandenberghe and Boyd, SIAM Review 1996).  Each iteration solves one
Schur system with a row per gain entry and one for lam.  Once the primal
iterate is feasible its objective bounds lam* from below, so a candidate
whose bound shows lam* + lam_tol / 10 >= 1 is rejected as soon as that
shows; otherwise the method runs until the complementarity gap <X, Z>
and both relative residuals are below 1e-9.

The lam-optimal gains form a flat set, and the method would stop at an
arbitrary point of it.  The gain is instead chosen at
lam_c = lam* + lam_tol / 10 as the minimizer of the strictly convex

    rho ||K_u||^2 - log det(M(K_u, lam_c) + feas_tol I),

found by Newton steps from the method's last iterate, which makes it a
smooth function of the model.  rho = 1 / ||K_ac||^2, where K_ac is the
analytic center (the same minimization with rho = 0; its least-squares
Newton steps never move gain components that leave M unchanged).  The
penalty is then one barrier unit at the center, so it does not depend
on the units of the input and keeps the minimizer well inside the
feasible set.  The reported lam is lam_c: at most the exact optimum
plus lam_tol, up to the 1e-9 tolerances times the size of the optimal
gain.  A candidate is certified only when lam_c < 1 and the smallest
eigenvalue of the full block matrix at (K_u, lam_c) is >= -feas_tol.

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
from .factorization import FactorizationPair
from .tensor import (as_matrix, as_number, matrix_from_json, matrix_to_json,
                     symmetrize)

DEFAULT_FEAS_TOL = 1e-8   # smallest-eigenvalue floor for a certified LMI
DEFAULT_LAM_TOL = 1e-3    # reported lam is at most the optimum plus this
CANDIDATE_RIDGE = 1e-2    # eps_p in the sampled S_x = R^T R + eps_p I
_IPM_TOL = 1e-9           # duality gap and residuals that end the solve
_IPM_MAXITER = 100
_NEWTON_TOL = 1e-7        # Newton decrement that ends the gain centering
_NEWTON_MAXITER = 50


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
        d_psi, d_S = len(self.K_xx), self.d_S
        self.K_xx = as_matrix(self.K_xx, "K_xx", (d_psi, d_psi))
        self.K_xu = as_matrix(self.K_xu, "K_xu", (d_psi, d_S * self.d_u))
        self.H = as_matrix(self.H, "H", (d_S * self.d_psi_u, d_psi))
        self.P = symmetrize(as_matrix(self.P, "P", (d_psi, d_psi)))
        # coefficient tensor: Ktilde(K_u) = K_xx + sum_ab K_u[a,b] T[a,b]
        kxu3 = self.K_xu.reshape(d_psi, self.d_S, self.d_u)
        h3 = self.H.reshape(self.d_S, self.d_psi_u, d_psi)
        self.T = np.einsum("psa,sbq->abpq", kxu3, h3)

    @property
    def d_psi(self) -> int:
        return self.K_xx.shape[0]

    @property
    def n_vars(self) -> int:
        return self.d_u * self.d_psi_u

    def gain(self, theta) -> np.ndarray:
        return np.asarray(theta, dtype=float).reshape(self.d_u, self.d_psi_u)

    def ktilde(self, K_u) -> np.ndarray:
        K_u = np.atleast_2d(np.asarray(K_u, dtype=float))
        return self.K_xx + np.einsum("ab,abpq->pq", K_u, self.T)

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


def _max_step(X, dX) -> float:
    """Largest alpha with X + alpha dX PSD, for X positive definite."""
    li = np.linalg.inv(np.linalg.cholesky(X))
    w = np.linalg.eigvalsh(li @ dX @ li.T)[0]
    return np.inf if w >= 0.0 else -1.0 / w


def _interior_point(F, shift: float):
    """Maximize -lam subject to Z = F_0 + sum_j y_j F_j >= 0, y = (theta, lam).

    The primal problem is: minimize <F_0, X> subject to <F_j, X> = [j is
    lam] and X >= 0.  Once its residual vanishes, its objective is >= -lam
    for every feasible y, so -<F_0, X> bounds lam* from below.
    The residual counts as vanished below 1e-9 relative to ||X||: if the
    LMI has no solution at all, X grows along a Farkas ray and the bound
    grows without limit.  Returns (outcome, y, iterations) with outcome
    "optimal", "infeasible" (the bound shows lam* + shift >= 1) or
    "iteration-cap" (no verdict within the cap, or rounding broke positive
    definiteness).
    """
    f0, fj = F[0], F[1:]
    k, m = fj.shape[:2]
    a = np.zeros(k)
    a[-1] = 1.0
    start = max(10.0, math.sqrt(m), math.sqrt(np.max(np.sum(F ** 2, (1, 2)))))
    X, Z, y = start * np.eye(m), start * np.eye(m), np.zeros(k)
    norm0 = 1.0 + np.linalg.norm(f0)
    for it in range(_IPM_MAXITER):
        rp = a - np.einsum("jmn,mn->j", fj, X)
        Rd = f0 + np.tensordot(y, fj, 1) - Z
        lower = -np.sum(f0 * X)
        rp_norm = np.linalg.norm(rp)
        if rp_norm <= _IPM_TOL * (1.0 + np.linalg.norm(X)):
            # lam* >= lower - y*.rp for every feasible y*; the current y
            # stands in for y*
            if lower - np.linalg.norm(y) * rp_norm + shift >= 1.0:
                return "infeasible", y, it
            if (np.sum(X * Z) <= _IPM_TOL
                    and np.linalg.norm(Rd) <= _IPM_TOL * norm0):
                return "optimal", y, it
        try:
            zi = np.linalg.inv(Z)
            xfz = X @ fj @ zi
            S = np.einsum("imn,jmn->ij", fj, xfz)
            base = np.einsum("jmn,mn->j", fj, X @ Rd @ zi) + rp

            def direction(K):
                # HKM: dX = K - X dZ Z^-1 with dZ = sum_j dy_j F_j + Rd
                rhs = np.einsum("jmn,mn->j", fj, K) - base
                dy = np.linalg.lstsq(S, rhs, rcond=None)[0]
                dZ = np.tensordot(dy, fj, 1) + Rd
                dX = K - X @ dZ @ zi
                dX = 0.5 * (dX + dX.T)
                return dX, dy, dZ, _max_step(X, dX), _max_step(Z, dZ)

            mu = np.sum(X * Z) / m
            dX, dy, dZ, ap, ad = direction(-X)         # predictor
            ap, ad = min(1.0, ap), min(1.0, ad)
            sigma = min(1.0, (np.sum((X + ap * dX) * (Z + ad * dZ))
                              / (m * mu)) ** 3)
            dX, dy, dZ, ap, ad = direction(              # corrector
                (sigma * mu * np.eye(m) - dX @ dZ) @ zi - X)
        except np.linalg.LinAlgError:
            return "iteration-cap", y, it
        tau = 0.9 + 0.09 * min(ap, ad, 1.0)
        ap, ad = min(1.0, tau * ap), min(1.0, tau * ad)
        X = X + ap * dX
        y = y + ad * dy
        Z = Z + ad * dZ
    return "iteration-cap", y, _IPM_MAXITER


def _center(F, rho: float, lam: float, theta):
    """Minimize f(theta) = rho ||theta||^2 - log det(F_0 + sum_i theta_i F_i
    + lam F_{n+1}) by Newton steps with a backtracking line search (Boyd
    and Vandenberghe, Convex Optimization, 2004, 9.5) from a strictly
    feasible theta.  Returns (theta, steps), theta None if a step leaves
    the domain or the cap is hit."""
    base = F[0] + lam * F[-1]
    fi = F[1:-1]
    eye = np.eye(len(fi))

    def factor(th):
        try:
            c = np.linalg.cholesky(base + np.tensordot(th, fi, 1))
        except np.linalg.LinAlgError:
            return None, np.inf
        return c, rho * (th @ th) - 2.0 * np.sum(np.log(np.diag(c)))

    c, f = factor(theta)
    for step in range(_NEWTON_MAXITER):
        if c is None:
            return None, step
        li = np.linalg.inv(c)
        w = li @ fi @ li.T
        grad = 2.0 * rho * theta - np.einsum("imm->i", w)
        hess = 2.0 * rho * eye + np.einsum("imn,jmn->ij", w, w)
        d_theta = -np.linalg.lstsq(hess, grad, rcond=None)[0]
        dec2 = max(-grad @ d_theta, 0.0)     # squared Newton decrement
        if dec2 <= _NEWTON_TOL ** 2:
            # within the Dikin ellipsoid: the full step stays feasible
            return theta + d_theta, step + 1
        t = 1.0
        c_new, f_new = factor(theta + d_theta)
        # full steps once the decrement is below 1/4, where they are safe
        # and rounding in f can hide their decrease
        while dec2 >= 0.0625 and f_new > f - 0.25 * t * dec2:
            t *= 0.5
            if t < 1e-12:
                return None, step + 1
            c_new, f_new = factor(theta + t * d_theta)
        theta, c, f = theta + t * d_theta, c_new, f_new
    return None, _NEWTON_MAXITER


def solve_fixed_p(problem: LmiProblem) -> dict:
    """Minimize lam subject to M(K_u, lam) + feas_tol I >= 0 and pick a gain.

    Returns {outcome, iterations, theta, lam, min_eig}.  ``outcome`` is
    "certified" when lam < 1 and min_eig, the smallest eigenvalue of the
    full block matrix at (theta, lam), is >= -feas_tol; "infeasible" when
    the solver's lower bound shows no lam < 1 can be certified or the
    chosen gain fails that check; "iteration-cap" when the solver gives
    no verdict.  ``iterations`` counts interior-point iterations plus
    centering Newton steps.  theta, lam and min_eig are None unless the
    centering step produced a gain.
    """
    F = _sdp_terms(problem)
    shift = 0.1 * DEFAULT_LAM_TOL
    outcome, y, iterations = _interior_point(F, shift)
    sol = {"outcome": outcome, "iterations": iterations,
           "theta": None, "lam": None, "min_eig": None}
    if outcome != "optimal":
        return sol
    lam = float(y[-1] + shift)
    theta, steps = _center(F, 0.0, lam, y[:-1]) if lam < 1.0 else (None, 0)
    if theta is not None and theta.any():
        # the analytic center sets the scale of the gain penalty
        theta, more = _center(F, 1.0 / (theta @ theta), lam, theta)
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
        problem = LmiProblem(
            P=P, K_xx=model.K_xx, K_xu=model.K_xu, H=pair.H,
            d_S=pair.d_S, d_u=model.input_dim, d_psi_u=pair.d_psi_u,
        )
        sol = solve_fixed_p(problem)
        certified = sol["outcome"] == "certified"
        diagnostics["iterations"] += sol["iterations"]
        diagnostics["candidates"].append({
            "tag": "sampled" if n_sampled else "identity-start",
            "feasible": certified,
            "lam": sol["lam"] if certified else None,
            "min_eig": sol["min_eig"] if certified else None,
            "iterations": sol["iterations"], "outcome": sol["outcome"],
        })
        if certified:
            diagnostics.update(resample_count=n_sampled,
                               min_eig=sol["min_eig"])
            return SynthesisResult(
                K_u=problem.gain(sol["theta"]), lam=float(sol["lam"]), P=P,
                S_x=S_x, status="optimal", diagnostics=diagnostics)
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
