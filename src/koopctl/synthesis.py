"""Feedback-gain synthesis through the Lyapunov linear matrix inequality.

For a fixed PSD candidate P the constraint

    M(K_u, lam) = [[P, P Ktilde], [Ktilde^T P, lam P]] >= 0,  lam in [0, 1]

is affine in (K_u, lam) because Ktilde = K_xx + K_xu (I kron K_u) H is
affine in K_u.  The default solver bisects on lam (absolute tolerance
1e-3).  Each lam it visits is first offered to a dual bound: by the
Schur complement of M + e I on its block P + e I, min eig M >= -e holds
exactly when sigma_max(F_lam(K_u)) <= 1, where F_lam is affine in K_u
(see ``_DualBound``).  Any Y orthogonal to the gain directions of F_lam
bounds sigma_max below for every gain at once; Y comes from a smoothed
minimizer of sigma_max^2 warm-started from the previous lam.  When the
bound exceeds 1 the lam is infeasible and bisection moves on.  Only a
lam the bound cannot rule out gets the ascent: maximize the smallest
eigenvalue of M over K_u, a concave problem solved on a smoothed
(softmin) surrogate with L-BFGS under an annealed smoothing schedule,
restarted from a fixed set of deterministic gains (zero, a least-squares
cancellation of the lifted couplings entering the decoded state rows,
and a least-squares deadbeat gain).  The bound only skips ascents that
would fail, so bisection visits the same lam and returns the same gain
as without it.

Candidate P matrices follow the decoder-restricted recipe: the first is
A_dec^T I A_dec, later ones A_dec^T (R^T R + eps_p I) A_dec with R
resampled uniformly from [-1, 1].  Such P have rank d_x, so M carries
rows that are structurally zero for every K_u; the inner solver deflates
them, while the reported certificate is always the smallest eigenvalue
of the full block matrix.

Another solver can be substituted by passing a callable as ``backend``;
it takes (problem, lam_tol, feas_tol) and returns what ``solve_fixed_p``
returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .edmd import BilinearKoopmanModel
from .factorization import FactorizationPair
from .tensor import matrix_from_json, matrix_to_json, symmetrize

DEFAULT_FEAS_TOL = 1e-8   # smallest-eigenvalue floor for a certified LMI
DEFAULT_LAM_TOL = 1e-3    # absolute bisection tolerance on lam
_MU_LADDER = (1e-2, 1e-4, 1e-6, 1e-9)  # smoothing schedule, scaled by ||P||
_DUAL_MU = 1e-4        # dual-bound smoothing, relative to sigma_max^2
_DUAL_REL_TOL = 1e-6   # rounding allowance in the dual-bound guards


def lyapunov_residual(A, P, lam: float) -> np.ndarray:
    """lam P - A^T P A; PSD iff the rate-lam Lyapunov inequality holds."""
    A = np.asarray(A, dtype=float)
    P = symmetrize(P)
    return symmetrize(lam * P - A.T @ P @ A)


def energy_norm(S_x: np.ndarray, x) -> float:
    """sqrt(x^T S_x x), the energy norm whose decay rate is certified."""
    x = np.asarray(x, dtype=float)
    return float(np.sqrt(x @ S_x @ x))


@dataclass(frozen=True)
class LyapunovCandidate:
    P: np.ndarray      # (d_psi, d_psi) equal to A_dec^T S_x A_dec
    S_x: np.ndarray    # (d_x, d_x) positive definite generator block
    tag: str           # "identity-start" or "sampled"


def _restrict(S_x: np.ndarray, d_psi: int) -> np.ndarray:
    d_x = S_x.shape[0]
    P = np.zeros((d_psi, d_psi))
    P[:d_x, :d_x] = S_x
    return P


def identity_candidate(d_x: int, d_psi: int) -> LyapunovCandidate:
    S_x = np.eye(d_x)
    return LyapunovCandidate(P=_restrict(S_x, d_psi), S_x=S_x,
                             tag="identity-start")


def sample_candidate(d_x: int, d_psi: int, eps_p: float,
                     rng: np.random.Generator) -> LyapunovCandidate:
    """S_x = R^T R + eps_p I with R ~ U([-1, 1]^{d_x x d_x})."""
    if eps_p <= 0:
        raise ValueError("eps_p must be positive")
    R = rng.uniform(-1.0, 1.0, size=(d_x, d_x))
    S_x = R.T @ R + eps_p * np.eye(d_x)
    return LyapunovCandidate(P=_restrict(S_x, d_psi), S_x=S_x, tag="sampled")


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
    ridge_delta: float = 0.0

    def __post_init__(self):
        d_psi = self.K_xx.shape[0]
        if self.K_xu.shape != (d_psi, self.d_S * self.d_u):
            raise ValueError(
                f"K_xu shape {self.K_xu.shape} does not match "
                f"(d_psi, d_S * d_u) = {(d_psi, self.d_S * self.d_u)}"
            )
        if self.H.shape != (self.d_S * self.d_psi_u, d_psi):
            raise ValueError(
                f"H shape {self.H.shape} does not match "
                f"{(self.d_S * self.d_psi_u, d_psi)}"
            )
        self.P = symmetrize(self.P)
        if self.ridge_delta:
            self.P = self.P + self.ridge_delta * np.eye(d_psi)
        # coefficient tensor: Ktilde(K_u) = K_xx + sum_ab K_u[a,b] T[a,b]
        kxu3 = self.K_xu.reshape(d_psi, self.d_S, self.d_u)
        h3 = self.H.reshape(self.d_S, self.d_psi_u, d_psi)
        self.T = np.einsum("psa,sbq->abpq", kxu3, h3)
        # first-block rows with an exactly zero P row stay zero for every
        # K_u and are deflated inside the inner solver
        self._keep1 = np.nonzero(np.any(self.P != 0.0, axis=1))[0]
        self._Pk = self.P[self._keep1, :]
        self._scale = max(1.0, float(np.linalg.norm(self.P, 2)))

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

    def softmin_neg(self, lam: float, mu: float):
        """(value, gradient) callable minimizing the negative softmin eig."""
        k1 = self._keep1
        n1 = k1.size
        p11 = self.P[np.ix_(k1, k1)]
        lam_p = lam * self.P
        pk = self._Pk

        def fun(theta):
            kt = self.ktilde(self.gain(theta))
            off = pk @ kt                        # (n1, d_psi)
            m = np.block([[p11, off], [off.T, lam_p]])
            e, v = np.linalg.eigh(0.5 * (m + m.T))
            e0 = e[0]
            w = np.exp(-(e - e0) / mu)
            total = float(np.sum(w))
            val = e0 - mu * math.log(total)
            w = w / total
            w12 = (v[:n1] * w) @ v[n1:].T        # (n1, d_psi)
            grad = 2.0 * np.einsum("abmq,mq->ab", self.T, pk.T @ w12)
            return -val, -grad.ravel()

        return fun


def _deterministic_starts(problem: LmiProblem) -> list:
    """Fixed restart gains: zero, coupling-cancelling, deadbeat."""
    starts = [np.zeros(problem.n_vars)]
    rows = problem._keep1
    cols = np.setdiff1d(np.arange(problem.d_psi), rows)

    def lstsq_start(r, c):
        a = problem.T[:, :, r][:, :, :, c].reshape(problem.n_vars, -1).T
        b = -problem.K_xx[np.ix_(r, c)].ravel()
        theta, *_ = np.linalg.lstsq(a, b, rcond=None)
        return theta

    if cols.size and rows.size:
        starts.append(lstsq_start(rows, cols))
    starts.append(lstsq_start(np.arange(problem.d_psi),
                              np.arange(problem.d_psi)))
    return starts


class _DualBound:
    """Proves a lam infeasible for every gain, or declines to.

    With e = 2 feas_tol and P = U diag(p) U^T, M + e I is PSD exactly when
    its Schur complement on the positive definite block P + e I is, i.e.
    when sigma_max(F_lam) <= 1 for

        F_lam(theta) = diag(p / sqrt(p + e)) U^T Ktilde(theta) U
                       diag(1 / sqrt(lam p + e)),

    which is affine in theta: F_0 + sum_i theta_i F_i.  For any Y with
    <F_i, Y> = 0 for all i, sigma_max(F_lam(theta)) >= |<F_0, Y>| /
    ||Y||_nuc for every theta.  When that exceeds 1, every gain has an
    eigenvalue below -2 feas_tol, a full feas_tol under the floor the
    ascent tests, so no ascent can certify lam.  Rows of F with p at
    rounding level are dropped, which can only lower sigma_max.
    """

    def __init__(self, problem: LmiProblem, feas_tol: float):
        self._eps = 2.0 * feas_tol
        p, u = np.linalg.eigh(problem.P)
        rows = p > np.finfo(float).eps * p.max()
        self._p = p
        self._a = p[rows] / np.sqrt(p[rows] + self._eps)
        ur = u[:, rows]
        t = problem.T.reshape(problem.n_vars, problem.d_psi, problem.d_psi)
        self._g0 = ur.T @ problem.K_xx @ u
        self._g = ur.T @ t @ u                 # (n_vars, rank, d_psi)
        self._theta = None

    def rules_out(self, lam: float) -> bool:
        r = self._a.size
        scale = self._a[:, None] / np.sqrt(lam * self._p + self._eps)
        f0 = (self._g0 * scale).ravel()
        basis = (self._g * scale).reshape(len(self._g), -1)
        theta = self._theta
        if theta is None:
            theta = np.linalg.lstsq(basis.T, -f0, rcond=None)[0]
        mu = _DUAL_MU * np.linalg.norm((f0 + theta @ basis).reshape(r, -1),
                                       2) ** 2
        if mu == 0.0:  # F vanishes at this gain, so lam is feasible
            return False

        def smoothed(theta):
            """Softmax (width mu) of the eigenvalues of F F^T, its gradient,
            Y = V diag(w) V^T F with w the softmax weights, and
            sigma_max^2."""
            f = (f0 + theta @ basis).reshape(r, -1)
            s, v = np.linalg.eigh(f @ f.T)
            w = np.exp((s - s[-1]) / mu)
            y = ((v * (w / w.sum())) @ v.T @ f).ravel()
            return s[-1] + mu * math.log(w.sum()), 2.0 * basis @ y, y, s[-1]

        theta = scipy.optimize.minimize(lambda t: smoothed(t)[:2], theta,
                                        jac=True, method="L-BFGS-B").x
        self._theta = theta
        y, s_max = smoothed(theta)[2:]
        q = np.linalg.qr(basis.T)[0]
        y_perp = y - q @ (q.T @ y)
        # a Y the gain directions nearly span is rounding noise
        if np.linalg.norm(y_perp) <= _DUAL_REL_TOL * np.linalg.norm(y):
            return False
        nuc = np.linalg.svd(y_perp.reshape(r, -1), compute_uv=False).sum()
        bound = abs(f0 @ y_perp) / nuc
        # a valid lower bound never exceeds sigma_max at a gain
        sigma = math.sqrt(max(s_max, 0.0))
        return 1.0 < bound <= sigma * (1.0 + _DUAL_REL_TOL)


def _ascend_min_eig(problem: LmiProblem, lam: float, starts,
                    feas_tol: float, maxiter: int):
    """Maximize the smallest eigenvalue of M(., lam); first-order, annealed.

    Returns (theta, min_eig_of_full_M, iterations).  Stops early once the
    certificate clears the feasibility floor with margin.
    """
    best_theta, best_me = None, -np.inf
    nit = 0
    target = -0.25 * feas_tol
    for theta0 in starts:
        theta = np.asarray(theta0, dtype=float).copy()
        for mu in _MU_LADDER:
            res = scipy.optimize.minimize(
                problem.softmin_neg(lam, mu * problem._scale), theta,
                jac=True, method="L-BFGS-B",
                options={"maxiter": maxiter, "ftol": 1e-18, "gtol": 1e-14},
            )
            theta = res.x
            nit += int(res.nit)
            me = problem.min_eig(theta, lam)
            if me > best_me:
                best_me, best_theta = me, theta.copy()
            if best_me >= target:
                return best_theta, best_me, nit
    return best_theta, best_me, nit


def solve_fixed_p(problem: LmiProblem, lam_tol: float = DEFAULT_LAM_TOL,
                  feas_tol: float = DEFAULT_FEAS_TOL,
                  backend="bisection", maxiter: int = 300,
                  counts: dict = None):
    """Minimize lam subject to M(K_u, lam) >= 0 and lam in [0, 1).

    Returns a dict {theta, lam, min_eig, iterations} or None when no
    lam < 1 admits a certified gain for this P (a marginal certificate at
    lam = 1 does not count; the outer resampling loop treats it as a
    failed candidate).  Any returned solution certifies
    min_eig(M(K_u, lam)) >= -feas_tol.  The bisection solver also fills
    ``counts``, when given, with its ascent ``iterations`` and the number
    of lam steps ``settled_by_bound`` and ``settled_by_ascent``, whether
    or not a solution is found.
    """
    if callable(backend):
        return backend(problem, lam_tol, feas_tol)
    if backend != "bisection":
        raise ValueError(f"unknown backend {backend!r}")
    return _solve_bisection(problem, lam_tol, feas_tol, maxiter,
                            {} if counts is None else counts)


def _solve_bisection(problem, lam_tol, feas_tol, maxiter, counts):
    starts = _deterministic_starts(problem)
    bound = _DualBound(problem, feas_tol)
    counts.update(iterations=0, settled_by_bound=0, settled_by_ascent=0)

    def certify(lam, first):
        """(theta, min_eig) certified at lam, or None when lam fails."""
        if bound.rules_out(lam):
            counts["settled_by_bound"] += 1
            return None
        theta, me, nit = _ascend_min_eig(problem, lam, first + starts,
                                         feas_tol, maxiter)
        counts["iterations"] += nit
        counts["settled_by_ascent"] += 1
        return (theta, me) if me >= -feas_tol else None

    sol = certify(1.0, [])
    if sol is None:
        return None
    theta_hi, hi = sol[0], 1.0
    # monotone feasibility in lam justifies bisection: growing lam adds
    # the PSD block diag(0, (lam2 - lam1) P) to M
    sol = certify(0.0, [theta_hi])
    if sol is not None:
        return {"theta": sol[0], "lam": 0.0, "min_eig": sol[1],
                "iterations": counts["iterations"]}
    lo = 0.0
    while hi - lo > lam_tol:
        mid = 0.5 * (lo + hi)
        sol = certify(mid, [theta_hi])
        if sol is None:
            lo = mid
        else:
            hi, theta_hi = mid, sol[0]
    if hi >= 1.0:  # only the lam = 1 endpoint certified: no decay shown
        return None
    return {"theta": theta_hi, "lam": hi,
            "min_eig": problem.min_eig(theta_hi, hi),
            "iterations": counts["iterations"]}


@dataclass
class SynthesisResult:
    K_u: np.ndarray
    lam: float
    P: np.ndarray
    S_x: np.ndarray
    status: str                       # optimal | infeasible | max-resamples-exceeded
    diagnostics: dict = field(default_factory=dict)


def synthesize(model: BilinearKoopmanModel, pair: FactorizationPair,
               eps_p: float = 1e-2, max_resamples: int = 50, seed: int = 0,
               lam_tol: float = DEFAULT_LAM_TOL,
               feas_tol: float = DEFAULT_FEAS_TOL,
               ridge_delta: float = 0.0, backend="bisection",
               rate_budget: int = 0, inner_maxiter: int = 300,
               rng: np.random.Generator = None) -> SynthesisResult:
    """Iterate Lyapunov candidates until the LMI program is solved.

    The identity-start candidate is tried first, then up to
    ``max_resamples`` sampled ones.  By default the first success
    returns immediately; with ``rate_budget > 0`` the search keeps going
    for up to that many further certified solutions and the smallest
    lam* wins.  Results follow deterministic candidate order, so the
    outcome does not depend on scheduling.
    """
    d_psi, d_x = model.lifted_dim, model.state_dim
    rng = np.random.default_rng(seed) if rng is None else rng
    candidate_log = []
    best = None
    budget_left = rate_budget
    n_sampled = 0
    total_iter = 0
    for idx in range(max_resamples + 1):
        if idx == 0:
            cand = identity_candidate(d_x, d_psi)
        else:
            cand = sample_candidate(d_x, d_psi, eps_p, rng)
            n_sampled += 1
        problem = LmiProblem(
            P=cand.P, K_xx=model.K_xx, K_xu=model.K_xu, H=pair.H,
            d_S=pair.d_S, d_u=model.input_dim, d_psi_u=pair.d_psi_u,
            ridge_delta=ridge_delta,
        )
        counts = {}
        sol = solve_fixed_p(problem, lam_tol=lam_tol, feas_tol=feas_tol,
                            backend=backend, maxiter=inner_maxiter,
                            counts=counts)
        candidate_log.append({
            "tag": cand.tag, "feasible": sol is not None,
            "lam": None if sol is None else sol["lam"],
            "min_eig": None if sol is None else sol["min_eig"],
            **counts,
        })
        if sol is not None:
            total_iter += sol["iterations"]
            result = SynthesisResult(
                K_u=problem.gain(sol["theta"]), lam=float(sol["lam"]),
                P=problem.P, S_x=cand.S_x, status="optimal",
                diagnostics={
                    "min_eig": sol["min_eig"], "iterations": total_iter,
                    "resample_count": n_sampled, "eps_p": eps_p,
                    "feas_tol": feas_tol, "lam_tol": lam_tol,
                    "ridge_delta": ridge_delta, "seed": seed,
                    "backend": backend if isinstance(backend, str) else "custom",
                    "candidates": candidate_log,
                },
            )
            if budget_left <= 0:
                return best if best is not None and best.lam <= result.lam \
                    else result
            if best is None or result.lam < best.lam:
                best = result
            budget_left -= 1
    if best is not None:
        return best
    status = "infeasible" if max_resamples == 0 else "max-resamples-exceeded"
    return SynthesisResult(
        K_u=np.zeros((model.input_dim, pair.d_psi_u)), lam=float("nan"),
        P=_restrict(np.eye(d_x), d_psi), S_x=np.eye(d_x), status=status,
        diagnostics={"resample_count": n_sampled, "iterations": total_iter,
                     "eps_p": eps_p, "feas_tol": feas_tol, "seed": seed,
                     "candidates": candidate_log},
    )


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


def result_from_json(d: dict) -> SynthesisResult:
    lam = d.get("lambda")
    return SynthesisResult(
        K_u=matrix_from_json(d["K_u"]), lam=float("nan") if lam is None else lam,
        P=matrix_from_json(d["P"]), S_x=matrix_from_json(d["S_x"]),
        status=d["status"], diagnostics=d.get("diagnostics", {}),
    )
