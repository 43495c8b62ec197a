import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koopctl import babbling, edmd, plants
from koopctl import evaluation as ev
from koopctl import synthesis as syn
from koopctl.edmd import BilinearKoopmanModel
from koopctl.factorization import FactorizationPair, assemble_ktilde, fit_pair
from koopctl.observables import double_pendulum_map, single_pendulum_map
from koopctl.tensor import symmetrize


def lyapunov_residual(A, P, lam: float) -> np.ndarray:
    """lam P - A^T P A; PSD iff the rate-lam Lyapunov inequality holds."""
    A = np.asarray(A, dtype=float)
    P = symmetrize(P)
    return symmetrize(lam * P - A.T @ P @ A)


def identity_lift_model(k_xx, k_xu, d_s=None):
    """Model whose lifted state is the plant state itself (psi = x)."""
    d = k_xx.shape[0]
    d_s = d if d_s is None else d_s
    desc = {"name": "identity", "state_dim": d, "features": []}
    s = np.eye(d)[:d_s]
    return BilinearKoopmanModel(K_xx=k_xx, K_xu=k_xu, S=s, map_descriptor=desc)


def scalar_problem(p=1.0, k_xx=1.1, k_xu=1.0, h=1.0):
    return syn.LmiProblem(P=np.array([[p]]), K_xx=np.array([[k_xx]]),
                          K_xu=np.array([[k_xu]]), H=np.array([[h]]),
                          d_S=1, d_u=1, d_psi_u=1)


class TestLyapunovResidual:
    def test_scalar_boundary(self):
        # A = 0.5 I, P = I: residual PSD iff lam >= 0.25
        a = 0.5 * np.eye(2)
        low = [np.linalg.eigvalsh(lyapunov_residual(a, np.eye(2), lam))[0]
               for lam in (0.25, 0.2499, 0.3)]
        assert low[0] >= -1e-12 and low[1] < 0 and low[2] > 0

    def test_marginal_system_never_feasible_below_one(self):
        a = np.eye(3)
        for lam in (0.1, 0.5, 0.999):
            resid = lyapunov_residual(a, np.eye(3), lam)
            assert np.linalg.eigvalsh(resid)[0] < 0

    def test_scaled_lyapunov_equation_certifies_rate(self):
        # P solving the lam-scaled discrete Lyapunov equation makes the
        # residual equal lam Q, PSD exactly at that lam
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        a *= 0.8 / np.max(np.abs(np.linalg.eigvals(a)))
        rho2 = np.max(np.abs(np.linalg.eigvals(a))) ** 2
        lam = rho2 * 1.05
        q = np.eye(4)
        p = scipy.linalg.solve_discrete_lyapunov(a.T / np.sqrt(lam), q)
        np.testing.assert_allclose(lyapunov_residual(a, p, lam), lam * q,
                                   atol=1e-8)
        # with a nearly tight P, rates visibly below rho^2 fail
        assert np.linalg.eigvalsh(lyapunov_residual(a, p, rho2 * 0.5))[0] < 0


class TestCandidates:
    def test_identity_start_structure(self, monkeypatch):
        # synthesize tries S_x = I first, so its first P is A_dec^T A_dec
        problems = []

        def record(problem):
            problems.append(problem)
            return {"outcome": "infeasible", "iterations": 0,
                    "theta": None, "lam": None, "min_eig": None}

        monkeypatch.setattr(syn, "solve_fixed_p", record)
        model = identity_lift_model(np.eye(9), np.zeros((9, 1)), d_s=1)
        model.map_descriptor["state_dim"] = 2
        pair = FactorizationPair(S=np.eye(9)[:1], H=np.ones((1, 9)),
                                 mask=np.eye(9, dtype=int)[0],
                                 residuals=np.zeros(9), eps_h=1e-9)
        result = syn.synthesize(model, pair, max_resamples=0)
        assert result.diagnostics["candidates"][0]["tag"] == "identity-start"
        P = problems[0].P
        np.testing.assert_array_equal(P[:2, :2], np.eye(2))
        assert np.all(P[2:, :] == 0) and np.all(P[:, 2:] == 0)

    def test_sampled_rank_equals_state_dim(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            S_x = syn.sample_candidate(3, rng)
            assert np.linalg.matrix_rank(syn._restrict(S_x, 10)) == 3
            assert np.linalg.eigvalsh(S_x)[0] > 0

    def test_seeded_determinism(self):
        a = syn.sample_candidate(2, np.random.default_rng(3))
        b = syn.sample_candidate(2, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_ridge_is_the_module_constant(self):
        S_x = syn.sample_candidate(2, np.random.default_rng(3))
        R = np.random.default_rng(3).uniform(-1.0, 1.0, size=(2, 2))
        np.testing.assert_array_equal(
            S_x, R.T @ R + syn.CANDIDATE_RIDGE * np.eye(2))


class TestLmiProblem:
    def test_ktilde_matches_direct_formula(self):
        rng = np.random.default_rng(4)
        d, d_s, d_u, d_pu = 5, 3, 2, 4
        prob = syn.LmiProblem(
            P=np.eye(d), K_xx=rng.standard_normal((d, d)),
            K_xu=rng.standard_normal((d, d_s * d_u)),
            H=rng.standard_normal((d_s * d_pu, d)),
            d_S=d_s, d_u=d_u, d_psi_u=d_pu)
        k_u = rng.standard_normal((d_u, d_pu))
        direct = prob.K_xx + prob.K_xu @ np.kron(np.eye(d_s), k_u) @ prob.H
        np.testing.assert_allclose(prob.ktilde(k_u), direct, atol=1e-12)

    def test_block_matrix_affine_in_gain(self):
        rng = np.random.default_rng(5)
        prob = syn.LmiProblem(
            P=np.diag([1.0, 2.0, 0.5]), K_xx=rng.standard_normal((3, 3)),
            K_xu=rng.standard_normal((3, 1)), H=rng.standard_normal((1, 3)),
            d_S=1, d_u=1, d_psi_u=1)
        k1 = rng.standard_normal((1, 1))
        k2 = rng.standard_normal((1, 1))
        a = rng.uniform()
        lam = 0.7
        mixed = prob.block_matrix(a * k1 + (1 - a) * k2, lam)
        combo = a * prob.block_matrix(k1, lam) \
            + (1 - a) * prob.block_matrix(k2, lam)
        np.testing.assert_allclose(mixed, combo, atol=1e-12)

    def test_monotone_feasibility_in_lambda(self):
        # adding (lam2 - lam1) P to the lower-right block can only raise
        # the smallest eigenvalue (Weyl)
        rng = np.random.default_rng(6)
        for _ in range(50):
            prob = syn.LmiProblem(
                P=np.eye(2), K_xx=rng.standard_normal((2, 2)),
                K_xu=rng.standard_normal((2, 1)),
                H=rng.standard_normal((1, 2)), d_S=1, d_u=1, d_psi_u=1)
            theta = rng.standard_normal(1)
            lam1, lam2 = sorted(rng.uniform(0, 1, size=2))
            assert prob.min_eig(theta, lam2) >= prob.min_eig(theta, lam1) - 1e-12


class TestSolveFixedP:
    def test_scalar_toy_reaches_zero_rate(self):
        # lam* = 0 at theta = -1.1; at lam_c = lam_tol / 10 the certified
        # gains are -1.1 +- sqrt(lam_c)
        sol = syn.solve_fixed_p(scalar_problem())
        assert sol["outcome"] == "certified"
        assert sol["lam"] <= 1e-3
        assert sol["min_eig"] >= -1e-8
        np.testing.assert_allclose(sol["theta"], [-1.1], atol=1e-2)

    def test_zero_authority_unstable_is_infeasible(self):
        prob = syn.LmiProblem(P=np.eye(2), K_xx=np.diag([1.5, 0.2]),
                              K_xu=np.zeros((2, 1)), H=np.ones((1, 2)),
                              d_S=1, d_u=1, d_psi_u=1)
        sol = syn.solve_fixed_p(prob)
        assert sol["outcome"] == "infeasible" and sol["theta"] is None

    def test_stable_open_loop_with_tight_p(self):
        # K_u = 0 admissible: lam* <= rho(K_xx)^2 + tol for the Lyapunov P
        rng = np.random.default_rng(8)
        k_xx = rng.standard_normal((3, 3))
        k_xx *= 0.6 / np.max(np.abs(np.linalg.eigvals(k_xx)))
        rho2 = 0.36
        lam_s = rho2 * 1.02
        p = scipy.linalg.solve_discrete_lyapunov(k_xx.T / np.sqrt(lam_s),
                                                 np.eye(3))
        prob = syn.LmiProblem(P=p, K_xx=k_xx, K_xu=np.zeros((3, 1)),
                              H=np.ones((1, 3)), d_S=1, d_u=1, d_psi_u=1)
        sol = syn.solve_fixed_p(prob)
        assert sol["outcome"] == "certified"
        assert sol["lam"] <= lam_s + 1e-3
        assert sol["min_eig"] >= -1e-8

    def test_bisection_tolerance(self):
        # lam* is exactly 0.25 for K_xx = 0.5 I with no useful input; the
        # reported lam lies within lam_tol above it
        prob = syn.LmiProblem(P=np.eye(2), K_xx=0.5 * np.eye(2),
                              K_xu=np.zeros((2, 1)), H=np.ones((1, 2)),
                              d_S=1, d_u=1, d_psi_u=1)
        sol = syn.solve_fixed_p(prob)
        assert sol["outcome"] == "certified"
        assert 0.25 - 1e-12 <= sol["lam"] <= 0.25 + syn.DEFAULT_LAM_TOL

    def test_iteration_cap_gives_no_verdict(self, monkeypatch):
        monkeypatch.setattr(syn, "_NEWTON_MAXITER", 2)
        sol = syn.solve_fixed_p(scalar_problem())
        assert sol["outcome"] == "iteration-cap"
        assert sol["iterations"] == 2 and sol["theta"] is None


class TestSynthesize:
    def test_stable_toy_succeeds_on_identity_candidate(self):
        # contractive K_xx with the state leading a 3-feature lift
        k_xx = np.diag([0.5, 0.4, 0.9])
        model = identity_lift_model(k_xx, np.zeros((3, 1)), d_s=1)
        model.map_descriptor["state_dim"] = 2
        pair = FactorizationPair(S=np.eye(3)[:1], H=np.ones((1, 3)),
                                 mask=np.array([1, 0, 0]),
                                 residuals=np.zeros(3), eps_h=1e-9)
        result = syn.synthesize(model, pair, max_resamples=3, seed=0)
        assert result.status == "optimal"
        assert result.lam < 1.0
        assert result.diagnostics["resample_count"] == 0
        assert result.diagnostics["candidates"][0]["tag"] == "identity-start"

    def test_zero_authority_exhausts_resamples(self):
        model = identity_lift_model(np.diag([1.4, 1.2]), np.zeros((2, 1)),
                                    d_s=1)
        pair = FactorizationPair(S=np.eye(2)[:1], H=np.ones((1, 2)),
                                 mask=np.array([1, 0]),
                                 residuals=np.zeros(2), eps_h=1e-9)
        result = syn.synthesize(model, pair, max_resamples=3, seed=0)
        assert result.status == "max-resamples-exceeded"
        assert result.diagnostics["resample_count"] == 3
        with pytest.raises(ValueError):
            syn.certified_rate(result)

    def test_infeasible_status_without_resamples(self):
        model = identity_lift_model(np.diag([1.4, 1.2]), np.zeros((2, 1)),
                                    d_s=1)
        pair = FactorizationPair(S=np.eye(2)[:1], H=np.ones((1, 2)),
                                 mask=np.array([1, 0]),
                                 residuals=np.zeros(2), eps_h=1e-9)
        result = syn.synthesize(model, pair, max_resamples=0, seed=0)
        assert result.status == "infeasible"

    def test_controllable_system_is_stabilized(self):
        # genuinely unstable (spectral radius 1.45) but the second row is
        # fully assignable through K_xu, so Ktilde = K_xx + [0; 1] K_u can
        # be made contractive; the LMI semantics only need (K_xu, H)
        k_xx = np.array([[0.5, 0.3], [0.8, 1.2]])
        k_xu = np.array([[0.0], [1.0]])
        model = identity_lift_model(k_xx, k_xu, d_s=1)
        pair = FactorizationPair(S=np.eye(2)[:1], H=np.eye(2),
                                 mask=np.array([1, 0]),
                                 residuals=np.zeros(2), eps_h=1e-9)
        assert np.max(np.abs(np.linalg.eigvals(k_xx))) > 1.0
        result = syn.synthesize(model, pair, max_resamples=10, seed=1)
        assert result.status == "optimal"
        kt = assemble_ktilde(model, result.K_u, pair.H).Ktilde
        assert np.max(np.abs(np.linalg.eigvals(kt))) < 1.0

    def test_certified_rate_value(self):
        model = identity_lift_model(np.diag([0.5, 0.5]), np.zeros((2, 1)),
                                    d_s=1)
        pair = FactorizationPair(S=np.eye(2)[:1], H=np.eye(2),
                                 mask=np.array([1, 0]),
                                 residuals=np.zeros(2), eps_h=1e-9)
        result = syn.synthesize(model, pair, max_resamples=2, seed=0)
        assert result.status == "optimal"
        assert syn.certified_rate(result) == pytest.approx(
            np.sqrt(result.lam))


class TestLyapunovImplication:
    def test_certified_solutions_satisfy_the_lyapunov_inequality(self):
        # M(K_u, lam) >= -tol implies lam P - Ktilde^T P Ktilde >= -O(tol)
        for seed in range(3):
            rng = np.random.default_rng(200 + seed)
            k_xx = np.array([[0.5, 0.3], [0.8, 1.2]]) \
                + 0.1 * rng.standard_normal((2, 2))
            k_xu = np.array([[0.0], [1.0]])
            model = identity_lift_model(k_xx, k_xu, d_s=1)
            pair = FactorizationPair(S=np.eye(2)[:1], H=np.eye(2),
                                     mask=np.array([1, 0]),
                                     residuals=np.zeros(2), eps_h=1e-9)
            result = syn.synthesize(model, pair, max_resamples=10, seed=seed)
            assert result.status == "optimal"
            kt = assemble_ktilde(model, result.K_u, pair.H).Ktilde
            resid = lyapunov_residual(kt, result.P, result.lam)
            assert np.linalg.eigvalsh(resid)[0] >= -1e-7


class TestCertificateSemantics:
    def test_lifted_rollout_respects_certified_envelope(self):
        # full-rank P via identity lifting: the energy norm of the decoded
        # state contracts at sqrt(lam*) per step
        rng = np.random.default_rng(9)
        k_xx = np.array([[0.6, 0.3], [0.9, 1.1]])
        k_xu = np.array([[0.0], [1.0]])
        model = identity_lift_model(k_xx, k_xu, d_s=1)
        pair = FactorizationPair(S=np.eye(2)[:1], H=np.eye(2),
                                 mask=np.array([1, 0]),
                                 residuals=np.zeros(2), eps_h=1e-9)
        result = syn.synthesize(model, pair, max_resamples=10, seed=2)
        assert result.status == "optimal"
        kt = assemble_ktilde(model, result.K_u, pair.H).Ktilde
        rate = syn.certified_rate(result)
        for _ in range(20):
            psi = rng.standard_normal(2)
            psi /= syn.energy_norm(result.S_x, psi)
            e0 = syn.energy_norm(result.S_x, psi)
            for k in range(1, 201):
                psi = kt @ psi
                bound = rate ** k * e0 * (1 + 1e-6)
                assert syn.energy_norm(result.S_x, psi) <= bound


MU_LADDER = (1e-2, 1e-4, 1e-6, 1e-9)


def softmin_neg(problem, keep, lam, mu):
    """(value, gradient) of minus the softmin (width mu) eigenvalue of M
    over theta, with the first-block rows outside ``keep`` deflated."""
    pk = problem.P[keep, :]
    p11 = problem.P[np.ix_(keep, keep)]
    n1 = keep.size

    def fun(theta):
        off = pk @ problem.ktilde(problem.gain(theta))
        e, v = np.linalg.eigh(np.block([[p11, off], [off.T, lam * problem.P]]))
        w = np.exp(-(e - e[0]) / mu)
        val = e[0] - mu * math.log(w.sum())
        w12 = (v[:n1] * (w / w.sum())) @ v[n1:].T
        grad = 2.0 * np.einsum("abmq,mq->ab", problem.T, pk.T @ w12)
        return -val, -grad.ravel()

    return fun


def reference_starts(problem):
    """The reference ascent's fixed starting gains: zero, and least-squares
    gains that cancel K_xx on the P-null columns and on all of it."""
    keep = np.nonzero(np.any(problem.P != 0.0, axis=1))[0]
    cols = np.setdiff1d(np.arange(problem.d_psi), keep)

    def lstsq_start(r, c):
        a = problem.T[:, :, r][:, :, :, c].reshape(problem.n_vars, -1).T
        return np.linalg.lstsq(a, -problem.K_xx[np.ix_(r, c)].ravel(),
                               rcond=None)[0]

    starts = [np.zeros(problem.n_vars)]
    if cols.size and keep.size:
        starts.append(lstsq_start(keep, cols))
    starts.append(lstsq_start(np.arange(problem.d_psi),
                              np.arange(problem.d_psi)))
    return starts


def reference_ascent(problem, lam, starts, feas_tol, maxiter=300):
    """(theta, min_eig) of the best gain an annealed L-BFGS ascent of the
    smallest eigenvalue of M at lam reaches from ``starts``."""
    keep = np.nonzero(np.any(problem.P != 0.0, axis=1))[0]
    scale = max(1.0, float(np.linalg.norm(problem.P, 2)))
    best_theta, best = None, -np.inf
    for theta in starts:
        for mu in MU_LADDER:
            theta = scipy.optimize.minimize(
                softmin_neg(problem, keep, lam, mu * scale), theta,
                jac=True, method="L-BFGS-B",
                options={"maxiter": maxiter, "ftol": 1e-18,
                         "gtol": 1e-14}).x
            me = problem.min_eig(theta, lam)
            if me > best:
                best, best_theta = me, theta.copy()
            if best >= -0.25 * feas_tol:
                return best_theta, best
    return best_theta, best


def reference_bisection(problem, lam_tol, feas_tol, maxiter=300):
    """Reference: bisection on lam with, at each lam, an annealed L-BFGS
    ascent of the smallest eigenvalue of M restarted from fixed gains.
    Returns (theta, lam) or None, as the solver before the SDP did."""
    starts = reference_starts(problem)

    def certify(lam, first):
        theta, best = reference_ascent(problem, lam, first + starts,
                                       feas_tol, maxiter)
        return theta if best >= -feas_tol else None

    theta_hi = certify(1.0, [])
    if theta_hi is None:
        return None
    theta = certify(0.0, [theta_hi])
    if theta is not None:
        return theta, 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > lam_tol:
        mid = 0.5 * (lo + hi)
        theta = certify(mid, [theta_hi])
        if theta is None:
            lo = mid
        else:
            hi, theta_hi = mid, theta
    return None if hi >= 1.0 else (theta_hi, hi)


def assert_no_worse_than_reference(problem):
    """Every certified gain passes the full-block check, lam is at most
    the reference's lam + lam_tol, and every problem the reference
    certifies at lam <= 1 - lam_tol is certified.  Returns the solve."""
    feas_tol, lam_tol = syn.DEFAULT_FEAS_TOL, syn.DEFAULT_LAM_TOL
    sol = syn.solve_fixed_p(problem)
    ref = reference_bisection(problem, lam_tol, feas_tol)
    assert sol["outcome"] in ("certified", "infeasible", "iteration-cap")
    if sol["outcome"] == "certified":
        assert sol["lam"] < 1.0
        assert problem.min_eig(sol["theta"], sol["lam"]) >= -feas_tol
        if ref is not None:
            assert sol["lam"] <= ref[1] + lam_tol
    if ref is not None and ref[1] <= 1.0 - lam_tol:
        assert sol["outcome"] == "certified"
    return sol


def random_problem(seed):
    """A random small LmiProblem: decoder-restricted P of rank 1..d_psi or
    a full-rank P, plus a ridge 0 or 1e-3 times I, input authority from
    none to full."""
    rng = np.random.default_rng(seed)
    d_psi = rng.integers(1, 5)
    r = rng.integers(1, d_psi + 1)
    d_s, d_u, d_pu = rng.integers(1, 3, size=3)
    root = rng.standard_normal((r, r))
    P = np.zeros((d_psi, d_psi))
    if rng.uniform() < 0.5:
        P[:r, :r] = root.T @ root + 1e-2 * np.eye(r)
    else:
        root = rng.standard_normal((d_psi, d_psi))
        P = root.T @ root + 1e-2 * np.eye(d_psi)
    K_xx = rng.choice([0.5, 1.0, 2.0]) * rng.standard_normal((d_psi, d_psi))
    K_xu = rng.choice([0.0, 0.1, 1.0]) \
        * rng.standard_normal((d_psi, d_s * d_u))
    H = rng.standard_normal((d_s * d_pu, d_psi))
    delta = rng.choice([0.0, 1e-3])
    return syn.LmiProblem(
        P=symmetrize(P) + delta * np.eye(d_psi), K_xx=K_xx, K_xu=K_xu, H=H,
        d_S=d_s, d_u=d_u, d_psi_u=d_pu)


class TestMatchesReferenceBisection:
    # derandomized: the one counterexample in 8,300 random problems is
    # pinned below as a known limitation instead of failing one run in
    # about two hundred
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @example(seed=256)   # no input authority: rejected along a Farkas ray
    @example(seed=346)   # primal residual settles at its rounding level
    def test_no_worse_than_reference(self, seed):
        assert_no_worse_than_reference(random_problem(seed))

    @pytest.mark.xfail(strict=True, reason=(
        "the reference certifies lam = 0 with a gain of norm 6.3e6; the "
        "barrier method, which has no primal residual, stops at lam "
        "0.0168 as the interior-point method did: its Newton Hessian "
        "reaches a condition number of 1e24 there, and the least-squares "
        "cutoff drops the direction towards that gain"))
    def test_optimum_needing_a_huge_gain(self):
        problem = random_problem(102302)
        ref = reference_bisection(problem, syn.DEFAULT_LAM_TOL,
                                  syn.DEFAULT_FEAS_TOL)
        assert ref[1] == 0.0 and np.linalg.norm(ref[0]) > 1e6
        sol = syn.solve_fixed_p(problem)
        assert sol["outcome"] == "certified"
        assert sol["lam"] <= ref[1] + syn.DEFAULT_LAM_TOL


class TestDeflation:
    def test_deflated_block_has_the_full_spectrum(self):
        # M + feas_tol I is the deflated block plus feas_tol on each
        # first-block row that is zero in P
        rng = np.random.default_rng(12)
        d_psi, d_x, feas_tol = 5, 2, syn.DEFAULT_FEAS_TOL
        root = rng.standard_normal((d_x, d_x))
        problem = syn.LmiProblem(
            P=syn._restrict(root.T @ root, d_psi),
            K_xx=rng.standard_normal((d_psi, d_psi)),
            K_xu=rng.standard_normal((d_psi, 2)),
            H=rng.standard_normal((4, d_psi)), d_S=2, d_u=1, d_psi_u=2)
        F = syn._sdp_terms(problem)
        theta, lam = rng.standard_normal(problem.n_vars), 0.7
        z = F[0] + np.tensordot(theta, F[1:-1], 1) + lam * F[-1]
        m = z.shape[0] - 2
        np.testing.assert_array_equal(np.diag(z)[m:], [lam, 1.0 - lam])
        assert not z[:m, m:].any() and not z[m:, :m].any()
        full = problem.block_matrix(problem.gain(theta), lam) \
            + feas_tol * np.eye(2 * d_psi)
        want = np.linalg.eigvalsh(full)
        got = np.sort(np.concatenate([np.linalg.eigvalsh(z[:m, :m]),
                                      np.full(d_psi - d_x, feas_tol)]))
        np.testing.assert_allclose(got, want, atol=1e-12)


def smoke_plant(kind):
    """(plant, lift) of the benchmark protocol ``kind``."""
    if kind == "single":
        return (plants.single_pendulum(m=1.0, L=1.0, b=0.3, gravity=1.0),
                single_pendulum_map())
    return (plants.double_pendulum(m1=1.0, m2=1.0, l1=1.0, l2=1.0,
                                   gravity=1.0),
            double_pendulum_map())


def smoke_pendulum(kind):
    """(model, pair) from a small babbling run of the benchmark protocols."""
    plant, lift = smoke_plant(kind)
    if kind == "single":
        cfg = babbling.BabblingConfig(
            num_gains=4, num_initial_conditions=4, steps=50, dt=0.01,
            state_grid=((-np.pi, np.pi), (-6.0, 6.0)), seed=0)
    else:
        cfg = babbling.BabblingConfig(
            num_gains=2, num_initial_conditions=108, steps=100, dt=0.01,
            state_grid=((-np.pi, np.pi), (-np.pi, np.pi), (-2.0, 2.0),
                        (-2.0, 2.0)), seed=0)
    ds = babbling.generate_dataset(plant, lift, lift, cfg)
    pair = fit_pair(ds, lift, lift)
    return edmd.identify_model(ds, lift, pair.S), pair


def controllable_model_pair():
    k_xx = np.array([[0.5, 0.3], [0.8, 1.2]])
    k_xu = np.array([[0.0], [1.0]])
    model = identity_lift_model(k_xx, k_xu, d_s=1)
    pair = FactorizationPair(S=np.eye(2)[:1], H=np.eye(2),
                             mask=np.array([1, 0]),
                             residuals=np.zeros(2), eps_h=1e-9)
    return model, pair


@pytest.fixture(scope="module")
def model_pairs():
    pairs = {kind: smoke_pendulum(kind) for kind in ("single", "double")}
    pairs["controllable"] = controllable_model_pair()
    return pairs


class TestWellPosedGain:
    @pytest.mark.parametrize("kind", ["single", "double"])
    def test_gain_barely_moves_when_h_moves_by_rounding(self, kind,
                                                        model_pairs):
        model, pair = model_pairs[kind]
        rng = np.random.default_rng(13)
        nudged = dataclasses.replace(
            pair, H=pair.H * (1.0 + 1e-14 * rng.uniform(-1, 1, pair.H.shape)))
        assert not np.array_equal(nudged.H, pair.H)
        a = syn.synthesize(model, pair, max_resamples=20, seed=0)
        b = syn.synthesize(model, nudged, max_resamples=20, seed=0)
        assert a.status == b.status == "optimal"
        assert abs(b.lam - a.lam) <= 1e-9
        assert np.linalg.norm(b.K_u - a.K_u) \
            <= 1e-6 * np.linalg.norm(a.K_u)


def candidate_problem(model, pair, sampled):
    d_x, d_psi = model.state_dim, model.lifted_dim
    S_x = syn.sample_candidate(d_x, np.random.default_rng(0)) \
        if sampled else np.eye(d_x)
    return syn.LmiProblem(P=syn._restrict(S_x, d_psi), K_xx=model.K_xx,
                          K_xu=model.K_xu, H=pair.H, d_S=pair.d_S,
                          d_u=model.input_dim, d_psi_u=pair.d_psi_u)


def spanning_ridge_problem():
    """Ktilde = K_xx + K_u with a full 2 x 2 gain: Ktilde = 0 is reachable,
    so lam* = 0 for every P."""
    return syn.LmiProblem(
        P=np.diag([1.0, 0.0]) + 1e-3 * np.eye(2),
        K_xx=np.array([[1.5, 0.7], [0.2, 0.9]]),
        K_xu=np.eye(2), H=np.eye(2), d_S=1, d_u=2, d_psi_u=2)


TOY_PROBLEMS = {
    "scalar": scalar_problem,
    "zero-authority": lambda: syn.LmiProblem(
        P=np.eye(2), K_xx=np.diag([1.5, 0.2]), K_xu=np.zeros((2, 1)),
        H=np.ones((1, 2)), d_S=1, d_u=1, d_psi_u=1),
    "no-input-quarter-rate": lambda: syn.LmiProblem(
        P=np.eye(2), K_xx=0.5 * np.eye(2), K_xu=np.zeros((2, 1)),
        H=np.ones((1, 2)), d_S=1, d_u=1, d_psi_u=1),
    "ridge": lambda: syn.LmiProblem(
        P=np.diag([1.0, 0.0]) + 1e-3 * np.eye(2),
        K_xx=np.array([[0.5, 0.3], [0.8, 1.2]]),
        K_xu=np.array([[0.0], [1.0]]), H=np.eye(2), d_S=1, d_u=1,
        d_psi_u=2),
}


def reference_solve(problem):
    """``solve_fixed_p`` with the reference bisection in place of the SDP."""
    ref = reference_bisection(problem, syn.DEFAULT_LAM_TOL,
                              syn.DEFAULT_FEAS_TOL)
    sol = {"outcome": "infeasible", "iterations": 0,
           "theta": None, "lam": None, "min_eig": None}
    if ref is not None:
        sol.update(outcome="certified", theta=ref[0], lam=ref[1],
                   min_eig=problem.min_eig(*ref))
    return sol


class TestBoundMatchesUnprunedBisection:
    """The SDP's lam matches the unpruned bisection: never worse than its
    lam + lam_tol, and every candidate it certifies at lam <= 1 - lam_tol
    is certified, on the toys and the smoke-size protocol candidates."""

    @pytest.mark.parametrize("name", sorted(TOY_PROBLEMS))
    def test_toy_solve_fixed_p(self, name):
        assert_no_worse_than_reference(TOY_PROBLEMS[name]())

    @pytest.mark.parametrize("kind", ["single", "double", "controllable"])
    @pytest.mark.parametrize("sampled", [False, True],
                             ids=["identity", "sampled"])
    def test_candidate_solve_fixed_p(self, kind, sampled, model_pairs):
        assert_no_worse_than_reference(
            candidate_problem(*model_pairs[kind], sampled))

    @pytest.mark.parametrize("kind", ["single", "double", "controllable"])
    def test_synthesize(self, kind, model_pairs, monkeypatch):
        model, pair = model_pairs[kind]
        got = syn.synthesize(model, pair, max_resamples=20, seed=0)
        with monkeypatch.context() as m:
            m.setattr(syn, "solve_fixed_p", reference_solve)
            want = syn.synthesize(model, pair, max_resamples=20, seed=0)
        assert got.status == want.status == "optimal"
        assert got.diagnostics["min_eig"] >= -syn.DEFAULT_FEAS_TOL
        n_got = len(got.diagnostics["candidates"])
        n_want = len(want.diagnostics["candidates"])
        if want.lam <= 1.0 - syn.DEFAULT_LAM_TOL:
            assert n_got <= n_want
        if n_got == n_want:
            # both runs draw the same candidates, so they end on one P
            np.testing.assert_array_equal(got.P, want.P)
            np.testing.assert_array_equal(got.S_x, want.S_x)
            assert got.lam <= want.lam + syn.DEFAULT_LAM_TOL


REFERENCE_SOLVES = json.loads(
    Path(__file__).with_name("solve_fixed_p_reference.json").read_text())


def recorded_problem(name, model_pairs):
    """The LmiProblem a row of ``solve_fixed_p_reference.json`` names."""
    group, _, rest = name.partition(":")
    if group == "toy":
        toys = {**TOY_PROBLEMS, "spanning-ridge": spanning_ridge_problem}
        return toys[rest]()
    if group == "candidate":
        kind, start = rest.split(":")
        return candidate_problem(*model_pairs[kind], start == "sampled")
    return random_problem(int(rest))


class TestMatchesInteriorPointSolver:
    """The barrier method against the primal-dual interior-point solver it
    replaced, whose outcome and lam on each problem are recorded in
    ``solve_fixed_p_reference.json``: the same outcome everywhere, and lam
    within 1e-9.  random_problem(3098791338) is a rejection whose phase I
    starts far from the central path."""

    @pytest.mark.parametrize("group", ["toy", "candidate", "random"])
    def test_same_outcome_and_lam(self, group, model_pairs):
        misses = []
        for row in REFERENCE_SOLVES["rows"]:
            if not row["problem"].startswith(group + ":"):
                continue
            sol = syn.solve_fixed_p(recorded_problem(row["problem"],
                                                     model_pairs))
            if sol["outcome"] != row["outcome"] or (
                    row["lam"] is not None
                    and not abs(sol["lam"] - row["lam"]) <= 1e-9):
                misses.append((row, sol["outcome"], sol["lam"]))
        assert not misses


def toy_synthesis(k_xx, k_xu, H, d_x=None, max_resamples=10, seed=0):
    """synthesize on an identity-lift toy whose one kept block is psi_0;
    ``d_x`` below the lifted dimension makes P rank deficient."""
    model = identity_lift_model(np.asarray(k_xx, dtype=float),
                                np.asarray(k_xu, dtype=float), d_s=1)
    d = len(model.K_xx)
    if d_x is not None:
        model.map_descriptor["state_dim"] = d_x
    pair = FactorizationPair(S=np.eye(d)[:1], H=np.asarray(H, dtype=float),
                             mask=np.eye(d, dtype=int)[0],
                             residuals=np.zeros(d), eps_h=1e-9)
    return syn.synthesize(model, pair, max_resamples=max_resamples,
                          seed=seed)


SYNTHESIS_TOYS = {
    "stable-rank-deficient": lambda: toy_synthesis(
        np.diag([0.5, 0.4, 0.9]), np.zeros((3, 1)), np.ones((1, 3)), d_x=2),
    **{f"controllable-seed{seed}": lambda seed=seed: toy_synthesis(
        [[0.5, 0.3], [0.8, 1.2]], [[0.0], [1.0]], np.eye(2), seed=seed)
       for seed in range(3)},
    "half-rate": lambda: toy_synthesis(
        np.diag([0.5, 0.5]), np.zeros((2, 1)), np.eye(2), max_resamples=2),
    "zero-authority-failed": lambda: toy_synthesis(
        np.diag([1.4, 1.2]), np.zeros((2, 1)), np.ones((1, 2)),
        max_resamples=3),
    "zero-authority-infeasible": lambda: toy_synthesis(
        np.diag([1.4, 1.2]), np.zeros((2, 1)), np.ones((1, 2)),
        max_resamples=0),
}


def assert_reads_back(result):
    """result.json's reader accepts what synthesize wrote, unchanged."""
    text = json.dumps(syn.result_to_json(result), sort_keys=True)
    back = syn.result_from_json(json.loads(text))
    for name in ("K_u", "P", "S_x"):
        np.testing.assert_array_equal(getattr(back, name),
                                      getattr(result, name))
    assert back.status == result.status
    assert back.lam == result.lam or (math.isnan(back.lam)
                                      and math.isnan(result.lam))


class TestResultReadsBack:
    """``result_from_json`` holds every result to the formation synthesize
    uses (S_x symmetric positive definite, P its padding), and accepts
    every result synthesize returns, failed ones included."""

    @pytest.mark.parametrize("name", sorted(SYNTHESIS_TOYS))
    def test_toy_results(self, name):
        assert_reads_back(SYNTHESIS_TOYS[name]())

    @pytest.mark.parametrize("kind", ["single", "double", "controllable"])
    def test_protocol_fixture_results(self, kind, model_pairs):
        result = syn.synthesize(*model_pairs[kind], max_resamples=20, seed=0)
        assert result.status == "optimal"
        assert_reads_back(result)
        # the candidate's own min eig is the certificate its reader forms
        assert syn.certificate(result, *model_pairs[kind]) \
            == result.diagnostics["min_eig"]

    @pytest.mark.parametrize("name", ["zero-authority-failed",
                                      "zero-authority-infeasible"])
    def test_failed_result_records_lam_tol(self, name):
        result = SYNTHESIS_TOYS[name]()
        assert result.status != "optimal"
        assert result.diagnostics["lam_tol"] == syn.DEFAULT_LAM_TOL
        assert "min_eig" not in result.diagnostics   # certified only
        text = json.dumps(syn.result_to_json(result), sort_keys=True)
        back = syn.result_from_json(json.loads(text))
        assert back.diagnostics == result.diagnostics

    @pytest.mark.parametrize("field, edit, message", [
        ("P", lambda P, S: P.__setitem__((0, 0), np.nextafter(P[0, 0], 2)),
         "P is not A_dec^T S_x A_dec"),
        ("P", lambda P, S: P.__setitem__((2, 2), 1e-300),
         "P is not A_dec^T S_x A_dec"),
        ("S_x", lambda P, S: S.__setitem__((0, 1), np.nextafter(S[0, 1], 2)),
         "S_x is not symmetric"),
        ("S_x", lambda P, S: S.__setitem__((1, 1), -1.0),
         "S_x is not positive definite"),
    ], ids=["P-one-ulp", "P-outside-the-decoder-block",
            "S_x-one-ulp-asymmetric", "S_x-indefinite"])
    def test_another_formation_is_rejected(self, field, edit, message):
        result = SYNTHESIS_TOYS["stable-rank-deficient"]()
        payload = syn.result_to_json(result)
        P = syn.matrix_from_json(payload["P"])
        S_x = syn.matrix_from_json(payload["S_x"])
        edit(P, S_x)
        if field == "S_x":   # keep P the padding of the edited S_x
            P = syn._restrict(S_x, len(P))
        payload.update(P=syn.matrix_to_json(P), S_x=syn.matrix_to_json(S_x))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            syn.result_from_json(payload)


class TestDualBoundSoundness:
    """A candidate the SDP rejects has no certified gain at any lam its
    lower bound ruled out (every lam <= 1 - lam_tol)."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(problem=st.integers(0, 2 ** 32 - 1).map(random_problem),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(problem=scalar_problem(), seed=0)
    @example(problem=spanning_ridge_problem(), seed=1)
    def test_settled_lam_has_no_certified_gain(self, problem, seed):
        feas_tol, lam_tol = syn.DEFAULT_FEAS_TOL, syn.DEFAULT_LAM_TOL
        if syn.solve_fixed_p(problem)["outcome"] != "infeasible":
            return
        rng = np.random.default_rng(seed)
        starts = reference_starts(problem)
        for lam in (0.0, 0.5, 0.9, 0.99, 1.0 - lam_tol):
            thetas = starts + [
                scale * rng.standard_normal(problem.n_vars)
                for scale in (0.1, 1.0, 10.0) for _ in range(5)]
            for theta in thetas:
                assert problem.min_eig(theta, lam) < -feas_tol
            _, best = reference_ascent(problem, lam, starts, feas_tol)
            assert best < -feas_tol

    def test_spanning_gain_directions_never_rule_out(self):
        # the gain directions span all of Ktilde: lam* = 0, never rejected
        for problem in (scalar_problem(), spanning_ridge_problem()):
            sol = syn.solve_fixed_p(problem)
            assert sol["outcome"] == "certified"
            assert sol["lam"] <= syn.DEFAULT_LAM_TOL


class TestCandidateDiagnostics:
    def test_each_candidate_records_its_counts(self, model_pairs):
        model, pair = model_pairs["double"]
        result = syn.synthesize(model, pair, max_resamples=20, seed=0)
        again = syn.synthesize(model, pair, max_resamples=20, seed=0)
        cands = result.diagnostics["candidates"]
        assert cands == again.diagnostics["candidates"]
        assert cands[0]["tag"] == "identity-start"
        assert cands[0]["outcome"] == "infeasible"
        assert cands[-1]["outcome"] == "certified"
        for c in cands:
            assert c["outcome"] in ("certified", "infeasible", "iteration-cap")
            assert c["feasible"] == (c["outcome"] == "certified")
            assert c["iterations"] > 0
        # rejected candidates' solver work counts too
        assert sum(c["iterations"] for c in cands) \
            == result.diagnostics["iterations"]


def three_operand_trace(result, psis, slack):
    """lyapunov_trace as it was, V from one unoptimized einsum."""
    v = np.einsum("ki,ij,kj->k", psis, result.P, psis)
    return v, float(np.mean(v[1:] <= result.lam * v[:-1] + slack))


class TestLyapunovTraceFormation:
    """V = (psi P) . psi against the three-operand einsum it replaced, on
    the closed loops of the protocol fixtures: V within rounding (the
    largest relative gap here measured 8.5e-16) and every decrease
    fraction the same."""

    @pytest.mark.parametrize("kind", ["single", "double"])
    def test_matches_three_operand_einsum(self, kind, model_pairs):
        model, pair = model_pairs[kind]
        result = syn.synthesize(model, pair, max_resamples=20, seed=0)
        assert result.status == "optimal"
        plant, lift = smoke_plant(kind)
        rng = np.random.default_rng(5)
        states = rng.uniform(-1.0, 1.0, (8, model.state_dim))
        report = ev.evaluate_closed_loop(plant, lift, result.K_u, states,
                                         3.0, 0.01, result=result)
        fractions = []
        for traj in report.controlled_trajs:
            assert not traj.diverged
            psis = lift(traj.states)
            slack = 1e-9 * max(1.0, float(np.max(psis ** 2)))
            got = ev.lyapunov_trace(result, psis, slack)
            v, fraction = three_operand_trace(result, psis, slack)
            assert np.all(v > 0)
            assert np.max(np.abs(got["V"] - v) / v) <= 1e-14
            assert got["decrease_fraction"] == fraction
            fractions.append(fraction)
        assert [r.lyap_decrease_fraction for r in report.records] \
            == fractions


def test_import_does_not_load_scipy():
    src = str(Path(syn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for module in ("koopctl", "koopctl.cli"):
        out = subprocess.run(
            [sys.executable, "-c",
             f"import sys, {module}; "
             "print(sorted(m for m in sys.modules"
             " if m.partition('.')[0] == 'scipy'))"],
            env=env, capture_output=True, text=True, check=True, timeout=120)
        assert out.stdout.strip() == "[]", module
