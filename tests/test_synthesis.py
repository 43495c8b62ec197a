import numpy as np
import pytest
import scipy.linalg

from koopctl import synthesis as syn
from koopctl.edmd import BilinearKoopmanModel
from koopctl.factorization import FactorizationPair, assemble_ktilde
from koopctl.tensor import min_eigenvalue


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
        assert min_eigenvalue(syn.lyapunov_residual(a, np.eye(2), 0.25)) >= -1e-12
        assert min_eigenvalue(syn.lyapunov_residual(a, np.eye(2), 0.2499)) < 0
        assert min_eigenvalue(syn.lyapunov_residual(a, np.eye(2), 0.3)) > 0

    def test_marginal_system_never_feasible_below_one(self):
        a = np.eye(3)
        for lam in (0.1, 0.5, 0.999):
            assert min_eigenvalue(syn.lyapunov_residual(a, np.eye(3), lam)) < 0

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
        np.testing.assert_allclose(syn.lyapunov_residual(a, p, lam), lam * q,
                                   atol=1e-8)
        # with a nearly tight P, rates visibly below rho^2 fail
        assert min_eigenvalue(syn.lyapunov_residual(a, p, rho2 * 0.5)) < 0


class TestCandidates:
    def test_identity_start_structure(self):
        cand = syn.identity_candidate(2, 9)
        assert cand.tag == "identity-start"
        np.testing.assert_array_equal(cand.P[:2, :2], np.eye(2))
        assert np.all(cand.P[2:, :] == 0) and np.all(cand.P[:, 2:] == 0)

    def test_sampled_rank_equals_state_dim(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            cand = syn.sample_candidate(3, 10, 1e-2, rng)
            assert np.linalg.matrix_rank(cand.P) == 3
            assert min_eigenvalue(cand.S_x) > 0

    def test_seeded_determinism(self):
        a = syn.sample_candidate(2, 5, 1e-2, np.random.default_rng(3))
        b = syn.sample_candidate(2, 5, 1e-2, np.random.default_rng(3))
        np.testing.assert_array_equal(a.P, b.P)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            syn.sample_candidate(2, 5, 0.0, np.random.default_rng(0))


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

    def test_softmin_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        prob = syn.LmiProblem(
            P=np.diag([1.0, 0.7, 0.0, 0.0]),
            K_xx=rng.standard_normal((4, 4)),
            K_xu=rng.standard_normal((4, 2)), H=rng.standard_normal((4, 4)),
            d_S=2, d_u=1, d_psi_u=2)
        fun = prob.softmin_neg(0.8, 0.05)
        theta = rng.standard_normal(2)
        f0, g = fun(theta)
        eps = 1e-6
        for i in range(2):
            step = np.zeros(2)
            step[i] = eps
            fp, _ = fun(theta + step)
            fm, _ = fun(theta - step)
            assert (fp - fm) / (2 * eps) == pytest.approx(g[i], rel=1e-4,
                                                          abs=1e-8)


class TestSolveFixedP:
    def test_scalar_toy_reaches_zero_rate(self):
        sol = syn.solve_fixed_p(scalar_problem())
        assert sol is not None
        assert sol["lam"] <= 1e-3
        assert sol["min_eig"] >= -1e-8
        np.testing.assert_allclose(sol["theta"], [-1.1], atol=1e-6)

    def test_zero_authority_unstable_is_infeasible(self):
        prob = syn.LmiProblem(P=np.eye(2), K_xx=np.diag([1.5, 0.2]),
                              K_xu=np.zeros((2, 1)), H=np.ones((1, 2)),
                              d_S=1, d_u=1, d_psi_u=1)
        assert syn.solve_fixed_p(prob) is None

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
        assert sol is not None
        assert sol["lam"] <= lam_s + 1e-3
        assert sol["min_eig"] >= -1e-8

    def test_bisection_tolerance(self):
        # lam* is exactly 0.25 for K_xx = 0.5 I with no useful input
        prob = syn.LmiProblem(P=np.eye(2), K_xx=0.5 * np.eye(2),
                              K_xu=np.zeros((2, 1)), H=np.ones((1, 2)),
                              d_S=1, d_u=1, d_psi_u=1)
        sol = syn.solve_fixed_p(prob, lam_tol=1e-3)
        assert 0.25 - 1e-12 <= sol["lam"] <= 0.25 + 1e-3

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            syn.solve_fixed_p(scalar_problem(), backend="simplex")

    def test_callable_backend_hook(self):
        calls = []

        def backend(problem, lam_tol, feas_tol):
            calls.append(problem)
            return {"theta": np.array([-1.1]), "lam": 0.5,
                    "min_eig": 0.0, "iterations": 1}

        sol = syn.solve_fixed_p(scalar_problem(), backend=backend)
        assert sol["lam"] == 0.5 and len(calls) == 1


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

    def test_result_json_round_trip(self):
        model = identity_lift_model(np.diag([0.5, 0.5]), np.zeros((2, 1)),
                                    d_s=1)
        pair = FactorizationPair(S=np.eye(2)[:1], H=np.eye(2),
                                 mask=np.array([1, 0]),
                                 residuals=np.zeros(2), eps_h=1e-9)
        result = syn.synthesize(model, pair, max_resamples=2, seed=0)
        back = syn.result_from_json(syn.result_to_json(result))
        np.testing.assert_array_equal(back.K_u, result.K_u)
        np.testing.assert_array_equal(back.P, result.P)
        assert back.status == result.status and back.lam == result.lam


class TestRateBudget:
    def test_budget_explores_for_a_better_rate(self):
        k_xx = np.array([[0.5, 0.3], [0.8, 1.2]])
        k_xu = np.array([[0.0], [1.0]])
        model = identity_lift_model(k_xx, k_xu, d_s=1)
        pair = FactorizationPair(S=np.eye(2)[:1], H=np.eye(2),
                                 mask=np.array([1, 0]),
                                 residuals=np.zeros(2), eps_h=1e-9)
        first = syn.synthesize(model, pair, max_resamples=10, seed=3)
        budget = syn.synthesize(model, pair, max_resamples=10, seed=3,
                                rate_budget=5)
        assert first.status == budget.status == "optimal"
        assert budget.lam <= first.lam + 1e-12


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
            resid = syn.lyapunov_residual(kt, result.P, result.lam)
            assert min_eigenvalue(resid) >= -1e-7


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
