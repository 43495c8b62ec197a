import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koopctl import babbling, edmd, plants
from koopctl import synthesis as syn
from koopctl.edmd import BilinearKoopmanModel
from koopctl.factorization import FactorizationPair, assemble_ktilde, fit_pair
from koopctl.observables import double_pendulum_map, single_pendulum_map
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


def unpruned_bisection(problem, lam_tol, feas_tol, maxiter, counts=None,
                       log=None):
    """Reference: the bisection with an ascent at every lam it visits and
    no dual bound.  Appends (lam, min_eig) of each ascent to ``log``;
    takes ``counts`` only to stand in for ``syn._solve_bisection``."""
    log = [] if log is None else log
    starts = syn._deterministic_starts(problem)

    def ascend(lam, first):
        theta, me, nit = syn._ascend_min_eig(problem, lam, first + starts,
                                             feas_tol, maxiter)
        log.append((lam, me))
        return theta, me, nit

    theta, me, nit = ascend(1.0, [])
    if me < -feas_tol:
        return None
    theta_hi, hi = theta, 1.0
    theta0, me0, n0 = ascend(0.0, [theta_hi])
    nit += n0
    if me0 >= -feas_tol:
        return {"theta": theta0, "lam": 0.0, "min_eig": me0,
                "iterations": nit}
    lo = 0.0
    while hi - lo > lam_tol:
        mid = 0.5 * (lo + hi)
        t, me_mid, n = ascend(mid, [theta_hi])
        nit += n
        if me_mid >= -feas_tol:
            hi, theta_hi = mid, t
        else:
            lo = mid
    if hi >= 1.0:
        return None
    return {"theta": theta_hi, "lam": hi,
            "min_eig": problem.min_eig(theta_hi, hi), "iterations": nit}


def controllable_model_pair():
    k_xx = np.array([[0.5, 0.3], [0.8, 1.2]])
    k_xu = np.array([[0.0], [1.0]])
    model = identity_lift_model(k_xx, k_xu, d_s=1)
    pair = FactorizationPair(S=np.eye(2)[:1], H=np.eye(2),
                             mask=np.array([1, 0]),
                             residuals=np.zeros(2), eps_h=1e-9)
    return model, pair


def smoke_pendulum(kind):
    """(model, pair) from a small babbling run of the benchmark protocols."""
    if kind == "single":
        plant = plants.single_pendulum(m=1.0, L=1.0, b=0.3, gravity=1.0)
        lift = single_pendulum_map()
        cfg = babbling.BabblingConfig(
            num_gains=4, num_initial_conditions=4, steps=50, dt=0.01,
            state_grid=((-np.pi, np.pi), (-6.0, 6.0)), seed=0)
    else:
        plant = plants.double_pendulum(m1=1.0, m2=1.0, l1=1.0, l2=1.0,
                                       gravity=1.0)
        lift = double_pendulum_map()
        cfg = babbling.BabblingConfig(
            num_gains=2, num_initial_conditions=108, steps=100, dt=0.01,
            state_grid=((-np.pi, np.pi), (-np.pi, np.pi), (-2.0, 2.0),
                        (-2.0, 2.0)), seed=0)
    ds = babbling.generate_dataset(plant, lift, lift, cfg)
    pair = fit_pair(ds, lift, lift)
    return edmd.identify_model(ds, lift, pair.S), pair


@pytest.fixture(scope="module")
def model_pairs():
    pairs = {kind: smoke_pendulum(kind) for kind in ("single", "double")}
    pairs["controllable"] = controllable_model_pair()
    return pairs


def candidate_problem(model, pair, sampled):
    d_x, d_psi = model.state_dim, model.lifted_dim
    cand = syn.sample_candidate(d_x, d_psi, 1e-2, np.random.default_rng(0)) \
        if sampled else syn.identity_candidate(d_x, d_psi)
    return syn.LmiProblem(P=cand.P, K_xx=model.K_xx, K_xu=model.K_xu,
                          H=pair.H, d_S=pair.d_S, d_u=model.input_dim,
                          d_psi_u=pair.d_psi_u)


TOY_PROBLEMS = {
    "scalar": scalar_problem,
    "zero-authority": lambda: syn.LmiProblem(
        P=np.eye(2), K_xx=np.diag([1.5, 0.2]), K_xu=np.zeros((2, 1)),
        H=np.ones((1, 2)), d_S=1, d_u=1, d_psi_u=1),
    "no-input-quarter-rate": lambda: syn.LmiProblem(
        P=np.eye(2), K_xx=0.5 * np.eye(2), K_xu=np.zeros((2, 1)),
        H=np.ones((1, 2)), d_S=1, d_u=1, d_psi_u=1),
    "ridge": lambda: syn.LmiProblem(
        P=np.diag([1.0, 0.0]), K_xx=np.array([[0.5, 0.3], [0.8, 1.2]]),
        K_xu=np.array([[0.0], [1.0]]), H=np.eye(2), d_S=1, d_u=1,
        d_psi_u=2, ridge_delta=1e-3),
}


class TestBoundMatchesUnprunedBisection:
    """The dual bound may only skip ascents that fail, so every solve must
    equal the unpruned bisection bit for bit."""

    def check(self, problem, monkeypatch, expect_pruning=False):
        settled = []
        rules_out = syn._DualBound.rules_out

        def spy(bound, lam):
            out = rules_out(bound, lam)
            if out:
                settled.append(lam)
            return out

        log = []
        want = unpruned_bisection(problem, syn.DEFAULT_LAM_TOL,
                                  syn.DEFAULT_FEAS_TOL, 300, log=log)
        counts = {}
        with monkeypatch.context() as m:
            m.setattr(syn._DualBound, "rules_out", spy)
            got = syn.solve_fixed_p(problem, counts=counts)
        if want is None:
            assert got is None
        else:
            for key in ("theta", "lam", "min_eig"):
                np.testing.assert_array_equal(got[key], want[key], key)
        # each settled lam is one the reference visited with the same
        # starts and failed to certify
        failed = {lam for lam, me in log if me < -syn.DEFAULT_FEAS_TOL}
        assert set(settled) <= failed
        assert counts["settled_by_bound"] == len(settled)
        assert counts["settled_by_bound"] + counts["settled_by_ascent"] \
            == len(log)
        if expect_pruning:
            assert settled
        return counts

    @pytest.mark.parametrize("name", sorted(TOY_PROBLEMS))
    def test_toy_solve_fixed_p(self, name, monkeypatch):
        self.check(TOY_PROBLEMS[name](), monkeypatch)

    @pytest.mark.parametrize("kind", ["single", "double", "controllable"])
    @pytest.mark.parametrize("sampled", [False, True],
                             ids=["identity", "sampled"])
    def test_candidate_solve_fixed_p(self, kind, sampled, model_pairs,
                                     monkeypatch):
        problem = candidate_problem(*model_pairs[kind], sampled)
        self.check(problem, monkeypatch, expect_pruning=kind != "controllable")

    @pytest.mark.parametrize("kind", ["single", "double", "controllable"])
    def test_synthesize(self, kind, model_pairs, monkeypatch):
        model, pair = model_pairs[kind]
        got = syn.synthesize(model, pair, max_resamples=20, seed=0)
        with monkeypatch.context() as m:
            m.setattr(syn, "_solve_bisection", unpruned_bisection)
            want = syn.synthesize(model, pair, max_resamples=20, seed=0)
        assert got.status == want.status == "optimal"
        for key in ("K_u", "lam", "P", "S_x"):
            np.testing.assert_array_equal(getattr(got, key),
                                          getattr(want, key), key)
        assert got.diagnostics["min_eig"] == want.diagnostics["min_eig"]
        assert got.diagnostics["iterations"] \
            <= want.diagnostics["iterations"]


@st.composite
def small_problems(draw):
    """Random small LmiProblems: a PSD P of any rank, optional ridge."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d_psi = draw(st.integers(1, 4))
    d_s, d_u, d_pu = (draw(st.integers(1, 2)) for _ in range(3))
    root = rng.standard_normal((draw(st.integers(1, d_psi)), d_psi))
    return syn.LmiProblem(
        P=root.T @ root,
        K_xx=draw(st.sampled_from([0.5, 1.0, 2.0]))
        * rng.standard_normal((d_psi, d_psi)),
        K_xu=draw(st.sampled_from([0.0, 0.1, 1.0]))
        * rng.standard_normal((d_psi, d_s * d_u)),
        H=rng.standard_normal((d_s * d_pu, d_psi)), d_S=d_s, d_u=d_u,
        d_psi_u=d_pu, ridge_delta=draw(st.sampled_from([0.0, 1e-3])))


class TestDualBoundSoundness:
    @settings(max_examples=60, deadline=None)
    @given(problem=small_problems(), seed=st.integers(0, 2 ** 32 - 1))
    # the gain directions span all of F: no lam may ever be ruled out
    @example(problem=scalar_problem(), seed=0)
    @example(problem=syn.LmiProblem(
        P=np.diag([1.0, 0.0]), K_xx=np.array([[1.5, 0.7], [0.2, 0.9]]),
        K_xu=np.eye(2), H=np.eye(2), d_S=1, d_u=2, d_psi_u=2,
        ridge_delta=1e-3), seed=1)
    def test_settled_lam_has_no_certified_gain(self, problem, seed):
        feas_tol = syn.DEFAULT_FEAS_TOL
        rng = np.random.default_rng(seed)
        bound = syn._DualBound(problem, feas_tol)
        starts = syn._deterministic_starts(problem)
        for lam in (1.0, 0.0, 0.5, 0.9, 0.99):
            if not bound.rules_out(lam):
                continue
            thetas = starts + [bound._theta] + [
                scale * rng.standard_normal(problem.n_vars)
                for scale in (0.1, 1.0, 10.0) for _ in range(5)]
            for theta in thetas:
                assert problem.min_eig(theta, lam) < -feas_tol
            _, best, _ = syn._ascend_min_eig(problem, lam, starts,
                                             feas_tol, 300)
            assert best < -feas_tol

    def test_spanning_gain_directions_never_rule_out(self):
        # one gain entry moves the only entry of F: F = 0 is reachable
        bound = syn._DualBound(scalar_problem(), syn.DEFAULT_FEAS_TOL)
        assert not any(bound.rules_out(lam) for lam in (1.0, 0.0, 0.5))


class TestCandidateDiagnostics:
    def test_each_candidate_records_its_counts(self, model_pairs):
        model, pair = model_pairs["single"]
        result = syn.synthesize(model, pair, max_resamples=20, seed=0)
        again = syn.synthesize(model, pair, max_resamples=20, seed=0)
        cands = result.diagnostics["candidates"]
        assert cands == again.diagnostics["candidates"]
        assert len(cands) >= 2 and not cands[0]["feasible"]
        for c in cands:
            assert c["iterations"] >= 0
            steps = c["settled_by_bound"] + c["settled_by_ascent"]
            # lam = 1, lam = 0, then one step per halving down to lam_tol
            assert steps in (1, 2, 12)
        assert sum(c["iterations"] for c in cands if c["feasible"]) \
            == result.diagnostics["iterations"]
        assert sum(c["settled_by_bound"] for c in cands) > 0
