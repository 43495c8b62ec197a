import dataclasses

import numpy as np
import pytest

from koopctl import plants
from koopctl.evaluation import feedback_controller
from koopctl.observables import double_pendulum_map, single_pendulum_map


def mechanical_energy(plant, x) -> np.ndarray:
    """Kinetic plus potential energy (upright datum) of the double pendulum."""
    p = plant.params
    th1, th2, w1, w2 = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    m1, m2, l1, l2, g = p["m1"], p["m2"], p["l1"], p["l2"], p["gravity"]
    ke = 0.5 * (m1 + m2) * l1 ** 2 * w1 ** 2 + 0.5 * m2 * l2 ** 2 * w2 ** 2 \
        + m2 * l1 * l2 * w1 * w2 * np.cos(th1 - th2)
    pe = (m1 + m2) * g * l1 * np.cos(th1) + m2 * g * l2 * np.cos(th2)
    return ke + pe


def scalar_decay_plant():
    """x' = -x with a passive input channel, for exact RK4 checks."""
    return plants.ControlAffinePlant(
        name="decay", state_dim=1, input_dim=1, rhs=lambda x, u: -x,
        input_bounds=np.array([[-1.0, 1.0]]),
    )


def replay(seq):
    """A feedback callable whose k-th call returns seq[k], whatever the state."""
    it = iter(np.asarray(seq, dtype=float))
    return lambda x: next(it)


def blowup_plant():
    """x' = x^3: every nonzero start leaves the floats in finite time."""
    return plants.ControlAffinePlant(
        name="blowup", state_dim=1, input_dim=1, rhs=lambda x, u: x ** 3,
        input_bounds=np.array([[-1.0, 1.0]]),
    )


class TestSinglePendulum:
    def setup_method(self):
        self.plant = plants.single_pendulum(m=1.0, L=1.0, b=0.3, gravity=9.81)

    def test_upright_equilibrium(self):
        np.testing.assert_allclose(self.plant.rhs(np.zeros(2), np.zeros(1)),
                                   np.zeros(2))

    def test_unforced_rhs_at_quarter_turn(self):
        # theta'' = (g/L) sin(pi/2) - (b/mL^2) * 0 = 9.81
        np.testing.assert_allclose(
            self.plant.rhs(np.array([np.pi / 2, 0.0]), np.zeros(1)),
            [0.0, 9.81])

    def test_constant_input_matrix(self):
        # g(x) = rhs(x, 1) - rhs(x, 0) for a control-affine plant
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.uniform(-5, 5, size=2)
            g = self.plant.rhs(x, np.ones(1)) - self.plant.rhs(x, np.zeros(1))
            np.testing.assert_allclose(g, [0.0, 1.0], atol=1e-12)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            plants.single_pendulum(m=0.0)
        with pytest.raises(ValueError):
            plants.single_pendulum(L=-1.0)

    @pytest.mark.parametrize("params, why", [
        ({"L": 1e-300}, r"m and L give m L\^2 = 0.0"),
        ({"m": 1e300, "L": 1e10}, r"m and L give m L\^2 = inf"),
        ({"m": 1e-300, "L": 1e-5}, "infinite coefficient"),  # 1 / (m L^2)
        ({"b": 1e308, "m": 0.5}, "infinite coefficient"),    # b / (m L^2)
    ])
    def test_rejects_zero_or_infinite_coefficients(self, params, why):
        with pytest.raises(ValueError, match=why):
            plants.single_pendulum(**params)

    def test_control_affinity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.uniform(-3, 3, size=2)
            u1, u2 = rng.uniform(-5, 5, size=(2, 1))
            a = rng.uniform()
            lhs = self.plant.rhs(x, a * u1 + (1 - a) * u2)
            rhs = a * self.plant.rhs(x, u1) + (1 - a) * self.plant.rhs(x, u2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestDoublePendulum:
    def setup_method(self):
        self.plant = plants.double_pendulum()

    def test_upright_equilibrium(self):
        np.testing.assert_allclose(self.plant.rhs(np.zeros(4), np.zeros(2)),
                                   np.zeros(4), atol=1e-15)

    def test_mass_matrix_convention(self):
        # regression oracle for the documented convention: at th_r = 0 and
        # unit parameters M = [[2, 1], [1, 1]], so M^{-1} = [[1, -1], [-1, 2]];
        # column j of g is rhs(0, e_j) since f(0) = 0
        g = np.stack([self.plant.rhs(np.zeros(4), e) for e in np.eye(2)],
                     axis=-1)
        np.testing.assert_allclose(g[2:, :], [[1.0, -1.0], [-1.0, 2.0]],
                                   atol=1e-14)

    def test_energy_conservation_scaling(self):
        # undamped, unforced: energy drift over 1 s scales like dt^4,
        # so dt = 0.01 -> 0.001 shrinks it by about 10^4
        x0 = np.array([0.4, -0.3, 0.5, 0.2])
        e0 = mechanical_energy(self.plant, x0)
        drifts = []
        for dt in (0.01, 0.001):
            traj = plants.rollout(self.plant, x0,
                                  lambda x: np.zeros(2), int(1.0 / dt), dt)
            e = mechanical_energy(self.plant, traj.states[-1])
            drifts.append(abs(e - e0))
        assert drifts[0] < 1e-6 * abs(e0)
        assert drifts[0] / drifts[1] > 1e3

    def test_control_affinity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.uniform(-3, 3, size=4)
            u1, u2 = rng.uniform(-5, 5, size=(2, 2))
            a = rng.uniform()
            lhs = self.plant.rhs(x, a * u1 + (1 - a) * u2)
            rhs = a * self.plant.rhs(x, u1) + (1 - a) * self.plant.rhs(x, u2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_torque_enters_through_inverse_mass(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, size=4)
        u = rng.uniform(-5, 5, size=2)
        th_r = x[0] - x[1]
        m = np.array([[2.0, np.cos(th_r)], [np.cos(th_r), 1.0]])
        qdd = self.plant.rhs(x, u)[2:] - self.plant.rhs(x, np.zeros(2))[2:]
        np.testing.assert_allclose(m @ qdd, u, atol=1e-12)

    @pytest.mark.parametrize("bound", [-1.0, 0.0, float("nan"),
                                       float("inf"), "5"])
    def test_rejects_bad_input_bound(self, bound):
        for make in (plants.single_pendulum, plants.double_pendulum):
            with pytest.raises(ValueError, match="input_bound must be a "
                               "positive number"):
                make(input_bound=bound)

    def test_rejects_singular_mass_matrix(self):
        # m1 = 1e-17 rounds (m1 + m2) l1^2 m2 l2^2 - (m2 l1 l2)^2 to 0
        with pytest.raises(ValueError, match="singular mass matrix"):
            plants.double_pendulum(m1=1e-17)

    def test_tiny_accepted_m1_is_never_singular(self):
        plant = plants.double_pendulum(m1=1e-15)
        rng = np.random.default_rng(6)
        x = rng.uniform(-4, 4, size=(500, 4))
        x[:100, 1] = x[:100, 0]  # th_r = 0, where det is smallest
        x[100:200, 1] = x[100:200, 0] - np.pi
        u = rng.uniform(-5, 5, size=(500, 2))
        with np.errstate(all="raise"):
            assert_bitwise(plant.rhs(x, u), generic_rhs(plant, x, u))


def composition(plant):
    """f and g of either pendulum as two functions, in the operations
    their fused right-hand sides must reproduce bitwise."""
    p = plant.params
    if plant.name == "single_pendulum":
        inertia = p["m"] * p["L"] * p["L"]
        k_sin, k_om = p["gravity"] / p["L"], p["b"] / inertia

        def drift(x):
            th, om = x[..., 0], x[..., 1]
            return np.stack([om, k_sin * np.sin(th) - k_om * om], axis=-1)

        def input_matrix(x):
            g = np.zeros(x.shape[:-1] + (2, 1))
            g[..., 1, 0] = 1.0 / inertia
            return g

        return drift, input_matrix
    m1, m2, l1, l2 = p["m1"], p["m2"], p["l1"], p["l2"]
    (b1, b2), gravity = p["damping"], p["gravity"]
    a, c, k = (m1 + m2) * l1 * l1, m2 * l2 * l2, m2 * l1 * l2
    g1, g2 = (m1 + m2) * gravity * l1, m2 * gravity * l2

    def drift(x):
        th1, th2, w1, w2 = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
        th_r = th1 - th2
        bb = k * np.cos(th_r)
        det = a * c - bb * bb
        s_r = np.sin(th_r)
        r1 = 0.0 - k * s_r * w2 * w2 + g1 * np.sin(th1) - b1 * w1
        r2 = 0.0 + k * s_r * w1 * w1 + g2 * np.sin(th2) - b2 * w2
        acc1 = (c * r1 - bb * r2) / det
        acc2 = (a * r2 - bb * r1) / det
        return np.stack([w1, w2, acc1, acc2], axis=-1)

    def input_matrix(x):
        bb = k * np.cos(x[..., 0] - x[..., 1])
        det = a * c - bb * bb
        g = np.zeros(x.shape[:-1] + (4, 2))
        g[..., 2, 0] = c / det
        g[..., 2, 1] = -bb / det
        g[..., 3, 0] = -bb / det
        g[..., 3, 1] = a / det
        return g

    return drift, input_matrix


def generic_rhs(plant, x, u):
    """f(x) + g(x) u composed column by column in fixed order: the
    bitwise oracle for each pendulum's fused ``rhs``."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    drift, input_matrix = composition(plant)
    g = input_matrix(x)
    out = drift(x)
    for j in range(plant.input_dim):
        out = out + g[..., j] * u[..., j : j + 1]
    return out


def float_constant_rhs(plant):
    """Each pendulum's fused rhs as it stood with Python-float constants:
    the bitwise oracle for its 0-d float64 constants."""
    p = plant.params
    if plant.name == "single_pendulum":
        inertia = p["m"] * p["L"] * p["L"]
        k_sin, k_om, k_u = p["gravity"] / p["L"], p["b"] / inertia, \
            1.0 / inertia

        def rhs(x, u):
            th, om, u0 = x[..., 0], x[..., 1], u[..., 0]
            out = np.empty(x.shape)
            np.add(om, 0.0 * u0, out=out[..., 0])
            np.add(k_sin * np.sin(th) - k_om * om, k_u * u0, out=out[..., 1])
            return out

        return rhs
    m1, m2, l1, l2 = p["m1"], p["m2"], p["l1"], p["l2"]
    (b1, b2), gravity = p["damping"], p["gravity"]
    a, c, k = (m1 + m2) * l1 * l1, m2 * l2 * l2, m2 * l1 * l2
    g1, g2 = (m1 + m2) * gravity * l1, m2 * gravity * l2

    def rhs(x, u):
        th1, th2, w1, w2 = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
        th_r = th1 - th2
        bb = k * np.cos(th_r)
        det = a * c - bb * bb
        s_r = np.sin(th_r)
        r1 = 0.0 - k * s_r * w2 * w2 + g1 * np.sin(th1) - b1 * w1
        r2 = 0.0 + k * s_r * w1 * w1 + g2 * np.sin(th2) - b2 * w2
        acc1 = (c * r1 - bb * r2) / det
        acc2 = (a * r2 - bb * r1) / det
        u0, u1 = u[..., 0], u[..., 1]
        z0, z1 = 0.0 * u0, 0.0 * u1
        nb = -bb / det
        out = np.empty(x.shape)
        np.add(w1 + z0, z1, out=out[..., 0])
        np.add(w2 + z0, z1, out=out[..., 1])
        np.add(acc1 + c / det * u0, nb * u1, out=out[..., 2])
        np.add(acc2 + nb * u0, a / det * u1, out=out[..., 3])
        return out

    return rhs


def float_constant_rk4_step(plant, x, u, dt):
    """``rk4_step`` as it stood with Python-float constants."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    f = float_constant_rhs(plant)
    h = 0.5 * dt
    k1 = f(x, u)
    k2 = f(x + h * k1, u)
    k3 = f(x + h * k2, u)
    k4 = f(x + dt * k3, u)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def clip(plant, u):
    return np.clip(u, *plant.input_bounds.T)


def assert_bitwise(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestFusedRhsMatchesComposition:
    """Each pendulum's fused rhs against the composed f + g u."""

    @pytest.mark.parametrize("params", [
        {}, {"gravity": 1.0},
        {"m1": 2.0, "m2": 0.5, "l1": 1.3, "l2": 0.7, "damping": (0.1, 0.2)},
    ])
    @pytest.mark.parametrize("lead", [(), (1,), (60,), (2160,)])
    def test_bitwise(self, params, lead):
        plant = plants.double_pendulum(**params)
        rng = np.random.default_rng(sum(lead))
        x = rng.uniform(-4, 4, size=lead + (4,))
        u = rng.uniform(-8, 8, size=lead + (2,))  # beyond the +-5 bound
        # signed zeros in the velocities and inputs, inputs of both signs
        x[..., 2:].flat[::3] = 0.0
        x[..., 2:].flat[1::3] = -0.0
        u.flat[::4] = -0.0
        u.flat[1::4] = 0.0
        u = clip(plant, u)
        got = plant.rhs(x, u)
        want = generic_rhs(plant, x, u)
        assert got.shape == want.shape == lead + (4,)
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))

    def test_signed_zero_velocity_rows(self):
        # w + 0.0 u0 + 0.0 u1: a -0.0 velocity stays -0.0 only when both
        # inputs are negative or -0.0
        plant = plants.double_pendulum()
        x = np.array([[0.2, 0.1, -0.0, -0.0]] * 3)
        u = np.array([[-1.0, -0.0], [1.0, -1.0], [-0.0, 0.0]])
        got = plant.rhs(x, u)
        want = generic_rhs(plant, x, u)
        np.testing.assert_array_equal(np.signbit(got[:, :2]),
                                      [[True, True], [False, False],
                                       [False, False]])
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))

    @pytest.mark.parametrize("params", [{}, {"gravity": 1.0}, {"b": 0.0}])
    @pytest.mark.parametrize("lead", [(), (1,), (60,), (2160,)])
    def test_single_pendulum_bitwise(self, params, lead):
        plant = plants.single_pendulum(**params)
        rng = np.random.default_rng(sum(lead) + 1)
        x = rng.uniform(-4, 4, size=lead + (2,))
        u = rng.uniform(-8, 8, size=lead + (1,))  # beyond the +-5 bound
        x[..., 1].flat[::3] = 0.0
        x[..., 1].flat[1::3] = -0.0
        u.flat[::4] = -0.0
        u.flat[1::4] = 0.0
        u = clip(plant, u)
        got = plant.rhs(x, u)
        assert got.shape == lead + (2,)
        assert_bitwise(got, generic_rhs(plant, x, u))

    def test_single_pendulum_signed_zero_angle_rows(self):
        # w + 0.0 u0: a -0.0 velocity stays -0.0 only for u0 < 0 or -0.0
        plant = plants.single_pendulum(b=0.0)
        x = np.array([[0.2, -0.0]] * 4)
        u = np.array([[-1.0], [1.0], [-0.0], [0.0]])
        got = plant.rhs(x, u)
        np.testing.assert_array_equal(np.signbit(got[:, 0]),
                                      [True, False, True, False])
        assert_bitwise(got, generic_rhs(plant, x, u))

    @pytest.mark.parametrize("kind, params", [
        ("single", {}), ("single", {"gravity": 1.0}), ("single", {"b": 0.0}),
        ("double", {}), ("double", {"gravity": 1.0}),
        ("double", {"m1": 2.0, "m2": 0.5, "l1": 1.3, "l2": 0.7,
                    "damping": (0.1, 0.2)}),
    ])
    @pytest.mark.parametrize("lead", [(), (1,), (60,), (2160,)])
    def test_rk4_step_and_rollout_bitwise(self, kind, params, lead):
        plant = getattr(plants, f"{kind}_pendulum")(**params)
        oracle = dataclasses.replace(
            plant, rhs=lambda x, u: generic_rhs(plant, x, u))
        rng = np.random.default_rng(sum(lead) + 2)
        d_x, d_u = plant.state_dim, plant.input_dim
        x = rng.uniform(-4, 4, size=lead + (d_x,))
        x.flat[::7] = -0.0
        u = clip(plant, rng.uniform(-8, 8, size=lead + (d_u,)))
        assert_bitwise(plants.rk4_step(plant, x, u, 0.01),
                       plants.rk4_step(oracle, x, u, 0.01))
        K = rng.uniform(-3, 3, size=(d_u, d_x))
        got = plants.rollout(plant, x, lambda s: s @ K.T, 30, 0.01)
        want = plants.rollout(oracle, x, lambda s: s @ K.T, 30, 0.01)
        if not lead:
            got, want = [got], [want]
        for g, w in zip(got, want):
            assert g.diverged == w.diverged
            assert_bitwise(g.states, w.states)
            assert_bitwise(g.inputs, w.inputs)


class TestRK4:
    def test_scalar_decay_polynomial(self):
        # one RK4 step of x' = -x from 1 equals the degree-4 Taylor value
        plant = scalar_decay_plant()
        got = plants.rk4_step(plant, np.array([1.0]), np.array([0.0]), 0.1)
        h = 0.1
        want = 1 - h + h ** 2 / 2 - h ** 3 / 6 + h ** 4 / 24
        assert got[0] == pytest.approx(want, abs=1e-12)
        assert got[0] == pytest.approx(0.90483750, abs=1e-8)

    def test_equilibrium_fixed_point(self):
        plant = plants.single_pendulum()
        out = plants.rk4_step(plant, np.zeros(2), np.zeros(1), 0.01)
        np.testing.assert_allclose(out, np.zeros(2), atol=1e-16)

    def test_convergence_order(self):
        plant = plants.single_pendulum()
        x0 = np.array([0.5, 0.0])
        u = np.zeros(1)

        def endpoint(dt):
            x = x0.copy()
            for _ in range(int(round(1.0 / dt))):
                x = plants.rk4_step(plant, x, u, dt)
            return x

        ref = endpoint(1e-4)
        errs = [np.linalg.norm(endpoint(dt) - ref) for dt in (0.02, 0.01)]
        order = np.log2(errs[0] / errs[1])
        assert 3.7 <= order <= 4.3

    def test_batch_matches_single_bitwise(self):
        plant = plants.double_pendulum()
        rng = np.random.default_rng(4)
        xs = rng.uniform(-2, 2, size=(16, 4))
        us = rng.uniform(-5, 5, size=(16, 2))
        batch = plants.rk4_step(plant, xs, us, 0.01)
        for i in range(16):
            single = plants.rk4_step(plant, xs[i], us[i], 0.01)
            np.testing.assert_array_equal(batch[i], single)

    @pytest.mark.parametrize("kind, params", [
        ("single", {}), ("single", {"b": 0.0}), ("double", {}),
        ("double", {"m1": 2.0, "m2": 0.5, "l1": 1.3, "l2": 0.7,
                    "damping": (0.1, 0.2)}),
    ])
    @pytest.mark.parametrize("lead", [(), (60,)])
    @pytest.mark.parametrize("shared_u", [False, True],
                             ids=["row-inputs", "one-input"])
    def test_matches_float_constant_step_bitwise(self, kind, params, lead,
                                                 shared_u):
        plant = getattr(plants, f"{kind}_pendulum")(**params)
        rng = np.random.default_rng(len(lead) + 3 * shared_u)
        x = rng.uniform(-4, 4, size=lead + (plant.state_dim,))
        u = rng.uniform(-5, 5, size=(() if shared_u else lead)
                        + (plant.input_dim,))
        # signed zeros, NaN and states whose products overflow
        edges = [0.0, -0.0, np.nan, 1e300, -1e300, 0.0, -0.0]
        for k, v in enumerate(edges):
            x.flat[k::9] = v
        u.flat[::3] = -0.0
        with np.errstate(all="ignore"):
            assert_bitwise(plant.rhs(x, u),
                           float_constant_rhs(plant)(x, u))
            for dt in (0.01, 0.05):
                assert_bitwise(plants.rk4_step(plant, x, u, dt),
                               float_constant_rk4_step(plant, x, u, dt))

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            plants.rk4_step(scalar_decay_plant(), np.array([1.0]),
                            np.array([0.0]), 0.0)


class TestRollout:
    def test_origin_stays_at_origin(self):
        plant = plants.single_pendulum()
        traj = plants.rollout(plant, np.zeros(2),
                              lambda x: np.zeros(1), 50, 0.01)
        np.testing.assert_allclose(traj.states, 0.0, atol=1e-16)
        assert not traj.diverged

    def test_upright_is_unstable(self):
        plant = plants.single_pendulum()
        traj = plants.rollout(plant, np.array([0.1, 0.0]),
                              lambda x: np.zeros(1), 20, 0.01)
        assert traj.states[-1, 0] > 0.1

    def test_snapshot_counts(self):
        plant = plants.single_pendulum()
        traj = plants.rollout(plant, np.array([0.2, 0.0]),
                              lambda x: np.zeros(1), 100, 0.01)
        assert traj.states.shape == (101, 2) and traj.inputs.shape == (100, 1)

    def test_input_sequence_and_clipping(self):
        plant = plants.single_pendulum()
        seq = np.full((10, 1), 100.0)  # way beyond the +-5 bound
        traj = plants.rollout(plant, np.zeros(2), replay(seq), 10, 0.01)
        assert np.max(traj.inputs) == 5.0

    def test_replay_determinism(self):
        plant = plants.double_pendulum()
        rng = np.random.default_rng(5)
        K = rng.uniform(-1, 1, size=(2, 4))
        traj = plants.rollout(plant, rng.uniform(-1, 1, size=4),
                              lambda x: K @ x, 50, 0.01)
        x, u = traj.states, traj.inputs
        for k in range(50):
            np.testing.assert_array_equal(
                plants.rk4_step(plant, x[k], u[k], 0.01), x[k + 1])

    def test_divergence_flagged(self):
        with np.errstate(over="ignore", invalid="ignore"):
            traj = plants.rollout(blowup_plant(), np.array([5.0]),
                                  lambda x: np.zeros(1), 200, 0.5)
        assert traj.diverged
        assert traj.states.shape[0] < 201

    def test_mixed_batch_truncates_only_the_diverging_row(self):
        plant = blowup_plant()
        x0s = np.array([[0.0], [0.1], [0.5], [-0.05]])

        def control(x):  # state-dependent, so parked rows would show
            return np.sin(x)

        with np.errstate(over="ignore", invalid="ignore"):
            batch = plants.rollout(plant, x0s, control, 60, 0.5)
            singles = [plants.rollout(plant, x0, control, 60, 0.5)
                       for x0 in x0s]
            # the diverging row: the first step whose update is non-finite
            x, first_bad = x0s[2], None
            for k in range(60):
                x = plants.rk4_step(plant, x, np.sin(x), 0.5)
                if not np.all(np.isfinite(x)):
                    first_bad = k
                    break
        assert [t.diverged for t in batch] == [False, False, True, False]
        assert first_bad > 0
        assert batch[2].states.shape == (first_bad + 1, 1)
        assert batch[2].inputs.shape == (first_bad, 1)
        for got, alone in zip(batch, singles):
            assert got.diverged == alone.diverged
            np.testing.assert_array_equal(got.states, alone.states)
            np.testing.assert_array_equal(got.inputs, alone.inputs)

    def test_batch_with_input_sequence(self):
        plant = plants.single_pendulum()
        seq = np.linspace(-8.0, 8.0, 30).reshape(30, 1)
        x0s = np.array([[0.1, 0.0], [-0.4, 1.0]])
        batch = plants.rollout(plant, x0s, replay(seq), 30, 0.01)
        for got, x0 in zip(batch, x0s):
            alone = plants.rollout(plant, x0, replay(seq), 30, 0.01)
            np.testing.assert_array_equal(got.states, alone.states)
            np.testing.assert_array_equal(got.inputs, np.clip(seq, -5, 5))



def reference_rollout(plant, x0, controller, T, dt):
    """The rollout loop as it stood before the lean step: broadcast and
    clip every input, and test every row for finiteness at every step."""
    x = np.asarray(x0, dtype=float).copy()
    lead = x.shape[:-1]
    d_u = plant.input_dim
    states = np.zeros(lead + (T + 1, plant.state_dim))
    inputs = np.zeros(lead + (T, d_u))
    states[..., 0, :] = x
    n_ok = np.full(lead, T)
    for k in range(T):
        u = controller(x)
        u = clip(plant, np.broadcast_to(u, lead + (d_u,)))
        x = plants.rk4_step(plant, x, u, dt)
        bad = ~np.all(np.isfinite(x), axis=-1)
        if np.any(bad):
            n_ok[bad & (n_ok == T)] = k
            if np.all(n_ok < T):
                break
            x[bad] = 0.0
        inputs[..., k, :] = u
        states[..., k + 1, :] = x
    return [plants.Trajectory(states=xs[: n + 1], inputs=us[:n], dt=dt,
                              diverged=bool(n < T))
            for xs, us, n in zip(states.reshape(-1, T + 1, plant.state_dim),
                                 inputs.reshape(-1, T, d_u), n_ok.ravel())]


def held_plant(bounds):
    """x' = 0 with a passive input channel: states never move, so the
    recorded inputs and the finiteness test are all that can differ."""
    return plants.ControlAffinePlant(
        name="held", state_dim=2, input_dim=1,
        rhs=lambda x, u: 0.0 * x + 0.0 * u,
        input_bounds=np.array([bounds]),
    )


class TestRolloutMatchesReference:
    """The lean rollout loop against the loop it replaced, bitwise."""

    def check(self, plant, x0, controller, T, dt):
        """``controller`` is a feedback callable, or a (T, d_u) input
        sequence that each of the two rollouts replays from its start."""
        control = (lambda: controller) if callable(controller) else \
            (lambda: replay(controller))
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_rollout(plant, x0, control(), T, dt)
        got = plants.rollout(plant, x0, control(), T, dt)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.diverged == w.diverged
            assert_bitwise(g.states, w.states)
            assert_bitwise(g.inputs, w.inputs)
        return got

    @pytest.mark.parametrize("plant, lift", [
        (plants.single_pendulum(gravity=1.0), single_pendulum_map()),
        (plants.double_pendulum(gravity=1.0), double_pendulum_map()),
    ], ids=["single", "double"])
    def test_evaluation_batch_with_unforced_twins(self, plant, lift):
        rng = np.random.default_rng(11)
        n = 7
        x0 = rng.uniform(-2, 2, size=(n, plant.state_dim))
        K_u = rng.uniform(-4, 4, size=(plant.input_dim, lift.dim))
        feedback = feedback_controller(lift, K_u)

        def control(x):  # rows [:n] closed loop, rows [n:] their u = 0 twins
            u = np.zeros(x.shape[:-1] + (plant.input_dim,))
            u[:n] = feedback(x[:n])
            return u

        got = self.check(plant, np.concatenate([x0, x0]), control, 300, 0.01)
        inputs = np.stack([t.inputs for t in got[:n]])
        assert np.any(np.abs(inputs) == 5.0)  # some inputs saturate
        assert np.any(np.abs(inputs) < 5.0)

    def test_fixed_sequence_on_a_batch(self):
        plant = plants.single_pendulum()
        seq = np.linspace(-8.0, 8.0, 40).reshape(40, 1)
        seq[::5] = -0.0
        seq[1::5] = 0.0
        x0 = np.array([[0.1, -0.0], [-0.4, 1.0], [0.0, 0.0]])
        self.check(plant, x0, seq, 40, 0.01)

    def test_rows_leave_to_both_infinities_in_one_step(self):
        # x' = x^3 from +-0.5 reaches +inf and -inf at the same step
        x0 = np.array([[0.5], [-0.5], [0.0], [0.05]])
        got = self.check(blowup_plant(), x0, lambda x: np.sin(x), 30, 0.5)
        assert [t.diverged for t in got] == [True, True, False, False]
        assert len(got[0].inputs) == len(got[1].inputs) > 0
        # and when every row diverges the loop stops early
        got = self.check(blowup_plant(), x0[:2], lambda x: np.sin(x), 30, 0.5)
        assert [t.diverged for t in got] == [True, True]

    def test_finite_rows_near_the_float_limit_are_kept(self):
        # any row sum, or the batch sum, overflows; no entry does.  The
        # last row's NaN sits in its second entry only and diverges at
        # step 0, so the per-row test runs beside the large rows
        x0 = np.array([[1.7e308, 1.7e308], [-1.7e308, 1.0],
                       [1.7e308, -1.7e308], [0.0, np.nan]])
        got = self.check(held_plant([-1.0, 1.0]), x0,
                         lambda x: x[..., :1] * 1e-308, 20, 0.01)
        assert [t.diverged for t in got] == [False, False, False, True]
        np.testing.assert_array_equal(got[0].states[-1], x0[0])

    @pytest.mark.parametrize("bounds", [[-0.0, 0.0], [0.0, 1.0], [-1.0, -0.0],
                                        [-1.0, 1.0]])
    def test_clip_keeps_signed_zeros_and_nans(self, bounds):
        seq = np.array([[0.0], [-0.0], [2.0], [-2.0], [0.5], [-0.5],
                        [np.inf], [-np.inf], [0.0], [np.nan]])
        got = self.check(held_plant(bounds), np.zeros((2, 2)), seq, 10, 0.01)
        want = clip(held_plant(bounds), seq)
        for traj in got:  # a NaN input passes the clip: 0 * NaN diverges
            assert traj.diverged and len(traj.inputs) == 9
            assert_bitwise(traj.inputs, want[:9])
