import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopctl import evaluation as ev
from koopctl import plants, synthesis as syn
from koopctl.edmd import BilinearKoopmanModel
from koopctl.factorization import FactorizationPair, assemble_ktilde
from koopctl.observables import (
    double_pendulum_map,
    polynomial_map,
    single_pendulum_map,
)


def stabilized_toy():
    """Identity-lift 2-state system with a synthesized certified gain."""
    k_xx = np.array([[0.5, 0.3], [0.8, 1.2]])
    k_xu = np.array([[0.0], [1.0]])
    model = BilinearKoopmanModel(
        K_xx=k_xx, K_xu=k_xu, S=np.eye(2)[:1],
        map_descriptor={"name": "identity", "state_dim": 2, "features": []})
    pair = FactorizationPair(S=np.eye(2)[:1], H=np.eye(2),
                             mask=np.array([1, 0]), residuals=np.zeros(2),
                             eps_h=1e-9)
    result = syn.synthesize(model, pair, max_resamples=10, seed=1)
    assert result.status == "optimal"
    return model, pair, result


def scalar_rollout(plant, x0, control, steps, dt):
    """One state stepped alone, the loop the batched engine replaced."""
    x = np.asarray(x0, dtype=float)
    states, inputs = [x], []
    for _ in range(steps):
        u = np.clip(np.atleast_1d(control(x)), *plant.input_bounds.T)
        x = plants.rk4_step(plant, x, u, dt)
        if not np.all(np.isfinite(x)):
            break
        states.append(x)
        inputs.append(u)
    return plants.Trajectory(
        states=np.array(states),
        inputs=np.array(inputs).reshape(-1, plant.input_dim), dt=dt,
        diverged=len(inputs) < steps)


def equivalence_case(name):
    """(plant, map, K, initial states, horizon) at small size."""
    if name == "single":
        K = np.zeros((1, 9))
        K[0, 0], K[0, 1], K[0, 5] = -2.0, -2.0, -1.0
        states = [[0.0, 0.0], [0.4, 0.0], [-0.6, 0.5], [1.5, -2.0],
                  [3.0, 8.0], [-2.5, -6.0]]
        return (plants.single_pendulum(gravity=1.0), single_pendulum_map(),
                K, states, 5.0)
    if name == "double":
        K = np.zeros((2, 14))
        K[0, 0], K[0, 2], K[1, 1], K[1, 3] = -8.0, -4.0, -8.0, -4.0
        states = [[0.1, -0.1, 0.0, 0.0], [0.3, 0.2, -0.5, 0.4],
                  [-np.pi / 2, np.pi / 2, 0.0, 0.0], [1.0, -1.0, 2.0, 2.0]]
        return (plants.double_pendulum(gravity=1.0), double_pendulum_map(),
                K, states, 3.0)
    blowup = plants.ControlAffinePlant(
        name="blowup", state_dim=1, input_dim=1, rhs=lambda x, u: x ** 3,
        input_bounds=np.array([[-1.0, 1.0]]),
    )
    return (blowup, polynomial_map("lin", (1,)), np.array([[-1.0]]),
            [[0.0], [0.5], [2.0]], 3.0)


class TestBatchedMatchesScalar:
    """The one-call batched rollouts against per-state scalar rollouts."""

    @pytest.mark.parametrize("name", ["single", "double", "blowup"])
    def test_evaluate_closed_loop(self, name, monkeypatch):
        plant, m, K, states, horizon = equivalence_case(name)
        dt = 0.01
        steps = int(round(horizon / dt))
        result = syn.SynthesisResult(K_u=K, lam=0.99, P=np.eye(m.dim),
                                     S_x=np.eye(m.dim), status="optimal")
        kwargs = dict(settle_tol=0.05, result=result, map_x=m)
        with np.errstate(over="ignore", invalid="ignore"):
            got = ev.evaluate_closed_loop(plant, m, K, states, horizon, dt,
                                          **kwargs)
            ref = [scalar_rollout(plant, x0, lambda x: K @ m(x), steps, dt)
                   for x0 in states]
            ref += [scalar_rollout(plant, x0,
                                   lambda x: np.zeros(plant.input_dim),
                                   steps, dt) for x0 in states]
        # score the scalar trajectories with the unchanged report code
        monkeypatch.setattr(ev, "rollout", lambda *args: ref)
        want = ev.evaluate_closed_loop(plant, m, K, states, horizon, dt,
                                       **kwargs)
        for a, b in zip(got.controlled_trajs + got.uncontrolled_trajs,
                        want.controlled_trajs + want.uncontrolled_trajs):
            np.testing.assert_array_equal(a.states, b.states)
            np.testing.assert_array_equal(a.inputs, b.inputs)
            assert a.diverged == b.diverged
        for a, b in zip(got.records, want.records):
            assert (a.converged, a.diverged, a.settling_time) \
                == (b.converged, b.diverged, b.settling_time)
        assert got.uncontrolled_final == want.uncontrolled_final
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())
        if name == "blowup":
            assert [r.diverged for r in got.records] == [False, True, True]

    @pytest.mark.parametrize("name", ["single", "double"])
    def test_lifted_vs_true(self, name, monkeypatch):
        plant, m, K, states, _ = equivalence_case(name)
        model, pair = one_block_pair_model(m.dim, plant.input_dim)
        args = (model, pair, K, plant, m, states, 120, 0.01)
        got = ev.lifted_vs_true(*args)
        ref = [scalar_rollout(plant, x0, lambda x: K @ m(x), 120, 0.01)
               for x0 in states]
        monkeypatch.setattr(ev, "rollout", lambda *a: ref)
        want = ev.lifted_vs_true(*args)
        assert json.dumps(got) == json.dumps(want)


class TestOneLiftForLyapunovTrace:
    """One lift of every kept trajectory against one lift per trajectory."""

    @pytest.mark.parametrize("name", ["double", "blowup"])
    def test_lyapunov_trace_sees_per_trajectory_lifts(self, name,
                                                      monkeypatch):
        plant, m, K, states, horizon = equivalence_case(name)
        if name == "blowup":  # rows 1 and 3 diverge, rows 0 and 2 do not
            m = polynomial_map("cubic", (1, 2, 3))
            K = np.array([[-1.0, 0.0, 0.0]])
            states = [[0.0], [0.5], [-0.1], [2.0]]
        result = syn.SynthesisResult(K_u=K, lam=0.99, P=np.eye(m.dim),
                                     S_x=np.eye(m.dim), status="optimal")
        seen = []
        trace = ev.lyapunov_trace

        def recording_trace(result, psis, slack=0.0):
            seen.append((psis, slack))
            return trace(result, psis, slack)

        monkeypatch.setattr(ev, "lyapunov_trace", recording_trace)
        with np.errstate(over="ignore", invalid="ignore"):
            report = ev.evaluate_closed_loop(plant, m, K, states, horizon,
                                             0.01, result=result, map_x=m)
        kept = [t for t in report.controlled_trajs if not t.diverged]
        if name == "blowup":
            assert [r.diverged for r in report.records] \
                == [False, True, False, True]
        assert len(seen) == len(kept)
        for (psis, slack), traj in zip(seen, kept):
            want = m(traj.states)
            assert psis.shape == want.shape
            np.testing.assert_array_equal(psis.view(np.uint64),
                                          want.view(np.uint64))
            assert slack == 1e-9 * max(1.0, float(np.max(want ** 2)))
        for r in report.records:
            assert np.isnan(r.lyap_decrease_fraction) == r.diverged


def one_block_pair_model(d_psi, d_u):
    """A lifted model that keeps the first block, for fidelity plumbing."""
    rng = np.random.default_rng(0)
    model = BilinearKoopmanModel(
        K_xx=0.1 * rng.standard_normal((d_psi, d_psi)) + np.eye(d_psi),
        K_xu=0.01 * rng.standard_normal((d_psi, d_u)),
        S=np.eye(d_psi)[:1],
        map_descriptor={"name": "test", "state_dim": 1, "features": []})
    pair = FactorizationPair(
        S=np.eye(d_psi)[:1], H=rng.standard_normal((d_psi, d_psi)),
        mask=np.eye(d_psi, dtype=int)[0], residuals=np.zeros(d_psi),
        eps_h=1e-9)
    return model, pair


class TestLyapunovTrace:
    def test_lifted_rollout_decreases_exactly(self):
        model, pair, result = stabilized_toy()
        kt = assemble_ktilde(model, result.K_u, pair.H).Ktilde
        psis = ev.lifted_rollout(kt, np.array([1.0, -0.5]), 200)
        trace = ev.lyapunov_trace(result, psis, slack=1e-8)
        assert trace["decrease_fraction"] == 1.0
        assert np.all(trace["V"] >= -1e-12)

    def test_v_is_nonnegative_on_random_vectors(self):
        _, _, result = stabilized_toy()
        rng = np.random.default_rng(0)
        psis = rng.standard_normal((100, 2))
        trace = ev.lyapunov_trace(result, psis)
        assert np.all(trace["V"] >= -1e-12)

    def test_short_trace(self):
        _, _, result = stabilized_toy()
        trace = ev.lyapunov_trace(result, np.ones((1, 2)))
        assert trace["decrease_fraction"] == 1.0


class TestEvaluateClosedLoop:
    def setup_method(self):
        self.plant = plants.single_pendulum(gravity=1.0)
        self.map = single_pendulum_map()
        # gravity compensation plus mild PD: stabilizes everywhere at g = 1
        self.K = np.zeros((1, 9))
        self.K[0, 0] = -2.0
        self.K[0, 1] = -2.0
        self.K[0, 5] = -1.0

    def test_origin_start_stays_converged(self):
        rep = ev.evaluate_closed_loop(self.plant, self.map, self.K,
                                      [[0.0, 0.0]], 2.0, 0.01)
        assert rep.records[0].converged
        assert rep.records[0].settling_time == 0.0
        assert rep.success_rate == 1.0

    def test_perturbed_start_converges_and_twin_diverges(self):
        rep = ev.evaluate_closed_loop(self.plant, self.map, self.K,
                                      [[0.4, 0.0], [-0.6, 0.5]], 10.0, 0.01)
        assert rep.success_rate == 1.0
        assert all(r.settling_time > 0 for r in rep.records)
        # uncontrolled twins fall away from upright
        assert all(v > 0.05 for v in rep.uncontrolled_final)

    def test_inputs_recorded_within_bounds(self):
        rep = ev.evaluate_closed_loop(self.plant, self.map, self.K,
                                      [[1.5, -2.0]], 5.0, 0.01)
        assert rep.records[0].max_input <= 5.0

    def test_ranges_recorded(self):
        rep = ev.evaluate_closed_loop(
            self.plant, self.map, self.K, [[0.3, -7.0], [-0.2, 8.0]],
            1.0, 0.01, train_ranges=[[-np.pi, np.pi], [-6.0, 6.0]])
        assert rep.eval_ranges[1][0] < -6.0 or rep.eval_ranges[1][1] > 6.0
        assert rep.train_ranges == [[-np.pi, np.pi], [-6.0, 6.0]]

    def test_report_json_shape(self):
        rep = ev.evaluate_closed_loop(self.plant, self.map, self.K,
                                      [[0.1, 0.0]], 1.0, 0.01)
        payload = rep.to_json()
        assert payload["kind"] == "koopctl/report"
        assert len(payload["records"]) == 1
        assert 0 <= payload["success_rate"] <= 1


class TestLiftedVsTrue:
    def test_exactly_lifted_system_has_zero_error(self):
        # plant x+ ~ integrator whose lifted model is exact: use the
        # identity-lift toy and simulate the model itself as the plant
        model, pair, result = stabilized_toy()
        kt = assemble_ktilde(model, result.K_u, pair.H).Ktilde
        # discrete plant x+ = Ktilde x is linear, so rk4 on a matching
        # continuous system is unnecessary; check the helper directly
        psis = ev.lifted_rollout(kt, np.array([0.3, -0.2]), 50)
        np.testing.assert_allclose(psis[1], kt @ psis[0], atol=1e-14)

    def test_error_grows_with_horizon_on_pendulum(self):
        plant = plants.single_pendulum(gravity=1.0)
        m = single_pendulum_map()
        rng = np.random.default_rng(1)
        from koopctl import babbling, edmd, factorization as fz

        cfg = babbling.BabblingConfig(num_gains=10, num_initial_conditions=9,
                                      gain_scale=1.0,
                                      state_grid=((-np.pi, np.pi), (-3.0, 3.0)),
                                      steps=60, dt=0.01, seed=3)
        ds = babbling.generate_dataset(plant, m, m, cfg)
        pair = fz.fit_pair(ds, m, m)
        model = edmd.identify_model(ds, m, pair.S)
        K = np.zeros((1, 9))
        K[0, 0], K[0, 1], K[0, 5] = -2.0, -2.0, -1.0
        fid = ev.lifted_vs_true(model, pair, K, plant, m,
                                rng.uniform(-0.5, 0.5, size=(5, 2)), 80, 0.01)
        per_step = np.asarray(fid["per_step_mean"])
        assert fid["one_step_rmse"] < 1e-3
        assert per_step[-1] > per_step[0]


class TestExportPlotData:
    def test_files_and_round_trip(self, tmp_path):
        plant = plants.single_pendulum(gravity=1.0)
        m = single_pendulum_map()
        K = np.zeros((1, 9))
        K[0, 0], K[0, 1], K[0, 5] = -2.0, -2.0, -1.0
        rep = ev.evaluate_closed_loop(plant, m, K,
                                      [[0.2, 0.0], [-0.3, 0.1]], 1.0, 0.01)
        files = ev.export_plot_data(rep, tmp_path)
        assert len(files) == 4
        with open(tmp_path / "phase_controlled.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["traj", "k", "x1", "x2"]
        assert {r[0] for r in rows[1:]} == {"0", "1"}
        # shortest round-trip floats reproduce the stored states exactly
        first = rep.controlled_trajs[0].states[0]
        assert float(rows[1][2]) == first[0]

    def test_empty_report_writes_headers_only(self, tmp_path):
        rep = ev.EvaluationReport(
            records=[], uncontrolled_final=[], success_rate=0.0,
            median_settling_time=float("nan"), lam=float("nan"),
            settle_tol=0.05, horizon_seconds=1.0, dt=0.01)
        files = ev.export_plot_data(rep, tmp_path)
        for f in files:
            with open(f) as fh:
                assert len(list(csv.reader(fh))) == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, allow_nan=False), min_size=1,
                max_size=12))
def test_median_matches_numpy_bitwise(values):
    # settling times: nonnegative, never NaN, and 0.0 never -0.0
    with np.errstate(over="ignore"):
        want = np.float64(np.median(values))
    assert np.float64(ev._median(values)).view(np.uint64) \
        == want.view(np.uint64)
