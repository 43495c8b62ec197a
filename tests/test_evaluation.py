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
    ObservableMap,
    decoding_operator,
    double_pendulum_map,
    polynomial_map,
    single_pendulum_map,
    state_feature,
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
    def test_lifted_vs_true(self, name):
        plant, m, K, states, horizon = equivalence_case(name)
        model, pair = one_block_pair_model(m.dim, plant.input_dim)
        report = ev.evaluate_closed_loop(plant, m, K, states, horizon, 0.01)
        got = ev.lifted_vs_true(model, pair, K, m, report.controlled_trajs,
                                120)
        ref = [scalar_rollout(plant, x0, lambda x: K @ m(x), 120, 0.01)
               for x0 in states]
        want = ev.lifted_vs_true(model, pair, K, m, ref, 120)
        assert json.dumps(got) == json.dumps(want)


def rollout_lifted_vs_true(model, pair, K_u, plant, map_x, initial_states,
                           steps, dt):
    """The fidelity metrics from a second rollout of their own, as they
    were computed before they read the evaluation's trajectories."""
    a_dec = decoding_operator(map_x)
    ktilde = assemble_ktilde(model, K_u, pair.H).Ktilde
    initial_states = np.asarray(initial_states, dtype=float)
    trajs = plants.rollout(plant, initial_states,
                           ev.feedback_controller(map_x, K_u), steps, dt)
    errs = np.zeros((len(initial_states), steps))
    for i, (x0, traj) in enumerate(zip(initial_states, trajs)):
        psi_traj = ev.lifted_rollout(ktilde, map_x(x0), steps)
        n_ok = traj.states.shape[0] - 1
        decoded = psi_traj[1 : n_ok + 1] @ a_dec.T
        err = np.linalg.norm(decoded - traj.states[1 : n_ok + 1], axis=1)
        errs[i, :n_ok] = err
        errs[i, n_ok:] = np.nan
    with np.errstate(all="ignore"):
        per_step_mean = np.nanmean(errs, axis=0)
    return {
        "one_step_rmse": float(np.sqrt(np.nanmean(errs[:, 0] ** 2))),
        "final_step_rmse": float(np.sqrt(np.nanmean(errs[:, -1] ** 2))),
        "per_step_mean": per_step_mean.tolist(),
        "steps": steps,
    }


class TestFidelityFromTheEvaluationRollout:
    """Fidelity read off the evaluation's trajectories against a second
    rollout of the same closed loop."""

    @pytest.mark.parametrize("steps", [120, 250])
    @pytest.mark.parametrize("name", ["single", "double", "blowup"])
    def test_matches_second_rollout_bytewise(self, name, steps):
        plant, m, K, states, horizon = equivalence_case(name)
        model, pair = one_block_pair_model(m.dim, plant.input_dim)
        with np.errstate(over="ignore", invalid="ignore"):
            report = ev.evaluate_closed_loop(plant, m, K, states, horizon,
                                             0.01)
            want = rollout_lifted_vs_true(model, pair, K, plant, m,
                                          states, steps, 0.01)
            got = ev.lifted_vs_true(model, pair, K, m,
                                    report.controlled_trajs, steps)
        assert json.dumps(got) == json.dumps(want)
        if name == "blowup":  # [0.5] diverges between the two horizons
            assert [t.diverged for t in report.controlled_trajs] \
                == [False, True, True]
            assert 120 < len(report.controlled_trajs[1].states) - 1 < 250
            assert len(report.controlled_trajs[2].states) - 1 < 120

    def test_steps_beyond_a_trajectory_count_as_nan(self):
        plant, m, K, states, _ = equivalence_case("single")
        model, pair = one_block_pair_model(m.dim, plant.input_dim)
        report = ev.evaluate_closed_loop(plant, m, K, states[:2], 0.5, 0.01)
        fid = ev.lifted_vs_true(model, pair, K, m, report.controlled_trajs,
                                80)
        assert np.isfinite(fid["per_step_mean"][:50]).all()
        assert np.isnan(fid["per_step_mean"][50:]).all()
        assert np.isnan(fid["final_step_rmse"]) and fid["steps"] == 80


def stacked_lift_fractions(report, result, m):
    """Lyapunov decrease fractions as they were computed before each
    trajectory was lifted on its own: one lift of all kept trajectories
    stacked, NaN for the diverged ones."""
    kept = [i for i, t in enumerate(report.controlled_trajs)
            if not t.diverged]
    fractions = [float("nan")] * len(report.controlled_trajs)
    if kept:
        lifted = m(np.stack([report.controlled_trajs[i].states
                             for i in kept]))
        for i, psis in zip(kept, lifted):
            slack = 1e-9 * max(1.0, float(np.max(psis ** 2)))
            fractions[i] = ev.lyapunov_trace(result, psis,
                                             slack)["decrease_fraction"]
    return fractions


def report_bytes(report):
    """report.json as the CLI writes it."""
    return json.dumps(report.to_json(), sort_keys=True, indent=1).encode()


class TestOneLiftForLyapunovTrace:
    """One lift per kept trajectory against a lift of each of them and
    against the stacked lift of all of them it replaced."""

    @pytest.mark.parametrize("name", ["single", "double", "blowup"])
    def test_report_bytes_match_stacked_lift(self, name):
        import copy

        plant, m, K, states, horizon = equivalence_case(name)
        if name == "blowup":  # rows 1 and 3 diverge, rows 0 and 2 do not
            m = polynomial_map("cubic", (1, 2, 3))
            K = np.array([[-1.0, 0.0, 0.0]])
            states = [[0.0], [0.5], [-0.1], [2.0]]
        rng = np.random.default_rng(4)
        a = rng.standard_normal((m.dim, m.dim))
        result = syn.SynthesisResult(K_u=K, lam=0.99,
                                     P=a @ a.T + np.eye(m.dim),
                                     S_x=np.eye(m.dim), status="optimal")
        with np.errstate(over="ignore", invalid="ignore"):
            report = ev.evaluate_closed_loop(plant, m, K, states, horizon,
                                             0.01, result=result, map_x=m)
        stacked = copy.deepcopy(report)
        for r, f in zip(stacked.records,
                        stacked_lift_fractions(report, result, m)):
            r.lyap_decrease_fraction = f
        assert report_bytes(report) == report_bytes(stacked)
        fractions = [r.lyap_decrease_fraction for r in report.records]
        assert np.isnan(fractions).tolist() \
            == [t.diverged for t in report.controlled_trajs]

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

    def test_lyapunov_map_of_another_dimension_fails_before_rollout(
            self, monkeypatch):
        # P is 9 x 9 (the single-pendulum state map); a raw-state
        # controller map cannot lift V = psi^T P psi in its place
        raw = ObservableMap(name="raw", state_dim=2, features=(
            state_feature(0, 2, "theta"), state_feature(1, 2, "omega")))
        result = syn.SynthesisResult(
            K_u=np.array([[-2.0, -2.0]]), lam=0.5, P=syn._restrict(
                np.eye(2), self.map.dim), S_x=np.eye(2), status="optimal")
        rolled = []
        monkeypatch.setattr(ev, "rollout", lambda *a: rolled.append(a))
        for map_x in (None, raw):
            with pytest.raises(ValueError, match=r"^map_x.* has dimension 2, "
                               r"P has 9$"):
                ev.evaluate_closed_loop(self.plant, raw, result.K_u,
                                        [[0.1, 0.0]], 1.0, 0.01,
                                        result=result, map_x=map_x)
        assert rolled == []
        monkeypatch.undo()
        # V reads only psi's raw-state rows, so any map of P's size is
        # accepted: here the state map beside the raw-state controller
        rep = ev.evaluate_closed_loop(self.plant, raw, result.K_u,
                                      [[0.1, 0.0]], 1.0, 0.01,
                                      result=result, map_x=self.map)
        assert 0.0 <= rep.records[0].lyap_decrease_fraction <= 1.0

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

    def test_steps_no_trajectory_reaches_are_nan_without_a_warning(self):
        import warnings

        m = polynomial_map("lin", (1, 2))
        model, pair = one_block_pair_model(m.dim, 1)
        traj = plants.Trajectory(states=np.array([[0.5], [0.75]]),
                                 inputs=np.array([[0.1]]), dt=0.01,
                                 diverged=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fid = ev.lifted_vs_true(model, pair, [[1.0, 0.0]], m, [traj], 5)
        kt = assemble_ktilde(model, [[1.0, 0.0]], pair.H).Ktilde
        one_step = abs((kt @ m(traj.states[0]))[0] - traj.states[1, 0])
        assert fid["per_step_mean"][0] == one_step
        assert np.isnan(fid["per_step_mean"][1:]).all()
        assert fid["one_step_rmse"] == float(np.sqrt(one_step ** 2))
        assert np.isnan(fid["final_step_rmse"]) and fid["steps"] == 5

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
        report = ev.evaluate_closed_loop(
            plant, m, K, rng.uniform(-0.5, 0.5, size=(5, 2)), 0.8, 0.01)
        fid = ev.lifted_vs_true(model, pair, K, m, report.controlled_trajs,
                                80)
        per_step = np.asarray(fid["per_step_mean"])
        assert fid["one_step_rmse"] < 1e-3
        assert per_step[-1] > per_step[0]


def special_report(d_x, dt=0.01):
    """A hand-built report whose trajectories hold NaN, both infinities,
    -0.0, the smallest subnormal, a diverged trajectory cut short and a
    zero-step one."""
    rng = np.random.default_rng(d_x)

    def traj(steps, scale=1.0):
        states = scale * rng.standard_normal((steps + 1, d_x))
        return plants.Trajectory(states=states,
                                 inputs=np.zeros((steps, 1)), dt=dt)

    special = traj(6)
    special.states[1, 0] = np.nan
    special.states[2, -1] = np.inf
    special.states[3, 0] = -np.inf
    special.states[4, -1] = -0.0
    special.states[5] = [1e-300, 1e300, 5e-324, 0.1, 2.0 / 3][:d_x]
    # a trajectory that went non-finite, truncated where it diverged
    diverged = traj(3, scale=1e5)
    diverged.diverged = True
    controlled = [traj(40), special, diverged, traj(0)]
    return ev.EvaluationReport(
        records=[], uncontrolled_final=[], success_rate=0.0,
        median_settling_time=float("nan"), lam=float("nan"),
        settle_tol=0.05, horizon_seconds=0.4, dt=dt,
        controlled_trajs=controlled,
        uncontrolled_trajs=[traj(40, scale=1e-3) for _ in range(3)])


def assert_reads_back(path, report):
    """Every stored state in the plot file equals the row of its
    trajectory's run, compared as uint64, and the ends are the cumulative
    run lengths."""
    with np.load(path) as f:
        assert sorted(f.files) == ["controlled", "controlled_ends",
                                   "uncontrolled", "uncontrolled_ends"]
        for name, trajs in (("controlled", report.controlled_trajs),
                            ("uncontrolled", report.uncontrolled_trajs)):
            states, ends = f[name], f[f"{name}_ends"]
            assert states.dtype == np.float64 and ends.dtype == np.int64
            assert states.flags.c_contiguous
            assert ends.tolist() == np.cumsum(
                [len(t.states) for t in trajs]).tolist()
            assert len(states) == (ends[-1] if trajs else 0)
            for t, lo, hi in zip(trajs, np.r_[0, ends[:-1]], ends):
                assert np.array_equal(states[lo:hi].view(np.uint64),
                                      t.states.view(np.uint64))


class TestPlotFile:
    """One trajectories.npz, written atomically, that reads back bit for
    bit."""

    def test_one_file_and_round_trip(self, tmp_path):
        plant = plants.single_pendulum(gravity=1.0)
        m = single_pendulum_map()
        K = np.zeros((1, 9))
        K[0, 0], K[0, 1], K[0, 5] = -2.0, -2.0, -1.0
        rep = ev.evaluate_closed_loop(plant, m, K,
                                      [[0.2, 0.0], [-0.3, 0.1]], 1.0, 0.01)
        path = ev.export_plot_data(rep, tmp_path)
        assert path == tmp_path / "trajectories.npz"
        assert [p.name for p in tmp_path.iterdir()] == ["trajectories.npz"]
        assert_reads_back(path, rep)
        with np.load(path) as f:
            assert f["controlled_ends"].tolist() == [101, 202]
            assert f["controlled"].shape == (202, 2)

    @pytest.mark.parametrize("name", ["single", "double", "blowup"])
    def test_rollouts_read_back_bitwise(self, tmp_path, name):
        # the blowup case's trajectories diverge and keep their rows
        plant, m, K, states, horizon = equivalence_case(name)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = ev.evaluate_closed_loop(plant, m, K, states, horizon, 0.01)
        assert any(t.diverged for t in rep.controlled_trajs) \
            == (name == "blowup")
        assert_reads_back(ev.export_plot_data(rep, tmp_path), rep)

    @pytest.mark.parametrize("d_x", [1, 2, 4])
    @pytest.mark.parametrize("dt", [0.01, 0.1, 0.5])
    def test_special_values_read_back_bitwise(self, d_x, dt, tmp_path):
        rep = special_report(d_x, dt)
        assert_reads_back(ev.export_plot_data(rep, tmp_path), rep)

    def test_empty_report_writes_zero_row_members(self, tmp_path):
        rep = ev.EvaluationReport(
            records=[], uncontrolled_final=[], success_rate=0.0,
            median_settling_time=float("nan"), lam=float("nan"),
            settle_tol=0.05, horizon_seconds=1.0, dt=0.01)
        path = ev.export_plot_data(rep, tmp_path)
        assert_reads_back(path, rep)
        with np.load(path) as f:
            assert {k: len(f[k]) for k in f.files} == dict.fromkeys(
                f.files, 0)

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np, "savez", disk_full)
        with pytest.raises(OSError) as info:
            ev.export_plot_data(special_report(2), tmp_path)
        assert info.value.filename == str(tmp_path / "trajectories.npz")
        assert list(tmp_path.iterdir()) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, allow_nan=False), min_size=1,
                max_size=12))
def test_median_matches_numpy_bitwise(values):
    # settling times: nonnegative, never NaN, and 0.0 never -0.0
    with np.errstate(over="ignore"):
        want = np.float64(np.median(values))
    assert np.float64(ev._median(values)).view(np.uint64) \
        == want.view(np.uint64)
