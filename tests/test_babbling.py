import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopctl import babbling, plants
from koopctl.observables import (
    double_pendulum_map,
    polynomial_map,
    single_pendulum_map,
)


def small_config(**overrides):
    base = dict(num_gains=4, num_initial_conditions=9, gain_scale=1.0,
                state_grid=((-np.pi, np.pi), (-6.0, 6.0)),
                steps=20, dt=0.01, seed=7)
    base.update(overrides)
    return babbling.BabblingConfig(**base)


def blowup_plant():
    """x' = x^3: every nonzero start leaves the floats in finite time."""
    return plants.ControlAffinePlant(
        name="blowup", state_dim=1, input_dim=1, rhs=lambda x, u: x ** 3,
        input_bounds=np.array([[-1.0, 1.0]]),
    )


def per_gain_reference(plant, m, cfg):
    """Babbling as one rollout batch per gain, the loop the one-call batch
    replaced; returns (x, u, x_next, traj_id, dropped)."""
    gains = babbling.sample_random_gains(cfg, plant.input_dim, m.dim)
    ics = babbling.grid_initial_conditions(cfg, plant.state_dim)
    n_ic = len(ics)
    out = [[], [], [], []]
    dropped = 0
    for i, K in enumerate(gains):
        gain_batch = np.broadcast_to(K, (n_ic,) + K.shape)
        x = ics.copy()
        states, inputs = [x], []
        for _ in range(cfg.steps):
            u = np.clip(np.einsum("baj,bj->ba", gain_batch, m(x)),
                        *plant.input_bounds.T)
            x = plants.rk4_step(plant, x, u, cfg.dt)
            states.append(x)
            inputs.append(u)
        states = np.stack(states, axis=1)
        inputs = np.stack(inputs, axis=1)
        for j in range(n_ic):
            if not np.all(np.isfinite(states[j])):
                dropped += 1
                continue
            for acc, part in zip(out, (states[j, :-1], inputs[j],
                                       states[j, 1:],
                                       np.full(cfg.steps, i * n_ic + j))):
                acc.append(part)
    return tuple(np.concatenate(acc) for acc in out) + (dropped,)


class TestGains:
    def test_seed_determinism(self):
        cfg = small_config()
        a = babbling.sample_random_gains(cfg, 1, 9)
        b = babbling.sample_random_gains(cfg, 1, 9)
        for ka, kb in zip(a, b):
            np.testing.assert_array_equal(ka, kb)

    def test_zero_scale_gives_zero_controllers(self):
        cfg = small_config(gain_scale=0.0)
        for k in babbling.sample_random_gains(cfg, 1, 9):
            np.testing.assert_array_equal(k, np.zeros((1, 9)))

    def test_shapes(self):
        cfg = small_config(num_gains=50)
        gains = babbling.sample_random_gains(cfg, 1, 9)
        assert len(gains) == 50
        assert all(k.shape == (1, 9) for k in gains)
        assert all(np.max(np.abs(k)) <= 1.0 for k in gains)


class TestGrid:
    def test_single_point_sits_at_lower_bound(self):
        cfg = small_config(num_initial_conditions=1)
        grid = babbling.grid_initial_conditions(cfg)
        np.testing.assert_allclose(grid, [[-np.pi, -6.0]])

    def test_three_by_three_includes_corners(self):
        cfg = small_config(num_initial_conditions=9,
                           state_grid=((-1.0, 1.0), (-1.0, 1.0)))
        grid = babbling.grid_initial_conditions(cfg)
        assert grid.shape == (9, 2)
        corners = {(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)}
        assert corners <= {tuple(row) for row in grid}

    def test_near_equal_factorization(self):
        assert babbling.near_equal_factorization(9000, 4) in {(10, 10, 10, 9),
                                                              (9, 10, 10, 10),
                                                              (10, 9, 10, 10),
                                                              (10, 10, 9, 10)}
        assert np.prod(babbling.near_equal_factorization(4000, 2)) == 4000

    def test_explicit_shape_must_factor(self):
        cfg = small_config(num_initial_conditions=9, grid_shape=(2, 2))
        with pytest.raises(ValueError, match="does not factor"):
            babbling.grid_initial_conditions(cfg)


class TestGenerateDataset:
    def setup_method(self):
        self.plant = plants.single_pendulum()
        self.map = single_pendulum_map()

    def test_zero_gain_origin_inits(self):
        cfg = small_config(num_gains=1, num_initial_conditions=1,
                           gain_scale=0.0, state_grid=((0.0, 0.0), (0.0, 0.0)))
        ds = babbling.generate_dataset(self.plant, self.map, self.map, cfg)
        np.testing.assert_allclose(ds.x, 0.0, atol=1e-16)
        np.testing.assert_allclose(ds.u, 0.0)

    def test_counts(self):
        cfg = small_config()
        ds = babbling.generate_dataset(self.plant, self.map, self.map, cfg)
        assert len(ds) == 4 * 9 * 20
        assert ds.n_trajectories == 36
        assert ds.n_dropped == 0

    def test_determinism_bitwise(self):
        cfg = small_config()
        a = babbling.generate_dataset(self.plant, self.map, self.map, cfg)
        b = babbling.generate_dataset(self.plant, self.map, self.map, cfg)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.x_next, b.x_next)

    def test_inputs_within_bounds(self):
        cfg = small_config(gain_scale=3.0)
        ds = babbling.generate_dataset(self.plant, self.map, self.map, cfg)
        assert np.max(np.abs(ds.u)) <= 5.0
        # saturation actually happens with gains this large
        assert np.any(np.abs(ds.u) == 5.0)

    def test_replay_reproduces_next_state_exactly(self):
        cfg = small_config()
        ds = babbling.generate_dataset(self.plant, self.map, self.map, cfg)
        rng = np.random.default_rng(0)
        for idx in rng.choice(len(ds), size=50, replace=False):
            np.testing.assert_array_equal(
                plants.rk4_step(self.plant, ds.x[idx], ds.u[idx], cfg.dt),
                ds.x_next[idx])

    @pytest.mark.parametrize("case", ["single", "double", "blowup"])
    def test_one_batch_matches_per_gain_loop(self, case):
        plant, m, cfg = {
            "single": lambda: (self.plant, self.map,
                               small_config(gain_scale=3.0)),
            "double": lambda: (plants.double_pendulum(gravity=1.0),
                               double_pendulum_map(), small_config(
                                   num_gains=3, num_initial_conditions=16,
                                   state_grid=((-1.0, 1.0),) * 4)),
            "blowup": lambda: (blowup_plant(),
                               polynomial_map("lin", (1,)), small_config(
                                   num_initial_conditions=4,
                                   state_grid=((0.0, 3.0),), dt=0.5)),
        }[case]()
        with np.errstate(over="ignore", invalid="ignore"):
            ds = babbling.generate_dataset(plant, m, m, cfg)
            x, u, x_next, traj_id, dropped = per_gain_reference(plant, m, cfg)
        np.testing.assert_array_equal(ds.x, x)
        np.testing.assert_array_equal(ds.u, u)
        np.testing.assert_array_equal(ds.x_next, x_next)
        np.testing.assert_array_equal(ds.traj_id, traj_id)
        assert ds.n_dropped == dropped
        assert (dropped > 0) == (case == "blowup")

    def test_split_by_trajectory_is_leak_free(self):
        cfg = small_config()
        ds = babbling.generate_dataset(self.plant, self.map, self.map, cfg)
        train, hold = ds.split_by_trajectory(0.1)
        assert train.sum() + hold.sum() == len(ds)
        assert not set(ds.traj_id[train]) & set(ds.traj_id[hold])
        assert hold.sum() > 0


class TestPaperScale:
    @pytest.mark.slow
    def test_snapshot_count_at_full_scale(self):
        # 4000 trajectories x 100 steps: 400,000 snapshots
        plant = plants.single_pendulum()
        m = single_pendulum_map()
        cfg = small_config(num_gains=40, num_initial_conditions=100,
                           seed=0, steps=100)
        ds = babbling.generate_dataset(plant, m, m, cfg)
        assert len(ds) + ds.n_dropped * 100 == 400_000


def persisted_datasets():
    """A clean single-pendulum dataset and a blowup one whose dropped
    trajectories leave gaps in the kept traj_id values."""
    m = single_pendulum_map()
    clean = babbling.generate_dataset(
        plants.single_pendulum(), m, m,
        small_config(num_gains=2, num_initial_conditions=4))
    lin = polynomial_map("lin", (1,))
    with np.errstate(over="ignore", invalid="ignore"):
        gappy = babbling.generate_dataset(
            blowup_plant(), lin, lin,
            small_config(num_initial_conditions=4,
                         state_grid=((0.0, 3.0),), dt=0.5))
    assert clean.n_dropped == 0 and gappy.n_dropped > 0
    return clean, gappy


SNAPSHOT_ARRAYS = ("x", "u", "x_next", "gain_index", "ic_index",
                   "step_index", "traj_id")


class TestPersistence:
    def test_round_trip(self, tmp_path):
        for i, ds in enumerate(persisted_datasets()):
            outdir = tmp_path / f"data{i}"
            babbling.save_dataset(ds, outdir)
            assert sorted(p.name for p in outdir.iterdir()) \
                == ["manifest.json", "snapshots.npz"]
            back = babbling.load_dataset(outdir)
            for name in SNAPSHOT_ARRAYS:
                got, want = getattr(back, name), getattr(ds, name)
                assert got.dtype == want.dtype, name
                np.testing.assert_array_equal(got, want, err_msg=name)
            assert back.n_trajectories == ds.n_trajectories
            assert back.n_dropped == ds.n_dropped
            assert back.meta == ds.meta

    def test_rerun_same_seed_identical_manifest(self, tmp_path):
        plant = plants.single_pendulum()
        m = single_pendulum_map()
        cfg = small_config(num_gains=2, num_initial_conditions=4)
        for d in ("a", "b"):
            ds = babbling.generate_dataset(plant, m, m, cfg)
            babbling.save_dataset(ds, tmp_path / d)
        for name in ("manifest.json", "snapshots.npz"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_save_deletes_old_csv_shards_and_nothing_else(self, tmp_path):
        # a directory first written in the one-CSV-per-trajectory layout
        outdir = tmp_path / "dataset"
        outdir.mkdir()
        for tid in range(3):
            (outdir / f"traj_{tid:06d}.csv").write_text("k,x1,x2,u1\n")
        (outdir / "notes.txt").write_text("kept")
        (outdir / "traj_summary.json").write_text("{}")
        babbling.save_dataset(persisted_datasets()[0], outdir)
        assert sorted(p.name for p in outdir.iterdir()) == [
            "manifest.json", "notes.txt", "snapshots.npz",
            "traj_summary.json"]
        assert (outdir / "notes.txt").read_text() == "kept"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, np.pi, np.inf,
                                 -np.inf, 1e-300]), max_size=12))
def test_distinct_count_matches_numpy_unique(values):
    v = np.array(values, dtype=float)
    assert babbling._distinct_count(v) == len(np.unique(v))
