import io
import json
import zipfile

import numpy as np
import pytest

from koopctl import babbling, edmd, factorization, plants, synthesis, tensor
from koopctl.observables import (
    Feature,
    ObservableMap,
    double_pendulum_map,
    evaluate_batch,
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
    ics = babbling.grid_points(cfg.state_grid,
                               babbling.grid_shape(cfg, plant.state_dim))
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


@pytest.mark.parametrize("count", ["num_gains", "num_initial_conditions",
                                   "steps"])
@pytest.mark.parametrize("value", [0, 2.5, True])
def test_counts_must_be_positive(count, value):
    with pytest.raises(ValueError, match=f"^{count} must be a positive "
                                         f"integer, got {value!r}$"):
        small_config(**{count: value})


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


def grid_of(cfg):
    return babbling.grid_points(cfg.state_grid, babbling.grid_shape(cfg, 2))


class TestGrid:
    def test_single_point_sits_at_lower_bound(self):
        cfg = small_config(num_initial_conditions=1)
        grid = grid_of(cfg)
        np.testing.assert_allclose(grid, [[-np.pi, -6.0]])

    def test_three_by_three_includes_corners(self):
        cfg = small_config(num_initial_conditions=9,
                           state_grid=((-1.0, 1.0), (-1.0, 1.0)))
        grid = grid_of(cfg)
        assert grid.shape == (9, 2)
        corners = {(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)}
        assert corners <= {tuple(row) for row in grid}

    def test_near_equal_factorization(self):
        assert babbling.near_equal_factorization(9000, 4) in {(10, 10, 10, 9),
                                                              (9, 10, 10, 10),
                                                              (10, 9, 10, 10),
                                                              (10, 10, 9, 10)}
        assert np.prod(babbling.near_equal_factorization(4000, 2)) == 4000

    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    def test_near_equal_factorization_matches_the_linear_scan(self, dims):
        def scanned(total, dims):
            # every integer up to the remainder tried as a divisor
            factors, remaining = [], total
            for d in range(dims, 1, -1):
                target = remaining ** (1.0 / d)
                best = min((k for k in range(1, remaining + 1)
                            if remaining % k == 0),
                           key=lambda k: abs(k - target))
                factors.append(best)
                remaining //= best
            return tuple(factors + [remaining])

        for total in range(1, 5001):
            assert babbling.near_equal_factorization(total, dims) \
                == scanned(total, dims), total

    def test_near_equal_factorization_of_a_huge_count(self):
        # called directly: a grid of 1e12 points is never built
        huge = 10 ** 12
        assert babbling.near_equal_factorization(huge, 2) == (10 ** 6,) * 2
        assert babbling.near_equal_factorization(huge, 3) == (10 ** 4,) * 3
        assert babbling.near_equal_factorization(huge, 4) == (1000,) * 4
        assert babbling.near_equal_factorization(huge + 39, 2) \
            == (1, huge + 39)   # a prime

    def test_explicit_shape_must_factor(self):
        cfg = small_config(num_initial_conditions=9, grid_shape=(2, 2))
        with pytest.raises(ValueError, match="does not factor"):
            babbling.grid_shape(cfg, 2)

    @pytest.mark.parametrize("shape", [None, (10 ** 6, 10 ** 6)])
    def test_shape_of_a_huge_count(self, shape):
        cfg = small_config(num_initial_conditions=10 ** 12, grid_shape=shape)
        assert babbling.grid_shape(cfg, 2) == (10 ** 6, 10 ** 6)


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


def stored_arrays(plant, m, cfg):
    """The arrays as the dataset stored them when it held x_next in full:
    per-trajectory snapshots from the per-gain loop."""
    x, u, x_next, traj_id, _ = per_gain_reference(plant, m, cfg)
    return {"x": x, "u": u, "x_next": x_next, "traj_id": traj_id}


def assert_arrays_bitwise(ds, want: dict):
    for name, array in want.items():
        got = getattr(ds, name)
        assert got.dtype == array.dtype, name
        assert got.shape == array.shape, name
        assert got.tobytes() == array.tobytes(), name


def assert_tails(ds, want: dict):
    """The tails are the rows of x_next that are not the next row of x."""
    moved = np.ones(len(ds), dtype=bool)
    x, x_next = (np.ascontiguousarray(want[k]).view(np.uint64)
                 for k in ("x", "x_next"))
    moved[:-1] = np.any(x_next[:-1] != x[1:], axis=1)
    np.testing.assert_array_equal(ds.tail_rows, np.flatnonzero(moved))
    assert ds.tails.tobytes() == want["x_next"][moved].tobytes()


class TestLeanDataset:
    """x_next is rebuilt from x and the tails; the arrays stored in full
    are the oracle."""

    @pytest.mark.parametrize("case", ["clean", "gappy", "origin"])
    def test_rebuilt_arrays_equal_stored_ones(self, case, tmp_path):
        plant, m, cfg = {
            "clean": (plants.single_pendulum(), single_pendulum_map(),
                      small_config(gain_scale=3.0)),
            "gappy": (blowup_plant(), polynomial_map("lin", (1,)),
                      small_config(num_initial_conditions=4,
                                   state_grid=((0.0, 3.0),), dt=0.5)),
            # one trajectory resting at the origin: only its end is a tail
            "origin": (plants.single_pendulum(), single_pendulum_map(),
                       small_config(num_gains=1, num_initial_conditions=1,
                                    gain_scale=0.0,
                                    state_grid=((0.0, 0.0), (0.0, 0.0)))),
        }[case]
        with np.errstate(over="ignore", invalid="ignore"):
            ds = babbling.generate_dataset(plant, m, m, cfg)
            want = stored_arrays(plant, m, cfg)
        assert (ds.n_dropped > 0) == (case == "gappy")
        assert_arrays_bitwise(ds, want)
        assert_tails(ds, want)
        # and a saved and loaded copy rebuilds the same arrays
        babbling.save_dataset(ds, tmp_path / "ds")
        back = babbling.load_dataset(tmp_path / "ds")
        assert_arrays_bitwise(back, want)
        assert back.tail_rows.tobytes() == ds.tail_rows.tobytes()

    @pytest.mark.parametrize("pass_indices", [True, False])
    def test_hand_built_unchained_and_permuted(self, pass_indices):
        ds = babbling.generate_dataset(
            plants.single_pendulum(), single_pendulum_map(),
            single_pendulum_map(),
            small_config(num_gains=2, num_initial_conditions=4))
        order = np.random.default_rng(5).permutation(len(ds))
        want = {name: getattr(ds, name)[order] for name in SNAPSHOT_ARRAYS}
        n_ic, steps = ds.meta["num_initial_conditions"], ds.meta["steps"]
        indices = {"gain_index": want["traj_id"] // n_ic,
                   "ic_index": want["traj_id"] % n_ic,
                   "step_index": (np.arange(len(ds)) % steps)[order]} \
            if pass_indices else {}
        hand = babbling.SnapshotDataset(
            x=want["x"], u=want["u"], x_next=want["x_next"],
            traj_id=want["traj_id"], meta=ds.meta, **indices)
        assert_tails(hand, want)
        assert len(hand.tail_rows) > len(hand) - 5   # almost nothing chains
        assert_arrays_bitwise(hand, want)
        # the index arrays are kept as given, and are None when not given
        for name in ("gain_index", "ic_index", "step_index"):
            assert getattr(hand, name) is indices.get(name)

    def test_next_cols_point_at_the_lift_of_x_next(self):
        m = single_pendulum_map()
        ds = babbling.generate_dataset(
            plants.single_pendulum(), m, m,
            small_config(num_gains=2, num_initial_conditions=4))
        psi = ds.lift(m)
        assert ds.lift(single_pendulum_map()) is psi   # equal maps share it
        assert psi.shape == (m.dim, len(ds) + ds.n_trajectories)
        rows = np.arange(len(ds))
        assert psi[:, ds.next_cols(rows)].T.tobytes() \
            == m(ds.x_next).tobytes()
        assert psi[:, : len(ds)].T.tobytes() == m(ds.x).tobytes()



class OtherMap:
    """A map that is not an ObservableMap: its lift need not lead with
    the raw state."""

    def __init__(self, m):
        self.m = m
        self.dim = m.dim

    def __call__(self, x):
        return self.m(x)


class TestStatesBecomeViewsOfTheLift:
    """After an ObservableMap's lift, x and the tails are read-only views
    of its raw-state rows; copies taken before the lift are the oracle."""

    def hand_built(self):
        # nothing chains, and signed zeros must survive the lift
        rng = np.random.default_rng(8)
        x, x_next = rng.uniform(-3, 3, (2, 50, 2))
        x[::4, 0] = -0.0
        x_next[::3, 1] = -0.0
        return babbling.SnapshotDataset(
            x=x, u=rng.uniform(-1, 1, (50, 1)), x_next=x_next,
            traj_id=np.zeros(50, dtype=int))

    def test_views_keep_every_bit(self):
        ds, m = self.hand_built(), single_pendulum_map()
        want = {k: getattr(ds, k).tobytes() for k in ("x", "tails",
                                                      "x_next")}
        psi = ds.lift(m)
        assert np.shares_memory(ds.x, psi) and np.shares_memory(ds.tails, psi)
        assert {k: getattr(ds, k).tobytes() for k in want} == want
        assert ds.x_next.flags.c_contiguous

    def test_other_map_leaves_the_states(self):
        ds, m = self.hand_built(), single_pendulum_map()
        x, tails = ds.x, ds.tails
        psi = ds.lift(OtherMap(m))
        assert ds.x is x and ds.tails is tails
        assert psi.tobytes() == ds.lift(m).tobytes()

    def test_failed_lift_keeps_the_states_and_no_lift(self):
        x = np.array([[1.0], [0.0], [2.0]])
        ds = babbling.SnapshotDataset(x=x, u=np.zeros((3, 1)),
                                      x_next=x + 1.0,
                                      traj_id=np.zeros(3, dtype=int))
        want = {k: getattr(ds, k).tobytes() for k in ("x", "tails",
                                                      "x_next")}
        inverse = polynomial_map("inverse", (1, -1))
        for _ in range(2):   # and a second try fails the same way
            with pytest.raises(ValueError, match="state index 1"):
                ds.lift(inverse)
            assert {k: getattr(ds, k).tobytes() for k in want} == want
            assert ds._psi == {}

    def test_map_of_another_state_dimension_keeps_the_states(self):
        ds = self.hand_built()
        x = ds.x
        with pytest.raises(ValueError, match="state has dimension 2, map "
                                             "expects 1"):
            ds.lift(polynomial_map("lin", (1,)))
        assert ds.x is x and ds._psi == {}

    def test_second_map_reads_the_views(self):
        ds, m = self.hand_built(), single_pendulum_map()
        cubic = ObservableMap(name="cubic", state_dim=2, features=(
            *m.features[:2], Feature(label="theta^3", poly=(3, 0))))
        states = np.concatenate([ds.x, ds.tails])
        ds.lift(m)
        assert ds.lift(cubic).tobytes() == cubic(states).T.tobytes()
        assert np.concatenate([ds.x, ds.tails]).tobytes() == states.tobytes()


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


SNAPSHOT_ARRAYS = ("x", "u", "x_next", "traj_id")


def hand_built(ds, order):
    """``ds`` with its rows taken in ``order``, built through the public
    constructor."""
    return babbling.SnapshotDataset(
        **{k: getattr(ds, k)[order] for k in ("x", "u", "x_next")},
        traj_id=ds.traj_id[order],
        n_trajectories=ds.n_trajectories, n_dropped=ds.n_dropped,
        meta=ds.meta)


def members(outdir) -> list:
    with np.load(outdir / babbling.PAYLOAD) as f:
        return sorted(f.files)


class TestPersistence:
    @pytest.mark.parametrize("case", ["clean", "gappy", "at-rest",
                                      "hand-built"])
    def test_round_trip_is_bitwise(self, case, tmp_path):
        clean, gappy = persisted_datasets()
        m = single_pendulum_map()
        ds = {
            "clean": lambda: clean,
            "gappy": lambda: gappy,
            # one trajectory resting at the origin: only its end is a tail
            "at-rest": lambda: babbling.generate_dataset(
                plants.single_pendulum(), m, m,
                small_config(num_gains=1, num_initial_conditions=1,
                             gain_scale=0.0,
                             state_grid=((0.0, 0.0), (0.0, 0.0)))),
            "hand-built": lambda: hand_built(
                clean, np.random.default_rng(5).permutation(len(clean))),
        }[case]()
        outdir = tmp_path / "data"
        babbling.save_dataset(ds, outdir)
        assert sorted(p.name for p in outdir.iterdir()) \
            == ["manifest.json", "snapshots.npz"]
        assert members(outdir) == sorted(babbling.ARRAYS)
        back = babbling.load_dataset(outdir)
        assert_arrays_bitwise(back, {k: getattr(ds, k)
                                     for k in SNAPSHOT_ARRAYS})
        assert back.gain_index is back.ic_index is back.step_index is None
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

    def test_save_leaves_other_files_alone(self, tmp_path):
        # shards of the one-CSV-per-trajectory layout are other files too
        outdir = tmp_path / "dataset"
        outdir.mkdir()
        others = {"traj_000000.csv": "k,x1,x2,u1\n", "notes.txt": "kept",
                  "traj_summary.json": "{}"}
        for name, text in others.items():
            (outdir / name).write_text(text)
        babbling.save_dataset(persisted_datasets()[0], outdir)
        assert sorted(p.name for p in outdir.iterdir()) == sorted(
            [*others, "manifest.json", "snapshots.npz"])
        assert {name: (outdir / name).read_text() for name in others} \
            == others

    @pytest.mark.parametrize("damage", ["truncated", "empty", "not-a-zip"])
    def test_unreadable_npz_closes_its_file(self, damage, tmp_path):
        import gc
        import warnings

        outdir = tmp_path / "dataset"
        babbling.save_dataset(persisted_datasets()[0], outdir)
        payload = outdir / "snapshots.npz"
        data = payload.read_bytes()
        payload.write_bytes({"truncated": data[: len(data) // 2],
                             "empty": b"",
                             "not-a-zip": b"PK not a zip archive"}[damage])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                babbling.load_dataset(outdir)
            except ValueError as exc:
                assert "snapshots.npz" in str(exc)
            else:
                pytest.fail("a damaged snapshots.npz loaded")
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    @pytest.mark.parametrize("name,cut", [
        ("x", "rows"), ("u", "rows"), ("traj_ids", "rows"), ("tails", "rows"),
        ("x", "width"), ("u", "width"), ("tails", "width")])
    def test_array_shapes_must_match_the_manifest(self, name, cut,
                                                  tmp_path):
        outdir = tmp_path / "dataset"
        babbling.save_dataset(persisted_datasets()[0], outdir)
        payload = outdir / "snapshots.npz"
        with np.load(payload) as f:
            arrays = dict(f)
        if cut == "rows":
            arrays[name] = arrays[name][:-5]
        else:
            arrays[name] = np.hstack([arrays[name], arrays[name]])
        with open(payload, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError, match=f"{name} in .*snapshots.npz "
                                             f"has shape"):
            babbling.load_dataset(outdir)

    @pytest.mark.parametrize("damage", [
        "tail_rows-float", "tail_rows-2d", "tail_rows-unsorted",
        "tail_rows-repeated", "tail_rows-negative", "tail_rows-beyond-last",
        "tail_rows-without-last", "tails-nan", "tails-inf"])
    def test_bad_tails_are_refused_naming_the_file(self, damage, tmp_path):
        outdir = tmp_path / "dataset"
        ds = persisted_datasets()[0]
        babbling.save_dataset(ds, outdir)
        payload = outdir / "snapshots.npz"
        with np.load(payload) as f:
            arrays = dict(f)
        rows, tails = arrays["tail_rows"], arrays["tails"]
        n = len(ds)
        if damage == "tail_rows-float":
            rows = rows.astype(float)
        elif damage == "tail_rows-2d":
            rows = rows[:, None]
        elif damage == "tail_rows-unsorted":
            rows[[0, 1]] = rows[[1, 0]]
        elif damage == "tail_rows-repeated":
            rows[1] = rows[0]
        elif damage == "tail_rows-negative":
            rows[0] = -1
        elif damage == "tail_rows-beyond-last":
            rows = np.append(rows, n)
            tails = np.vstack([tails, tails[-1:]])
        elif damage == "tail_rows-without-last":
            rows, tails = rows[:-1], tails[:-1]
        else:
            tails[2, 1] = np.nan if damage == "tails-nan" else -np.inf
        arrays.update(tail_rows=rows, tails=tails)
        with open(payload, "wb") as fh:
            np.savez(fh, **arrays)
        what = "tail_rows in" if damage.startswith("tail_rows") \
            else "non-finite entries in tails of"
        with pytest.raises(ValueError, match=f"{what} .*snapshots.npz"):
            babbling.load_dataset(outdir)


def write_npz(path, arrays: dict, cut: str = None) -> None:
    """``arrays`` in np.savez's layout, but member ``cut`` ends halfway
    through its data."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, a in arrays.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asanyarray(a))
            data = buf.getvalue()
            zf.writestr(f"{name}.npy", data[: len(data) - a.nbytes // 2]
                        if name == cut else data)


def damage_members(arrays: dict, damage: str):
    """Apply ``damage`` to the npz ``arrays`` in place; returns the member
    to cut off mid-stream, if any."""
    ends = arrays["traj_ends"]
    if damage == "traj_ids-float":
        arrays["traj_ids"] = arrays["traj_ids"] + 0.0
    elif damage == "traj_ids-short":
        arrays["traj_ids"] = arrays["traj_ids"][:-1]
    elif damage == "traj_ends-float":
        arrays["traj_ends"] = ends + 0.0
    elif damage == "traj_ends-short":
        arrays["traj_ends"] = ends[:-1]
    elif damage == "traj_ends-unsorted":
        ends[[0, 1]] = ends[[1, 0]]
    elif damage == "traj_ends-empty-run":
        ends[0] = 0
    elif damage == "traj_ends-past-N":
        ends[-1] += 1
    elif damage == "x-float32":
        arrays["x"] = arrays["x"].astype(np.float32)
    elif damage == "x-big-endian":
        arrays["x"] = arrays["x"].astype(">f8")
    elif damage == "x-fortran":
        arrays["x"] = np.asfortranarray(arrays["x"])
    elif damage == "x-nan-in-last-chunk":
        arrays["x"][-1, 1] = np.nan
    else:
        assert damage.endswith("-cut-off")
        return damage.split("-")[0]
    return None


# the message each damage of the clean persisted dataset (8 runs, 160
# snapshots) raises
BAD_MEMBERS = {
    "traj_ids-float": "traj_ids in .* holds float64, expected C-ordered "
                      "integers",
    "traj_ids-short": r"traj_ids in .* has shape \(7,\), expected \(8,\)",
    "traj_ends-float": "traj_ends in .* holds float64",
    "traj_ends-short": "traj_ends in .* are not increasing row counts "
                       "ending at 160",
    "traj_ends-unsorted": "traj_ends in .* are not increasing",
    "traj_ends-empty-run": "traj_ends in .* are not increasing",
    "traj_ends-past-N": "traj_ends in .* ending at 160",
    "x-float32": "x in .* holds float32, expected C-ordered float64",
    "x-big-endian": "x in .* holds >f8",
    "x-fortran": "x in .* holds Fortran-ordered float64",
    "x-cut-off": r"unreadable .*snapshots.npz: x ends before its "
                 r"\(160, 2\) entries",
    "tails-cut-off": "unreadable .*snapshots.npz: tails ends before",
    "x-nan-in-last-chunk": "non-finite entries in x of .*snapshots.npz",
}


class TestChunkedLoad:
    """``load_dataset`` reads each member in QR_CHUNK-row pieces; with a
    map, x and the tails go straight into the rows of its lift."""

    @pytest.mark.parametrize("with_map", [False, True])
    @pytest.mark.parametrize("damage", BAD_MEMBERS)
    def test_bad_member_is_refused_naming_the_file(
            self, damage, with_map, tmp_path, monkeypatch):
        # 16-row pieces: the last of x's ten is the one with the NaN
        monkeypatch.setattr(tensor, "QR_CHUNK", 16)
        outdir = tmp_path / "dataset"
        babbling.save_dataset(persisted_datasets()[0], outdir)
        payload = outdir / babbling.PAYLOAD
        with np.load(payload) as f:
            arrays = dict(f)
        write_npz(payload, arrays, damage_members(arrays, damage))
        with pytest.raises(ValueError, match=BAD_MEMBERS[damage]):
            babbling.load_dataset(
                outdir, single_pendulum_map() if with_map else None)

    def test_undamaged_rewrite_loads(self, tmp_path):
        # the writer of the damaged files writes np.savez's layout
        outdir = tmp_path / "dataset"
        ds = persisted_datasets()[0]
        babbling.save_dataset(ds, outdir)
        payload = outdir / babbling.PAYLOAD
        with np.load(payload) as f:
            arrays = dict(f)
        write_npz(payload, arrays)
        back = babbling.load_dataset(outdir)
        assert_arrays_bitwise(back, {k: getattr(ds, k)
                                     for k in SNAPSHOT_ARRAYS})

    def test_map_of_another_state_dimension_names_the_manifest(
            self, tmp_path):
        babbling.save_dataset(persisted_datasets()[0], tmp_path)
        with pytest.raises(ValueError, match="state_dim in .*manifest.json "
                                             "is 2, the observables map "
                                             "takes 4"):
            babbling.load_dataset(tmp_path, double_pendulum_map())

    @pytest.mark.parametrize("chunk", [None, 100])
    def test_loaded_lift_equals_evaluate_batch_of_the_npz(
            self, chunk, tmp_path, monkeypatch):
        if chunk:
            monkeypatch.setattr(tensor, "QR_CHUNK", chunk)
        ds, _, m = labelled("double")
        n, n_tails, q = len(ds), len(ds.tails), tensor.QR_CHUNK
        # a lift chunk and a read piece end inside x; the next chunk
        # straddles x and the tails
        assert n % q and n_tails and n > q
        babbling.save_dataset(ds, tmp_path)
        with np.load(tmp_path / babbling.PAYLOAD) as f:
            want = evaluate_batch(m, f["x"], f["tails"])
            x = f["x"]
        back = babbling.load_dataset(tmp_path, m)
        assert back._psi == {}
        assert not back.x.flags.writeable
        assert back.x.tobytes() == x.tobytes()
        psi = back.lift(m)
        assert psi.tobytes() == want.tobytes()
        assert back.x.base is psi and back.tails.base is psi
        assert back.lift(double_pendulum_map()) is psi
        assert back._unfilled == {}


def stiff_pendulum():
    """A pendulum with a cubic speed term: starts at |theta_dot| = 6
    leave the floats within the babbling horizon, slower ones do not."""
    return plants.ControlAffinePlant(
        name="stiff", state_dim=2, input_dim=1,
        rhs=lambda x, u: np.stack(
            [x[..., 1], -np.sin(x[..., 0]) + x[..., 1] ** 3 + u[..., 0]],
            axis=-1),
        input_bounds=np.array([[-1.0, 1.0]]))


LABEL_CASES = ("single", "double", "dropped", "permuted")


def labelled(case):
    """(dataset, its per-snapshot trajectory ids as the babbling loop or
    the constructor gave them, map) for each of ``LABEL_CASES``."""
    single, double = single_pendulum_map(), double_pendulum_map()
    if case == "permuted":
        ds, ids, m = labelled("single")
        order = np.random.default_rng(6).permutation(len(ds))
        return hand_built(ds, order), ids[order], m
    plant, m, cfg = {
        "single": (plants.single_pendulum(gravity=1.0), single,
                   small_config(num_gains=4, num_initial_conditions=9)),
        "double": (plants.double_pendulum(gravity=1.0), double,
                   small_config(num_gains=3, num_initial_conditions=81,
                                steps=40, state_grid=((-np.pi, np.pi),) * 2
                                + ((-2.0, 2.0),) * 2)),
        "dropped": (stiff_pendulum(), single, small_config()),
    }[case]
    with np.errstate(all="ignore"):
        ds = babbling.generate_dataset(plant, m, m, cfg)
        ids = per_gain_reference(plant, m, cfg)[3]
    assert (ds.n_dropped > 0) == (case == "dropped")
    return ds, ids, m


class PerSnapshotIds(babbling.SnapshotDataset):
    """The dataset as it was with one trajectory id per snapshot: its
    split is (traj_id % every) == 0 over that array, and its lift is
    ``evaluate_batch`` of [x; tails] into an array of its own."""

    def __init__(self, ds, ids):
        super().__init__(np.array(ds.x), ds.u, ds.x_next, traj_id=ids,
                         n_trajectories=ds.n_trajectories,
                         n_dropped=ds.n_dropped, meta=ds.meta)
        self.ids = np.array(ids)

    def split_by_trajectory(self, holdout_fraction: float = 0.1):
        if holdout_fraction == 0:
            return np.ones(len(self), dtype=bool), np.zeros(len(self),
                                                            dtype=bool)
        every = max(2, int(round(1.0 / holdout_fraction)))
        holdout = (self.ids % every) == 0
        return ~holdout, holdout

    def lift(self, m):
        if m not in self._psi:
            self._psi[m] = evaluate_batch(m, self.x, self.tails)
        return self._psi[m]


class TestRunLengthLabels:
    """Trajectory ids kept as runs against one id per snapshot."""

    @pytest.mark.parametrize("case", LABEL_CASES)
    def test_runs_expand_to_the_per_snapshot_ids(self, case):
        ds, ids, _ = labelled(case)
        assert ds.traj_id.tobytes() == ids.tobytes()
        assert ds.traj_id.dtype == ids.dtype
        assert not ds.traj_id.flags.writeable
        assert len(ds.traj_ids) == len(ds.traj_ends) == 1 + np.count_nonzero(
            ids[1:] != ids[:-1])
        if case != "permuted":   # one run per kept trajectory
            assert len(ds.traj_ids) == ds.n_trajectories

    @pytest.mark.parametrize("case", LABEL_CASES)
    def test_split_equals_the_per_snapshot_split(self, case):
        ds, ids, _ = labelled(case)
        for fraction in (0.0, 0.05, 0.1, 0.25, 0.3, 0.5, 0.7, 0.9):
            train, hold = ds.split_by_trajectory(fraction)
            want = PerSnapshotIds(ds, ids).split_by_trajectory(fraction)
            assert train.tobytes() == want[0].tobytes(), fraction
            assert hold.tobytes() == want[1].tobytes(), fraction

    @pytest.mark.parametrize("source", ["babbled", "loaded"])
    @pytest.mark.parametrize("case", LABEL_CASES)
    def test_stage_outputs_equal_the_per_snapshot_path(self, case, source,
                                                       tmp_path):
        ds, ids, m = labelled(case)
        old = PerSnapshotIds(ds, ids)
        if source == "loaded":
            babbling.save_dataset(ds, tmp_path)
            ds = babbling.load_dataset(tmp_path, m)

        def outputs(data):
            pair = factorization.fit_pair(data, m, m)
            model = edmd.identify_model(data, m, pair.S)
            result = synthesis.synthesize(model, pair, max_resamples=3)
            return [json.dumps(d, sort_keys=True) for d in (
                factorization.pair_to_json(pair), edmd.model_to_json(model),
                synthesis.result_to_json(result))]

        got, want = outputs(ds), outputs(old)
        assert got == want
        assert json.loads(got[1])["diagnostics"]["n_holdout"] > 0


@pytest.mark.parametrize("row, n", [
    ((-1.0, 1.0), 3), ((0.5, 0.5), 3), ((-0.0, 0.0), 2), ((0.0, 1e-320), 4),
    ((1e16, 1e16 + 2.0), 5), ((2.0, 3.0), 1)])
def test_manifest_grid_shape_counts_the_distinct_points_per_axis(row, n):
    # the count per axis is that of np.unique over the built grid's column:
    # points of a [lo, lo] row, or of one narrower than their spacing's
    # rounding, fall together
    cfg = small_config(num_gains=1, num_initial_conditions=2 * n, steps=1,
                       state_grid=((-1.0, 1.0), row), grid_shape=(2, n))
    ds = babbling.generate_dataset(plants.single_pendulum(),
                                   single_pendulum_map(),
                                   single_pendulum_map(), cfg)
    assert ds.meta["grid_shape"] \
        == [len(np.unique(c)) for c in grid_of(cfg).T]
