import numpy as np
import pytest

from koopctl import edmd, tensor
from koopctl.babbling import SnapshotDataset
from koopctl.observables import polynomial_map, single_pendulum_map


def dataset_from_arrays(x, u, x_next):
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    per_traj = max(1, n // 10)
    return SnapshotDataset(
        x=x, u=np.asarray(u, dtype=float), x_next=np.asarray(x_next, dtype=float),
        gain_index=np.zeros(n, dtype=int), ic_index=np.zeros(n, dtype=int),
        step_index=np.arange(n) % per_traj, traj_id=np.arange(n) // per_traj,
        n_trajectories=int(np.ceil(n / per_traj)),
    )


def simulate_bilinear(k_xx, k_xu, s, psi0s, u_seqs):
    """Roll psi+ = K_xx psi + K_xu ((S psi) kron u); returns snapshot arrays."""
    xs, us, xns = [], [], []
    for psi0, u_seq in zip(psi0s, u_seqs):
        psi = np.asarray(psi0, dtype=float)
        for u in u_seq:
            u = np.atleast_1d(u)
            nxt = k_xx @ psi + k_xu @ np.kron(s @ psi, u)
            xs.append(psi.copy())
            us.append(u.copy())
            xns.append(nxt.copy())
            psi = nxt
    return np.array(xs), np.array(us), np.array(xns)


def solve(psi_in, psi_out, ridge=0.0, chunk=tensor.QR_CHUNK):
    """edmd.solve_chunks on (d, N) arrays: regressor and target row
    blocks of ``chunk`` rows each."""
    spans = [slice(i, i + chunk) for i in range(0, psi_in.shape[1], chunk)]
    return edmd.solve_chunks((psi_in[:, s].T for s in spans),
                             (psi_out[:, s].T for s in spans),
                             psi_in.shape[0], psi_out.shape[0], ridge)


def augmented_solve(psi_in, psi_out, ridge=0.0, chunk=tensor.QR_CHUNK):
    """The solve the regressor-only one replaced: an R-only streamed QR of
    the augmented rows [A | B], ridge rows [sqrt(ridge) I | 0] last, and K
    from the SVD of R's regressor columns; returns (K, info)."""
    d_in, d_out = psi_in.shape[0], psi_out.shape[0]
    rows = np.hstack([psi_in.T, psi_out.T])
    chunks = [rows[i : i + chunk] for i in range(0, len(rows), chunk)]
    if ridge > 0:
        chunks.append(np.hstack([np.sqrt(ridge) * np.eye(d_in),
                                 np.zeros((d_in, d_out))]))
    r = tensor.streamed_qr(iter(chunks))
    u, s, vt, cond = tensor.truncated_svd(r[:, :d_in])
    k = ((r[:, d_in:].T @ u) / s) @ vt
    flags = []
    if len(s) < d_in and ridge == 0:
        flags.append("rank-deficient regressors: minimum-norm solution")
    return k, {"rank": len(s), "cond": cond, "flags": flags}


class TestSolveLeastSquares:
    def test_identity_data(self):
        rng = np.random.default_rng(0)
        psi = rng.standard_normal((4, 60))
        k, info = solve(psi, psi, chunk=7)
        np.testing.assert_allclose(k, np.eye(4), atol=1e-10)
        assert info["rank"] == 4

    def test_scalar_decay(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 100))
        k, _ = solve(x, 0.9 * x)
        assert k[0, 0] == pytest.approx(0.9, abs=1e-12)

    def test_large_ridge_shrinks_solution(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 50))
        y = rng.standard_normal((3, 50))
        norms = []
        for rho in (0.0, 1e3, 1e9):
            k, _ = solve(x, y, ridge=rho)
            norms.append(np.linalg.norm(k))
        assert norms[0] > norms[1] > norms[2]
        assert norms[2] < 1e-6

    def test_rank_deficiency_flagged_minimum_norm(self):
        x = np.vstack([np.ones((1, 30)), np.ones((1, 30))])  # duplicated row
        y = np.ones((1, 30))
        k, info = solve(x, y, chunk=4)
        assert any("minimum-norm" in f for f in info["flags"])
        assert info["rank"] == 1
        # minimum-norm solution splits the weight evenly
        np.testing.assert_allclose(k, [[0.5, 0.5]], atol=1e-10)

    def test_residual_orthogonal_to_row_space(self):
        rng = np.random.default_rng(3)
        psi_in = rng.standard_normal((5, 200))
        psi_out = rng.standard_normal((4, 200))
        k, _ = solve(psi_in, psi_out, chunk=64)
        resid = psi_out - k @ psi_in
        scale = np.linalg.norm(psi_out) * np.linalg.norm(psi_in)
        assert np.linalg.norm(resid @ psi_in.T) <= 1e-6 * scale

    def test_duplicate_columns_leave_minimizer_unchanged(self):
        rng = np.random.default_rng(4)
        psi_in = rng.standard_normal((3, 80))
        psi_out = rng.standard_normal((3, 80))
        k1, _ = solve(psi_in, psi_out)
        # the copies straddle chunk boundaries
        k2, _ = solve(np.hstack([psi_in, psi_in]),
                      np.hstack([psi_out, psi_out]), chunk=11)
        np.testing.assert_allclose(k1, k2, atol=1e-9)


def gelsd_reference(psi_in, psi_out, ridge):
    """The solve the streamed QR replaced: one gelsd call on the
    ridge-augmented N-row system; returns (K, rank, cond)."""
    import scipy.linalg

    d_in, d_out = psi_in.shape[0], psi_out.shape[0]
    a, b = psi_in.T, psi_out.T
    if ridge > 0:
        a = np.vstack([a, np.sqrt(ridge) * np.eye(d_in)])
        b = np.vstack([b, np.zeros((d_in, d_out))])
    kt, _, rank, sv = scipy.linalg.lstsq(a, b, lapack_driver="gelsd")
    return kt.T, int(rank), float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf


class TestSolveMatchesGelsd:
    @pytest.mark.parametrize("n", [
        3,                              # underdetermined: N < d_in
        tensor.QR_CHUNK,
        tensor.QR_CHUNK + 1,
        3 * tensor.QR_CHUNK + 17])
    @pytest.mark.parametrize("ridge", [0.0, 1e-2])
    @pytest.mark.parametrize("deficient", [False, True])
    def test_streamed_solve_matches_gelsd(self, n, ridge, deficient):
        rng = np.random.default_rng([n, int(deficient)])
        psi_in = rng.standard_normal((6, n))
        if deficient:
            # a regressor that is exactly zero: a regressor equal to a
            # combination of others only in exact arithmetic leaves a
            # rounding-level singular value that either side of the eps
            # rank cut-off can land on
            psi_in[4] = 0.0
        psi_out = 0.5 * psi_in[:4] + rng.standard_normal((4, n))
        ridge *= n      # ridge scales with the snapshot count, as in use
        k_ref, rank_ref, cond_ref = gelsd_reference(psi_in, psi_out, ridge)
        k, info = solve(psi_in, psi_out, ridge)
        np.testing.assert_allclose(k, k_ref, rtol=1e-10,
                                   atol=1e-12 * np.abs(k_ref).max())
        assert info["rank"] == rank_ref
        assert ("rank-deficient regressors: minimum-norm solution"
                in info["flags"]) == (rank_ref < 6 and ridge == 0)
        if np.isfinite(cond_ref) and cond_ref < 1e8:
            assert info["cond"] == pytest.approx(cond_ref, rel=1e-10)
        else:   # a dropped direction: only its order of magnitude is fixed
            assert info["cond"] > 1e12


class TestAssemble:
    """The regressor [psi; (S psi) kron u] as identify_model builds it."""

    def test_shapes(self):
        rng = np.random.default_rng(5)
        m = polynomial_map("ident", (1, 2))
        ds = dataset_from_arrays(rng.standard_normal((40, 1)),
                                 rng.standard_normal((40, 1)),
                                 rng.standard_normal((40, 1)))
        model = edmd.identify_model(ds, m, np.eye(2), holdout_fraction=0.0)
        assert model.K_xx.shape == (2, 2)
        assert model.K_xu.shape == (2, 2)   # 2 lifted + 2 bilinear
        assert model.diagnostics["rank"] == 4
        assert model.diagnostics["n_snapshots"] == 40

    def test_zero_inputs_flagged(self):
        rng = np.random.default_rng(6)
        m = polynomial_map("ident", (1, 2))
        ds = dataset_from_arrays(rng.standard_normal((40, 1)),
                                 np.zeros((40, 1)),
                                 rng.standard_normal((40, 1)))
        model = edmd.identify_model(ds, m, np.eye(2), ridge=0.0)
        flags = model.diagnostics["flags"]
        assert any("unidentifiable" in f for f in flags)
        assert any("minimum-norm" in f for f in flags)
        # no input data: the minimum-norm K_xu is zero
        np.testing.assert_array_equal(model.K_xu, 0.0)

    def test_selection_dimension_checked(self):
        m = polynomial_map("ident", (1, 2))
        ds = dataset_from_arrays(np.ones((5, 1)), np.ones((5, 1)),
                                 np.ones((5, 1)))
        with pytest.raises(ValueError, match="columns"):
            edmd.identify_model(ds, m, np.eye(3))


class TestIdentifyModel:
    def test_lifted_linear_recovery(self):
        # x+ = 0.9 x with psi = x and no input influence
        rng = np.random.default_rng(7)
        x = rng.standard_normal((200, 1))
        u = rng.standard_normal((200, 1))
        ds = dataset_from_arrays(x, u, 0.9 * x)
        m = polynomial_map("lin", (1,))
        model = edmd.identify_model(ds, m, np.eye(1), ridge=0.0)
        assert model.K_xx[0, 0] == pytest.approx(0.9, abs=1e-10)
        assert abs(model.K_xu[0, 0]) < 1e-10

    def test_synthetic_bilinear_recovery(self):
        # identity lifting: treat psi itself as the state of a known model
        rng = np.random.default_rng(8)
        d, d_s = 3, 2
        k_xx = 0.5 * rng.standard_normal((d, d))
        k_xx /= max(1.0, np.max(np.abs(np.linalg.eigvals(k_xx))) / 0.8)
        k_xu = rng.standard_normal((d, d_s))
        s = np.zeros((d_s, d))
        s[0, 0] = s[1, 1] = 1.0
        psi0s = rng.standard_normal((20, d))
        u_seqs = rng.uniform(-1, 1, size=(20, 15, 1))
        xs, us, xns = simulate_bilinear(k_xx, k_xu, s, psi0s, u_seqs)
        ds = dataset_from_arrays(xs, us, xns)

        class IdentityMap:
            dim = d
            state_dim = d

            def __call__(self, x):
                return np.asarray(x, dtype=float)

            def to_descriptor(self):
                return {"name": "identity", "state_dim": d, "features": []}

        model = edmd.identify_model(ds, IdentityMap(), s, ridge=0.0,
                                    holdout_fraction=0.0)
        assert np.max(np.abs(model.K_xx - k_xx)) <= 1e-8
        assert np.max(np.abs(model.K_xu - k_xu)) <= 1e-8

    def test_holdout_mse_reported(self):
        # exact member of the model class: x+ = 0.7 x + 0.1 (x u)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((300, 1))
        u = rng.uniform(-1, 1, size=(300, 1))
        ds = dataset_from_arrays(x, u, 0.7 * x + 0.1 * x * u)
        m = polynomial_map("lin", (1,))
        model = edmd.identify_model(ds, m, np.eye(1))
        assert model.diagnostics["holdout_mse"] < 1e-10
        assert model.diagnostics["train_mse"] < 1e-10
        assert model.diagnostics["n_holdout"] > 0

    def test_split_without_training_snapshots_rejected(self):
        # one trajectory, which the whole-trajectory split holds out
        x = np.random.default_rng(10).standard_normal((30, 1))
        ds = dataset_from_arrays(x, np.ones((30, 1)), 0.5 * x)
        ds.traj_id[:] = 0
        with pytest.raises(ValueError, match=r"holdout_fraction 0\.1 holds "
                           r"out every trajectory \(trajectory count 1\)"):
            edmd.identify_model(ds, polynomial_map("lin", (1,)), np.eye(1))

    def test_empty_dataset_rejected(self):
        ds = dataset_from_arrays(np.zeros((0, 1)), np.zeros((0, 1)),
                                 np.zeros((0, 1)))
        with pytest.raises(ValueError, match="empty"):
            edmd.identify_model(ds, polynomial_map("lin", (1,)), np.eye(1))


class TestModelJson:
    def test_round_trip(self):
        rng = np.random.default_rng(10)
        m = single_pendulum_map()
        model = edmd.BilinearKoopmanModel(
            K_xx=rng.standard_normal((9, 9)),
            K_xu=rng.standard_normal((9, 1)),
            S=np.eye(9)[2:3], map_descriptor=m.to_descriptor(),
            diagnostics={"train_mse": 1e-9},
        )
        back = edmd.model_from_json(edmd.model_to_json(model))
        np.testing.assert_array_equal(back.K_xx, model.K_xx)
        np.testing.assert_array_equal(back.K_xu, model.K_xu)
        np.testing.assert_array_equal(back.S, model.S)
        assert back.state_dim == 2 and back.lifted_dim == 9


class TestBilinearRankCheck:
    def test_ill_conditioned_but_full_rank_block_not_flagged(self):
        # x stays within 1e-9 of 1, so the bilinear rows x u and x^2 u are
        # nearly parallel: condition number about 1e9, rank still 2.  The
        # Gram matrix bil @ bil.T squares that past 1/eps and would read
        # rank 1.
        rng = np.random.default_rng(11)
        x = 1.0 + 1e-9 * rng.uniform(-1, 1, size=(40, 1))
        u = rng.uniform(-1, 1, size=(40, 1))
        ds = dataset_from_arrays(x, u, rng.standard_normal((40, 1)))
        m = polynomial_map("quad", (1, 2))
        bil = m(x).T * u[:, 0]
        sv = np.linalg.svd(bil, compute_uv=False)
        assert 1e8 < sv[0] / sv[-1] < 1e10
        assert np.linalg.matrix_rank(bil @ bil.T) == 1
        model = edmd.identify_model(ds, m, np.eye(2), holdout_fraction=0.0)
        assert not any("unidentifiable" in f
                       for f in model.diagnostics["flags"])


def babbled_dataset(steps=15):
    from koopctl import babbling, plants

    cfg = babbling.BabblingConfig(
        num_gains=3, num_initial_conditions=9, gain_scale=1.0,
        state_grid=((-np.pi, np.pi), (-6.0, 6.0)), steps=steps, dt=0.01,
        seed=3)
    plant = plants.single_pendulum(m=1.0, L=1.0, b=0.3, gravity=1.0)
    m = single_pendulum_map()
    return babbling.generate_dataset(plant, m, m, cfg), m


def permuted(ds, order):
    from koopctl.babbling import SnapshotDataset

    return SnapshotDataset(
        x=ds.x[order], u=ds.u[order], x_next=ds.x_next[order],
        gain_index=ds.gain_index[order], ic_index=ds.ic_index[order],
        step_index=ds.step_index[order], traj_id=ds.traj_id[order],
        n_trajectories=ds.n_trajectories, n_dropped=ds.n_dropped,
        meta=ds.meta)


class CountingMap:
    """Wraps a map and records the number of states of every lift."""

    def __init__(self, m):
        self.m = m
        self.dim = m.dim
        self.rows = []

    def __call__(self, x):
        self.rows.append(np.asarray(x).shape[0])
        return self.m(x)

    def to_descriptor(self):
        return self.m.to_descriptor()


class TestLiftSnapshots:
    @pytest.mark.parametrize("kind", ["babbled", "saved", "permuted"])
    def test_reuse_equals_full_relift_bitwise(self, kind, tmp_path):
        from koopctl import babbling

        ds, m = babbled_dataset()
        if kind == "saved":
            babbling.save_dataset(ds, tmp_path / "ds")
            ds = babbling.load_dataset(tmp_path / "ds")
        elif kind == "permuted":
            ds = permuted(ds, np.random.default_rng(12).permutation(len(ds)))
            assert not np.any(np.all(ds.x_next[:-1] == ds.x[1:], axis=1))
        counted = CountingMap(m)
        psi, next_cols = edmd.lift_snapshots(ds, counted)
        # one lift of x and of the rows of x_next that do not chain
        ends = len(ds) if kind == "permuted" else ds.n_trajectories
        assert counted.rows == [len(ds) + ends]
        # feature-major: psi[:, :N].T is the (N, d_psi) lift of x, and
        # psi(x_next) is gathered through next_cols, element for element
        assert psi.flags.c_contiguous
        assert psi.shape == (m.dim, len(ds) + ends)
        assert psi[:, : len(ds)].T.tobytes() == m(ds.x).tobytes()
        assert psi[:, next_cols].T.tobytes() == m(ds.x_next).tobytes()
        assert next_cols.shape == (len(ds),)


def reference_identify(ds, map_x, S, ridge=None, holdout_fraction=0.1):
    """identify_model as it was before lifting once: each subset is copied
    and relifted, the regressor is vstacked and solved by gelsd."""
    import scipy.linalg

    from koopctl.babbling import SnapshotDataset

    def subset(mask):
        return SnapshotDataset(
            x=ds.x[mask], u=ds.u[mask], x_next=ds.x_next[mask],
            gain_index=ds.gain_index[mask], ic_index=ds.ic_index[mask],
            step_index=ds.step_index[mask], traj_id=ds.traj_id[mask])

    def regressors(sub):
        psi = map_x(sub.x).T
        sel = S @ psi
        u = sub.u.T
        bil = (sel[:, None, :] * u[None, :, :]).reshape(-1, psi.shape[1])
        return psi, bil, map_x(sub.x_next).T

    def mse(k, sub):
        psi, bil, psi_next = regressors(sub)
        pred = k[:, :d_psi] @ psi + k[:, d_psi:] @ bil
        return float(np.mean((pred - psi_next) ** 2))

    train, holdout = ds.split_by_trajectory(holdout_fraction)
    n_train = int(train.sum())
    rho = 1e-8 * n_train if ridge is None else float(ridge)
    psi, bil, psi_next = regressors(subset(train))
    d_psi = psi.shape[0]
    d_in = d_psi + bil.shape[0]
    a = np.vstack([psi, bil]).T
    b = psi_next.T
    if rho > 0:
        a = np.vstack([a, np.sqrt(rho) * np.eye(d_in)])
        b = np.vstack([b, np.zeros((d_in, d_psi))])
    kt, _, rank, sv = scipy.linalg.lstsq(a, b, lapack_driver="gelsd")
    k = kt.T
    diag = {"train_mse": mse(k, subset(train)), "n_train": n_train,
            "n_holdout": int(holdout.sum()), "ridge": rho, "rank": int(rank),
            "cond": float(sv[0] / sv[-1]), "flags": [],
            "n_snapshots": n_train}
    if holdout.any():
        diag["holdout_mse"] = mse(k, subset(holdout))
    return k[:, :d_psi], k[:, d_psi:], diag


class TestIdentifyMatchesRelift:
    """identify_model against the relift-and-gelsd reference.

    The streamed QR rounds differently from gelsd, so K, cond and the MSEs
    are held to rtol 1e-12 (measured: 5e-15 to 1.6e-14); rank, flags and
    counts must be equal.
    """

    @pytest.mark.parametrize("ridge,holdout", [(None, 0.1), (0.0, 0.25),
                                               (1e-3, 0.0)])
    def test_bitwise_equal_to_subset_relift(self, ridge, holdout):
        ds, m = babbled_dataset(steps=40)
        S = np.eye(m.dim)[m.labels.index("1")][None, :]
        k_xx, k_xu, diag = reference_identify(ds, m, S, ridge, holdout)
        model = edmd.identify_model(ds, m, S, ridge=ridge,
                                    holdout_fraction=holdout)
        k_ref = np.hstack([k_xx, k_xu])
        k = np.hstack([model.K_xx, model.K_xu])
        np.testing.assert_allclose(k, k_ref, rtol=0,
                                   atol=1e-12 * np.abs(k_ref).max())
        got = dict(model.diagnostics)
        for key in ("cond", "train_mse", "holdout_mse"):
            if key in diag:
                assert got.pop(key) == pytest.approx(diag.pop(key),
                                                     rel=1e-12)
        assert got == diag


def protocol_dataset(kind):
    """The babbling dataset and selection S of acceptance criterion 6
    (single pendulum) or 7 (double pendulum), protocol seed 0."""
    from koopctl import babbling, plants
    from koopctl.factorization import fit_pair
    from koopctl.observables import double_pendulum_map

    if kind == "single":
        plant = plants.single_pendulum(m=1.0, L=1.0, b=0.3, gravity=1.0)
        m = single_pendulum_map()
        cfg = babbling.BabblingConfig(
            num_gains=25, num_initial_conditions=25, gain_scale=1.0,
            state_grid=((-np.pi, np.pi), (-6.0, 6.0)), steps=100, dt=0.01,
            seed=0)
    else:
        plant = plants.double_pendulum(m1=1.0, m2=1.0, l1=1.0, l2=1.0,
                                       gravity=1.0)
        m = double_pendulum_map()
        cfg = babbling.BabblingConfig(
            num_gains=20, num_initial_conditions=108, gain_scale=1.0,
            state_grid=((-np.pi, np.pi), (-np.pi, np.pi), (-2.0, 2.0),
                        (-2.0, 2.0)),
            steps=100, dt=0.01, seed=0)
    ds = babbling.generate_dataset(plant, m, m, cfg)
    return ds, m, fit_pair(ds, m, m).S


class TestRegressorOnlySolve:
    """identify_model factors only [psi | (S psi) kron u] and carries psi+
    as the right-hand side; the augmented R-only solve is its oracle."""

    @pytest.mark.parametrize("kind", [
        "single", pytest.param("double", marks=pytest.mark.slow)])
    def test_protocol_model_matches_augmented_solve(self, kind):
        ds, m, s = protocol_dataset(kind)
        model = edmd.identify_model(ds, m, s)
        diag = model.diagnostics
        train, _ = ds.split_by_trajectory(0.1)
        psi, next_cols = edmd.lift_snapshots(ds, m)
        psi_next = psi[:, next_cols]
        assert psi_next.T.tobytes() == m(ds.x_next).tobytes()
        psi = psi[:, : len(ds)]
        assert psi.T.tobytes() == m(ds.x).tobytes()
        bil = edmd._bilinear_rows(s, psi, ds.u.T)
        regressor = np.vstack([psi, bil])[:, train]
        assert regressor.shape[0] == m.dim + s.shape[0] * ds.u.shape[1]
        k_ref, info_ref = augmented_solve(regressor, psi_next[:, train],
                                          diag["ridge"])
        k = np.hstack([model.K_xx, model.K_xu])
        assert np.abs(k - k_ref).max() <= 1e-12 * np.abs(k_ref).max()
        assert diag["rank"] == info_ref["rank"]
        assert [f for f in diag["flags"] if "minimum-norm" in f] \
            == info_ref["flags"]
        assert diag["cond"] == pytest.approx(info_ref["cond"], rel=1e-10)
