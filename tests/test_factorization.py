import numpy as np
import pytest

from koopctl import factorization as fz
from koopctl.edmd import BilinearKoopmanModel
from koopctl.tensor import QR_CHUNK, row_chunks, truncated_svd
from koopctl.observables import (
    Feature,
    ObservableMap,
    double_pendulum_map,
    polynomial_map,
    single_pendulum_map,
)


def scalar_states(n=400, lo=-2.0, hi=2.0, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(n, 1))


class TestFitCandidateHbar:
    def test_polynomial_span_blocks(self):
        # psi_x = [x, x^2], psi_u = [x]: block 1 target x*x = x^2 lies in
        # the span (residual 0), block 2 target x^3 does not
        map_x = polynomial_map("quad", (1, 2))
        map_u = polynomial_map("lin", (1,))
        hbar, res, info = fz.fit_candidate_hbar(scalar_states(), map_x, map_u)
        assert res[0] < 1e-10
        np.testing.assert_allclose(hbar[0], [0.0, 1.0], atol=1e-10)
        assert res[1] > 1e-3

    def test_constant_controller_feature_gives_indicator_rows(self):
        # psi_u = [1] alone is not allowed (state must lead), so use the
        # pendulum map: its constant feature block reproduces psi_x itself
        m = single_pendulum_map()
        rng = np.random.default_rng(1)
        states = rng.uniform(-3, 3, size=(500, 2))
        hbar, res, _ = fz.fit_candidate_hbar(states, m, m)
        const_idx = m.labels.index("1")
        block = hbar[const_idx * m.dim : (const_idx + 1) * m.dim]
        np.testing.assert_allclose(block, np.eye(m.dim), atol=1e-8)
        assert res[const_idx] < 1e-8

    def test_degenerate_data_flagged(self):
        map_x = polynomial_map("quad", (1, 2))
        map_u = polynomial_map("lin", (1,))
        states = np.full((50, 1), 1.5)
        _, _, info = fz.fit_candidate_hbar(states, map_x, map_u)
        assert any("rank" in f for f in info["flags"])

    def test_separability_matches_blockwise_fits(self):
        import scipy.linalg

        map_x = single_pendulum_map()
        map_u = single_pendulum_map()
        rng = np.random.default_rng(2)
        states = rng.uniform(-2, 2, size=(300, 2))
        hbar, _, _ = fz.fit_candidate_hbar(states, map_x, map_u)
        psi_x = map_x(states)
        psi_u = map_u(states)
        for i in (0, 2, 5):
            target = psi_x[:, i : i + 1] * psi_u
            block_t, *_ = scipy.linalg.lstsq(psi_x, target,
                                             lapack_driver="gelsd")
            np.testing.assert_allclose(
                hbar[i * map_u.dim : (i + 1) * map_u.dim], block_t.T,
                atol=1e-8)


class TestThresholdMask:
    def test_example_stacking_pattern(self):
        # four blocks with pattern s = [1, 0, 1, 0]:
        # psi_x = [x, x^3, x^2, x^5], psi_u = [x]; x*x and x^2*x stay in
        # the span, x^3*x and x^5*x do not
        map_x = ObservableMap(
            name="pattern", state_dim=1,
            features=(polynomial_map("t", (1,)).features[0],
                      polynomial_map("t", (1, 3)).features[1],
                      polynomial_map("t", (1, 2)).features[1],
                      polynomial_map("t", (1, 5)).features[1]))
        map_u = polynomial_map("lin", (1,))
        hbar, res, _ = fz.fit_candidate_hbar(scalar_states(600), map_x, map_u)
        pair = fz.threshold_mask(hbar, res, 1e-6, map_u.dim)
        np.testing.assert_array_equal(pair.mask, [1, 0, 1, 0])
        np.testing.assert_allclose(
            pair.S, [[1, 0, 0, 0], [0, 0, 1, 0]], atol=0)
        # x * x = x^2 -> e3 row; x^2 * x = x^3 -> e2 row
        np.testing.assert_allclose(pair.H, [[0, 0, 1, 0], [0, 1, 0, 0]],
                                   atol=1e-8)
        # the augmented matrix interleaves retained blocks with zeros
        aug = fz.augmented_hbar(pair)
        np.testing.assert_allclose(aug[0], pair.H[0])
        np.testing.assert_allclose(aug[1], 0.0)
        np.testing.assert_allclose(aug[2], pair.H[1])
        np.testing.assert_allclose(aug[3], 0.0)

    def test_all_blocks_retained_gives_identity_selection(self):
        hbar = np.arange(12.0).reshape(4, 3)  # 4 blocks of 1 row, d_psi_x = 3
        # treat as d_psi_x = 4? keep consistent: 4 blocks, d_psi_u = 1, d_psi_x = 3
        res = np.array([1e-9, 1e-9, 1e-9])
        pair = fz.threshold_mask(hbar[:3], res, 1e-6, 1)
        np.testing.assert_array_equal(pair.S, np.eye(3))
        np.testing.assert_array_equal(pair.H, hbar[:3])

    def test_nothing_retained_is_hard_error(self):
        res = np.array([1.0, 2.0])
        with pytest.raises(fz.FactorizationError, match="no block"):
            fz.threshold_mask(np.zeros((4, 2)), res, 1e-6, 2)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            fz.threshold_mask(np.zeros((2, 2)), np.zeros(2), 0.0, 1)


class TestVerifyAssumption1:
    def test_exact_cubic_pair(self):
        # psi_x = [x, x^2, x^3], psi_u = [x]: S selects [x, x^2] and
        # H maps to [x^2, x^3] exactly
        map_x = polynomial_map("cubic", (1, 2, 3))
        map_u = polynomial_map("lin", (1,))
        pair = fz.FactorizationPair(
            S=np.array([[1.0, 0, 0], [0, 1.0, 0]]),
            H=np.array([[0.0, 1, 0], [0, 0, 1.0]]),
            mask=np.array([1, 1, 0]), residuals=np.zeros(3), eps_h=1e-6)
        resid = fz.verify_assumption1(pair, map_x, map_u, scalar_states(100))
        assert resid < 1e-12

    def test_random_pair_is_rejected(self):
        rng = np.random.default_rng(3)
        map_x = polynomial_map("cubic", (1, 2, 3))
        map_u = polynomial_map("lin", (1,))
        pair = fz.FactorizationPair(
            S=np.array([[1.0, 0, 0], [0, 1.0, 0]]),
            H=rng.standard_normal((2, 3)),
            mask=np.array([1, 1, 0]), residuals=np.zeros(3), eps_h=1e-6)
        assert fz.verify_assumption1(pair, map_x, map_u,
                                     scalar_states(100)) > 0.1

    def test_fitted_pendulum_pair_generalizes(self):
        m = single_pendulum_map()
        rng = np.random.default_rng(4)
        train = rng.uniform(-3, 3, size=(400, 2))
        pair = fz.fit_pair(train, m, m)
        held_out = rng.uniform(-3, 3, size=(200, 2))
        assert fz.verify_assumption1(pair, m, m, held_out) <= 10 * pair.eps_h


class TestPendulumSelection:
    def test_single_pendulum_keeps_only_the_constant(self):
        m = single_pendulum_map()
        rng = np.random.default_rng(5)
        states = rng.uniform(-3, 3, size=(600, 2))
        pair = fz.fit_pair(states, m, m)
        assert pair.d_S == 1
        assert pair.S[0, m.labels.index("1")] == 1.0
        np.testing.assert_allclose(pair.H, np.eye(9), atol=1e-7)

    def test_double_pendulum_keeps_only_the_constant(self):
        m = double_pendulum_map()
        rng = np.random.default_rng(6)
        states = rng.uniform(-3, 3, size=(1500, 4))
        pair = fz.fit_pair(states, m, m)
        assert pair.d_S == 1
        assert pair.S[0, m.labels.index("1")] == 1.0

    def test_selection_rows_are_binary_with_unit_row_sum(self):
        m = single_pendulum_map()
        rng = np.random.default_rng(7)
        pair = fz.fit_pair(rng.uniform(-2, 2, size=(400, 2)), m, m)
        assert set(np.unique(pair.S)) <= {0.0, 1.0}
        np.testing.assert_array_equal(pair.S.sum(axis=1), np.ones(pair.d_S))

    def test_mask_hadamard_kron_identity(self):
        # (s . psi_x) kron psi_u == (s kron 1) . (psi_x kron psi_u)
        m = single_pendulum_map()
        rng = np.random.default_rng(8)
        pair = fz.fit_pair(rng.uniform(-2, 2, size=(300, 2)), m, m)
        s = pair.mask.astype(float)
        for _ in range(50):
            x = rng.uniform(-3, 3, size=2)
            px, pu = m(x), m(x)
            lhs = np.kron(s * px, pu)
            rhs = np.kron(s, np.ones(m.dim)) * np.kron(px, pu)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestAssembleKtilde:
    def make_model(self, seed=9):
        rng = np.random.default_rng(seed)
        k_xx = rng.standard_normal((3, 3))
        k_xu = rng.standard_normal((3, 2))
        s = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        model = BilinearKoopmanModel(
            K_xx=k_xx, K_xu=k_xu, S=s,
            map_descriptor=polynomial_map("cubic", (1, 2, 3)).to_descriptor())
        h = np.array([[0.0, 1, 0], [0, 0, 1.0]])
        return model, h

    def test_zero_gain_is_open_loop(self):
        model, h = self.make_model()
        closed = fz.assemble_ktilde(model, np.zeros((1, 1)), h)
        np.testing.assert_array_equal(closed.Ktilde, model.K_xx)

    def test_linearity_in_gain(self):
        model, h = self.make_model()
        k_u = np.array([[0.37]])
        full = fz.assemble_ktilde(model, k_u, h).Ktilde - model.K_xx
        half = fz.assemble_ktilde(model, 0.5 * k_u, h).Ktilde - model.K_xx
        np.testing.assert_allclose(half, 0.5 * full, atol=1e-12)

    def test_closed_loop_equivalence_on_exact_family(self):
        # direct one-step closed-loop lifting equals Ktilde psi whenever
        # the compatibility identity holds exactly
        map_x = polynomial_map("cubic", (1, 2, 3))
        rng = np.random.default_rng(10)
        h = np.array([[0.0, 1, 0], [0, 0, 1.0]])
        for _ in range(100):
            model, _ = self.make_model(seed=rng.integers(1 << 30))
            k_u = rng.standard_normal((1, 1))
            closed = fz.assemble_ktilde(model, k_u, h)
            x = rng.uniform(-2, 2)
            psi = map_x([x])
            u = k_u @ np.atleast_1d(x)
            direct = model.K_xx @ psi + model.K_xu @ np.kron(model.S @ psi, u)
            via_ktilde = closed.Ktilde @ psi
            assert np.max(np.abs(direct - via_ktilde)) <= 1e-10 * max(
                1.0, np.max(np.abs(direct)))

    def test_shape_mismatch_rejected(self):
        model, h = self.make_model()
        with pytest.raises(ValueError, match="H has shape"):
            fz.assemble_ktilde(model, np.zeros((1, 1)), h[:1])


class TestPairJson:
    def test_round_trip(self):
        m = single_pendulum_map()
        rng = np.random.default_rng(11)
        pair = fz.fit_pair(rng.uniform(-2, 2, size=(200, 2)), m, m)
        back = fz.pair_from_json(fz.pair_to_json(pair))
        np.testing.assert_array_equal(back.S, pair.S)
        np.testing.assert_array_equal(back.H, pair.H)
        np.testing.assert_array_equal(back.mask, pair.mask)
        assert back.eps_h == pair.eps_h


def one_shot_reference(states, map_x, map_u):
    """The fit the streamed one replaced: one gelsd solve against the whole
    N x (d_psi_x d_psi_u) target; returns (hbar, residuals, rank, the RMS
    magnitude of the target)."""
    import scipy.linalg

    psi_x = map_x(states)
    psi_u = map_u(states)
    n = psi_x.shape[0]
    target = (psi_x[:, :, None] * psi_u[:, None, :]).reshape(n, -1)
    hbar_t, _, rank, _ = scipy.linalg.lstsq(psi_x, target,
                                            lapack_driver="gelsd")
    err = (target - psi_x @ hbar_t).reshape(n, psi_x.shape[1], -1)
    residuals = np.sqrt(np.mean(np.sum(err ** 2, axis=2), axis=0))
    kron_sq = np.sum(psi_x ** 2, axis=1) * np.sum(psi_u ** 2, axis=1)
    return hbar_t.T, residuals, int(rank), float(np.sqrt(np.mean(kron_sq)))


class TestStreamedFitMatchesOneShot:
    @pytest.mark.parametrize("case", ["single", "double", "degenerate"])
    def test_blocks_masks_and_diagnostics(self, case):
        rng = np.random.default_rng(12)
        if case == "single":
            map_x = map_u = single_pendulum_map()
            states = rng.uniform(-3, 3, size=(400, 2))
        elif case == "double":
            map_x = map_u = double_pendulum_map()
            states = rng.uniform(-3, 3, size=(600, 4))
        else:
            map_x = polynomial_map("quad", (1, 2))
            map_u = polynomial_map("lin", (1,))
            states = np.full((50, 1), 1.5)
        hbar_ref, res_ref, rank_ref, scale = one_shot_reference(
            states, map_x, map_u)
        hbar, res, info = fz.fit_candidate_hbar(states, map_x, map_u)
        tol = 1e-10 * max(1.0, scale)
        np.testing.assert_allclose(hbar, hbar_ref, rtol=1e-10, atol=tol)
        np.testing.assert_allclose(res, res_ref, rtol=1e-10, atol=tol)
        assert np.all(np.isfinite(hbar))
        assert info["rank"] == rank_ref
        assert ("rank-deficient psi_x regressor" in info["flags"]) \
            == (rank_ref < map_x.dim)
        # the automatic eps_h is 1e-6 of the target's RMS magnitude
        pair = fz.fit_pair(states, map_x, map_u)
        assert pair.eps_h == 1e-6 * scale
        np.testing.assert_array_equal(pair.mask, res_ref <= pair.eps_h)

    def test_shared_map_is_lifted_once(self):
        m = single_pendulum_map()
        calls = []

        class CountingMap(type(m)):
            def __call__(self, x, out=None):
                calls.append(np.asarray(x).shape[0])
                return super().__call__(x, out)

        counted = CountingMap(name=m.name, state_dim=m.state_dim,
                              features=m.features)
        states = np.random.default_rng(13).uniform(-2, 2, size=(300, 2))
        pair = fz.fit_pair(states, counted, counted)
        assert calls == [300]
        assert pair.d_S == 1


def gesdd_reference(psi_x, psi_u):
    """The block fit the streamed QR replaced: every block against one
    gesdd thin SVD of psi_x; returns (hbar, residuals, rank, cond)."""
    import scipy.linalg

    n, d_x = psi_x.shape
    d_u = psi_u.shape[1]
    u, sv, vt = scipy.linalg.svd(psi_x, full_matrices=False)
    rank = int(np.sum(sv > np.finfo(float).eps * sv[0])) if sv[0] > 0 else 0
    u_r, vt_r, sv_r = u[:, :rank], vt[:rank], sv[:rank]
    hbar = np.zeros((d_x * d_u, d_x))
    residuals = np.zeros(d_x)
    for i in range(d_x):
        target = psi_x[:, i : i + 1] * psi_u
        coef = vt_r.T @ ((u_r.T @ target) / sv_r[:, None])
        target -= psi_x @ coef
        residuals[i] = np.linalg.norm(target) / np.sqrt(n)
        hbar[i * d_u : (i + 1) * d_u] = coef.T
    return hbar, residuals, rank, \
        float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf


class TestStreamedBasisMatchesGesdd:
    @pytest.mark.parametrize("n", [
        3,                              # fewer snapshots than features
        QR_CHUNK, QR_CHUNK + 1, 3 * QR_CHUNK + 17])
    @pytest.mark.parametrize("deficient", [False, True])
    def test_blocks_rank_and_cond(self, n, deficient):
        rng = np.random.default_rng([n, int(deficient)])
        # feature-major (d, N) arrays, the layout evaluate_batch gives
        psi_x = rng.uniform(-2, 2, size=(5, n))
        if deficient:
            psi_x[3] = 0.0        # an exactly zero feature
        psi_u = psi_x if n % 2 else rng.uniform(-2, 2, size=(3, n))
        hbar_ref, res_ref, rank_ref, cond_ref = gesdd_reference(psi_x.T,
                                                                psi_u.T)
        hbar, res, info = fz._fit_blocks(psi_x, psi_u)
        np.testing.assert_allclose(hbar, hbar_ref, rtol=1e-10,
                                   atol=1e-12 * np.abs(hbar_ref).max())
        # a residual in the span of psi_x is rounding noise of the target
        target_scale = np.abs(psi_x).max() * np.abs(psi_u).max()
        np.testing.assert_allclose(res, res_ref, rtol=1e-10,
                                   atol=1e-12 * target_scale)
        assert info["rank"] == rank_ref
        assert info["flags"] == (["rank-deficient psi_x regressor"]
                                 if rank_ref < 5 else [])
        if np.isfinite(cond_ref) and cond_ref < 1e8:
            assert info["cond"] == pytest.approx(cond_ref, rel=1e-10)
        else:
            assert info["cond"] > 1e12


def streamed_q(a):
    """(Q, R) of the rows of ``a`` from a flat-tree QR of QR_CHUNK-row
    chunks, Q rotated back through each later step's top rows."""
    n = a.shape[0]
    q = np.empty((n, min(a.shape)))
    r, steps = None, []
    for s in row_chunks(n):
        stacked = a[s] if r is None else np.vstack([r, a[s]])
        top = stacked.shape[0] - (s.stop - s.start)
        qk, r = np.linalg.qr(stacked)
        q[s, : qk.shape[1]] = qk[top:]
        steps.append((s, qk.shape[1], qk[:top]))
    t = np.eye(r.shape[0])
    for rows, width, top in reversed(steps):
        q[rows] = q[rows, :width] @ t
        t = top @ t
    return q, r


def per_block_reference(psi_x, psi_u):
    """The fit the all-products one replaced: every block in turn, on
    (N, d) rows, against the basis Q W of psi_x from ``streamed_q`` and the
    SVD of R; returns (hbar, residuals, info, block target RMS)."""
    n, d_x = psi_x.shape
    d_u = psi_u.shape[1]
    q, r = streamed_q(psi_x)
    w, sv_r, vt_r, cond = truncated_svd(r)
    u_r = q @ w
    hbar = np.zeros((d_x * d_u, d_x))
    residuals, scale = np.zeros(d_x), np.zeros(d_x)
    for i in range(d_x):
        target = psi_x[:, i : i + 1] * psi_u
        scale[i] = np.linalg.norm(target) / np.sqrt(n)
        coef = vt_r.T @ ((u_r.T @ target) / sv_r[:, None])
        target -= psi_x @ coef
        residuals[i] = np.linalg.norm(target) / np.sqrt(n)
        hbar[i * d_u : (i + 1) * d_u] = coef.T
    info = {"rank": len(sv_r), "n_snapshots": n, "cond": cond, "flags": []}
    if len(sv_r) < d_x:
        info["flags"].append("rank-deficient psi_x regressor")
    return hbar, residuals, info, scale


def single_pendulum_controller_map():
    """A psi_u that is not psi_x: state, constant and sin(theta)."""
    m = single_pendulum_map()
    return ObservableMap(name="ctrl", state_dim=2,
                         features=tuple(m.features[i] for i in (0, 1, 2, 5)))


def zero_feature_map():
    """The single-pendulum map plus sin(0 * x), an exactly zero feature."""
    m = single_pendulum_map()
    zero = Feature(label="0", trigs=(("sin", (0.0, 0.0)),))
    return ObservableMap(name="zero", state_dim=2,
                         features=m.features[:4] + (zero,) + m.features[4:])


class TestAllProductsFitMatchesPerBlock:
    """The two-pass all-products fit against the per-block fit it replaced."""

    @pytest.mark.parametrize("n", [3, QR_CHUNK, QR_CHUNK + 1])
    @pytest.mark.parametrize("case", ["single", "double", "distinct-map-u",
                                      "zero-feature"])
    def test_mask_rank_flags_blocks_and_residuals(self, case, n):
        if case == "double":
            map_x = map_u = double_pendulum_map()
        elif case == "zero-feature":
            map_x = map_u = zero_feature_map()
        else:
            map_x = map_u = single_pendulum_map()
        if case == "distinct-map-u":
            map_u = single_pendulum_controller_map()
        states = np.random.default_rng(n).uniform(-3, 3,
                                                  (n, map_x.state_dim))
        psi_x, psi_u = fz._lift_states(states, map_x, map_u)
        assert (psi_u is psi_x) == (case != "distinct-map-u")
        hbar, res, info = fz._fit_blocks(psi_x, psi_u)
        hbar_ref, res_ref, info_ref, scale = per_block_reference(psi_x.T,
                                                                 psi_u.T)
        assert info["rank"] == info_ref["rank"]
        assert info["flags"] == info_ref["flags"]
        assert info["n_snapshots"] == n
        assert (info["rank"] < map_x.dim) == (case == "zero-feature"
                                              or n < map_x.dim)
        np.testing.assert_allclose(hbar, hbar_ref, rtol=0,
                                   atol=1e-12 * np.abs(hbar_ref).max())
        tol = np.maximum(1e-12 * res_ref, 1e2 * np.finfo(float).eps * scale)
        assert np.all(np.abs(res - res_ref) <= tol)
        eps_h = fz._auto_eps_h(psi_x, psi_u)
        np.testing.assert_array_equal(res <= eps_h, res_ref <= eps_h)


def two_buffer_fit_blocks(psi_x, psi_u):
    """``_fit_blocks`` as it was with a second (products, QR_CHUNK) buffer
    for the fit: pass 2 forms each chunk of products and subtracts the
    fit from it."""
    from koopctl.tensor import streamed_qr

    d_x, n = psi_x.shape
    d_u = psi_u.shape[0]
    blocks, index = fz._product_layout(d_x, d_u, psi_u is psi_x)
    n_products = index.max() + 1
    chunk = np.empty((n_products, min(n, QR_CHUNK)))
    fit = np.empty_like(chunk)

    def products(s):
        c = chunk[:, : s.stop - s.start]
        for i, h, rows in blocks:
            np.multiply(psi_x[i, s], psi_u[h:, s], out=c[rows])
        return c

    spans = row_chunks(n)
    r, qtc = streamed_qr((psi_x[:, s].T for s in spans),
                         (products(s).T for s in spans))
    w, sv_r, vt_r, cond = truncated_svd(r)
    coef_t = ((w.T @ qtc) / sv_r[:, None]).T @ vt_r
    sq = np.zeros(n_products)
    for s in spans:
        c = products(s)
        c -= np.matmul(coef_t, psi_x[:, s], out=fit[:, : c.shape[1]])
        sq += np.einsum("ij,ij->i", c, c)
    hbar = coef_t[index].reshape(d_x * d_u, d_x)
    residuals = np.sqrt(sq[index].sum(axis=1) / n)
    info = {"rank": len(sv_r), "n_snapshots": int(n), "cond": cond,
            "flags": []}
    if len(sv_r) < d_x:
        info["flags"].append("rank-deficient psi_x regressor")
    return hbar, residuals, info


class TestOneResidualBufferMatchesTwo:
    """Pass 2 writes the fit into the product buffer and subtracts each
    block of products from it; the two-buffer pass is its oracle."""

    @pytest.mark.parametrize("n", [3, QR_CHUNK - 1, 2 * QR_CHUNK + 17])
    @pytest.mark.parametrize("case", ["single", "double", "distinct-map-u",
                                      "zero-feature"])
    def test_hbar_residuals_and_info_bitwise(self, case, n):
        map_x = {"double": double_pendulum_map,
                 "zero-feature": zero_feature_map}.get(
                     case, single_pendulum_map)()
        map_u = single_pendulum_controller_map() \
            if case == "distinct-map-u" else map_x
        states = np.random.default_rng([n, 3]).uniform(
            -3, 3, (n, map_x.state_dim))
        psi_x, psi_u = fz._lift_states(states, map_x, map_u)
        hbar, res, info = fz._fit_blocks(psi_x, psi_u)
        hbar_ref, res_ref, info_ref = two_buffer_fit_blocks(psi_x, psi_u)
        assert hbar.tobytes() == hbar_ref.tobytes()
        assert res.tobytes() == res_ref.tobytes()
        assert info == info_ref
