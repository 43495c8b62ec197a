import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from koopctl import observables as obs
from koopctl.evaluation import feedback_controller
from koopctl.tensor import QR_CHUNK, row_chunks


def reference_feature(f: obs.Feature, x) -> np.ndarray:
    """One feature on its own, the per-feature path the lift plan replaced."""
    x = np.asarray(x, dtype=float)
    val = np.ones(x.shape[:-1])
    for i, p in enumerate(f.poly):
        if p == 1:
            val = val * x[..., i]
        elif p:
            val = val * x[..., i] ** p
    for kind, coeffs in f.trigs:
        arg = reference_linear_combination(x, coeffs)
        val = val * (np.sin(arg) if kind == "sin" else np.cos(arg))
    if f.denom is not None:
        offset, scale, coeffs = f.denom
        val = val / (offset + scale * np.cos(
            reference_linear_combination(x, coeffs)))
    return val


def reference_linear_combination(x, coeffs):
    acc = np.zeros(x.shape[:-1])
    for i, c in enumerate(coeffs):
        if c:
            acc = acc + c * x[..., i]
    return acc


def reference_lift(m: obs.ObservableMap, x) -> np.ndarray:
    return np.stack([reference_feature(f, x) for f in m.features], axis=-1)


def assert_bitwise(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


COEFFS = st.sampled_from([0, 0.0, -0.0, 1, -1, 1.0, -2, 2.0, 0.5, -3.0])


@st.composite
def random_maps(draw):
    """Maps whose features share, or do not share, their pieces."""
    d_x = draw(st.integers(1, 4))
    # a small pool of combinations makes features share them; a fresh
    # draw makes one that is shared with nothing
    pool = draw(st.lists(st.tuples(*[COEFFS] * d_x), min_size=1, max_size=3))
    combo = st.one_of(st.sampled_from(pool), st.tuples(*[COEFFS] * d_x))
    kind = st.sampled_from(["sin", "cos"])
    denom = st.one_of(st.none(), st.tuples(
        st.sampled_from([3.0, 2.5]), st.sampled_from([-2.0, 1.0, 0.5]), combo))
    feats = [obs.state_feature(i, d_x, f"x{i}") for i in range(d_x)]
    for j in range(draw(st.integers(0, 8))):
        feats.append(obs.Feature(
            label=f"f{j}",
            poly=tuple(draw(st.lists(st.integers(0, 3), min_size=d_x,
                                     max_size=d_x))),
            trigs=tuple(draw(st.lists(st.tuples(kind, combo), max_size=3))),
            denom=draw(denom)))
    if draw(st.booleans()):
        feats.append(obs.Feature(label="1"))
    return obs.ObservableMap(name="random", state_dim=d_x,
                             features=tuple(feats))


class TestLiftPlanMatchesPerFeature:
    """The lift plan against evaluating every feature on its own."""

    @settings(max_examples=150, deadline=None)
    @given(m=random_maps(), data=st.data())
    def test_random_maps_bitwise(self, m, data):
        lead = data.draw(st.sampled_from([(), (1,), (7,), (3, 5)]))
        x = data.draw(hnp.arrays(
            np.float64, lead + (m.state_dim,),
            elements=st.one_of(st.sampled_from([0.0, -0.0]),
                               st.floats(-10.0, 10.0))))
        with np.errstate(all="ignore"):
            want = reference_lift(m, x)
            assert_bitwise(m(x), want)
            if len(lead) == 1:
                # the batch lift is feature-major: one contiguous row each
                batch = obs.evaluate_batch(m, x)
                assert batch.flags.c_contiguous
                assert_bitwise(batch, want.T)

    @pytest.mark.parametrize("make", [obs.single_pendulum_map,
                                      obs.double_pendulum_map])
    def test_protocol_maps_bitwise(self, make):
        m = make()
        rng = np.random.default_rng(5)
        for lead in [(), (60,), (4, 30)]:
            x = rng.uniform(-6, 6, size=lead + (m.state_dim,))
            x.flat[::5] = 0.0
            x.flat[1::5] = -0.0
            want = reference_lift(m, x)
            assert_bitwise(m(x), want)
            assert m(x).flags.c_contiguous
            # the feedback on a batch is the single-state K_u @ psi
            k_u = rng.standard_normal((2, m.dim))
            u = feedback_controller(m, k_u)(x)
            single = [k_u @ m(xi) for xi in x.reshape(-1, m.state_dim)]
            assert_bitwise(u, np.reshape(single, lead + (2,)))
            if len(lead) == 1:
                batch = obs.evaluate_batch(m, x)
                assert batch.flags.c_contiguous
                assert_bitwise(batch, want.T)

    def test_double_pendulum_shares_trig_terms_and_denominator(self):
        plan = obs.double_pendulum_map().plan
        # 11 sin/cos factors and 9 denominators, feature by feature
        assert sum(len(t) for _, t in plan.combos) == 6
        assert len(plan.combos) == 4
        assert len(plan.denoms) == 1


class TestSinglePendulumMap:
    def setup_method(self):
        self.m = obs.single_pendulum_map()

    def test_dimension(self):
        assert self.m.dim == 9
        assert self.m.state_dim == 2

    def test_origin(self):
        np.testing.assert_allclose(
            self.m([0.0, 0.0]), [0, 0, 1, 0, 0, 0, 0, 1, 1], atol=1e-15)

    def test_quarter_turn(self):
        got = self.m([np.pi / 2, 1.0])
        want = [np.pi / 2, 1.0, 1.0, np.pi ** 2 / 4, 1.0,
                1.0, np.sin(1.0), 0.0, np.cos(1.0)]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_decoding_identity(self):
        a_dec = obs.decoding_operator(self.m)
        rng = np.random.default_rng(0)
        xs = rng.uniform(-10, 10, size=(1000, 2))
        np.testing.assert_array_equal(self.m(xs) @ a_dec.T, xs)

    def test_labels_frozen_order(self):
        assert self.m.labels == [
            "theta", "theta_dot", "1", "theta^2", "theta_dot^2",
            "sin(theta)", "sin(theta_dot)", "cos(theta)", "cos(theta_dot)",
        ]


class TestDoublePendulumMap:
    def setup_method(self):
        self.m = obs.double_pendulum_map()

    def test_dimension(self):
        assert self.m.dim == 14
        assert self.m.state_dim == 4

    def test_origin(self):
        want = np.zeros(14)
        want[4] = 1.0
        np.testing.assert_allclose(self.m(np.zeros(4)), want, atol=1e-15)

    def test_denominator_bounds(self):
        # D = 1/(3 - 2 cos th_r): 1 at th_r = 0, 1/5 at th_r = pi
        aligned = self.m([0.3, 0.3, 0.0, 0.0])
        assert aligned[5] == pytest.approx(np.sin(0.3))
        opposite = self.m([np.pi, 0.0, 0.0, 0.0])
        # feature 5 is D sin(th1); th1 = pi makes sin vanish, use feature 6
        assert opposite[6] == pytest.approx(np.sin(np.pi - 0.0) / 5.0)

    def test_denominator_never_singular(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-20, 20, size=(1000, 4))
        vals = self.m(x)
        assert np.all(np.isfinite(vals))

    def test_decoding_identity(self):
        a_dec = obs.decoding_operator(self.m)
        rng = np.random.default_rng(2)
        xs = rng.uniform(-6, 6, size=(1000, 4))
        np.testing.assert_array_equal(self.m(xs) @ a_dec.T, xs)

    def test_velocity_quadratics(self):
        x = np.array([0.7, -0.2, 1.3, -2.1])
        th_r = x[0] - x[1]
        d = 1.0 / (3.0 - 2.0 * np.cos(th_r))
        vals = self.m(x)
        assert vals[10] == pytest.approx(d * x[2] ** 2 * np.sin(th_r))
        assert vals[13] == pytest.approx(d * x[3] ** 2 * np.sin(2 * th_r))


class TestEvaluateBatch:
    def test_empty(self):
        m = obs.single_pendulum_map()
        out = obs.evaluate_batch(m, np.zeros((0, 2)))
        assert out.shape == (9, 0)

    def test_single_column(self):
        m = obs.single_pendulum_map()
        x = np.array([0.4, -1.1])
        out = obs.evaluate_batch(m, [x])
        np.testing.assert_array_equal(out[:, 0], m(x))

    def test_columns_match_per_state(self):
        m = obs.double_pendulum_map()
        rng = np.random.default_rng(3)
        xs = rng.uniform(-3, 3, size=(100, 4))
        out = obs.evaluate_batch(m, xs)
        for j in range(100):
            np.testing.assert_array_equal(out[:, j], m(xs[j]))

    def test_flags_non_finite(self):
        m = singular_map()
        with pytest.raises(ValueError, match="state index 1"):
            obs.evaluate_batch(m, [[1.0], [0.0], [2.0]])


def singular_map():
    """[x, 1/x]: the second feature is infinite at x = 0."""
    feats = (obs.state_feature(0, 1, "x"),
             obs.Feature(label="1/x", poly=(-1,)))
    return obs.ObservableMap(name="singular", state_dim=1, features=feats)


class OtherMap:
    """A map that is not an ObservableMap; records the rows of each lift."""

    def __init__(self, m):
        self.m = m
        self.dim = m.dim
        self.rows = []

    def __call__(self, x):
        self.rows.append(len(x))
        return self.m(x)


class TestChunkedLiftMatchesOneShot:
    """evaluate_batch lifts QR_CHUNK states at a time; one lift of all the
    states, transposed, is its oracle."""

    @pytest.mark.parametrize("n", [QR_CHUNK - 1, QR_CHUNK,
                                   3 * QR_CHUNK + 17])
    @pytest.mark.parametrize("make", [obs.single_pendulum_map,
                                      obs.double_pendulum_map])
    def test_bitwise(self, make, n):
        m = make()
        x = np.random.default_rng(n).uniform(-6, 6, (n, m.state_dim))
        x[::7] = -0.0
        want = np.ascontiguousarray(m(x).T)
        got = obs.evaluate_batch(m, x)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        # any other callable map takes the copying branch, chunk by chunk
        other = OtherMap(m)
        assert obs.evaluate_batch(other, x).tobytes() == want.tobytes()
        assert other.rows == [s.stop - s.start for s in row_chunks(n)]

    @pytest.mark.parametrize("other", [False, True])
    def test_non_finite_in_a_later_chunk_names_its_global_index(self, other):
        m = singular_map()
        x = np.ones((3 * QR_CHUNK + 17, 1))
        bad = 2 * QR_CHUNK + 5
        x[bad] = 0.0
        x[-1] = 0.0
        lift = OtherMap(m) if other else m
        with pytest.raises(ValueError, match=f"state index {bad}$"):
            obs.evaluate_batch(lift, x)


class TestDescriptors:
    def test_round_trip(self):
        for m in (obs.single_pendulum_map(), obs.double_pendulum_map()):
            blob = json.dumps(m.to_descriptor(), sort_keys=True)
            back = obs.map_from_descriptor(json.loads(blob))
            rng = np.random.default_rng(4)
            x = rng.uniform(-2, 2, size=(50, m.state_dim))
            np.testing.assert_array_equal(back(x), m(x))
            assert obs.map_hash(back) == obs.map_hash(m)

    def test_state_must_lead(self):
        with pytest.raises(ValueError, match="raw state"):
            obs.ObservableMap(name="bad", state_dim=1,
                              features=(obs.Feature(label="1"),))

    @pytest.mark.parametrize("extra, why", [
        (None, "1 features cannot hold the 2 raw state components"),
        (obs.Feature(label="f", poly=(0, 0, 1)), "more exponents"),
        (obs.Feature(label="f", trigs=(("sin", (1, 0, 0)),)),
         "more exponents or coefficients"),
        (obs.Feature(label="f", denom=(3.0, -2.0, (1, 0, 0))),
         "more exponents or coefficients"),
        (obs.Feature(label="f", trigs=(("tan", (1, 0)),)),
         "trig kind other than sin or cos")])
    def test_malformed_feature_rejected(self, extra, why):
        x = obs.state_feature(0, 2, "x")
        feats = (x,) if extra is None else (x, obs.state_feature(1, 2, "y"),
                                             extra)
        with pytest.raises(ValueError, match=why):
            obs.ObservableMap(name="bad", state_dim=2, features=feats)

    def test_polynomial_map(self):
        m = obs.polynomial_map("cubic", (1, 2, 3))
        np.testing.assert_allclose(m([2.0]), [2.0, 4.0, 8.0])
