import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopctl import tensor


class TestKron:
    def test_vector_expansion(self):
        np.testing.assert_allclose(tensor.kron([1, 2], [3, 4]), [3, 4, 6, 8])

    def test_identity_blocks(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = tensor.kron(np.eye(2), m)
        np.testing.assert_allclose(out[:2, :2], m)
        np.testing.assert_allclose(out[2:, 2:], m)
        np.testing.assert_allclose(out[:2, 2:], 0)

    def test_mixed_product_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b, c, d = (rng.standard_normal((2, 2)) for _ in range(4))
            lhs = tensor.kron(a @ c, b @ d)
            rhs = tensor.kron(a, b) @ tensor.kron(c, d)
            scale = max(1.0, np.max(np.abs(lhs)))
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    def test_vector_matrix_corollary(self):
        # a kron (M b) = (I kron M)(a kron b)
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = rng.standard_normal(3)
            b = rng.standard_normal(4)
            m = rng.standard_normal((4, 4))
            lhs = tensor.kron(a, m @ b)
            rhs = tensor.kron(np.eye(3), m) @ tensor.kron(a, b)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12 * max(1, np.abs(lhs).max()))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            tensor.kron([np.nan], [1.0])


class TestShapeRule:
    @pytest.mark.parametrize("a, shape", [
        (np.zeros((2, 3)), (2, 3)), (np.zeros((2, 3)), (None, 3)),
        (np.zeros((2, 3)), (None, None)), (np.zeros(4), (4,)),
        (np.zeros((0, 3)), (None, 3)), (np.zeros((2, 3)), None)])
    def test_accepts_the_shape_given(self, a, shape):
        assert tensor.as_matrix(a, "m", shape).shape == a.shape

    @pytest.mark.parametrize("a, shape", [
        (np.zeros((2, 3)), (3, 2)), (np.zeros((2, 3)), (None, 2)),
        (np.zeros(3), (3, 1)), (np.zeros((3, 1)), (3,)),
        (np.float64(1.0), (1,)), (np.zeros((1, 1)), ())])
    def test_names_the_field_and_both_shapes(self, a, shape):
        with pytest.raises(ValueError) as exc:
            tensor.as_matrix(a, "m", shape)
        assert str(exc.value) == \
            f"m has shape {np.shape(a)}, expected {shape}"


class TestHadamard:
    def test_elementwise(self):
        np.testing.assert_allclose(
            tensor.hadamard([1, 0, 2], [5, 7, 3]), [5, 0, 6])

    def test_ones_identity(self):
        a = np.array([0.3, -1.2, 8.0])
        np.testing.assert_array_equal(tensor.hadamard(a, np.ones(3)), a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match=r"b has shape \(3,\), "
                                             r"expected \(2,\)"):
            tensor.hadamard([1, 2], [1, 2, 3])

    def test_kron_hadamard_identity(self):
        # (a . b) kron c = (a kron 1_n) . (b kron c)
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b, c = (rng.standard_normal(3) for _ in range(3))
            lhs = tensor.kron(tensor.hadamard(a, b), c)
            rhs = tensor.hadamard(tensor.kron(a, np.ones(3)),
                                  tensor.kron(b, c))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1, np.abs(lhs).max())


class TestSymmetrize:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            tensor.symmetrize([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            tensor.symmetrize([[np.nan, 0], [0, 1.0]])


def formed_q_qtb(chunks, blocks):
    """Q^T B as the streamed QR computed it before it stopped forming Q:
    each step's reduced Q from ``np.linalg.qr``, applied explicitly."""
    r = qtb = None
    for c, blk in zip(chunks, blocks):
        top = 0 if r is None else r.shape[0]
        q, r = np.linalg.qr(c if r is None else np.vstack([r, c]))
        step = q[top:].T @ blk
        qtb = step if qtb is None else q[:top].T @ qtb + step
    return qtb


class TestStreamedQr:
    # chunk row counts, some below the width of 4 columns
    @pytest.mark.parametrize("sizes", [(3,), (2, 2, 5), (40,), (7, 1, 30, 2)])
    def test_factors_the_row_stack(self, sizes):
        rng = np.random.default_rng(len(sizes))
        chunks = [rng.standard_normal((m, 4)) for m in sizes]
        a = np.vstack(chunks)
        b = rng.standard_normal((a.shape[0], 3))
        blocks = np.split(b, np.cumsum(sizes)[:-1])
        k = min(a.shape)
        r, qtb = tensor.streamed_qr(iter(chunks), iter(blocks))
        assert r.shape == (k, 4) and qtb.shape == (k, 3)
        assert np.all(np.tril(r, -1) == 0.0)
        np.testing.assert_allclose(r.T @ r, a.T @ a, atol=1e-13)
        # a = q r, so a^T b = r^T (q^T b), and q^T a is r itself
        np.testing.assert_allclose(r.T @ qtb, a.T @ b, atol=1e-13)
        _, qta = tensor.streamed_qr(iter(chunks), iter(chunks))
        np.testing.assert_allclose(qta, r, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 8),
           n_rhs=st.integers(1, 4), data=st.data())
    def test_rhs_path_over_random_chunk_splits(self, seed, width, n_rhs,
                                               data):
        # chunks as short as one row, so some are shorter than the width,
        # and maybe an exactly zero column, whose reflector has tau 0
        sizes = data.draw(st.lists(st.integers(1, 3 * width), min_size=1,
                                   max_size=8), label="sizes")
        zero = data.draw(st.none() | st.integers(0, width - 1), label="zero")
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((sum(sizes), width))
        if zero is not None:
            a[:, zero] = 0.0
        b = rng.standard_normal((a.shape[0], n_rhs))
        chunks = np.split(a, np.cumsum(sizes)[:-1])
        blocks = np.split(b, np.cumsum(sizes)[:-1])
        r, qtb = tensor.streamed_qr(iter(chunks), iter(blocks))
        scale = np.abs(a).max() * max(np.abs(a).max(), np.abs(b).max())
        np.testing.assert_allclose(r.T @ qtb, a.T @ b, rtol=0,
                                   atol=1e-13 * scale)
        r_ref = np.linalg.qr(a, mode="r")
        np.testing.assert_allclose(r.T @ r, r_ref.T @ r_ref, rtol=0,
                                   atol=1e-13 * scale)
        np.testing.assert_allclose(qtb, formed_q_qtb(chunks, blocks),
                                   rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("split", [1, 2, 3])
    def test_start_continues_the_stream_bitwise(self, split):
        # the ridge rows of edmd.solve_chunks follow the data this way
        rng = np.random.default_rng(split)
        chunks = [rng.standard_normal((m, 5)) for m in (9, 3, 12, 5)]
        blocks = [rng.standard_normal((len(c), 2)) for c in chunks]
        whole = tensor.streamed_qr(iter(chunks), iter(blocks))
        head = tensor.streamed_qr(iter(chunks[:split]), iter(blocks[:split]))
        tail = tensor.streamed_qr(iter(chunks[split:]), iter(blocks[split:]),
                                  start=head)
        for got, want in zip(tail, whole):
            assert got.tobytes() == want.tobytes()

    def test_row_chunks_cover_the_rows(self):
        n = 2 * tensor.QR_CHUNK + 5
        chunks = tensor.row_chunks(n)
        assert [c.stop - c.start for c in chunks] \
            == [tensor.QR_CHUNK, tensor.QR_CHUNK, 5]
        assert chunks[0].start == 0 and chunks[-1].stop == n
        assert tensor.row_chunks(0) == []

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="no rows"):
            tensor.streamed_qr(iter([]), iter([]))

    def test_truncated_svd_cuts_at_eps(self):
        eps = np.finfo(float).eps
        u, s, vt, cond = tensor.truncated_svd(np.diag([2.0, 1.0, 0.0]))
        assert list(s) == [2.0, 1.0] and cond == np.inf
        assert u.shape == (3, 2) and vt.shape == (2, 3)
        _, s, _, cond = tensor.truncated_svd(np.diag([1.0, 2 * eps, eps]))
        assert list(s) == [1.0, 2 * eps] and cond == 1.0 / eps


class TestJsonRoundTrip:
    @pytest.mark.parametrize("shape", [(3, 5), (5,)])
    def test_exact_round_trip(self, shape):
        # a 1-d array is written and read back as one row
        rng = np.random.default_rng(6)
        m = rng.standard_normal(shape) * np.pi
        blob = json.dumps(tensor.matrix_to_json(m))
        back = tensor.matrix_from_json(json.loads(blob))
        np.testing.assert_array_equal(back, np.atleast_2d(m))

    def test_shape_check(self):
        with pytest.raises(ValueError, match="length"):
            tensor.matrix_from_json({"rows": 2, "cols": 2, "data": [1.0]})

    @pytest.mark.parametrize("d, message", [
        ([1.0], r"K_u must be a \{rows, cols, data\} object, got \[1\.0\]"),
        ({"rows": 1, "cols": 2}, "K_u must be a {rows, cols, data} object"),
        ({"rows": 1.5, "cols": 2, "data": [1.0, 2.0]},
         "K_u rows must be a nonnegative integer, got 1.5"),
        ({"rows": 1, "cols": True, "data": [1.0]},
         "K_u cols must be a nonnegative integer, got True"),
        ({"rows": 2, "cols": 1, "data": [1.0, 2.0]},
         r"K_u has shape \(2, 1\), expected \(1, None\)"),
    ], ids=["list", "no-data", "rows-fraction", "cols-bool", "shape"])
    def test_reads_the_layout_under_the_rule(self, d, message):
        with pytest.raises(ValueError, match=message):
            tensor.matrix_from_json(d, "K_u", (1, None))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_reads_under_the_rule_it_is_written_by(self, value):
        with pytest.raises(ValueError, match="non-finite entries"):
            tensor.matrix_to_json([[1.0, value]])
        with pytest.raises(ValueError, match="K_u has non-finite entries"):
            tensor.matrix_from_json({"rows": 1, "cols": 2,
                                     "data": [1.0, value]}, "K_u")
