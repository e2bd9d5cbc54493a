import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventemb.composer import LowRankLayer
from eventemb.ops import cosine, cosine_grads, sigmoid
from conftest import make_store
from gradcheck import grad_check, random_projection
from oracles import cosine_grads as scalar_cosine_grads
from oracles import (
    LowRankSlice,
    bilinear_lowrank,
    bilinear_lowrank_grads,
    dense_bilinear,
    dense_slice_matrix,
    masked_sigmoid,
)


def random_slice(rng, d, n):
    return LowRankSlice(
        left=rng.standard_normal((d, n)),
        right=rng.standard_normal((n, d)),
        diag=rng.standard_normal(d),
    )


class TestBilinearLowRank:
    def test_zero_tensor(self):
        slc = LowRankSlice(np.zeros((2, 1)), np.zeros((1, 2)), np.zeros(2))
        assert bilinear_lowrank(np.array([1.0, 0.0]), np.array([0.0, 1.0]), slc) == 0.0

    def test_diagonal_picks_single_term(self):
        slc = LowRankSlice(np.zeros((2, 1)), np.zeros((1, 2)), np.array([5.0, 0.0]))
        value = bilinear_lowrank(np.array([1.0, 0.0]), np.array([1.0, 0.0]), slc)
        assert value == 5.0

    def test_matches_dense_reconstruction(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            slc = random_slice(rng, 4, 2)
            a = rng.standard_normal(4)
            p = rng.standard_normal(4)
            m = dense_slice_matrix(slc.left, slc.right, slc.diag)
            assert bilinear_lowrank(a, p, slc) == pytest.approx(
                dense_bilinear(a, m, p), abs=1e-12
            )

    def test_dimension_errors_name_the_dimension(self):
        slc = random_slice(np.random.default_rng(0), 3, 2)
        with pytest.raises(ValueError, match=r"a has shape \(4,\)"):
            bilinear_lowrank(np.zeros(4), np.zeros(3), slc)
        with pytest.raises(ValueError, match=r"p has shape \(2,\)"):
            bilinear_lowrank(np.zeros(3), np.zeros(2), slc)

    def test_slice_shape_invariants(self):
        with pytest.raises(ValueError, match="rank n=4"):
            LowRankSlice(np.zeros((3, 4)), np.zeros((4, 3)), np.zeros(3))
        with pytest.raises(ValueError, match="right factor"):
            LowRankSlice(np.zeros((3, 2)), np.zeros((2, 4)), np.zeros(3))
        with pytest.raises(ValueError, match="diag"):
            LowRankSlice(np.zeros((3, 2)), np.zeros((2, 3)), np.zeros(4))


def make_layer(d_in, k, n=1, seed=0):
    store = make_store(LowRankLayer.layout("layer", d_in, k, n), np.random.default_rng(seed))
    return LowRankLayer(store, "layer")


class TestAffineTanh:
    """The tanh(bilinear + W [x; y] + b) output stage of LowRankLayer.forward."""

    def test_all_zero(self):
        layer = make_layer(2, 3)
        for arr in (layer.left, layer.right, layer.diag, layer.w, layer.b):
            arr[...] = 0.0
        rng = np.random.default_rng(5)
        out = layer.forward(rng.standard_normal((1, 2)), rng.standard_normal((1, 2)))[0]
        assert np.array_equal(out, np.zeros((1, 3)))

    def test_saturation(self):
        layer = make_layer(2, 3)
        for arr in (layer.left, layer.right, layer.w, layer.b):
            arr[...] = 0.0
        layer.diag[...] = 10.0  # bilinear value 20 on the all-ones inputs
        out = layer.forward(np.ones((1, 2)), np.ones((1, 2)))[0]
        assert np.all(np.abs(out - 1.0) < 1e-6)

    def test_outputs_strictly_inside_unit_interval(self):
        # strict bound holds below the float64 saturation point of tanh
        # (|pre-activation| < ~18); beyond it the value rounds to +/-1.0
        rng = np.random.default_rng(6)
        for _ in range(10):
            layer = make_layer(2, 5)
            for arr in (layer.left, layer.right, layer.w, layer.b):
                arr[...] = rng.uniform(-1, 1, arr.shape)
            layer.diag[...] = rng.uniform(-1, 1, layer.diag.shape) * 3
            out = layer.forward(rng.uniform(-1, 1, (1, 2)), rng.uniform(-1, 1, (1, 2)))[0]
            assert np.all(out > -1.0) and np.all(out < 1.0)

    def test_outputs_never_leave_closed_interval(self):
        layer = make_layer(2, 5)
        for arr in (layer.left, layer.right, layer.diag, layer.w, layer.b):
            arr[...] = 100.0
        out = layer.forward(np.full((1, 2), 100.0), np.full((1, 2), 100.0))[0]
        assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_dimension_error(self):
        with pytest.raises(ValueError, match="x has shape"):
            make_layer(4, 2).forward(np.zeros((1, 3)), np.zeros((1, 4)))


class TestGradCheck:
    def test_linear_op_is_exact(self):
        rng = np.random.default_rng(2)
        w = rng.uniform(0.5, 1.5, 6)
        x = rng.uniform(0.5, 1.5, 6)
        params = {"w": w, "x": x}

        def fn():
            return float(w @ x), {"w": x.copy(), "x": w.copy()}

        assert grad_check(fn, params) < 1e-10

    def test_bilinear_lowrank_gradients(self):
        rng = np.random.default_rng(3)
        slc = random_slice(rng, 6, 2)
        a = rng.standard_normal(6)
        p = rng.standard_normal(6)
        params = {"a": a, "p": p, "left": slc.left, "right": slc.right, "diag": slc.diag}

        def fn():
            value, grads = bilinear_lowrank_grads(a, p, slc)
            return value, grads

        assert grad_check(fn, params) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_random_small_instances(self, seed):
        # dims bounded by d <= 8, n <= 3 per the repository-wide property
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        n = int(rng.integers(1, min(d, 3) + 1))
        slc = random_slice(rng, d, n)
        a = rng.standard_normal(d)
        p = rng.standard_normal(d)
        params = {"a": a, "p": p, "left": slc.left, "right": slc.right, "diag": slc.diag}
        assert grad_check(lambda: bilinear_lowrank_grads(a, p, slc), params) < 1e-4

    def test_catches_doubled_gradient(self):
        rng = np.random.default_rng(4)
        slc = random_slice(rng, 5, 2)
        a = rng.standard_normal(5)
        p = rng.standard_normal(5)
        params = {"a": a, "p": p}

        def corrupted():
            value, grads = bilinear_lowrank_grads(a, p, slc)
            return value, {"a": 2.0 * grads["a"], "p": 2.0 * grads["p"]}

        assert grad_check(corrupted, params) > 0.4

    def test_nonfinite_forward_rejected(self):
        x = np.array([1.0])

        def fn():
            return float("nan"), {"x": np.zeros(1)}

        with pytest.raises(FloatingPointError, match="non-finite"):
            grad_check(fn, {"x": x})

    def test_missing_gradient_rejected(self):
        x = np.array([1.0])
        with pytest.raises(KeyError, match="'x'"):
            grad_check(lambda: (1.0, {}), {"x": x})

    def test_random_projection_is_unit_norm(self):
        proj = random_projection(7, np.random.default_rng(0))
        assert np.linalg.norm(proj) == pytest.approx(1.0, abs=1e-12)


class TestScalarHelpers:
    def test_sigmoid_matches_reference(self):
        x = np.linspace(-30, 30, 13)
        assert sigmoid(x) == pytest.approx(1.0 / (1.0 + np.exp(-x)), abs=1e-15)

    def test_sigmoid_bit_equals_masked_oracle(self):
        rng = np.random.default_rng(14)
        big = np.finfo(np.float64).max
        extremes = [0.0, -0.0, np.inf, -np.inf, -745.2, 745.2, -746.0, 710.0, -710.0,
                    36.7, -36.7, 1e-300, -1e-300, 5e-324, -5e-324, big, -big]
        x = np.concatenate((rng.standard_normal(2000) * 40, extremes))
        assert np.array_equal(sigmoid(x).view(np.uint64), masked_sigmoid(x).view(np.uint64))
        # the LSTM applies it to the strided (B, 3h) gate columns of a (B, 4h) block
        block = (rng.standard_normal((21, 200)) * 10)[:, :150]
        assert np.array_equal(
            sigmoid(block).view(np.uint64), masked_sigmoid(block).view(np.uint64)
        )
        assert np.all(np.isnan(sigmoid(np.array([np.nan, -np.nan]))))

    def test_cosine_epsilon_guard(self):
        assert np.array_equal(cosine(np.zeros((1, 3)), np.ones((1, 3))), [0.0])
        assert np.array_equal(cosine(np.ones((1, 3)), np.zeros((1, 3))), [0.0])


@st.composite
def row_blocks(draw):
    """Two (R, k) blocks laid out as callers pass them: contiguous rows,
    strided columns of an (R, 4, k) block, fancy-indexed rows of a table, or
    a stride-0 broadcast query row against a block. Some rows are all-zero."""
    rows = draw(st.integers(1, 24))
    k = draw(st.integers(1, 64))
    layout = draw(st.sampled_from(("contiguous", "strided", "fancy", "broadcast")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-4, 4))
    zero_u, zero_v = rng.random((2, rows)) < 0.2
    if layout == "strided":
        quads = rng.standard_normal(rows * 4 * k).reshape(rows, 4, k) * scale
        i, j = rng.choice(4, size=2, replace=False)
        u, v = quads[:, i], quads[:, j]
    elif layout == "fancy":
        table = rng.standard_normal((rows + 3, k)) * scale
        u, v = table[rng.integers(0, rows + 3, (2, rows))]
    else:
        u, v = rng.standard_normal((2, rows, k)) * scale
    u[zero_u] = 0.0
    v[zero_v] = 0.0
    if layout == "broadcast":
        u = np.broadcast_to(u[0], u.shape)
    return u, v


class TestRowCosine:
    """The (R, k) block cosine against the one-pair-at-a-time oracle, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(row_blocks())
    def test_block_equals_scalar_oracle(self, blocks):
        u, v = blocks
        c, du, dv = cosine_grads(u, v)
        assert np.array_equal(cosine(u, v), c)
        for r in range(len(u)):
            c_r, du_r, dv_r = scalar_cosine_grads(u[r], v[r])
            assert c[r] == c_r
            assert np.array_equal(du[r], du_r)
            assert np.array_equal(dv[r], dv_r)
