import numpy as np
import pytest

from rmanet.errors import ShapeError
from rmanet.tensor import Tensor, add, grad_check, mul
from rmanet.transformer import (
    TransformParams,
    affine_grid,
    bilinear_sample,
    build_matrix,
    identity_params,
    region_box,
    st,
)

from oracles import bilinear_point, st_loop


def f32(data):
    return Tensor(np.asarray(data, dtype=np.float32))


def params(sx, sy, tx, ty):
    return f32([[sx], [sy], [tx], [ty]])


class TestBuildMatrix:
    def test_identity(self):
        m = build_matrix(identity_params(1)).data
        np.testing.assert_allclose(m, [[[1, 0, 0], [0, 1, 0]]])

    def test_substitution(self):
        m = build_matrix(params(0.5, 0.5, 0.5, 0.5)).data
        np.testing.assert_allclose(m, [[[0.5, 0, 0.5], [0, 0.5, 0.5]]])

    def test_no_rotation_or_shear_ever(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            m = build_matrix(f32(rng.standard_normal((4, 1)))).data
            assert m[0, 0, 1] == 0.0 and m[0, 1, 0] == 0.0

    @pytest.mark.parametrize("shape", [(2, 2), (5,)])
    def test_params_other_than_a_4_vector_rejected(self, shape):
        with pytest.raises(ShapeError):
            build_matrix(f32(np.ones(shape)))


class TestAffineGrid:
    def test_identity_corners(self):
        grid = affine_grid(build_matrix(identity_params(1)), 2, 2).data[0]
        np.testing.assert_allclose(grid[0], [[-1, 1], [-1, 1]])
        np.testing.assert_allclose(grid[1], [[-1, -1], [1, 1]])

    def test_scaled_translated_corner(self):
        grid = affine_grid(build_matrix(params(0.5, 0.5, 0.5, 0.5)), 2, 2).data[0]
        assert grid[0, 1, 1] == pytest.approx(1.0)
        assert grid[1, 1, 1] == pytest.approx(1.0)

    def test_size_one_axis_maps_to_center(self):
        grid = affine_grid(build_matrix(identity_params(1)), 1, 3).data[0]
        np.testing.assert_allclose(grid[1], 0.0)

    def test_coords_affine_in_cell_index(self):
        # second differences along rows/cols vanish for any matrix
        rng = np.random.default_rng(1)
        m = Tensor(rng.standard_normal((1, 2, 3)))
        grid = affine_grid(m, 5, 6).data[0]
        for plane in grid:
            np.testing.assert_allclose(np.diff(plane, n=2, axis=0), 0, atol=1e-6)
            np.testing.assert_allclose(np.diff(plane, n=2, axis=1), 0, atol=1e-6)


class TestBilinearSample:
    def test_identity_grid_reproduces_input(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((1, 3, 5, 4)).astype(np.float32)
        grid = affine_grid(build_matrix(identity_params(1)), 5, 4)
        out = bilinear_sample(f32(f), grid).data
        np.testing.assert_allclose(out, f, atol=1e-6)

    def test_center_of_2x2_map(self):
        f = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        grid = Tensor(np.zeros((1, 2, 1, 1)))
        out = bilinear_sample(f32(f[None]), grid).data
        expected = bilinear_point(f, 0.0, 0.0)
        assert expected[0] == pytest.approx(2.5)
        np.testing.assert_allclose(out[0, :, 0, 0], expected, atol=1e-6)

    def test_far_outside_reads_zero(self):
        f = f32(np.ones((1, 1, 2, 2)))
        grid = Tensor(np.array([[[[5.0]], [[0.0]]]]))
        np.testing.assert_allclose(bilinear_sample(f, grid).data, [[[[0.0]]]])

    def test_convex_combination_in_range(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        grid = Tensor(rng.uniform(-0.9, 0.9, size=(1, 2, 3, 3)).astype(np.float32))
        out = bilinear_sample(f32(f), grid).data
        assert out.min() >= f.min() - 1e-6 and out.max() <= f.max() + 1e-6


class TestSt:
    def test_identity_params_reproduce_map(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        out = st(f32(f), identity_params(1)).data
        np.testing.assert_allclose(out, f, atol=1e-6)

    def test_left_half_crop_matches_hand_oracle(self):
        fmap = np.zeros((1, 4, 4))
        fmap[:, :, :2] = 1.0
        values = (0.5, 0.5, -0.5, -0.5)
        ours = st(f32(fmap[None]), params(*values), (4, 4)).data[0]
        ref = st_loop(fmap, *values, 4, 4)
        np.testing.assert_allclose(ours, ref, atol=1e-6)
        # sampling columns land at pixel u = 0, 0.5, 1, 1.5: the last one
        # blends into the zero half, so the crop is ones except the last column
        np.testing.assert_allclose(ref[0, :, :3], 1.0)
        np.testing.assert_allclose(ref[0, :, 3], 0.5)

    def test_linear_in_features(self):
        rng = np.random.default_rng(5)
        f = f32(rng.standard_normal((1, 2, 4, 4)))
        g = f32(rng.standard_normal((1, 2, 4, 4)))
        p = params(0.6, 0.7, 0.1, -0.2)
        combo = st(add(mul(f, 2.0), mul(g, -3.0)), p).data
        separate = 2.0 * st(f, p).data - 3.0 * st(g, p).data
        np.testing.assert_allclose(combo, separate, atol=1e-5)

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(6)
        fmap = rng.standard_normal((1, 2, 5, 5))
        values = np.array([[0.53], [0.47], [0.12], [-0.09]])  # non-integer sample coords
        err_p = grad_check(lambda p: st(Tensor(fmap, dtype=np.float64), p, (3, 3)), [values])
        err_f = grad_check(lambda f: st(f, Tensor(values, dtype=np.float64), (3, 3)), [fmap])
        assert err_p <= 1e-4 and err_f <= 1e-4

    @pytest.mark.parametrize("shape", [(2, 2), (5,)])
    def test_params_other_than_a_4_vector_rejected(self, shape):
        with pytest.raises(ShapeError):
            st(f32(np.ones((1, 2, 4, 4))), f32(np.ones(shape)))

    def test_sample_count_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            st(f32(np.ones((2, 2, 4, 4))), identity_params(3))
        with pytest.raises(ShapeError):
            bilinear_sample(f32(np.ones((2, 2, 4, 4))), Tensor(np.zeros((1, 2, 3, 3))))

    def test_each_sample_warps_by_its_own_column(self):
        # the second column reaches past the right edge, the third mirrors x
        rng = np.random.default_rng(7)
        maps = rng.standard_normal((3, 2, 5, 5)).astype(np.float32)
        cols = np.array([[0.6, 1.0, -0.4], [0.5, 0.8, 0.7], [0.1, 0.5, -0.3], [-0.2, 0.0, 0.25]], dtype=np.float32)
        out = st(f32(maps), f32(cols), (3, 3)).data
        for n in range(3):
            np.testing.assert_allclose(out[n], st_loop(maps[n], *cols[:, n], 3, 3), atol=1e-5)


class TestRegionBox:
    def test_identity_covers_image(self):
        assert region_box(TransformParams.identity(), 100, 100) == (0.0, 0.0, 100.0, 100.0)

    def test_centered_half_box(self):
        assert region_box(TransformParams(0.5, 0.5, 0.0, 0.0), 100, 100) == (25.0, 25.0, 75.0, 75.0)

    def test_shifted_box(self):
        x0, y0, x1, y1 = region_box(TransformParams(0.5, 0.5, 0.5, 0.5), 100, 100)
        assert (x0, y0, x1, y1) == (50.0, 50.0, 100.0, 100.0)
        assert (x0 + x1) / 2 == pytest.approx(75.0)
