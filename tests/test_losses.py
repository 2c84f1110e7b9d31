import math

import numpy as np
import pytest

from rmanet.errors import ConfigError, DataError, ShapeError
from rmanet.losses import (
    LossWeights,
    anchor_loss,
    cls_loss,
    ground_truth_prob,
    loc_loss,
    make_anchors,
    positive_loss,
    scale_loss,
    total_loss,
)
from rmanet.tensor import Tensor, grad_check


def params(sx, sy, tx, ty):
    return Tensor(np.array([[sx], [sy], [tx], [ty]], dtype=np.float32))


class TestGroundTruthProb:
    def test_two_of_three(self):
        np.testing.assert_allclose(ground_truth_prob([1, 0, 1]), [0.5, 0, 0.5])

    def test_single_label(self):
        np.testing.assert_allclose(ground_truth_prob([1, 0, 0]), [1, 0, 0])

    def test_uniform(self):
        np.testing.assert_allclose(ground_truth_prob([1, 1, 1, 1]), 0.25)

    def test_all_zero_rejected(self):
        with pytest.raises(DataError):
            ground_truth_prob([0, 0, 0])


class TestClsLoss:
    def test_uniform_scores_all_labels_zero_loss(self):
        fused = Tensor(np.zeros((4, 1), dtype=np.float32))
        assert cls_loss(fused, [1, 1, 1, 1]).item() == pytest.approx(0.0, abs=1e-7)

    def test_closed_form(self):
        fused = Tensor(np.zeros((2, 1), dtype=np.float32))
        assert cls_loss(fused, [1, 0]).item() == pytest.approx(0.5, abs=1e-6)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        err = grad_check(lambda s: cls_loss(s, [1, 0, 1, 1]), [rng.standard_normal((4, 1))])
        assert err <= 1e-4


class TestMakeAnchors:
    def test_k5_diagonal_points(self):
        assert set(make_anchors(5)) == {(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)}

    def test_k9_eight_points_at_45_degree_steps(self):
        anchors = make_anchors(9)
        assert len(anchors) == 8
        for pt in ((0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)):
            assert pt in anchors
        r = math.sqrt(2) / 2
        axis_pts = [(x, y) for x, y in anchors if min(abs(x), abs(y)) < 1e-9]
        assert len(axis_pts) == 4
        for x, y in axis_pts:
            assert max(abs(x), abs(y)) == pytest.approx(r, abs=1e-9)

    def test_all_points_on_the_circle(self):
        for k in range(2, 10):
            for x, y in make_anchors(k):
                assert math.hypot(x, y) == pytest.approx(math.sqrt(2) / 2, abs=1e-6)

    def test_k_below_two_rejected(self):
        with pytest.raises(ConfigError):
            make_anchors(1)


class TestAnchorLoss:
    def test_zero_when_centered_on_anchors(self):
        anchors = make_anchors(3)
        transforms = [params(1, 1, 0, 0)] + [params(0.5, 0.5, cx, cy) for cx, cy in anchors]
        assert anchor_loss(transforms, anchors).item() == pytest.approx(0.0, abs=1e-9)

    def test_k2_closed_form(self):
        loss = anchor_loss([params(1, 1, 0.3, -0.8), params(1, 1, 0, 0)], [(0.5, 0.5)])
        assert loss.item() == pytest.approx(0.25, abs=1e-6)

    def test_first_region_exempt(self):
        anchors = [(0.5, 0.5)]
        base = anchor_loss([params(1, 1, 0, 0), params(1, 1, 0, 0)], anchors).item()
        moved = anchor_loss([params(1, 1, 0.9, -0.4), params(1, 1, 0, 0)], anchors).item()
        assert base == pytest.approx(moved)

    def test_anchor_count_mismatch(self):
        with pytest.raises(ConfigError):
            anchor_loss([params(1, 1, 0, 0)] * 3, [(0.5, 0.5)])


class TestScaleLoss:
    def test_at_threshold_zero(self):
        assert scale_loss([params(0.5, 0.5, 0, 0)]).item() == pytest.approx(0.0, abs=1e-9)

    def test_one_side_over(self):
        assert scale_loss([params(0.6, 0.4, 0, 0)]).item() == pytest.approx(0.01, abs=1e-6)

    def test_absolute_value_inside_hinge(self):
        assert scale_loss([params(-0.7, 0.3, 0, 0)]).item() == pytest.approx(0.04, abs=1e-6)

    def test_sums_over_regions(self):
        loss = scale_loss([params(0.6, 0.5, 0, 0), params(0.5, 0.7, 0, 0)])
        assert loss.item() == pytest.approx(0.01 + 0.04, abs=1e-6)


class TestPositiveLoss:
    def test_above_threshold_zero(self):
        assert positive_loss([params(0.5, 0.5, 0, 0)]).item() == pytest.approx(0.0, abs=1e-9)

    def test_one_side_under(self):
        assert positive_loss([params(0.05, 0.2, 0, 0)]).item() == pytest.approx(0.05, abs=1e-6)

    def test_negative_scale(self):
        assert positive_loss([params(-0.3, 0.5, 0, 0)]).item() == pytest.approx(0.4, abs=1e-6)


class TestLocLoss:
    def test_composition_by_substitution(self):
        # identity-scaled regions parked on their anchors: only the scale hinge fires
        anchors = make_anchors(3)
        transforms = [params(1, 1, 0, 0)] + [params(1, 1, cx, cy) for cx, cy in anchors]
        expected = 3 * 2 * (1.0 - 0.5) ** 2
        assert loc_loss(transforms, anchors).item() == pytest.approx(expected, abs=1e-6)

    def test_zero_on_fully_feasible_regions(self):
        anchors = make_anchors(3)
        transforms = [params(0.4, 0.4, 0, 0)] + [params(0.4, 0.4, cx, cy) for cx, cy in anchors]
        assert loc_loss(transforms, anchors).item() == pytest.approx(0.0, abs=1e-9)

    def test_weighted_sum_of_components(self):
        anchors = [(0.5, 0.5)]
        transforms = [params(0.7, 0.05, 0.2, -0.1), params(0.3, 0.8, 0.1, 0.4)]
        w = LossWeights()
        expected = (
            scale_loss(transforms).item()
            + 0.01 * anchor_loss(transforms, anchors).item()
            + 0.1 * positive_loss(transforms).item()
        )
        assert loc_loss(transforms, anchors, w).item() == pytest.approx(expected, rel=1e-6)

    def test_disabled_constraints_drop_out(self):
        anchors = [(0.5, 0.5)]
        transforms = [params(0.9, 0.02, 0.3, 0.3), params(0.9, 0.02, -0.2, 0.1)]
        all_off = loc_loss(transforms, anchors, disabled=frozenset(("anchor", "scale", "positive")))
        assert all_off.item() == 0.0
        no_scale = loc_loss(transforms, anchors, disabled=frozenset(("scale",)))
        expected = 0.01 * anchor_loss(transforms, anchors).item() + 0.1 * positive_loss(transforms).item()
        assert no_scale.item() == pytest.approx(expected, rel=1e-6)

    def test_unknown_constraint_rejected(self):
        with pytest.raises(ConfigError):
            loc_loss([params(1, 1, 0, 0)], [], disabled=frozenset(("rotation",)))

    def test_gradients_away_from_hinges(self):
        # scales clear of |s| = 0.5, s = 0.1 and s = 0
        anchors = make_anchors(3)
        fixtures = [
            np.array([[0.32], [0.74], [0.10], [-0.20]]),
            np.array([[-0.81], [0.21], [0.55], [0.30]]),
            np.array([[0.68], [-0.27], [-0.40], [0.64]]),
        ]
        err = grad_check(lambda *ps: loc_loss(list(ps), anchors), fixtures)
        assert err <= 1e-4


def test_losses_take_one_sample():
    two = Tensor(np.ones((4, 2), dtype=np.float32))
    for loss in (scale_loss, positive_loss, lambda ps: loc_loss(ps, make_anchors(2))):
        with pytest.raises(ShapeError):
            loss([params(1, 1, 0, 0), two])
    with pytest.raises(ShapeError):
        cls_loss(Tensor(np.zeros((3, 2), dtype=np.float32)), [1, 0, 1])


class TestTotalLoss:
    def test_cls_only(self):
        assert total_loss(1.0, 0.0) == pytest.approx(1.0)

    def test_loc_weighting(self):
        assert total_loss(0.0, 2.0) == pytest.approx(0.2)

    def test_linear_in_both(self):
        a = total_loss(0.3, 1.5)
        assert total_loss(0.6, 3.0) == pytest.approx(2 * a)
