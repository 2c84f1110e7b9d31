import numpy as np
import pytest

from rmanet.attention import fuse_scores
from rmanet.errors import ConfigError, ProtocolError, ShapeError
from rmanet.data import SyntheticSample
from rmanet.evaluation import (
    EPISODE_IMAGES,
    SINGLE_VIEW,
    TEN_VIEWS,
    aggregate_metrics,
    assign_labels,
    average_precision,
    multi_view_eval,
    per_class_ap,
    report_from_predictions,
    score_images,
    score_samples,
)
from rmanet.model import Model, ModelConfig
from rmanet.tensor import Tensor, softmax

from oracles import ap_rank, metrics_count


class TestAssignLabels:
    def test_threshold_filters(self):
        assert assign_labels([0.7, 0.2, 0.1], top_k=3, threshold=0.5) == {0}

    def test_tie_breaks_to_lower_index(self):
        assert assign_labels([0.6, 0.6, 0.1], top_k=1, threshold=0.5) == {0}

    def test_zero_threshold_gives_exact_top_k(self):
        assert assign_labels([0.1, 0.4, 0.3, 0.2], top_k=2, threshold=0.0) == {1, 2}

    def test_result_is_subset_of_top_k(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            probs = rng.uniform(size=6)
            top3 = assign_labels(probs, top_k=3, threshold=0.0)
            assert assign_labels(probs, top_k=3, threshold=0.4) <= top3
            assert len(top3) <= 3


class TestAggregateMetrics:
    def test_perfect_predictions(self):
        pairs = [({0, 1}, {0, 1}), ({2}, {2})]
        assert aggregate_metrics(pairs, 3) == (1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

    def test_worked_two_image_example(self):
        pairs = [({0}, {0}), ({0}, {1})]
        op, orec, of1, cp, cr, cf1 = aggregate_metrics(pairs, 2)
        assert op == pytest.approx(0.5)
        assert orec == pytest.approx(0.5)
        assert of1 == pytest.approx(0.5)
        assert cp == pytest.approx(0.25)
        assert cr == pytest.approx(0.5)
        assert cf1 == pytest.approx(1 / 3)

    def test_matches_counting_oracle_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(120):
            c = int(rng.integers(2, 9))
            n = int(rng.integers(1, 21))
            pairs = []
            for _ in range(n):
                pred = set(np.flatnonzero(rng.uniform(size=c) < 0.4))
                act = set(np.flatnonzero(rng.uniform(size=c) < 0.4))
                pairs.append((pred, act))
            ours = aggregate_metrics(pairs, c)
            ref = metrics_count(pairs, c)
            np.testing.assert_allclose(ours, ref, atol=1e-9)

    def test_order_invariant(self):
        rng = np.random.default_rng(2)
        pairs = [({int(rng.integers(3))}, {int(rng.integers(3))}) for _ in range(10)]
        a = aggregate_metrics(pairs, 3)
        b = aggregate_metrics(list(reversed(pairs)), 3)
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError):
            aggregate_metrics([], 2)

    def test_f1_between_precision_and_recall(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            c = int(rng.integers(2, 6))
            pairs = [
                (set(np.flatnonzero(rng.uniform(size=c) < 0.5)), set(np.flatnonzero(rng.uniform(size=c) < 0.5)))
                for _ in range(8)
            ]
            op, orec, of1, cp, cr, cf1 = aggregate_metrics(pairs, c)
            if op + orec > 0:
                assert min(op, orec) - 1e-12 <= of1 <= max(op, orec) + 1e-12
            if cp + cr > 0:
                assert min(cp, cr) - 1e-12 <= cf1 <= max(cp, cr) + 1e-12


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_single_positive_ranked_second(self):
        assert average_precision([0.9, 0.5], [0, 1]) == pytest.approx(0.5)

    def test_matches_rank_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 21))
            scores = rng.standard_normal(n)
            pos = rng.uniform(size=n) < 0.5
            if not pos.any():
                pos[int(rng.integers(n))] = True
            assert average_precision(scores, pos) == pytest.approx(ap_rank(scores.tolist(), pos.tolist()), abs=1e-9)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(5)
        scores = rng.standard_normal(12)
        pos = rng.uniform(size=12) < 0.4
        pos[0] = True
        base = average_precision(scores, pos)
        assert average_precision(np.exp(scores), pos) == pytest.approx(base, abs=1e-12)
        assert average_precision(3 * scores + 7, pos) == pytest.approx(base, abs=1e-12)

    def test_no_positives_rejected(self):
        with pytest.raises(ProtocolError):
            average_precision([0.1, 0.2], [0, 0])

    def test_per_class_skips_and_flags_empty_classes(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        gt = np.array([[1, 0], [1, 0]], dtype=bool)
        ap, mean_ap, skipped = per_class_ap(scores, gt)
        assert ap[1] is None and skipped == (1,)
        assert mean_ap == pytest.approx(ap[0])


class TestMultiView:
    @pytest.fixture()
    def model(self):
        return Model.init(ModelConfig(n_classes=3, channels=(4, 8, 8), n_hidden=8, k_regions=2), seed=5)

    def test_full_center_view_equals_plain_eval(self, model, rng):
        image = rng.uniform(size=(3, 32, 32)).astype(np.float32)
        scores, probs = model.predict(image)
        mv_probs, mv_scores = multi_view_eval(model, image, views=SINGLE_VIEW, crop=(4, 4))
        np.testing.assert_allclose(mv_probs, probs, atol=1e-6)
        np.testing.assert_allclose(mv_scores, scores, atol=1e-6)

    def test_symmetric_input_and_weights_make_flip_views_equal(self, rng):
        model = Model.init(ModelConfig(n_classes=3, channels=(4, 8, 8), n_hidden=8, k_regions=2), seed=7)
        for k in model.backbone.kernels:
            k.data = 0.5 * (k.data + k.data[..., ::-1])  # mirror-symmetric kernels
        half = rng.uniform(size=(3, 32, 16)).astype(np.float32)
        image = np.concatenate([half, half[:, :, ::-1]], axis=2)
        plain = multi_view_eval(model, image, views=(("center", False),), crop=(4, 4))[0]
        flipped = multi_view_eval(model, image, views=(("center", True),), crop=(4, 4))[0]
        np.testing.assert_allclose(plain, flipped, atol=1e-5)

    def test_ten_view_probs_normalized(self, model, rng):
        image = rng.uniform(size=(3, 32, 32)).astype(np.float32)
        probs, _ = multi_view_eval(model, image, views=TEN_VIEWS)
        assert probs.shape == (3,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("crop, episodes", [(None, 8), ((2, 2), 10)])
    def test_each_distinct_view_runs_once(self, model, rng, monkeypatch, crop, episodes):
        # on the 4x4 map the default 3x3 crop puts "center" on "tl", so two views repeat
        image = rng.uniform(size=(3, 32, 32)).astype(np.float32)
        ch, cw = crop or (3, 3)
        fmap = model.encode(image[None]).data[0]
        offsets = {"center": ((4 - ch) // 2, (4 - cw) // 2), "tl": (0, 0), "tr": (0, 4 - cw),
                   "bl": (4 - ch, 0), "br": (4 - ch, 4 - cw)}
        batches = []
        attend = Model.attend

        def recording_attend(self, view_maps):
            trace = attend(self, view_maps)
            batches.append((view_maps.data, fuse_scores(trace.score_tensors).data.T))
            return trace

        monkeypatch.setattr(Model, "attend", recording_attend)
        mv_probs, mv_scores = multi_view_eval(model, image, views=TEN_VIEWS, crop=crop)
        assert len(batches) == 1
        maps, fused = batches[0]
        assert len(maps) == episodes
        rows = []  # the batch row that scored each listed view
        for pos, flip in TEN_VIEWS:
            oy, ox = offsets[pos]
            patch = fmap[:, oy:oy + ch, ox:ox + cw]
            if flip:
                patch = patch[:, :, ::-1]
            matches = [i for i, m in enumerate(maps) if np.array_equal(m, patch)]
            assert len(matches) == 1
            rows.append(matches[0])
        scores = fused[rows]
        probs = np.stack([softmax(Tensor(s)).data for s in scores])
        assert np.array_equal(mv_probs, probs.mean(axis=0))
        assert np.array_equal(mv_scores, scores.mean(axis=0))

    def test_scoring_records_no_graph(self, model, rng, model_outputs):
        images = [rng.uniform(size=(3, 32, 32)).astype(np.float32) for _ in range(3)]
        score_images(model, images, views=TEN_VIEWS)
        assert len(model_outputs["encode"]) == 1 and model_outputs["attend"]
        assert not any(t.requires_grad for t in model_outputs["encode"] + model_outputs["attend"])

    def test_images_of_two_sizes_rejected_in_one_batch(self, model, rng):
        images = [rng.uniform(size=(3, 32, 32)).astype(np.float32), rng.uniform(size=(3, 40, 40)).astype(np.float32)]
        with pytest.raises(ShapeError):
            score_images(model, images)

    def test_oversized_crop_rejected(self, model, rng):
        image = rng.uniform(size=(3, 32, 32)).astype(np.float32)
        with pytest.raises(ConfigError):
            multi_view_eval(model, image, views=TEN_VIEWS, crop=(5, 5))


def test_score_samples_and_report(tiny_dataset):
    model = Model.init(ModelConfig(n_classes=3, channels=(4, 8, 8), n_hidden=8, k_regions=2), seed=6)
    preds = score_samples(model, tiny_dataset["test"], top_k=3, threshold=0.25)
    report = report_from_predictions(preds, 3)
    for value in (
        report.overall_precision,
        report.overall_recall,
        report.overall_f1,
        report.class_precision,
        report.class_recall,
        report.class_f1,
        report.mean_ap,
    ):
        assert 0.0 <= value <= 1.0
    assert len(report.ap) == 3


@pytest.mark.parametrize("views", [None, TEN_VIEWS])
def test_score_samples_in_batches_match_per_image_calls(tiny_dataset, views):
    # more images than one episode batch takes, with a run of larger images in between
    model = Model.init(ModelConfig(n_classes=3, channels=(4, 8, 8), n_hidden=8, k_regions=2), seed=8)
    rng = np.random.default_rng(9)
    wide = [SyntheticSample(rng.uniform(size=(3, 40, 40)).astype(np.float32), s.labels, s.name)
            for s in tiny_dataset["test"][:3]]
    samples = tiny_dataset["train"][:10] + wide + tiny_dataset["train"][10:]
    assert len(samples) > EPISODE_IMAGES
    preds = score_samples(model, samples, views=views)
    for s, p in zip(samples, preds):
        if views is None:
            scores, probs = model.predict(s.image)
        else:
            probs, scores = multi_view_eval(model, s.image, views=views)
        np.testing.assert_allclose(p.scores, scores, rtol=0, atol=1e-5)
        np.testing.assert_allclose(p.probs, probs, rtol=0, atol=1e-5)
