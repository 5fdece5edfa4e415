import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lesionseg import training
from lesionseg.autodiff import Tensor, softmax_channels
from lesionseg.backbone import BackboneConfig, ConfigError
from lesionseg.data import Sample, SynthConfig, gen_synthetic
from lesionseg.metrics import compute_metrics, confusion
from lesionseg.model import PREDICT_CHUNK, ModelConfig, build_params, model_forward, predict_mask
from lesionseg.training import (
    AugmentDraw,
    LossRecord,
    TrainConfig,
    TrainState,
    TrainingDivergedError,
    apply_augment,
    apply_flip,
    evaluate,
    one_hot_masks,
    poly_lr,
    sample_augment,
    sgd_step,
    train,
    weighted_ce_loss,
    write_loss_log,
)

TINY = ModelConfig(
    backbone=BackboneConfig(channels=(4, 6, 6, 6, 6), strides=(1, 2, 2, 1, 1),
                            reduce_channels=4),
    rates=(1, 2), bank_channels=4, windows=(3, 3, 3, 5, 7, 3, 3))


def tiny_dataset(count=6, size=32, seed=0):
    return gen_synthetic(SynthConfig(count=count, size=size, seed=seed))


class TestWeightedCELoss:
    def test_perfect_confident_prediction_is_zero(self):
        probs = np.zeros((2, 2, 2))
        probs[0, :, :] = [[1.0, 0.0], [0.0, 1.0]]
        probs[1] = 1.0 - probs[0]
        labels = probs.copy()
        loss = weighted_ce_loss(Tensor(probs), labels, (0.8, 0.2))
        assert loss.item() == pytest.approx(0.0, abs=1e-11)

    def test_single_lesion_pixel_hand_value(self):
        probs = np.array([[[0.5]], [[0.5]]])
        labels = np.array([[[1.0]], [[0.0]]])
        loss = weighted_ce_loss(Tensor(probs), labels, (0.8, 0.2))
        assert loss.item() == pytest.approx(-0.8 * np.log(0.5), abs=1e-12)
        assert loss.item() == pytest.approx(0.554518, abs=1e-6)

    def test_uniform_weights_match_plain_ce(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.standard_normal((2, 4, 4)))
        probs = softmax_channels(logits)
        mask = (rng.random((4, 4)) > 0.5).astype(float)
        labels = np.stack([mask, 1.0 - mask])
        loss = weighted_ce_loss(probs, labels, (1.0, 1.0)).item()
        plain = -(labels * np.log(probs.data)).sum() / 16
        assert loss == pytest.approx(plain, rel=1e-12)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            probs = softmax_channels(Tensor(rng.standard_normal((2, 3, 3))))
            mask = (rng.random((3, 3)) > 0.5).astype(float)
            labels = np.stack([mask, 1.0 - mask])
            assert weighted_ce_loss(probs, labels, (0.8, 0.2)).item() >= 0.0

    def test_rejects_non_onehot(self):
        probs = Tensor(np.full((2, 2, 2), 0.5))
        bad = np.full((2, 2, 2), 0.5)
        with pytest.raises(ValueError):
            weighted_ce_loss(probs, bad, (0.8, 0.2))


class TestPolyLR:
    CFG = TrainConfig(model=TINY, base_lr=1e-3, power=0.9, max_iter=30000)

    def test_endpoints(self):
        assert poly_lr(0, self.CFG) == pytest.approx(1e-3)
        assert poly_lr(30000, self.CFG) == 0.0

    def test_halfway_hand_value(self):
        assert poly_lr(15000, self.CFG) == pytest.approx(5.3589e-4, abs=1e-8)

    def test_monotone_nonincreasing(self):
        values = [poly_lr(i, self.CFG) for i in range(0, 30001, 500)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            poly_lr(30001, self.CFG)


class TestSGD:
    def make_state(self, value):
        return TrainState(iteration=0,
                          parameters={"w": Tensor(np.array(value), requires_grad=True)},
                          seed=0, running_loss=0.0)

    def test_zero_lr_keeps_parameters(self):
        state = self.make_state([1.0, 2.0])
        out = sgd_step(state, {"w": np.array([5.0, -3.0])}, lr=0.0)
        assert np.array_equal(out.parameters["w"].data, [1.0, 2.0])
        assert out.iteration == 1

    def test_scalar_update(self):
        state = self.make_state(1.0)
        out = sgd_step(state, {"w": np.array(2.0)}, lr=0.1)
        assert out.parameters["w"].data == pytest.approx(0.8)

    def test_determinism(self):
        grads = {"w": np.array([0.5, -0.5])}
        a = sgd_step(self.make_state([1.0, 2.0]), grads, lr=0.3)
        b = sgd_step(self.make_state([1.0, 2.0]), grads, lr=0.3)
        assert np.array_equal(a.parameters["w"].data, b.parameters["w"].data)

    def test_momentum_accumulates(self):
        state = self.make_state(0.0)
        g = {"w": np.array(1.0)}
        state = sgd_step(state, g, lr=1.0, momentum=0.5)
        state = sgd_step(state, g, lr=1.0, momentum=0.5)
        # v1=1, v2=1.5 -> theta = -(1 + 1.5)
        assert state.parameters["w"].data == pytest.approx(-2.5)

    def test_missing_gradient_rejected(self):
        with pytest.raises(KeyError):
            sgd_step(self.make_state(1.0), {}, lr=0.1)


class TestAugment:
    def test_flip_involution(self):
        rng = np.random.default_rng(2)
        img = rng.random((3, 8, 8))
        for fh, fv in ((True, False), (False, True), (True, True)):
            twice = apply_flip(apply_flip(img, fh, fv), fh, fv)
            assert np.array_equal(twice, img)

    def test_identity_draw_keeps_geometry(self):
        rng = np.random.default_rng(3)
        img, mask = rng.random((3, 8, 8)), (rng.random((1, 8, 8)) > 0.5).astype(float)
        out_img, out_mask = apply_augment(img, mask,
                                          AugmentDraw(False, False, 1.0))
        assert np.array_equal(out_img, img)
        assert np.array_equal(out_mask, mask)

    def test_scale_draws_in_range(self):
        rng = np.random.default_rng(4)
        draws = [sample_augment(rng).scale for _ in range(1000)]
        assert all(0.8 <= s <= 1.2 for s in draws)
        assert min(draws) < 0.85 and max(draws) > 1.15

    def test_mask_stays_binary_and_dims_preserved(self):
        rng = np.random.default_rng(5)
        img = rng.random((3, 16, 16))
        mask = (rng.random((1, 16, 16)) > 0.6).astype(float)
        for _ in range(20):
            out_img, out_mask = apply_augment(img, mask, sample_augment(rng))
            assert out_img.shape == (3, 16, 16)
            assert out_mask.shape == (1, 16, 16)
            assert np.isin(out_mask, (0.0, 1.0)).all()

    def test_deterministic_for_fixed_stream(self):
        img = np.random.default_rng(6).random((3, 8, 8))
        mask = np.zeros((1, 8, 8))
        a = apply_augment(img, mask, sample_augment(np.random.default_rng(42)))
        b = apply_augment(img, mask, sample_augment(np.random.default_rng(42)))
        assert np.array_equal(a[0], b[0])


class TestTrainLoop:
    def test_vanishing_lr_keeps_init(self):
        # base_lr must be positive, so the closest legal probe is 1e-12
        ds = tiny_dataset()
        cfg = TrainConfig(model=TINY, base_lr=1e-12, power=1.0, max_iter=1,
                          seed=3, batch_size=2)
        state, records = train(ds, cfg)
        from lesionseg.model import build_params
        seeds = np.random.SeedSequence(3).spawn(3)
        init = build_params(TINY, int(seeds[0].generate_state(1)[0]), True)
        for name, p in state.parameters.items():
            assert_allclose(p.data, init[name].data, atol=1e-9)
        assert len(records) == 1

    def test_same_seed_bit_identical(self):
        ds = tiny_dataset()
        cfg = TrainConfig(model=TINY, base_lr=0.05, max_iter=4, seed=9,
                          batch_size=2)
        s1, r1 = train(ds, cfg)
        s2, r2 = train(ds, cfg)
        assert r1 == r2
        for name in s1.parameters:
            assert np.array_equal(s1.parameters[name].data,
                                  s2.parameters[name].data)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            train([], TrainConfig(model=TINY, max_iter=1))

    def test_divergence_aborts_with_diagnostic(self):
        # the prob floor keeps saturated losses finite by design, so trigger
        # the abort with a genuinely non-finite activation
        ds = tiny_dataset()
        poisoned = ds[0].image.data.copy()
        poisoned[0, 0, 0] = np.nan
        ds[0] = Sample(image=Tensor(poisoned), mask=ds[0].mask, id=ds[0].id)
        cfg = TrainConfig(model=TINY, base_lr=0.05, max_iter=20, seed=1,
                          batch_size=len(ds))
        with pytest.raises(TrainingDivergedError, match="iteration") as err:
            train(ds, cfg)
        # the loss log ends with the iteration that diverged
        *finite, last = err.value.records
        assert [r.iteration for r in err.value.records] == list(range(len(finite) + 1))
        assert np.isfinite([r.loss for r in finite]).all() and np.isnan(last.loss)
        assert f"iteration {last.iteration} " in str(err.value)

    def test_loss_log_roundtrip(self, tmp_path):
        records = [LossRecord(0, 1e-3, 0.7), LossRecord(1, 9e-4, 0.65)]
        path = tmp_path / "loss.csv"
        write_loss_log(path, records)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,lr,loss"
        assert len(lines) == 3

    def test_loss_decreases_on_small_run(self):
        ds = tiny_dataset(count=8)
        cfg = TrainConfig(model=TINY, base_lr=0.1, max_iter=60, seed=2,
                          batch_size=2)
        _, records = train(ds, cfg)
        losses = [r.loss for r in records]
        head = float(np.mean(losses[:10]))
        tail = float(np.mean(losses[-10:]))
        assert tail < head

    def test_each_step_graph_dies_before_next_forward(self, monkeypatch):
        steps = []  # per step: weakrefs to its probabilities and score stack

        def watched_forward(*args, **kwargs):
            assert all(ref() is None for refs in steps for ref in refs), \
                f"step {len(steps) - 1}'s graph is alive at step {len(steps)}"
            logits, probs, stack = model_forward(*args, **kwargs)
            steps.append((weakref.ref(probs.data), weakref.ref(stack)))
            return logits, probs, stack

        monkeypatch.setattr(training, "model_forward", watched_forward)
        train(tiny_dataset(count=4), TrainConfig(model=TINY, max_iter=3, batch_size=2))
        assert len(steps) == 3

    def test_evaluate_reports_per_image(self):
        ds = tiny_dataset(count=4)
        cfg = TrainConfig(model=TINY, base_lr=0.05, max_iter=2, seed=0,
                          batch_size=2)
        state, _ = train(ds, cfg)
        report, ids = evaluate(ds, state.parameters, TINY, True, True, 10.0)
        assert len(report.entries) == 4
        assert len(ids) == 4
        assert 0.0 <= report.mean.ja <= 1.0

    @pytest.mark.parametrize("use_bidfl, use_mcdf", [(True, True), (False, False)],
                             ids=["full", "baseline"])
    def test_evaluate_predicts_one_batch_with_the_per_image_masks(
            self, use_bidfl, use_mcdf, monkeypatch):
        count = 2 * PREDICT_CHUNK + 1       # whole chunks and a remainder
        ds = tiny_dataset(count=count, seed=3)
        params = build_params(TINY, seed=1, use_bidfl=use_bidfl)
        batches = []

        def recorded(image, *args):
            batches.append(predict_mask(image, *args))
            return batches[-1]

        monkeypatch.setattr(training, "predict_mask", recorded)
        report, ids = evaluate(ds, params, TINY, use_bidfl, use_mcdf, 10.0)
        singles = [predict_mask(s.image, params, TINY, use_bidfl, use_mcdf, 10.0)
                   for s in ds]
        assert len(batches) == 1
        assert [m.tobytes() for m in batches[0]] == [m.tobytes() for m in singles]
        assert report.entries == [compute_metrics(confusion(m, s.mask.data[0]))
                                  for m, s in zip(singles, ds)]
        assert ids == [s.id for s in ds]


class TestOneHot:
    def test_lesion_is_channel_zero(self):
        mask = np.zeros((1, 1, 2, 2))
        mask[0, 0, 0, 0] = 1.0
        onehot = one_hot_masks(mask)
        assert onehot.shape == (1, 2, 2, 2)
        assert onehot[0, 0, 0, 0] == 1.0 and onehot[0, 1, 0, 0] == 0.0
        assert (onehot.sum(axis=1) == 1.0).all()
