"""Acceptance criteria, one test per criterion with a printed pass line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines. Criterion 7 trains the four ablation cells of the synthetic
benchmark once (module-scoped fixture, roughly 12 minutes on a desktop CPU);
everything else completes in seconds.
"""

import filecmp
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lesionseg.autodiff import ConvParams, Tensor, conv2d
from lesionseg.backbone import BackboneConfig
from lesionseg.bidfl import (
    BidflParams,
    DilatedBank,
    backward_pass,
    forward_pass,
    init_bidfl_params,
    bidfl_params_from,
)
from lesionseg.cli import main as cli_main
from lesionseg.data import SynthConfig, gen_synthetic, split_dataset
from lesionseg.gradcheck import run_suite
from lesionseg.mcdf import ScoreStack, fuse_scores, sum_fuse
from lesionseg.metrics import ConfusionCounts, compute_metrics
from lesionseg.model import DESK_RATES, ModelConfig
from lesionseg.training import TrainConfig, evaluate, poly_lr, train, weighted_ce_loss

# the pinned desk benchmark: 200 seeded images split 160/40, a wider desk
# encoder at cumulative stride 4, desk dilation rates, and a sigma_sq
# matched to desk-scale score magnitudes
BENCH_SYNTH = SynthConfig(count=200, size=64, seed=11,
                          lesion_fraction=(0.05, 0.4), contrast=(0.15, 0.45),
                          noise_std=0.05, hair_prob=0.6)
BENCH_MODEL = ModelConfig(
    backbone=BackboneConfig(channels=(12, 24, 48, 48, 48),
                            strides=(1, 2, 2, 1, 1), reduce_channels=24),
    rates=DESK_RATES, bank_channels=24,
    windows=(3, 3, 3, 5, 7, 9, 11, 13, 15, 17))
BENCH_SIGMA_SQ = 1.0
BENCH_SEED = 5
BENCH_LR = 0.12
BENCH_ITERS = 1000

pytestmark = pytest.mark.acceptance

CELLS = {"baseline": (False, False), "bidfl": (True, False),
         "mcdf": (False, True), "full": (True, True)}


def report(line):
    print(f"\nACCEPTANCE {line}", flush=True)


def test_criterion_1_gradient_fidelity():
    start = time.time()
    results = run_suite()
    elapsed = time.time() - start
    worst = max(err for _, err in results)
    names = {name for name, err in results if err >= 1e-4}
    assert not names, f"ops failing 1e-4: {names}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    report(f"1 PASS gradient fidelity: {len(results)} checks, "
           f"worst {worst:.2e} < 1e-4, {elapsed:.1f}s")


def test_criterion_2_convolution_oracle():
    def naive(x, kernel, bias, stride, pad, dil):
        c_in, h, w = x.shape
        c_out, _, kh, kw = kernel.shape
        xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
        oh = (h + 2 * pad - dil * (kh - 1) - 1) // stride + 1
        ow = (w + 2 * pad - dil * (kw - 1) - 1) // stride + 1
        out = np.zeros((c_out, oh, ow))
        for o in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(c_in):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += xp[c, i * stride + ky * dil,
                                          j * stride + kx * dil] * kernel[o, c, ky, kx]
                    out[o, i, j] = acc + bias[o]
        return out

    start = time.time()
    rng = np.random.default_rng(202)
    checked = 0
    while checked < 200:
        c, o = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        h = int(rng.integers(4, 8))
        k = int(rng.integers(1, 4))
        s = int(rng.integers(1, 3))
        d = int(rng.integers(1, 4))
        p = int(rng.integers(0, 3))
        if (h + 2 * p - d * (k - 1) - 1) // s + 1 < 1:
            continue
        x = rng.standard_normal((c, h, h))
        kern = rng.standard_normal((o, c, k, k))
        bias = rng.standard_normal(o)
        params = ConvParams(Tensor(kern), Tensor(bias), stride=s, padding=p,
                            dilation=d)
        got = conv2d(Tensor(x), params).data
        want = naive(x, kern, bias, s, p, d)
        assert np.abs(got - want).max() < 1e-9
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 10.0, f"conv oracle took {elapsed:.1f}s"
    report(f"2 PASS convolution oracle: 200 cases within 1e-9, {elapsed:.1f}s")


def test_criterion_3_mcdf_oracle():
    def scalar_reference(maps, windows, sigma_sq):
        c, h, w = maps[0].shape
        fused = np.zeros((c, h, w))
        for k, l in enumerate(windows):
            r = (l - 1) // 2
            padded = np.pad(maps[k], ((0, 0), (r, r), (r, r)), mode="edge")
            for ci in range(c):
                for i in range(h):
                    for j in range(w):
                        win = padded[ci, i:i + l, j:j + l]
                        var = ((win - win.mean()) ** 2).mean()
                        fused[ci, i, j] += np.exp(-var / sigma_sq) * maps[k][ci, i, j]
        return fused

    start = time.time()
    rng = np.random.default_rng(303)
    for _ in range(6):
        k_total = int(rng.integers(1, 5))
        size = int(rng.integers(6, 17))
        maps = [rng.standard_normal((2, size, size)) * 3 for _ in range(k_total)]
        windows = tuple(int(w) for w in rng.choice([1, 3, 5], size=k_total))
        stack = ScoreStack([Tensor(m) for m in maps], windows, 10.0)
        want = scalar_reference(maps, windows, 10.0)
        assert np.abs(fuse_scores(stack).data - want).max() < 1e-9

    # alpha exactly 1 on constant windows
    flat = np.full((2, 12, 12), 2.5)
    stack = ScoreStack([Tensor(flat)], (5,), 10.0)
    assert np.array_equal(fuse_scores(stack).data, flat)

    # huge sigma_sq reproduces plain summation
    maps = [Tensor(rng.standard_normal((2, 12, 12))) for _ in range(3)]
    big = ScoreStack(maps, (3, 5, 3), 1e12)
    assert_allclose(fuse_scores(big).data, sum_fuse(big).data,
                    rtol=1e-6, atol=1e-9)
    elapsed = time.time() - start
    assert elapsed < 10.0, f"mcdf oracle took {elapsed:.1f}s"
    report(f"3 PASS mcdf oracle: scalar reference, exact-constant alpha, "
           f"sum limit, {elapsed:.1f}s")


def test_criterion_4_bidfl_structure():
    start = time.time()
    rng = np.random.default_rng(404)
    for j in (1, 2, 3, 5):
        rates = tuple(range(1, j + 1))
        raw = init_bidfl_params(4, 4, rates, seed=40 + j)
        params = bidfl_params_from(raw, rates)
        maps = [rng.standard_normal((4, 6, 6)) for _ in rates]

        def passes(ms):
            bank = DilatedBank(rates, [Tensor(m) for m in ms])
            return (forward_pass(bank, params), backward_pass(bank, params))

        base_fwd, base_bwd = passes(maps)
        for m in range(j):
            bumped = [x.copy() for x in maps]
            bumped[m] += rng.standard_normal(bumped[m].shape)
            fwd, bwd = passes(bumped)
            for idx in range(j):
                if idx < m:
                    assert np.array_equal(fwd[idx].data, base_fwd[idx].data)
                if idx > m:
                    assert np.array_equal(bwd[idx].data, base_bwd[idx].data)

        # mirror property: backward equals forward on the reversed bank
        mirrored = BidflParams(
            bank_convs=params.bank_convs,
            forward_reducers=list(reversed(params.backward_reducers)),
            backward_reducers=params.backward_reducers,
            level_reducers=params.level_reducers, fuse_reducer=None, rates=rates)
        rev = DilatedBank(rates, [Tensor(m) for m in reversed(maps)])
        via_fwd = list(reversed(forward_pass(rev, mirrored)))
        for a, b in zip(base_bwd, via_fwd):
            assert np.array_equal(a.data, b.data)
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(f"4 PASS bidfl structure: dependency direction and mirror "
           f"bit-exact for J in (1,2,3,5), {elapsed:.1f}s")


def test_criterion_5_metric_formulas():
    start = time.time()
    rng = np.random.default_rng(505)
    for _ in range(1000):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 400, size=4))
        e = compute_metrics(ConfusionCounts(tp, tn, fp, fn))
        union = tp + fn + fp
        ja = tp / union if union else 1.0
        di = 2 * tp / (2 * tp + fn + fp) if union else 1.0
        total = tp + tn + fp + fn
        ac = (tp + tn) / total if total else 1.0
        sens = tp / (tp + fn) if tp + fn else 1.0
        spec = tn / (tn + fp) if tn + fp else 1.0
        assert_allclose(e.as_tuple(), (ja, di, ac, np.sqrt(sens * spec)),
                        rtol=1e-12, atol=1e-15)
        assert abs(e.di - 2 * e.ja / (1 + e.ja)) < 1e-12
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(f"5 PASS metric formulas: 1000 random counts, identity within "
           f"1e-12, {elapsed:.1f}s")


def test_criterion_6_hyperparameter_fidelity():
    cfg = TrainConfig(model=BENCH_MODEL, base_lr=1e-3, power=0.9, max_iter=30000)
    assert poly_lr(15000, cfg) == pytest.approx(5.3589e-4, abs=1e-8)

    probs = Tensor(np.array([[[0.5]], [[0.5]]]))
    labels = np.array([[[1.0]], [[0.0]]])
    loss = weighted_ce_loss(probs, labels, (0.8, 0.2)).item()
    assert loss == pytest.approx(0.554518, abs=1e-6)

    from lesionseg.cli import parse_config
    defaults = parse_config(None)
    assert defaults["bank.rates"] == "3,6,12,18,24"
    assert float(defaults["mcdf.sigma_sq"]) == 10.0
    assert defaults["train.class_weights"] == "0.8,0.2"
    assert float(defaults["train.base_lr"]) == 1e-3
    assert float(defaults["train.power"]) == 0.9
    default_cfg = TrainConfig(model=BENCH_MODEL)
    assert default_cfg.base_lr == 1e-3 and default_cfg.power == 0.9
    assert default_cfg.class_weights == (0.8, 0.2) and default_cfg.sigma_sq == 10.0
    report("6 PASS hyperparameter fidelity: poly LR halfway value, single-pixel "
           "CE, defaults echo the published rates/sigma/weights/LR")


@pytest.fixture(scope="module")
def benchmark_cells():
    dataset = gen_synthetic(BENCH_SYNTH)
    train_set, val_set = split_dataset(dataset, 0.8, seed=BENCH_SYNTH.seed)
    assert len(train_set) == 160 and len(val_set) == 40
    results = {}
    for name, (use_bidfl, use_mcdf) in CELLS.items():
        cfg = TrainConfig(model=BENCH_MODEL, base_lr=BENCH_LR, power=0.9,
                          max_iter=BENCH_ITERS, seed=BENCH_SEED, batch_size=4,
                          use_bidfl=use_bidfl, use_mcdf=use_mcdf,
                          sigma_sq=BENCH_SIGMA_SQ)
        start = time.time()
        state, records = train(train_set, cfg)
        minutes = (time.time() - start) / 60.0
        rep, _ = evaluate(val_set, state.parameters, BENCH_MODEL, use_bidfl,
                          use_mcdf, BENCH_SIGMA_SQ)
        results[name] = {"ja": rep.mean.ja, "minutes": minutes,
                         "losses": [r.loss for r in records]}
    return results


def test_criterion_7_synthetic_ablation_ordering(benchmark_cells):
    ja = {name: cell["ja"] for name, cell in benchmark_cells.items()}
    for name, cell in benchmark_cells.items():
        assert cell["minutes"] < 10.0, f"{name} took {cell['minutes']:.1f} min"
    assert ja["baseline"] < ja["bidfl"]
    assert ja["baseline"] < ja["mcdf"]
    assert ja["baseline"] < ja["full"]
    assert ja["full"] > 0.85
    assert ja["full"] - ja["baseline"] >= 0.005
    report("7 PASS ablation ordering: JA "
           + " ".join(f"{k}={v:.4f}" for k, v in ja.items()))


def test_criterion_7b_loss_decreases_early(benchmark_cells):
    losses = benchmark_cells["full"]["losses"][:100]
    moving = np.convolve(losses, np.ones(20) / 20, mode="valid")
    assert moving[-1] < moving[0]
    report("7b PASS loss decreases over the first 100 benchmark iterations "
           f"(moving average {moving[0]:.4f} -> {moving[-1]:.4f})")


TINY_SETS = [
    "backbone.channels=4,6,6,6,6", "backbone.reduce=4", "bank.rates=1,2",
    "bank.channels=4", "mcdf.windows=3,3,3,5,7,3,3", "train.max_iter=3",
    "train.batch_size=2", "train.base_lr=0.05", "synth.count=6",
    "synth.size=32", "image_size=32",
]


def _sets():
    out = []
    for item in TINY_SETS:
        out.extend(["--set", item])
    return out


def test_criterion_8_determinism(tmp_path):
    data = tmp_path / "data"
    assert cli_main(["gen-data", "--out", str(data), *_sets()]) == 0
    outputs = []
    for run_name in ("run_a", "run_b"):
        run_dir = tmp_path / run_name
        assert cli_main(["train", "--data", str(data), "--out", str(run_dir),
                         *_sets()]) == 0
        eval_dir = run_dir / "eval"
        assert cli_main(["eval", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                         "--data", str(data), "--out", str(eval_dir),
                         *_sets()]) == 0
        outputs.append(run_dir)
    a, b = outputs
    for rel in ("checkpoint.ckpt", "loss_log.csv", "eval/metrics.csv",
                "eval/ja_histogram.csv", "eval/summary.txt"):
        assert filecmp.cmp(a / rel, b / rel, shallow=False), rel
    report("8 PASS determinism: repeated runs produce byte-identical "
           "checkpoints, loss logs, and metric CSVs")
