import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lesionseg.autodiff import Tensor
from lesionseg.backbone import ConfigError
from lesionseg.data import (
    DatasetError,
    Sample,
    SynthConfig,
    gen_synthetic,
    load_dataset,
    load_images,
    read_manifest,
    resize_bilinear,
    resize_nearest,
    split_dataset,
    write_image,
    write_manifest,
    write_mask,
    write_sample,
    _blob_mask,
    _read_pnm,
    _smooth_field,
    _soft_alpha,
)
from lesionseg.training import AugmentDraw, apply_augment, apply_flip, sample_augment


# ---------------------------------------------------------------------------
# oracles: the resampling and shading helpers in their first, plain form.
# The generated data set, the augmentation and so every trained model depend
# on these helpers' bytes, so the package's faster forms must match them
# exactly, not within a tolerance.
# ---------------------------------------------------------------------------

def oracle_resize_bilinear(arr, out_h, out_w):
    c, h, w = arr.shape
    if (h, w) == (out_h, out_w):
        return arr.copy()
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[None, :, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, None, :]
    top = arr[:, y0][:, :, x0] * (1 - wx) + arr[:, y0][:, :, x1] * wx
    bot = arr[:, y1][:, :, x0] * (1 - wx) + arr[:, y1][:, :, x1] * wx
    return top * (1 - wy) + bot * wy


def oracle_smooth_field(rng, size, cells):
    coarse = rng.standard_normal((1, cells, cells))
    field = oracle_resize_bilinear(coarse, size, size)[0]
    return field - field.mean()  # in the memory order of the oracle's result


def oracle_blob_mask(size, centers, axes, angles, harmonics):
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    mask = np.zeros((size, size), dtype=bool)
    for (cy, cx), (a, b), phi, harm in zip(centers, axes, angles, harmonics):
        dy, dx = yy - cy, xx - cx
        u = dx * np.cos(phi) + dy * np.sin(phi)
        v = -dx * np.sin(phi) + dy * np.cos(phi)
        rho = np.hypot(u / a, v / b)
        theta = np.arctan2(v / b, u / a)
        boundary = np.ones_like(rho)
        for m, amp, shift in harm:
            boundary += amp * np.sin(m * theta + shift)
        mask |= rho <= boundary
    return mask


def oracle_soft_alpha(mask):
    kernel = np.array([0.25, 0.5, 0.25])
    out = mask.copy()
    for _ in range(2):
        padded = np.pad(out, ((1, 1), (0, 0)), mode="edge")
        out = (kernel[0] * padded[:-2] + kernel[1] * padded[1:-1]
               + kernel[2] * padded[2:])
        padded = np.pad(out, ((0, 0), (1, 1)), mode="edge")
        out = (kernel[0] * padded[:, :-2] + kernel[1] * padded[:, 1:-1]
               + kernel[2] * padded[:, 2:])
    return out


def oracle_apply_augment(image, mask, draw):
    image = apply_flip(image, draw.flip_horizontal, draw.flip_vertical)
    mask = apply_flip(mask, draw.flip_horizontal, draw.flip_vertical)
    h, w = image.shape[-2:]
    nh, nw = max(1, round(h * draw.scale)), max(1, round(w * draw.scale))
    if (nh, nw) != (h, w):
        image = oracle_resize_bilinear(image, nh, nw)
        mask = resize_nearest(mask, nh, nw)
        if nh >= h:
            top, left = (nh - h) // 2, (nw - w) // 2
            image = image[:, top:top + h, left:left + w]
            mask = mask[:, top:top + h, left:left + w]
        else:
            top, left = (h - nh) // 2, (w - nw) // 2
            pad = ((0, 0), (top, h - nh - top), (left, w - nw - left))
            image = np.pad(image, pad, mode="edge")
            mask = np.pad(mask, pad)
    return np.ascontiguousarray(image), np.ascontiguousarray(mask)


def signed_zeros(rng, shape):
    """Normal draws with about a quarter of the cells set to 0.0 or -0.0."""
    x = rng.standard_normal(shape)
    x[rng.random(shape) < 0.25] = 0.0
    x[rng.random(shape) < 0.15] = -0.0
    return x


def same_bytes(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestByteIdentity:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 40), st.integers(1, 40),
           st.integers(1, 80), st.integers(1, 80), st.integers(0, 2**32 - 1))
    @example(2, 9, 7, 9, 7, 0)       # identity
    @example(1, 1, 1, 5, 3, 1)       # 1-pixel map
    @example(3, 4, 6, 1, 1, 2)       # down to one pixel
    def test_resize_bilinear(self, c, h, w, out_h, out_w, seed):
        x = signed_zeros(np.random.default_rng(seed), (c, h, w))
        want = oracle_resize_bilinear(x, out_h, out_w)
        assert same_bytes(resize_bilinear(x, out_h, out_w), want)

    def test_resize_bilinear_keeps_the_sign_of_zero(self):
        x = np.full((1, 2, 2), -0.0)
        for out in ((2, 2), (3, 5), (1, 1)):
            assert np.signbit(resize_bilinear(x, *out)).all()
        x[0, 1, 1] = 0.0
        for out in ((2, 2), (3, 5), (1, 1)):
            assert same_bytes(resize_bilinear(x, *out), oracle_resize_bilinear(x, *out))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_soft_alpha_on_real_maps(self, h, w, seed):
        rng = np.random.default_rng(seed)
        for x in (signed_zeros(rng, (h, w)), (rng.random((h, w)) > 0.5).astype(float)):
            assert same_bytes(_soft_alpha(x), oracle_soft_alpha(x))

    # negative amplitudes and blobs off the grid reach the bounding box's edges
    @settings(max_examples=150, deadline=None)
    @given(st.integers(8, 80), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_blob_mask(self, size, n_blobs, seed):
        rng = np.random.default_rng(seed)
        centers = [tuple(rng.uniform(-0.5, 1.5, 2) * size) for _ in range(n_blobs)]
        axes = [list(rng.uniform(0.5, 0.6 * size, 2)) for _ in range(n_blobs)]
        angles = list(rng.uniform(0, 2 * np.pi, n_blobs))
        harmonics = [[(m, rng.uniform(-0.4, 0.4), rng.uniform(0, 2 * np.pi))
                      for m in rng.integers(1, 8, int(rng.integers(0, 5)))]
                     for _ in range(n_blobs)]
        got = _blob_mask(size, centers, axes, angles, harmonics)
        assert same_bytes(got, oracle_blob_mask(size, centers, axes, angles, harmonics))

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_blob_mask_at_its_reach(self, m):
        # an axis-aligned blob whose boundary peaks at 1 + amp at theta = 0,
        # where pixel (16, 16) lies exactly on it: u / a = 6.25 / 5 = 1.25
        args = (32, [(16.0, 9.75)], [[5.0, 3.0]], [0.0], [[(m, 0.25, np.pi / 2)]])
        got = _blob_mask(*args)
        assert got[16, 16] and same_bytes(got, oracle_blob_mask(*args))

    # the generator always upsamples (cells < size); the oracle's identity
    # resize returns a C-ordered copy, whose mean sums in the other order
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([4, 8]), st.integers(9, 96), st.integers(0, 2**32 - 1))
    @example(4, 64, 0)
    @example(8, 64, 0)
    def test_smooth_field(self, cells, size, seed):
        got = _smooth_field(np.random.default_rng(seed), size, cells)
        want = oracle_smooth_field(np.random.default_rng(seed), size, cells)
        assert same_bytes(got, want)

    def test_apply_augment_over_200_draws(self):
        rng = np.random.default_rng(11)
        sample = gen_synthetic(SynthConfig(count=1, size=32, seed=11))[0]
        image, mask = sample.image.data, sample.mask.data
        draws = [sample_augment(rng) for _ in range(200)]
        assert {d.scale < 1 for d in draws} == {True, False}
        for draw in draws + [AugmentDraw(True, True, 0.8), AugmentDraw(False, True, 1.2)]:
            got = apply_augment(image, mask, draw)
            want = oracle_apply_augment(image, mask, draw)
            assert all(same_bytes(g, w_) for g, w_ in zip(got, want)), draw


class TestSynthConfig:
    def test_rejects_bad_fraction_range(self):
        with pytest.raises(ConfigError):
            SynthConfig(lesion_fraction=(0.4, 0.1))
        with pytest.raises(ConfigError):
            SynthConfig(lesion_fraction=(0.0, 0.5))


class TestGenerator:
    def test_bit_identical_for_same_seed(self):
        cfg = SynthConfig(count=6, size=48, seed=21)
        a, b = gen_synthetic(cfg), gen_synthetic(cfg)
        for s1, s2 in zip(a, b):
            assert s1.id == s2.id
            assert np.array_equal(s1.image.data, s2.image.data)
            assert np.array_equal(s1.mask.data, s2.mask.data)

    def test_different_seeds_differ(self):
        a = gen_synthetic(SynthConfig(count=2, size=48, seed=1))
        b = gen_synthetic(SynthConfig(count=2, size=48, seed=2))
        assert not np.array_equal(a[0].image.data, b[0].image.data)

    def test_lesion_fraction_within_range(self):
        cfg = SynthConfig(count=30, size=64, seed=3, lesion_fraction=(0.05, 0.4))
        tol = 1.0 / cfg.size  # one pixel row of slack
        for s in gen_synthetic(cfg):
            frac = s.mask.data.mean()
            assert 0.05 - tol <= frac <= 0.4 + tol, (s.id, frac)

    def test_masks_binary_images_in_unit_range(self):
        for s in gen_synthetic(SynthConfig(count=8, size=48, seed=4, hair_prob=1.0)):
            assert np.isin(s.mask.data, (0.0, 1.0)).all()
            assert s.image.data.min() >= 0.0 and s.image.data.max() <= 1.0
            assert s.image.shape[0] == 3 and s.mask.shape[0] == 1

    def test_zero_contrast_hides_lesion(self):
        cfg = SynthConfig(count=10, size=64, seed=5, contrast=(0.0, 0.0),
                          noise_std=0.02, hair_prob=0.0)
        gaps = []
        for s in gen_synthetic(cfg):
            mask = s.mask.data[0].astype(bool)
            inside = s.image.data[:, mask].mean()
            outside = s.image.data[:, ~mask].mean()
            gaps.append(abs(inside - outside))
        # no lesion-dependent term remains, only illumination drift and noise
        assert float(np.mean(gaps)) < 0.02

    def test_lesion_darker_than_surround_at_normal_contrast(self):
        cfg = SynthConfig(count=6, size=64, seed=6, contrast=(0.3, 0.5),
                          noise_std=0.01, hair_prob=0.0)
        for s in gen_synthetic(cfg):
            mask = s.mask.data[0].astype(bool)
            assert s.image.data[:, mask].mean() < s.image.data[:, ~mask].mean()


class TestResizers:
    def test_bilinear_identity(self):
        x = np.random.default_rng(0).random((3, 9, 7))
        assert np.array_equal(resize_bilinear(x, 9, 7), x)

    def test_bilinear_constant_preserved(self):
        out = resize_bilinear(np.full((1, 8, 8), 0.4), 13, 11)
        assert_allclose(out, 0.4, rtol=1e-12)

    def test_nearest_keeps_values(self):
        x = (np.random.default_rng(1).random((1, 6, 6)) > 0.5).astype(float)
        out = resize_nearest(x, 9, 9)
        assert np.isin(out, (0.0, 1.0)).all()

    def test_downscale_upscale_shapes(self):
        x = np.random.default_rng(2).random((3, 16, 16))
        assert resize_bilinear(x, 8, 8).shape == (3, 8, 8)
        assert resize_nearest(x, 24, 24).shape == (3, 24, 24)


class TestFileIO:
    def test_ppm_image_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        img = rng.random((3, 10, 12))
        path = tmp_path / "img.ppm"
        write_image(img, path)
        samples_dir = tmp_path / "set"
        (samples_dir / "images").mkdir(parents=True)
        (samples_dir / "masks").mkdir(parents=True)
        write_image(img, samples_dir / "images" / "x.ppm")
        write_mask(np.zeros((1, 10, 12)), samples_dir / "masks" / "x.pgm")
        loaded = load_dataset(samples_dir, size=12)
        assert len(loaded) == 1

    def test_mask_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        mask = (rng.random((1, 16, 16)) > 0.5).astype(float)
        path = tmp_path / "m.pgm"
        write_mask(mask, path)
        from lesionseg.data import _read_pnm
        raw = _read_pnm(path)
        assert np.array_equal((raw >= 128).astype(float), mask[0])

    def test_all_zero_mask_decodes_to_zero(self, tmp_path):
        path = tmp_path / "z.pgm"
        write_mask(np.zeros((1, 8, 8)), path)
        from lesionseg.data import _read_pnm
        assert not _read_pnm(path).any()

    def test_quantization_clamps_extremes(self, tmp_path):
        img = np.full((3, 4, 4), 1.5)
        img[1] = -0.2
        path = tmp_path / "c.ppm"
        write_image(img, path)
        from lesionseg.data import _read_pnm
        raw = _read_pnm(path)
        assert raw[..., 0].max() == 255 and raw[..., 1].max() == 0

    def test_synthetic_roundtrip(self, tmp_path):
        samples = gen_synthetic(SynthConfig(count=4, size=32, seed=9))
        for s in samples:
            write_sample(s, tmp_path)
        loaded = load_dataset(tmp_path, size=32)
        assert len(loaded) == 4
        for orig, got in zip(samples, loaded):
            assert orig.id == got.id
            assert np.array_equal(orig.mask.data, got.mask.data)
            assert np.abs(orig.image.data - got.image.data).max() <= 1.0 / 255 + 1e-12

    def test_png_roundtrip(self, tmp_path):
        pytest.importorskip("PIL")
        samples = gen_synthetic(SynthConfig(count=2, size=32, seed=10))
        for s in samples:
            write_sample(s, tmp_path, fmt="png")
        loaded = load_dataset(tmp_path, size=32)
        assert len(loaded) == 2
        for orig, got in zip(samples, loaded):
            assert np.array_equal(orig.mask.data, got.mask.data)


class TestLoadDataset:
    def test_empty_dir_warns_not_raises(self, tmp_path):
        with pytest.warns(UserWarning):
            assert load_dataset(tmp_path, size=32) == []

    def test_unpaired_stems_error(self, tmp_path):
        (tmp_path / "images").mkdir()
        (tmp_path / "masks").mkdir()
        write_image(np.zeros((3, 8, 8)), tmp_path / "images" / "only.ppm")
        with pytest.raises(DatasetError, match="only"):
            load_dataset(tmp_path, size=8)

    def test_shared_stem_error_names_both_files(self, tmp_path):
        (tmp_path / "images").mkdir()
        (tmp_path / "masks").mkdir()
        write_image(np.zeros((3, 8, 8)), tmp_path / "images" / "a.ppm")
        write_image(np.zeros((3, 8, 8)), tmp_path / "images" / "a.pgm")
        write_mask(np.zeros((1, 8, 8)), tmp_path / "masks" / "a.pgm")
        both = f"{tmp_path / 'images' / 'a.pgm'} and {tmp_path / 'images' / 'a.ppm'}"
        with pytest.raises(DatasetError, match=re.escape(both)):
            load_dataset(tmp_path, size=8)

    def test_mask_binarized_at_128(self, tmp_path):
        (tmp_path / "images").mkdir()
        (tmp_path / "masks").mkdir()
        write_image(np.zeros((3, 4, 4)), tmp_path / "images" / "a.ppm")
        levels = np.array([[0, 100, 127, 128], [129, 200, 255, 0],
                           [0, 0, 0, 0], [255, 255, 255, 255]], dtype=np.uint8)
        (tmp_path / "masks" / "a.pgm").write_bytes(b"P5\n4 4\n255\n" + levels.tobytes())
        sample = load_dataset(tmp_path, size=4)[0]
        want = (levels >= 128).astype(float)
        assert np.array_equal(sample.mask.data[0], want)

    def test_dot_files_are_not_samples(self, tmp_path):
        # a writer killed between its write and its rename leaves .<name>.<pid>.tmp
        for s in gen_synthetic(SynthConfig(count=3, size=16, seed=2)):
            write_sample(s, tmp_path)
        want = load_dataset(tmp_path, size=16)
        want_images = load_images(tmp_path, size=16)
        for sub in ("images", "masks"):
            (tmp_path / sub / ".synth0000.ppm.999.tmp").write_bytes(b"P6\n")
            (tmp_path / sub / ".extra.pgm").write_bytes(b"")
        got = load_dataset(tmp_path, size=16)
        assert [s.id for s in got] == [s.id for s in want]
        for a, b in zip(got, want):
            assert np.array_equal(a.image.data, b.image.data)
            assert np.array_equal(a.mask.data, b.mask.data)
        got_images = load_images(tmp_path, size=16)
        assert [stem for stem, _ in got_images] == [stem for stem, _ in want_images]
        for (_, a), (_, b) in zip(got_images, want_images):
            assert np.array_equal(a.data, b.data)

    def test_rectangular_input_padded_square(self, tmp_path):
        (tmp_path / "images").mkdir()
        (tmp_path / "masks").mkdir()
        write_image(np.full((3, 8, 16), 0.5), tmp_path / "images" / "r.ppm")
        write_mask(np.ones((1, 8, 16)), tmp_path / "masks" / "r.pgm")
        sample = load_dataset(tmp_path, size=16)[0]
        assert sample.image.shape == (3, 16, 16)
        assert sample.mask.shape == (1, 16, 16)
        assert not sample.mask.data[0, 8:, :].any()  # padded rows are background


class TestDamagedFiles:
    @pytest.mark.parametrize("name, pixels", [
        ("img.ppm", np.arange(3 * 4 * 5).reshape(3, 4, 5) / 60.0),
        ("mask.pgm", np.eye(4, 5)[None]),
    ])
    def test_every_truncation_names_the_file(self, tmp_path, name, pixels):
        whole = tmp_path / name
        (write_image if name.endswith(".ppm") else write_mask)(pixels, whole)
        blob = whole.read_bytes()
        cut = tmp_path / f"cut_{name}"
        for offset in range(len(blob)):
            cut.write_bytes(blob[:offset])
            with pytest.raises(DatasetError, match=re.escape(str(cut))):
                _read_pnm(cut)

    @pytest.mark.parametrize("header", [b"P6\nx 4\n255\n", b"P6\n4 -4\n255\n",
                                        b"P5\n0 4\n255\n", b"P5 4 4 255.0\n"])
    def test_malformed_header_names_the_file(self, tmp_path, header):
        path = tmp_path / "bad.pgm"
        path.write_bytes(header + bytes(64))
        with pytest.raises(DatasetError, match=re.escape(str(path))):
            _read_pnm(path)


class TestManifestAndSplit:
    def test_manifest_roundtrip(self, tmp_path):
        write_manifest(tmp_path, [("a", "train"), ("b", "val")])
        assert read_manifest(tmp_path) == {"a": "train", "b": "val"}

    def test_missing_manifest_empty(self, tmp_path):
        assert read_manifest(tmp_path) == {}

    def test_split_deterministic_and_proportional(self):
        samples = gen_synthetic(SynthConfig(count=20, size=32, seed=12))
        t1, v1 = split_dataset(samples, 0.8, seed=3)
        t2, v2 = split_dataset(samples, 0.8, seed=3)
        assert [s.id for s in t1] == [s.id for s in t2]
        assert len(t1) == 16 and len(v1) == 4
        assert {s.id for s in t1}.isdisjoint({s.id for s in v1})


class TestSampleValidation:
    @pytest.mark.parametrize("value", [0.0, -0.0, 1.0])
    def test_accepts_binary_mask(self, value):
        mask = np.zeros((1, 4, 4))
        mask[0, 1:3, 1:3] = value
        Sample(image=Tensor(np.zeros((3, 4, 4))), mask=Tensor(mask), id="ok")

    @pytest.mark.parametrize("value", [0.5, 2.0, np.nan, np.inf])
    def test_rejects_non_binary_mask(self, value):
        mask = np.ones((1, 4, 4))
        mask[0, 2, 3] = value
        with pytest.raises(DatasetError, match=r"^mask of sample 'bad' is not binary$"):
            Sample(image=Tensor(np.zeros((3, 4, 4))), mask=Tensor(mask), id="bad")
