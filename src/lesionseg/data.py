"""Synthetic lesion dataset generation, image/mask file I/O, dataset loading.

Generated samples imitate the awkward parts of dermoscopy at desk scale:
smooth irregular blobs (convex and concave boundaries), low and variable
lesion/background contrast, illumination drift, sensor noise, and optional
dark hair-like strokes. The mask is always the exact blob support and every
mask-dependent intensity term scales with the drawn contrast, so a zero
contrast range yields images with no lesion signal at all.

Files use portable pixmaps by default (P6 images, P5 masks) so the package
has no codec dependency; PNG works through Pillow when it is installed.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import ShapeMismatchError, Tensor, pad2d
from .backbone import ConfigError, atomic_write


class DatasetError(ValueError):
    pass


@dataclass
class Sample:
    image: Tensor   # (3, H, W) in [0, 1]
    mask: Tensor    # (1, H, W) binary
    id: str

    def __post_init__(self):
        if self.image.shape[-2:] != self.mask.shape[-2:]:
            raise ShapeMismatchError(
                f"image {self.image.shape} / mask {self.mask.shape} spatial mismatch")
        m = self.mask.data
        if not ((m == 0) | (m == 1)).all():
            raise DatasetError(f"mask of sample {self.id!r} is not binary")


@dataclass(frozen=True)
class SynthConfig:
    count: int = 200
    size: int = 64
    seed: int = 0
    lesion_fraction: tuple[float, float] = (0.05, 0.4)
    contrast: tuple[float, float] = (0.25, 0.6)
    noise_std: float = 0.03
    hair_prob: float = 0.3

    def __post_init__(self):
        lo, hi = self.lesion_fraction
        if not (0.0 < lo < hi < 1.0):
            raise ConfigError(f"synth.lesion_fraction: expected 0 < lo < hi < 1, "
                              f"got {self.lesion_fraction}")
        if self.contrast[0] > self.contrast[1] or self.contrast[0] < 0:
            raise ConfigError(f"synth.contrast: expected 0 <= lo <= hi, got {self.contrast}")
        if self.count < 1:
            raise ConfigError(f"synth.count: expected at least 1, got {self.count}")
        if self.size < 8:
            raise ConfigError(f"synth.size: expected at least 8, got {self.size}")
        if self.noise_std < 0:
            raise ConfigError(f"synth.noise_std: expected at least 0, got {self.noise_std}")
        if not 0.0 <= self.hair_prob <= 1.0:
            raise ConfigError(
                f"synth.hair_prob: expected a value in [0, 1], got {self.hair_prob}")


# ---------------------------------------------------------------------------
# resampling helpers (shared with augmentation and dataset loading)
# ---------------------------------------------------------------------------

def resize_bilinear(arr: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Channel-first bilinear resize; identity when sizes already match.

    Separable: each source row is interpolated along x once, then pairs of
    those rows are blended along y, which forms every output value from the
    same two products and one sum as the 2-d formula. The result is
    C-ordered."""
    c, h, w = arr.shape
    if (h, w) == (out_h, out_w):
        return arr.copy()
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    wx = np.clip(xs - x0, 0.0, 1.0)
    rows = arr[:, :, x0] * (1 - wx) + arr[:, :, x1] * wx
    return rows[:, y0] * (1 - wy) + rows[:, y1] * wy


def resize_nearest(arr: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    c, h, w = arr.shape
    if (h, w) == (out_h, out_w):
        return arr.copy()
    ys = np.clip(((np.arange(out_h) + 0.5) * (h / out_h)).astype(int), 0, h - 1)
    xs = np.clip(((np.arange(out_w) + 0.5) * (w / out_w)).astype(int), 0, w - 1)
    return arr[:, ys][:, :, xs]


def _smooth_field(rng: np.random.Generator, size: int, cells: int) -> np.ndarray:
    """Zero-mean smooth random surface from a bilinearly upsampled coarse grid."""
    coarse = rng.standard_normal((1, cells, cells))
    field = resize_bilinear(coarse, size, size)[0]
    # summed column by column, the order the field's mean has always used:
    # the data set's bytes depend on it
    return field - np.ascontiguousarray(field.T).mean()


# ---------------------------------------------------------------------------
# blob synthesis
# ---------------------------------------------------------------------------

def _blob_mask(size: int, centers, axes, angles, harmonics) -> np.ndarray:
    """Union of sinusoidally perturbed ellipses rasterized on the pixel grid.

    A pixel is inside when hypot(u/a, v/b) is at most the boundary
    1 + sum amp sin(m theta + shift), which never exceeds 1 + sum |amp|, so
    the boundary is evaluated only where |u/a| and |v/b| are within that
    reach, inside the axis-aligned box around it."""
    grid = np.arange(size, dtype=float)
    mask = np.zeros((size, size), dtype=bool)
    for (cy, cx), (a, b), phi, harm in zip(centers, axes, angles, harmonics):
        # the relative slack, far above the rounding of the boundary sum and
        # of u/a and v/b, keeps every pixel the rounded test can accept
        reach = (1.0 + sum(abs(amp) for _, amp, _ in harm)) * (1.0 + 1e-6)
        cos, sin = abs(np.cos(phi)), abs(np.sin(phi))
        half_y, half_x = reach * (a * sin + b * cos), reach * (a * cos + b * sin)
        y0, y1 = max(0, math.floor(cy - half_y)), min(size, math.ceil(cy + half_y) + 1)
        x0, x1 = max(0, math.floor(cx - half_x)), min(size, math.ceil(cx + half_x) + 1)
        dy, dx = (grid[y0:y1] - cy)[:, None], grid[x0:x1] - cx
        ua = (dx * np.cos(phi) + dy * np.sin(phi)) / a
        vb = (-dx * np.sin(phi) + dy * np.cos(phi)) / b
        near = (np.abs(ua) <= reach) & (np.abs(vb) <= reach)
        ua, vb = ua[near], vb[near]
        rho = np.hypot(ua, vb)
        theta = np.arctan2(vb, ua)
        boundary = np.ones_like(rho)
        for m, amp, shift in harm:
            boundary += amp * np.sin(m * theta + shift)
        box = mask[y0:y1, x0:x1]
        box[near] |= rho <= boundary
    return mask


def _draw_blobs(rng: np.random.Generator, config: SynthConfig) -> np.ndarray:
    size = config.size
    lo, hi = config.lesion_fraction
    span = hi - lo
    target = rng.uniform(lo + 0.1 * span, hi - 0.1 * span)
    n_blobs = 2 if rng.random() < 0.35 else 1
    shares = [1.0] if n_blobs == 1 else [0.7, 0.3]

    centers, axes, angles, harmonics = [], [], [], []
    base = np.array([rng.uniform(0.38, 0.62) * size, rng.uniform(0.38, 0.62) * size])
    for k in range(n_blobs):
        if k == 0:
            centers.append(tuple(base))
        else:
            offset = rng.uniform(0.18, 0.3) * size
            direction = rng.uniform(0, 2 * np.pi)
            centers.append((
                float(np.clip(base[0] + offset * np.sin(direction), 0.2 * size, 0.8 * size)),
                float(np.clip(base[1] + offset * np.cos(direction), 0.2 * size, 0.8 * size)),
            ))
        aspect = rng.uniform(0.65, 1.55)
        r0 = np.sqrt(shares[k] * target * size * size / np.pi)
        axes.append([r0 * aspect, r0 / aspect])
        angles.append(rng.uniform(0, np.pi))
        harmonics.append([(m, rng.uniform(0.0, 0.2), rng.uniform(0, 2 * np.pi))
                          for m in (2, 3, 5)])

    # rescale all axes until the rasterized union fraction lands in range
    mask = _blob_mask(size, centers, axes, angles, harmonics)
    for _ in range(12):
        frac = mask.mean()
        if lo <= frac <= hi:
            break
        scale = np.sqrt(target / max(frac, 1.0 / (size * size)))
        scale = float(np.clip(scale, 0.6, 1.6))
        axes = [[a * scale, b * scale] for a, b in axes]
        mask = _blob_mask(size, centers, axes, angles, harmonics)
    return mask.astype(float)


def _soft_alpha(mask: np.ndarray) -> np.ndarray:
    """Slightly feathered copy of the mask for shading (mask itself stays exact)."""
    kernel = np.array([0.25, 0.5, 0.25])
    out = mask.copy()
    for _ in range(2):
        padded = pad2d(out, (1, 1), (0, 0), edge=True)
        out = (kernel[0] * padded[:-2] + kernel[1] * padded[1:-1]
               + kernel[2] * padded[2:])
        padded = pad2d(out, (0, 0), (1, 1), edge=True)
        out = (kernel[0] * padded[:, :-2] + kernel[1] * padded[:, 1:-1]
               + kernel[2] * padded[:, 2:])
    return out


def _hair_strokes(rng: np.random.Generator, size: int) -> np.ndarray:
    """Dark curvilinear artifacts: rasterized quadratic curves, 1-2 px wide."""
    stamp = np.zeros((size, size))
    for _ in range(int(rng.integers(1, 4))):
        pts = rng.uniform(-0.1 * size, 1.1 * size, size=(3, 2))
        t = np.linspace(0.0, 1.0, 4 * size)[:, None]
        curve = ((1 - t) ** 2 * pts[0] + 2 * (1 - t) * t * pts[1] + t ** 2 * pts[2])
        ys = np.round(curve[:, 0]).astype(int)
        xs = np.round(curve[:, 1]).astype(int)
        keep = (ys >= 0) & (ys < size) & (xs >= 0) & (xs < size)
        depth = rng.uniform(0.15, 0.4)
        stamp[ys[keep], xs[keep]] = np.maximum(stamp[ys[keep], xs[keep]], depth)
        if rng.random() < 0.5:  # occasional double-width strand
            ys2 = np.clip(ys[keep] + 1, 0, size - 1)
            stamp[ys2, xs[keep]] = np.maximum(stamp[ys2, xs[keep]], 0.6 * depth)
    return stamp


def gen_synthetic(config: SynthConfig) -> list[Sample]:
    """Deterministic dataset of blob lesions on skin-toned backgrounds."""
    rng = np.random.default_rng(config.seed)
    size = config.size
    ramp_y = np.linspace(-0.5, 0.5, size)[:, None]
    ramp_x = np.linspace(-0.5, 0.5, size)[None, :]
    samples = []
    for index in range(config.count):
        mask = _draw_blobs(rng, config)
        alpha = _soft_alpha(mask)

        red = rng.uniform(0.66, 0.84)
        base = np.empty((3, size, size))
        base[0] = red
        base[1] = red - rng.uniform(0.08, 0.18)
        base[2] = red - rng.uniform(0.16, 0.3)
        base += 0.035 * _smooth_field(rng, size, 4)[None]
        gy, gx = rng.uniform(-0.05, 0.05, size=2)
        base += (ramp_y * gy + ramp_x * gx)[None]

        contrast = rng.uniform(*config.contrast)
        profile = np.array([1.0, rng.uniform(0.8, 0.95), rng.uniform(0.6, 0.8)])
        texture = _smooth_field(rng, size, max(4, size // 8))
        depth = 0.75 + 0.5 * _soft_alpha(alpha)       # darker toward the core
        drop = contrast * profile[:, None, None] * alpha[None] * depth[None]
        drop *= 1.0 + 0.3 * texture[None]
        image = base - drop

        if rng.random() < config.hair_prob:
            image = image - _hair_strokes(rng, size)[None]
        if config.noise_std > 0:
            image = image + rng.normal(0.0, config.noise_std, size=image.shape)
        image = np.clip(image, 0.0, 1.0)

        samples.append(Sample(image=Tensor(image), mask=Tensor(mask[None]),
                              id=f"synth{index:04d}"))
    return samples


# ---------------------------------------------------------------------------
# portable pixmap I/O (P6 images, P5 masks), PNG via Pillow when available
# ---------------------------------------------------------------------------

def _write_8bit(path, arr: np.ndarray) -> None:
    """(H, W, 3) or (H, W) values in [0, 1] to 8-bit PNG by suffix, else PPM/PGM."""
    arr8 = (np.clip(arr, 0.0, 1.0) * 255.0).round().astype(np.uint8)
    path = Path(path)
    if path.suffix.lower() == ".png":
        buf = io.BytesIO()
        _pil().fromarray(arr8).save(buf, format="PNG")
        data = buf.getvalue()
    else:
        magic = "P6" if arr8.ndim == 3 else "P5"
        header = f"{magic}\n{arr8.shape[1]} {arr8.shape[0]}\n255\n".encode("ascii")
        data = header + arr8.tobytes()
    atomic_write(path, data)


def _read_pnm(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if blob[:2] not in (b"P5", b"P6"):
        raise DatasetError(f"{path}: not a binary PGM/PPM file")
    tokens, pos = [], 2
    while len(tokens) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if not blob[start:pos].isdigit():
            raise DatasetError(f"{path}: damaged or truncated header")
        tokens.append(int(blob[start:pos]))
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = tokens
    if maxval != 255:
        raise DatasetError(f"{path}: only 8-bit files supported, maxval={maxval}")
    if width < 1 or height < 1:
        raise DatasetError(f"{path}: image size {width}x{height} is empty")
    channels = 3 if blob[:2] == b"P6" else 1
    size = width * height * channels
    if len(blob) - pos < size:
        raise DatasetError(f"{path}: truncated, {max(len(blob) - pos, 0)} of "
                           f"{size} pixel bytes")
    data = np.frombuffer(blob, dtype=np.uint8, count=size, offset=pos)
    if channels == 3:
        return data.reshape(height, width, 3)
    return data.reshape(height, width)


def write_image(image, path) -> None:
    """3-channel image in [0, 1] to an 8-bit PPM or PNG file."""
    arr = image.data if isinstance(image, Tensor) else np.asarray(image)
    _write_8bit(path, np.moveaxis(arr, 0, -1))


def write_mask(mask, path) -> None:
    """Binary mask to a single-channel 8-bit file with values 0/255."""
    arr = mask.data if isinstance(mask, Tensor) else np.asarray(mask)
    _write_8bit(path, arr.reshape(arr.shape[-2:]) > 0.5)


def write_sample(sample: Sample, root, fmt: str = "ppm") -> None:
    root = Path(root)
    image_ext = "png" if fmt == "png" else "ppm"
    mask_ext = "png" if fmt == "png" else "pgm"
    write_image(sample.image, root / "images" / f"{sample.id}.{image_ext}")
    write_mask(sample.mask, root / "masks" / f"{sample.id}.{mask_ext}")


def _pil():
    try:
        from PIL import Image
    except ImportError as err:
        raise DatasetError(
            "PNG support needs Pillow; install it or use the ppm format") from err
    return Image


def _read_any(path: Path) -> np.ndarray:
    if path.suffix.lower() == ".png":
        return np.asarray(_pil().open(path))
    return _read_pnm(path)


def _fit_to_size(arr: np.ndarray, size: int, nearest: bool) -> np.ndarray:
    """Resize so the longest side equals size, then pad square (top-left)."""
    c, h, w = arr.shape
    if (h, w) == (size, size):
        return arr
    scale = size / max(h, w)
    nh, nw = max(1, round(h * scale)), max(1, round(w * scale))
    resized = resize_nearest(arr, nh, nw) if nearest else resize_bilinear(arr, nh, nw)
    return pad2d(resized, (0, size - nh), (0, size - nw), edge=not nearest)


def _files(directory: Path) -> dict[str, Path]:
    """The files directly under directory by stem (none if it is absent). Dot-files
    are skipped: a writer killed mid-write leaves one behind."""
    if not directory.is_dir():
        return {}
    files: dict[str, Path] = {}
    for p in sorted(directory.glob("*")):
        if p.is_file() and not p.name.startswith("."):
            if p.stem in files:
                raise DatasetError(f"{files[p.stem]} and {p} share the stem {p.stem!r}")
            files[p.stem] = p
    return files


def _load_image(path: Path, size: int) -> Tensor:
    raw = _read_any(path)
    if raw.ndim == 2:
        raw = np.repeat(raw[:, :, None], 3, axis=2)
    image = np.moveaxis(raw[:, :, :3], -1, 0).astype(float) / 255.0
    return Tensor(_fit_to_size(image, size, nearest=False))


def load_images(root, size: int = 64) -> list[tuple[str, Tensor]]:
    """(stem, image) for every file under images/, normalized as load_dataset
    normalizes them; masks/ is not read."""
    images = _files(Path(root) / "images")
    return [(stem, _load_image(images[stem], size)) for stem in sorted(images)]


def load_dataset(root, size: int = 64) -> list[Sample]:
    """Read images/ and masks/ with matching stems into normalized samples."""
    root = Path(root)
    images, masks = _files(root / "images"), _files(root / "masks")
    if not images and not masks:
        warnings.warn(f"no samples found under {root}", stacklevel=2)
        return []
    unmatched = sorted(set(images) ^ set(masks))
    if unmatched:
        raise DatasetError(f"unpaired stems under {root}: {', '.join(unmatched)}")

    samples = []
    for stem in sorted(images):
        image = _load_image(images[stem], size)
        mraw = _read_any(masks[stem])
        if mraw.ndim == 3:
            mraw = mraw[:, :, 0]
        mask = _fit_to_size((mraw >= 128).astype(float)[None], size, nearest=True)
        samples.append(Sample(image=image, mask=Tensor(mask), id=stem))
    return samples


# ---------------------------------------------------------------------------
# manifest and train/val split
# ---------------------------------------------------------------------------

def write_manifest(root, assignments: list[tuple[str, str]]) -> None:
    lines = [f"{sample_id},{split}" for sample_id, split in assignments]
    text = "id,split\n" + "\n".join(lines) + "\n"
    atomic_write(Path(root) / "manifest.csv", text.encode())


def read_manifest(root) -> dict[str, str]:
    path = Path(root) / "manifest.csv"
    if not path.is_file():
        return {}
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise DatasetError(f"{path}: not utf-8 text") from None
    out = {}
    for line in text.splitlines()[1:]:
        sample_id, _, split = line.partition(",")
        if sample_id:
            out[sample_id] = split
    return out


def split_dataset(samples: list[Sample], train_fraction: float,
                  seed: int) -> tuple[list[Sample], list[Sample]]:
    """Seeded shuffle split; same seed, same membership, order preserved."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train.split: expected a value in (0, 1), got {train_fraction}")
    order = np.random.default_rng(seed).permutation(len(samples))
    n_train = int(round(train_fraction * len(samples)))
    train_ids = {samples[i].id for i in order[:n_train]}
    train = [s for s in samples if s.id in train_ids]
    val = [s for s in samples if s.id not in train_ids]
    return train, val
