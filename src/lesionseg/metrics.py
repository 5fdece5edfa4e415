"""Segmentation metrics from pixel confusion counts.

JA = TP/(TP+FN+FP), DI = 2TP/(2TP+FN+FP), AC = (TP+TN)/total, and
GM = sqrt(sensitivity * specificity). Degenerate denominators resolve to
vacuous agreement: an empty ground truth matched by an empty prediction
scores 1, and GM's missing terms default to 1.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeMismatchError, Tensor
from .backbone import atomic_write


class NonBinaryMaskError(ValueError):
    pass


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError(f"negative confusion count: {self}")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricEntry:
    ja: float
    di: float
    ac: float
    gm: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.ja, self.di, self.ac, self.gm)


@dataclass
class MetricReport:
    entries: list[MetricEntry]
    mean: MetricEntry
    std: MetricEntry


METRIC_NAMES = ("ja", "di", "ac", "gm")


def _as_mask(x) -> np.ndarray:
    arr = x.data if isinstance(x, Tensor) else np.asarray(x)
    if not np.isin(arr, (0.0, 1.0)).all():
        raise NonBinaryMaskError("mask values must be exactly 0 or 1")
    return arr


def confusion(pred, gt) -> ConfusionCounts:
    """Exact pixel counts; inputs are binary masks of identical shape."""
    p, g = _as_mask(pred), _as_mask(gt)
    if p.shape != g.shape:
        raise ShapeMismatchError(f"pred shape {p.shape} != gt shape {g.shape}")
    pb, gb = p.astype(bool), g.astype(bool)
    tp = int(np.count_nonzero(pb & gb))
    tn = int(np.count_nonzero(~pb & ~gb))
    fp = int(np.count_nonzero(pb & ~gb))
    fn = int(np.count_nonzero(~pb & gb))
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def compute_metrics(c: ConfusionCounts) -> MetricEntry:
    union = c.tp + c.fn + c.fp
    ja = c.tp / union if union else 1.0
    di = 2 * c.tp / (2 * c.tp + c.fn + c.fp) if union else 1.0
    ac = (c.tp + c.tn) / c.total if c.total else 1.0
    sens = c.tp / (c.tp + c.fn) if c.tp + c.fn else 1.0
    spec = c.tn / (c.tn + c.fp) if c.tn + c.fp else 1.0
    return MetricEntry(ja=ja, di=di, ac=ac, gm=float(np.sqrt(sens * spec)))


def aggregate(entries: list[MetricEntry]) -> MetricReport:
    """Per-metric mean and sample standard deviation (zero for one entry)."""
    if not entries:
        raise ValueError("cannot aggregate an empty metric list")
    table = np.array([e.as_tuple() for e in entries])
    mean = table.mean(axis=0)
    std = table.std(axis=0, ddof=1) if len(entries) > 1 else np.zeros(4)
    return MetricReport(entries=list(entries),
                        mean=MetricEntry(*mean), std=MetricEntry(*std))


def write_csv(path, rows: list[list]) -> None:
    """rows as csv, with csv's \\r\\n line ends, written by atomic_write."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    atomic_write(path, text.getvalue().encode())


def write_metrics_csv(path, ids: list[str], entries: list[MetricEntry]) -> None:
    rows = [["id", *METRIC_NAMES]]
    for sample_id, e in zip(ids, entries):
        rows.append([sample_id] + [f"{v:.17g}" for v in e.as_tuple()])
    write_csv(path, rows)


def summary_table(report: MetricReport, label: str = "model") -> str:
    """Fixed-width mean +/- std table in percent, one row per configuration."""
    header = f"{'Method':<24}" + "".join(f"{n.upper():>16}" for n in METRIC_NAMES)
    cells = [
        f"{m * 100:.2f}±{s * 100:.2f}"
        for m, s in zip(report.mean.as_tuple(), report.std.as_tuple())
    ]
    row = f"{label:<24}" + "".join(f"{c:>16}" for c in cells)
    return header + "\n" + row + "\n"


def write_ja_histogram(path, entries: list[MetricEntry], bins: int = 10) -> None:
    """Distribution of per-image JA over equal-width bins covering [0, 1]."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts, _ = np.histogram([e.ja for e in entries], bins=edges)
    rows = [["bin_low", "bin_high", "count"]]
    for lo, hi, n in zip(edges[:-1], edges[1:], counts):
        rows.append([f"{lo:.1f}", f"{hi:.1f}", int(n)])
    write_csv(path, rows)
