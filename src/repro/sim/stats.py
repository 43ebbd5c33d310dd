"""Latency statistics: variance, percentiles, Lp norms, covariance.

These are the quantities the paper reports: mean, variance, standard
deviation, coefficient of variation, 99th-percentile latency, and the Lp
norm that VATS provably minimises (Section 5.1, eq. 4).  Population
(ddof=0) moments are used throughout, matching the variance-tree identity
Var(sum) = sum Var + 2 sum Cov exactly on finite samples.

numpy is imported inside the functions that compute with it, so a
process that only simulates (``import repro``, a ``repro.exec`` pool
worker) never loads it.
"""

import math


def _as_sample(values, what):
    """Validate a sample: reject empty input and NaN values loudly.

    ``np.percentile``/``var`` silently propagate NaN (or emit a runtime
    warning and return NaN), which turns one corrupted latency into a
    silently wrong figure several layers up — every public helper here
    fails fast instead.
    """
    import numpy as np

    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("%s of empty sample" % (what,))
    if np.isnan(arr).any():
        raise ValueError(
            "%s of sample containing NaN (%d of %d values)"
            % (what, int(np.isnan(arr).sum()), arr.size)
        )
    return arr


def lp_norm(values, p=2.0, normalized=False):
    """The Lp norm of eq. (4): ``(sum |l_i|^p)^(1/p)``.

    With ``normalized=True`` returns the *power mean* ``(mean |l_i|^p)^(1/p)``
    instead, which is comparable across samples of different sizes (used
    when comparing schedulers on runs with slightly different completion
    counts).
    """
    import numpy as np

    arr = _as_sample(values, "lp_norm")
    if p < 1.0:
        raise ValueError("Lp norm requires p >= 1, got %r" % (p,))
    if math.isinf(p):
        return float(np.max(np.abs(arr)))
    powered = np.power(np.abs(arr), p)
    total = np.mean(powered) if normalized else np.sum(powered)
    return float(np.power(total, 1.0 / p))


def covariance(xs, ys):
    """Population covariance of two equal-length samples."""
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError(
            "covariance of mismatched samples (%r vs %r)" % (xs.shape, ys.shape)
        )
    xs = _as_sample(xs, "covariance")
    ys = _as_sample(ys, "covariance")
    return float(np.mean((xs - xs.mean()) * (ys - ys.mean())))


def correlation(xs, ys):
    """Pearson correlation; 0.0 if either sample is constant."""
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError(
            "correlation of mismatched samples (%r vs %r)" % (xs.shape, ys.shape)
        )
    xs = _as_sample(xs, "correlation")
    ys = _as_sample(ys, "correlation")
    sx = xs.std()
    sy = ys.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(covariance(xs, ys) / (sx * sy))


class LatencySummary:
    """The per-run scorecard: count, mean, variance, stdev, cv, percentiles."""

    __slots__ = ("count", "mean", "variance", "std", "cv", "p50", "p95", "p99", "max")

    def __init__(self, count, mean, variance, std, cv, p50, p95, p99, max_value):
        self.count = count
        self.mean = mean
        self.variance = variance
        self.std = std
        self.cv = cv
        self.p50 = p50
        self.p95 = p95
        self.p99 = p99
        self.max = max_value

    def ratio_to(self, other):
        """Ratios other/self for (mean, variance, p99) — the paper's
        'Orig. / Modified' columns when ``self`` is the modified system."""
        return {
            "mean": other.mean / self.mean,
            "variance": other.variance / self.variance,
            "p99": other.p99 / self.p99,
        }

    def __repr__(self):
        return (
            "LatencySummary(count=%d, mean=%.1f, std=%.1f, cv=%.2f, "
            "p99=%.1f)" % (self.count, self.mean, self.std, self.cv, self.p99)
        )


def summarize(values):
    """Compute a :class:`LatencySummary` over a latency sample."""
    import numpy as np

    arr = _as_sample(values, "summarize")
    mean = float(arr.mean())
    variance = float(arr.var())
    std = math.sqrt(variance)
    cv = std / mean if mean > 0 else 0.0
    p50, p95, p99 = (float(q) for q in np.percentile(arr, [50.0, 95.0, 99.0]))
    return LatencySummary(
        count=int(arr.size),
        mean=mean,
        variance=variance,
        std=std,
        cv=cv,
        p50=p50,
        p95=p95,
        p99=p99,
        max_value=float(arr.max()),
    )
