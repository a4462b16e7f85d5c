"""Sampled forms summed one temporary at a time, independent of the blocked,
in-place sum in `hyperpoly._scaled_series`."""

import numpy as np

from susywell.hyperpoly import _log_scale
from susywell.potential import log_cosh, log_sinh


def reference_samples(forms, x):
    # the per-term expression the in-place sum must reproduce bit for bit,
    # over the whole grid at once, with each exponential evaluated on its own
    u = float(forms[0].p) * np.asarray(x, dtype=float)
    log_cosh_3u, log_sinh_u = log_cosh(3.0 * u), log_sinh(u)
    samples = []
    for form in forms:
        K = form.top_index
        out = np.zeros_like(u)
        for k, c in enumerate(form.coeffs):
            a = c / form.den
            if a == 0.0:
                continue
            lo, hi = np.exp(-2.0 * (K - k) * u), np.exp(-2.0 * (K + k) * u)
            out += a * (0.5 * (lo + hi))
        with np.errstate(over="ignore"):
            samples.append(out * np.exp(_log_scale(form, u, log_cosh_3u, log_sinh_u)))
    return samples
