"""Entropy and mutual-information measures on finite distributions.

All quantities are in bits (log base 2). Functions are vectorized: they
accept arrays whose trailing axis holds a distribution and return values
over the leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Masses at or below this are treated as exact zeros so lattice points with
# empty cells never produce log(0).
MASS_EPS = 1e-15


def xlogx(p, out=None):
    """p * log2(p) with the 0 log 0 = 0 convention; NaN also maps to 0.
    Computed in one output buffer, `out` when given (not p itself), else a
    new one (a 0-d array for a 0-d input), as it runs on every
    objective evaluation. Only an array with some entry at or below MASS_EPS,
    or NaN, pays for the clamping and masking passes."""
    p = np.asarray(p, dtype=float)
    clamp = p.size > 0 and not p.min() > MASS_EPS
    out = np.empty_like(p) if out is None else out
    np.log2(np.maximum(p, MASS_EPS, out=out) if clamp else p, out=out)
    out *= p
    if clamp:
        np.copyto(out, 0.0, where=~(p > MASS_EPS))
    return out


def entropy(p, axis: int = -1):
    """Shannon entropy in bits along `axis`; a scalar for a single pmf."""
    h = -xlogx(p).sum(axis=axis)
    return float(h) if np.ndim(h) == 0 else h


def pushforward(p, indicator):
    """p @ indicator over the leading axes of p, as one matrix product of at
    least two rows: BLAS rounds a lone row's matrix-vector product
    differently. With two rows or more, a law's pushforward through an
    inner indicator (n <= 9 rows) does not depend on the batch; through a
    one-hot table of 16 or more rows it can, so such sums are not made
    here."""
    p = np.asarray(p, dtype=float)
    flat = p.reshape(-1, indicator.shape[0])
    rows = flat if flat.shape[0] > 1 else np.vstack((flat, flat))
    return (rows @ indicator)[: flat.shape[0]].reshape(p.shape[:-1] + indicator.shape[1:])


def block_entropies(q, blocks):
    """Entropies of the column blocks (start, stop) of q, cells summed in order."""
    t = xlogx(q)
    return tuple(-t[..., a:b].sum(axis=-1) for a, b in blocks)


def binary_entropy(q):
    """Entropy in bits of a {q, 1-q} distribution; q may be an array."""
    arr = np.asarray(q, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("binary_entropy argument must lie in [0, 1]")
    h = -xlogx(arr) - xlogx(1.0 - arr)
    return float(h) if np.ndim(q) == 0 else h


@dataclass(frozen=True)
class EntropyReport:
    """The five entropy quantities of a pair law (f1(X), f2(X)), in bits."""

    h_f1: float
    h_f2: float
    h_f1_given_f2: float
    h_f2_given_f1: float
    mi_f1_f2: float


def report(joint) -> EntropyReport:
    """Entropy report of a two-variable joint law.

    Conditional entropies are computed through the chain rule
    H(A|B) = H(A,B) - H(B), so the report is internally consistent by
    construction.
    """
    j = np.asarray(joint, dtype=float)
    if j.ndim != 2:
        raise ValueError("joint must be a 2-D matrix")
    h1 = entropy(j.sum(axis=1))
    h2 = entropy(j.sum(axis=0))
    hj = entropy(j.reshape(-1))
    return EntropyReport(
        h_f1=h1,
        h_f2=h2,
        h_f1_given_f2=hj - h2,
        h_f2_given_f1=hj - h1,
        mi_f1_f2=h1 + h2 - hj,
    )
