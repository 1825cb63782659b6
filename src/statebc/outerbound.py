"""Numerical outer bound and converse certification.

The outer bound maximizes a weighted sum of the two receivers' rates over
joint laws p(u, x) with one auxiliary variable, reduced to a single-letter
objective in the joint: pushforward entropies of the input marginal plus
signed conditional entropies of each component given the auxiliary. The
converse certificate checks, weight by weight, that this maximization cannot
beat the inner-bound support function.

The joint search is seeded with the structured choices the theory singles
out (auxiliary equal to the input, either component, or a constant) lifted
to the inner argmax law, which guarantees outer >= inner numerically; the
lattice scan and ascent then hunt for anything better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelSpec, indicator_matrices, require_canonical
from .infotheory import binary_entropy, entropy
from .regions import format_number, support_curve, support_inner, thresholds
from .simplexopt import (
    OptConfig,
    OptResult,
    default_config,
    iter_lattice,
    lattice_size,
    maximize_joint,
)

ENUMERATION_BUDGET = 100_000_000


class ConverseSample(NamedTuple):
    lam: float
    inner: float
    outer: float
    gap: float
    case_id: str


@dataclass(frozen=True)
class ConverseReport:
    """Per-weight inner/outer support values and gaps, with the pass verdict
    against the tolerance (pass iff max_gap <= tolerance)."""

    samples: tuple[ConverseSample, ...]
    max_gap: float
    tolerance: float
    passed: bool


def _coefficients(spec: ChannelSpec, lam: float) -> tuple[float, float, float, float]:
    """Weights (w1, w2, c1, c2) of the outer objective
    w1 H(f1) + w2 H(f2) + c1 H(f1|U) + c2 H(f2|U), already scaled to the
    R1 + lam*R2 axis."""
    p1, p2, q1, q2 = spec.p1, spec.p2, spec.q1, spec.q2
    if lam <= 1.0:
        return p1, q1, lam * p2 - p1, lam * q2 - q1
    return lam * p2, lam * q2, p1 - lam * p2, q1 - lam * q2


def outer_objective(spec: ChannelSpec, lam: float, u_size: int):
    """Vectorized objective over joint laws p(u, x), trailing axes (u, x)."""
    e1, e2, _ = indicator_matrices(spec)
    w1, w2, c1, c2 = _coefficients(spec, lam)

    def obj(P):
        P = np.asarray(P, dtype=float)
        px = P.sum(axis=-2)
        pu = P.sum(axis=-1)
        hu = entropy(pu)
        a1 = P @ e1
        a2 = P @ e2
        h_f1_u = entropy(a1.reshape(a1.shape[:-2] + (-1,))) - hu
        h_f2_u = entropy(a2.reshape(a2.shape[:-2] + (-1,))) - hu
        return w1 * entropy(px @ e1) + w2 * entropy(px @ e2) + c1 * h_f1_u + c2 * h_f2_u

    return obj


def _lift(px: np.ndarray, assign: np.ndarray, u_size: int) -> np.ndarray:
    P = np.zeros((u_size, px.shape[0]))
    P[assign, np.arange(px.shape[0])] = px
    return P


def structure_seeds(spec: ChannelSpec, u_size: int, px: np.ndarray) -> list[np.ndarray]:
    """Deterministic-auxiliary joints at the given input law: U = X, U = f1(X),
    U = f2(X) (each when the alphabet fits) and U constant."""
    n = spec.input_size
    seeds = []
    if u_size >= n:
        seeds.append(_lift(px, np.arange(n), u_size))
    if u_size >= 1 + max(spec.f1):
        seeds.append(_lift(px, np.array(spec.f1), u_size))
    if u_size >= 1 + max(spec.f2):
        seeds.append(_lift(px, np.array(spec.f2), u_size))
    seeds.append(_lift(px, np.zeros(n, dtype=int), u_size))
    return seeds


def support_outer_result(
    spec: ChannelSpec,
    lam: float,
    u_size: int | None = None,
    cfg: OptConfig | None = None,
    seed_px=None,
) -> OptResult:
    """Outer-bound support maximization returning the full optimizer result.

    seed_px is the input law at which the structured auxiliary seeds are
    lifted; by default the inner-bound argmax at this weight is computed and
    used, which makes the returned value >= the inner support by
    construction.
    """
    require_canonical(spec)
    if lam < 0.0:
        raise ValueError("lambda must be non-negative")
    n = spec.input_size
    u = int(u_size) if u_size is not None else n + 1
    if u < 1:
        raise ValueError("u_size must be a positive integer")
    if seed_px is None:
        _, _, seed_px = support_inner(spec, lam, cfg)
    px = np.asarray(seed_px, dtype=float)
    seeds = structure_seeds(spec, u, px)
    obj = outer_objective(spec, lam, u)
    return maximize_joint(obj, (u, n), cfg, extra_starts=seeds, symmetric_u=True)


def support_outer(
    spec: ChannelSpec,
    lam: float,
    u_size: int | None = None,
    cfg: OptConfig | None = None,
    seed_px=None,
) -> float:
    """Outer-bound support value max(R1 + lam*R2) in bits."""
    return support_outer_result(spec, lam, u_size, cfg, seed_px=seed_px).value


def verify_converse(
    spec: ChannelSpec,
    lambdas,
    u_size: int | None = None,
    tol: float = 5e-3,
    cfg: OptConfig | None = None,
) -> ConverseReport:
    """Match inner and outer supports at each weight and report the gaps.

    A failed tolerance yields passed=False, not an exception; the outer value
    falling below the inner one beyond float noise is an implementation
    error and raises.
    """
    require_canonical(spec)
    lambdas = [float(l) for l in lambdas]
    if not lambdas:
        raise ValueError("at least one lambda sample is required")
    if tol < 0.0:
        raise ValueError("tolerance must be non-negative")
    samples = []
    for lam, inner, case, px in support_curve(spec, lambdas, cfg).samples:
        outer = support_outer(spec, lam, u_size, cfg, seed_px=px)
        gap = outer - inner
        if gap < -1e-9:
            raise RuntimeError(
                f"outer bound fell below inner bound at lambda={lam}: {outer} < {inner}"
            )
        samples.append(ConverseSample(lam, inner, outer, gap, case))
    max_gap = max(s.gap for s in samples)
    return ConverseReport(tuple(samples), max_gap, tol, max_gap <= tol)


def brute_force_support(spec: ChannelSpec, lam: float, u_size: int, grid: int) -> float:
    """Exhaustive lattice maximum of the outer objective; the slow oracle.

    No refinement, no seeds. Raises when the lattice exceeds the enumeration
    budget of 1e8 points rather than truncating.
    """
    require_canonical(spec)
    if lam < 0.0:
        raise ValueError("lambda must be non-negative")
    if u_size < 1:
        raise ValueError("u_size must be a positive integer")
    if grid < 2:
        raise ValueError("grid must be >= 2")
    dim = u_size * spec.input_size
    total = lattice_size(grid, dim)
    if total > ENUMERATION_BUDGET:
        raise ValueError(
            f"lattice of {total} points exceeds the enumeration budget of {ENUMERATION_BUDGET}"
        )
    obj = outer_objective(spec, lam, u_size)
    best = -math.inf
    for block in iter_lattice(grid, dim):
        P = (block.astype(float) / grid).reshape(-1, u_size, spec.input_size)
        vals = np.asarray(obj(P), dtype=float)
        if np.isnan(vals).any():
            i = int(np.flatnonzero(np.isnan(vals))[0])
            raise ValueError(f"objective returned NaN at lattice point {P[i].tolist()}")
        best = max(best, float(vals.max()))
    return best


def support_gap_bound(spec: ChannelSpec, lam: float, u_size: int, grid: int) -> float:
    """Rigorous modulus-of-continuity bound (bits) on how far a grid-`grid`
    lattice maximum of the outer objective can sit below the true maximum.

    Uses the entropy continuity bound |H(p) - H(q)| <= eps*log2(n-1) + h(eps)
    at the lattice covering radius eps (total variation), applied term by
    term with the objective's coefficients.
    """
    dim = u_size * spec.input_size
    eps = min(0.5, (dim - 1) / grid)
    y = spec.output_size

    def fannes(n_atoms: int) -> float:
        if n_atoms < 2 or eps <= 0.0:
            return 0.0
        return eps * math.log2(max(n_atoms - 1, 1)) + float(binary_entropy(eps))

    w1, w2, c1, c2 = _coefficients(spec, lam)
    cond = fannes(u_size * y) + fannes(u_size)
    return (abs(w1) + abs(w2)) * fannes(y) + (abs(c1) + abs(c2)) * cond


def case_spanning_lambdas(spec: ChannelSpec, n: int = 32) -> list[float]:
    """n weights covering all support-function cases: [0, lo], (lo, 1],
    (1, hi] and a tail beyond hi (finite stand-ins when hi is infinite)."""
    require_canonical(spec)
    if n < 4:
        raise ValueError("need at least 4 lambda samples to span the cases")
    lo, hi = thresholds(spec)
    hi_cap = hi if math.isfinite(hi) else 4.0
    tail_end = 2.0 * hi_cap + 1.0
    breaks = sorted({0.0, min(lo, 1.0), 1.0, hi_cap, tail_end})
    spans = list(zip(breaks[:-1], breaks[1:]))
    counts = [(n - 1) // len(spans)] * len(spans)
    for i in range((n - 1) % len(spans)):
        counts[i] += 1
    out = []
    for (a, b), c in zip(spans, counts):
        out.extend(np.linspace(a, b, c, endpoint=False).tolist())
    out.append(tail_end)
    return out


def converse_to_csv(report: ConverseReport) -> str:
    """Gap table as CSV plus a one-line summary trailer."""
    lines = ["lambda,inner,outer,gap,case"]
    for s in report.samples:
        lines.append(
            f"{format_number(s.lam)},{format_number(s.inner)},"
            f"{format_number(s.outer)},{format_number(s.gap)},{s.case_id}"
        )
    verdict = "pass" if report.passed else "fail"
    lines.append(
        f"# summary,{format_number(report.max_gap)},{format_number(report.tolerance)},{verdict}"
    )
    return "\n".join(lines) + "\n"
