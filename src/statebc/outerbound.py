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
lattice scan and ascent then hunt for anything better. The objective is a
weight's row of the outer table applied to four lambda-free entropies, so
verify_converse searches all its weights together: one lattice scan scores
those entropies once and serves every weight, and one ascent runs every
weight's starts, each with the result a one-weight search would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelSpec, indicator_matrices, require_canonical
from .infotheory import entropy, pushforward
from .regions import _check_weight, format_number, support_curve, support_inner, thresholds
from .simplexopt import (
    OptResult,
    _Counted,
    _scan_lattice,
    combine,
    lattice_size,
    maximize_joints,
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


def outer_table(spec: ChannelSpec, a: float, b: float) -> np.ndarray:
    """The outer bound's corner table L for direction (a, b): the objective
    is (a, b) L over (H(f1), H(f2), H(f1|U), H(f2|U)). At U = f1(X) the
    b <= a table is regions.corner_tables' K3, and at U = f2(X) the other
    is K4."""
    p1, p2, q1, q2 = spec.p1, spec.p2, spec.q1, spec.q2
    if b <= a:
        return np.array([[p1, q1, -p1, -q1], [0.0, 0.0, p2, q2]])
    return np.array([[0.0, 0.0, p1, q1], [p2, q2, -p2, -q2]])


def outer_objective(spec: ChannelSpec, lam: float, u_size: int):
    """Vectorized objective over joint laws p(u, x), trailing axes (u, x):
    combine(features(P), row), the row (1, lam) outer_table over the
    lambda-free features (H(f1), H(f2), H(f1|U), H(f2|U)). It carries the
    same sum as coeffs @ (H(f1), H(f2), H(U,f1), H(U,f2), H(U)), with
    `cells` (u_size * x_size by 5) each flat coordinate's cell in those
    pushforwards, numbered across blocks."""
    return _outer_objectives(spec, [lam], u_size)[0]


def _outer_objectives(spec: ChannelSpec, lams, u_size: int) -> list:
    """outer_objective at each weight, all sharing one `features` callable."""
    e1, e2, _ = indicator_matrices(spec)

    def features(P):
        P = np.asarray(P, dtype=float)
        px, hu = P.sum(axis=-2), entropy(P.sum(axis=-1))
        cond = [entropy((P @ e).reshape(P.shape[:-2] + (-1,))) - hu for e in (e1, e2)]
        return (entropy(pushforward(px, e1)), entropy(pushforward(px, e2)), *cond)

    u, x = np.divmod(np.arange(u_size * spec.input_size), spec.input_size)
    f1, f2, m = np.array(spec.f1)[x], np.array(spec.f2)[x], spec.output_size
    cells = np.stack((f1, f2, u * m + f1, u * m + f2, u), axis=1) + np.cumsum([0, m, m, u_size * m, u_size * m])

    def at(lam):
        table = outer_table(spec, 1.0, lam)
        row = table[0] + lam * table[1]

        def obj(P):
            return combine(features(P), row)

        obj.features, obj.row, obj.cells = features, row, cells
        obj.coeffs = np.append(row, -(row[2] + row[3]))
        return obj

    return [at(lam) for lam in lams]


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
    seed_px=None,
) -> OptResult:
    """Outer-bound support maximization returning the full optimizer result.

    seed_px is the input law at which the structured auxiliary seeds are
    lifted; by default the inner-bound argmax at this weight is computed and
    used, which makes the returned value >= the inner support by
    construction.
    """
    require_canonical(spec)
    _check_weight(lam)
    if seed_px is None:
        _, _, seed_px = support_inner(spec, lam)
    return _outer_results(spec, [lam], u_size, [seed_px])[0]


def _outer_results(spec: ChannelSpec, lams, u_size: int | None, seed_pxs) -> list[OptResult]:
    """The outer search at each weight, its structured seeds lifted at the
    matching seed law, in one maximize_joints call: one lattice scan serves
    every weight, and each result equals that weight's search alone."""
    n = spec.input_size
    u = int(u_size) if u_size is not None else n + 1
    if u < 1:
        raise ValueError("u_size must be a positive integer")
    seeds = [structure_seeds(spec, u, np.asarray(px, dtype=float)) for px in seed_pxs]
    return maximize_joints(_outer_objectives(spec, lams, u), (u, n), seeds)


def support_outer(
    spec: ChannelSpec,
    lam: float,
    u_size: int | None = None,
    seed_px=None,
) -> float:
    """Outer-bound support value max(R1 + lam*R2) in bits."""
    return support_outer_result(spec, lam, u_size, seed_px=seed_px).value


def verify_converse(
    spec: ChannelSpec,
    lambdas,
    u_size: int | None = None,
    tol: float = 5e-3,
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
    if not tol >= 0.0:
        raise ValueError("tolerance must be non-negative")
    curve = support_curve(spec, lambdas).samples
    outers = _outer_results(spec, [s.lam for s in curve], u_size, [s.argmax_px for s in curve])
    samples = []
    for (lam, inner, case, _), res in zip(curve, outers):
        gap = res.value - inner
        if gap < -1e-9:
            raise RuntimeError(
                f"outer bound fell below inner bound at lambda={lam}: {res.value} < {inner}"
            )
        samples.append(ConverseSample(lam, inner, res.value, gap, case))
    max_gap = max(s.gap for s in samples)
    return ConverseReport(tuple(samples), max_gap, tol, max_gap <= tol)


def brute_force_support(spec: ChannelSpec, lam: float, u_size: int, grid: int) -> float:
    """Exhaustive lattice maximum of the outer objective; the slow oracle.

    No refinement, no seeds. Raises when the lattice exceeds the enumeration
    budget of 1e8 points rather than truncating.
    """
    require_canonical(spec)
    _check_weight(lam)
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
    f = _Counted([outer_objective(spec, lam, u_size)], (u_size, spec.input_size))
    ((top_vals, _),) = _scan_lattice(f, dim, grid, 1)
    return float(top_vals[0])


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
