"""Numerical outer bound and converse certification.

The outer bound maximizes a weighted sum of the two receivers' rates over
joint laws p(u, x) with one auxiliary variable, reduced to a single-letter
objective in the joint: pushforward entropies of the input marginal plus
signed conditional entropies of each component given the auxiliary. The
converse certificate checks, weight by weight, that this maximization cannot
beat the inner-bound support function.

By the converse lemma, the outer objective at any joint is at most the
clamped inner row at the joint's input marginal, with equality at a
deterministic auxiliary; for non-negative coefficients that row is at most
Gallager's dual bound, which the inner solver certifies at its stop. So
verify_converse searches nothing: at each weight its outer value is the best
structured joint (the auxiliary equal to the input, either component, or a
constant) lifted to the inner argmax law, and its upper value is the inner
solver's bound; the outer value must lie between the inner and upper values.
support_outer keeps the lattice scan and ascent, seeded with those joints,
for auxiliary alphabets too small to hold the lemma's auxiliary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelSpec, _as_int, indicator_matrices, require_canonical
from .infotheory import entropy, pushforward
from .regions import _check_weight, format_number, support_curve, support_inner, thresholds
from .simplexopt import OptResult, _Counted, _scan_lattice, combine, lattice_size, maximize_joint

ENUMERATION_BUDGET = 100_000_000


class ConverseSample(NamedTuple):
    lam: float
    inner: float
    outer: float
    upper: float
    gap: float
    case_id: str


@dataclass(frozen=True)
class ConverseReport:
    """Per-weight inner, outer and certified upper support values and the
    gaps outer - inner, with the pass verdict against the tolerance (pass
    iff max_gap <= tolerance)."""

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


def _outer_entropies(P: np.ndarray, e1: np.ndarray, e2: np.ndarray) -> tuple:
    """(H(f1), H(f2), H(f1|U), H(f2|U)) of joints P, axes (..., u, x), by indicators e1, e2."""
    px, hu = P.sum(axis=-2), entropy(P.sum(axis=-1))
    cond = [entropy((P @ e).reshape(P.shape[:-2] + (-1,))) - hu for e in (e1, e2)]
    return entropy(pushforward(px, e1)), entropy(pushforward(px, e2)), *cond


def outer_objective(spec: ChannelSpec, lam: float, u_size: int):
    """Vectorized objective over joint laws p(u, x), trailing axes (u, x):
    the row (1, lam) outer_table over the lambda-free entropies (H(f1),
    H(f2), H(f1|U), H(f2|U)). It carries the same sum as coeffs @ (H(f1),
    H(f2), H(U,f1), H(U,f2), H(U)), with `cells` (u_size * x_size by 5)
    each flat coordinate's cell in those pushforwards, numbered across
    blocks."""
    e1, e2, _ = indicator_matrices(spec)
    table = outer_table(spec, 1.0, lam)
    row = table[0] + lam * table[1]

    def obj(P):
        return combine(_outer_entropies(np.asarray(P, dtype=float), e1, e2), row)

    u, x = np.divmod(np.arange(u_size * spec.input_size), spec.input_size)
    f1, f2, m = np.array(spec.f1)[x], np.array(spec.f2)[x], spec.output_size
    obj.cells = np.stack((f1, f2, u * m + f1, u * m + f2, u), axis=1) + np.cumsum([0, m, m, u_size * m, u_size * m])
    obj.coeffs = np.append(row, -(row[2] + row[3]))
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


def support_outer_result(spec: ChannelSpec, lam: float, u_size: int | None = None) -> OptResult:
    """Outer-bound support maximization returning the full optimizer result:
    maximize_joint over (u_size, input_size) joints, u_size input_size + 1
    by default, its extra starts the structured seeds lifted at the
    inner-bound argmax at this weight. Once u_size holds the converse
    lemma's auxiliary, a seed attains the inner support, so the value is at
    least that; below it, the search can beat every seed.
    """
    require_canonical(spec)
    _check_weight(lam)
    n = spec.input_size
    u = int(u_size) if u_size is not None else n + 1
    if u < 1:
        raise ValueError("u_size must be a positive integer")
    _, _, px = support_inner(spec, lam)
    return maximize_joint(outer_objective(spec, lam, u), (u, n), structure_seeds(spec, u, px))


def support_outer(spec: ChannelSpec, lam: float, u_size: int | None = None) -> float:
    """Outer-bound support value max(R1 + lam*R2) in bits."""
    return support_outer_result(spec, lam, u_size).value


def verify_converse(spec: ChannelSpec, lambdas, tol: float = 5e-3) -> ConverseReport:
    """Match inner and outer supports at each weight and report the gaps.

    At each weight the outer value is the best structured seed
    (structure_seeds, u = input_size + 1) lifted at the inner argmax, valued
    in one batch by outer_objective's row, and the upper value is the inner
    solver's certified dual bound. A failed tolerance yields passed=False,
    not an exception; an outer value more than 1e-9 below the inner one or
    above the upper one is an implementation error and raises.
    """
    require_canonical(spec)
    lambdas = [float(l) for l in lambdas]
    if not lambdas:
        raise ValueError("at least one lambda sample is required")
    if not tol >= 0.0:
        raise ValueError("tolerance must be non-negative")
    u, curve = spec.input_size + 1, support_curve(spec, lambdas).samples
    seeds = np.array([seed for s in curve for seed in structure_seeds(spec, u, np.array(s.argmax_px))])
    features = [h.reshape(len(curve), -1) for h in _outer_entropies(seeds, *indicator_matrices(spec)[:2])]
    tables = np.array([outer_table(spec, 1.0, lam) for lam in lambdas])
    rows = tables[:, 0] + np.array(lambdas)[:, None] * tables[:, 1]
    samples = []
    for (lam, inner, upper, case, _), outer in zip(curve, combine(features, rows[:, None]).max(axis=1).tolist()):
        if not inner - 1e-9 <= outer <= upper + 1e-9:
            raise RuntimeError(
                f"outer bound {outer} outside [inner, upper] = [{inner}, {upper}] at lambda={lam}"
            )
        samples.append(ConverseSample(lam, inner, outer, upper, outer - inner, case))
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
    top_vals, _ = _scan_lattice(_Counted(outer_objective(spec, lam, u_size), (u_size, spec.input_size)), dim, grid, 1)
    return float(top_vals[0])


def case_spanning_lambdas(spec: ChannelSpec, n: int = 32) -> list[float]:
    """n weights covering all support-function cases: [0, lo], (lo, 1],
    (1, hi] and a tail beyond hi (finite stand-ins when hi is infinite)."""
    require_canonical(spec)
    if (n := _as_int(n, f"the lambda sample count must be an integer, got {n!r}")) < 4:
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
