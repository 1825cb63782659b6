"""The benchmark's workloads: channel files, CLI commands and output checks.

Each workload is a list of CLI commands on channel files written by the
benchmark. The output checks read only the CSVs the commands wrote; the
references come from `statebc.examples` (closed-form and analytic regions)
and from geometry written here, so a defect in the region code under test
cannot hide itself.

- region: `statebc region` on Blackwell 0.7/0.3 and GF(2) ((1,1),(1,0))
  0.7/0.4 at --n-lambda 16. Each polygon makes ~35 small maximize_simplex
  calls with long pairwise ascents and many tiny entropy calls; no outer
  bound.
- converse: `statebc verify` on the same two channels at 16 weights plus an
  n=4 and an n=5 channel at 8 weights. Loads the outer bound: maximize_joint
  over p(u, x) and its joint lattice.
- sweep: `statebc regions4` on Blackwell 0.7/0.3 at --n-lambda 32 and
  --px-grid 1750: 1.5M input laws streamed through iter_lattice, the entropy
  kernel and pareto_front in 1,751 blocks, no ascent.

The seed draws the converse's n=4 channel as a random relabeling (input
permutation, output permutation per component) of a fixed random-structure
channel. A fresh draw of the maps changes the cost of verify by ~25% per
channel, which would hide regressions of that size between seeds; a
relabeling keeps the channel's cost class and still hands the program a file
it has not seen. The n=5 channel is a fixed draw: its verify sets the
process's peak memory, and that peak depends on the input labeling (80 to
96 MB across relabelings, through which lattice points tie), so relabeling it
would move peak_rss_mb by ~18% between seeds. Region and sweep use the two
reference channels, whose exact regions are known, so the seed does not
change them.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

BLACKWELL = {"input_size": 3, "f1": [0, 1, 1], "f2": [0, 0, 1], "p1": 0.7, "p2": 0.3}
# finite_field_channel(FiniteFieldSpec(2, ((1, 1), (1, 0))), 0.7, 0.4)
GF2 = {"input_size": 4, "f1": [0, 1, 1, 0], "f2": [0, 0, 1, 1], "p1": 0.7, "p2": 0.4}
# Random-structure channels, drawn once: each component maps onto all of
# {0, 1, 2}, so relabeled copies keep output_size 3.
RANDOM4 = {"input_size": 4, "f1": [0, 1, 2, 1], "f2": [1, 0, 2, 2], "p1": 0.8, "p2": 0.35}
RANDOM5 = {"input_size": 5, "f1": [1, 2, 1, 1, 0], "f2": [2, 1, 1, 0, 2], "p1": 0.75, "p2": 0.4}

# Weight counts below the CLI defaults (64 and 32) so that one run holds
# several iterations: the median over them is what keeps the figures steady
# on a shared machine. The sweep keeps 32 so its hull-support check has a
# margin (7e-4 against 5e-3; 3e-3 at 16).
REGION_N_LAMBDA = 16
SWEEP_N_LAMBDA = 32
# The automatic grid (1998 for three inputs, 2M laws) takes ~20 s on a
# 2.1 GHz Xeon vCPU, one iteration per run. 1750 (1.53M laws) still exceeds
# iter_lattice's 1.5M-row chunk limit, so the lattice still streams, in 1,751
# blocks.
SWEEP_PX_GRID = 1750
VERIFY_LAMBDAS = {"blackwell": 16, "gf2": 16, "random4": 8, "random5": 8}
VERIFY_TOL = 5e-3
SUPPORT_TOL = 5e-3
CONTAIN_TOL = 1e-6


def relabel(base: dict, rng: random.Random) -> dict:
    n = base["input_size"]
    m = 1 + max(base["f1"] + base["f2"])
    perm = rng.sample(range(n), n)
    out1 = rng.sample(range(m), m)
    out2 = rng.sample(range(m), m)
    return {
        "input_size": n,
        "f1": [out1[base["f1"][x]] for x in perm],
        "f2": [out2[base["f2"][x]] for x in perm],
        "p1": base["p1"],
        "p2": base["p2"],
    }


def channels(workload: str, seed: int) -> dict[str, dict]:
    """Channel files of a workload, by name."""
    if workload == "region":
        return {"blackwell": BLACKWELL, "gf2": GF2}
    if workload == "sweep":
        return {"blackwell": BLACKWELL}
    return {
        "blackwell": BLACKWELL,
        "gf2": GF2,
        "random4": relabel(RANDOM4, random.Random(seed)),
        "random5": RANDOM5,
    }


def commands(workload: str, inputs: Path, out: Path) -> list[dict]:
    """The workload's CLI commands: label, argv and the files each writes."""
    cmds = []
    if workload == "region":
        for name in ("blackwell", "gf2"):
            csv = out / f"region-{name}.csv"
            argv = ["region", "--channel", str(inputs / f"{name}.json"), "--out", str(csv),
                    "--n-lambda", str(REGION_N_LAMBDA)]
            cmds.append({"label": f"region-{name}", "argv": argv, "outputs": [csv]})
    elif workload == "converse":
        for name, lambdas in VERIFY_LAMBDAS.items():
            csv = out / f"verify-{name}.csv"
            argv = ["verify", "--channel", str(inputs / f"{name}.json"), "--out", str(csv),
                    "--lambdas", str(lambdas), "--tol", repr(VERIFY_TOL)]
            cmds.append({"label": f"verify-{name}", "argv": argv, "outputs": [csv], "rows": lambdas})
    elif workload == "sweep":
        prefix = out / "regions4-blackwell-"
        argv = ["regions4", "--channel", str(inputs / "blackwell.json"), "--out", str(prefix),
                "--n-lambda", str(SWEEP_N_LAMBDA), "--px-grid", str(SWEEP_PX_GRID)]
        names = ("R1", "R2", "R3", "R4", "R1p", "R2p", "R3p", "R4p")
        cmds.append({"label": "regions4-blackwell", "argv": argv,
                     "outputs": [Path(f"{prefix}{n}.csv") for n in names]})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cmds


# ---------------------------------------------------------------------------
# output checks: each returns a list of failure messages
# ---------------------------------------------------------------------------

def _rows(text: str) -> list[list[str]]:
    """Data rows of a statebc CSV: comment lines and the header dropped."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def _vertices(text: str) -> list[tuple[float, float]]:
    """Polygon vertices counter-clockwise, without the repeated closing vertex."""
    pts = [(float(a), float(b)) for a, b in _rows(text)]
    return pts[:-1] if len(pts) > 1 and pts[0] == pts[-1] else pts


def _directions(n: int = 32):
    steps = [i / (n - 1) for i in range(n)]
    return [(1.0, t) for t in steps] + [(t, 1.0) for t in steps]


def _support(points, a: float, b: float) -> float:
    return max(a * x + b * y for x, y in points)


def _support_gap(points, reference) -> float:
    return max(abs(_support(points, a, b) - _support(reference, a, b)) for a, b in _directions())


def _outside(polygon, point) -> float:
    """How far a point lies outside a counter-clockwise convex polygon, by
    the largest outward edge distance (0 inside)."""
    px, py = point
    worst = 0.0
    for i in range(len(polygon)):
        (x1, y1), (x2, y2) = polygon[i - 1], polygon[i]
        ex, ey = x2 - x1, y2 - y1
        norm = math.hypot(ex, ey)
        if norm > 1e-15:
            worst = max(worst, -(ex * (py - y1) - ey * (px - x1)) / norm)
    return worst


def _vertex_error(points, reference) -> float:
    near = max(min(math.dist(v, e) for v in points) for e in reference)
    out = max(_outside(reference, v) for v in points)
    return max(near, out)


def check_region(label: str, texts: list[str]) -> list[str]:
    from statebc.examples import FiniteFieldSpec, blackwell_sweep_hull, finite_field_region

    poly = _vertices(texts[0])
    if label == "region-blackwell":
        ref = blackwell_sweep_hull(BLACKWELL["p1"], BLACKWELL["p2"])
        gap = _support_gap(poly, [tuple(v) for v in ref.vertices])
        return [] if gap <= SUPPORT_TOL else [f"support mismatch {gap:.3e} > {SUPPORT_TOL}"]
    ref = finite_field_region(FiniteFieldSpec(2, ((1, 1), (1, 0))), GF2["p1"], GF2["p2"])
    err = _vertex_error(poly, [tuple(v) for v in ref.vertices])
    return [] if err <= SUPPORT_TOL else [f"vertex error {err:.3e} > {SUPPORT_TOL}"]


def check_verify(texts: list[str], expected_rows: int) -> list[str]:
    failures = []
    rows = _rows(texts[0])
    if len(rows) != expected_rows:
        failures.append(f"{len(rows)} rows, expected {expected_rows}")
    for lam, inner, outer, gap, _case in rows:
        if float(gap) > VERIFY_TOL:
            failures.append(f"lambda={lam}: gap {gap} > {VERIFY_TOL}")
        # outer >= inner - 1e-9, read from the gap column: it is outer - inner
        # before rounding, while the value columns keep nine digits.
        if float(gap) < -1e-9:
            failures.append(f"lambda={lam}: outer {outer} below inner {inner} (gap {gap})")
    return failures


def check_regions4(texts: list[str]) -> list[str]:
    r1, r2, r3, r4, r1p, r2p, r3p, r4p = (_vertices(t) for t in texts)
    failures = []
    for name, inner, outer in (("R3", r3, r3p), ("R4", r4, r4p)):
        worst = max(_outside(outer, v) for v in inner)
        if worst > CONTAIN_TOL:
            failures.append(f"{name} vertex {worst:.3e} outside {name}' (> {CONTAIN_TOL})")
    gap = _support_gap(r1 + r2 + r3 + r4, r1p + r2p + r3p + r4p)
    if gap > SUPPORT_TOL:
        failures.append(f"hull support mismatch {gap:.3e} > {SUPPORT_TOL}")
    return failures


def check(cmd: dict, texts: list[str]) -> list[str]:
    """Failure messages for one command's output files (empty when correct)."""
    label = cmd["label"]
    if label.startswith("region-"):
        return check_region(label, texts)
    if label.startswith("verify-"):
        return check_verify(texts, cmd["rows"])
    return check_regions4(texts)
