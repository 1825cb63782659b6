"""Drift guard: CLI outputs against CSVs recorded in tests/data.

The recorded files are the outputs of these exact commands. A change to the
objectives or the optimizer that moves a result shows up here: region
polygons must keep their support function within 1e-7 bits over 256
directions, and the support and verify tables must print the same values,
case ids and verdicts. A regions4 run's name is its --out prefix, to which
it writes one polygon file per label; its 16 records must also be
reproduced byte for byte.

Three records are older bytes that the current code meets only by
tolerance: region-blackwell.csv (vertices up to 9.7e-7 apart, within the
support check) and the gap columns of verify-blackwell.csv and
verify-random5.csv (within GAP_TOL). A change that should keep every output
fixed compares those three commands against its parent commit's output, not
against these files.

To re-record after an intended move, rerun the commands into tests/data:

    PYTHONPATH=src python tests/test_golden.py [name ...]

which rewrites the named records (all of them by default).
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

from statebc.cli import main

DATA = Path(__file__).parent / "data"

REGION_RUNS = {
    "region-blackwell.csv": ["region", "--channel", "blackwell.json", "--n-lambda", "16"],
    "region-gf2.csv": ["region", "--channel", "gf2.json", "--n-lambda", "16"],
}
TABLE_RUNS = {
    "support-gf2.csv": ["support", "--channel", "gf2.json"],
    "verify-blackwell.csv": ["verify", "--channel", "blackwell.json", "--lambdas", "16"],
    "verify-gf2.csv": ["verify", "--channel", "gf2.json", "--lambdas", "16"],
    "verify-random5.csv": ["verify", "--channel", "random5.json", "--lambdas", "8"],
}
REGIONS4_RUNS = {
    "regions4-blackwell-": ["regions4", "--channel", "blackwell.json", "--px-grid", "400"],
    "regions4-gf2-": ["regions4", "--channel", "gf2.json", "--px-grid", "60"],
}
REGIONS4_LABELS = ("R1", "R2", "R3", "R4", "R1p", "R2p", "R3p", "R4p")
SUPPORT_TOL = 1e-7
GAP_TOL = 1e-12


def run(argv, out) -> None:
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    assert main(argv + ["--out", str(out)]) in (0, 1)


def rerun(argv, tmp_path) -> str:
    run(argv, tmp_path / "out.csv")
    return (tmp_path / "out.csv").read_text(encoding="utf-8")


def recorded(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


def rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


def vertices(text: str) -> list[tuple[float, float]]:
    return [(float(r1), float(r2)) for r1, r2 in rows(text)[2:]]


def support(points, angle: float) -> float:
    a, b = math.cos(angle), math.sin(angle)
    return max(a * x + b * y for x, y in points)


def assert_same_polygon(got: str, want: str) -> None:
    assert got.splitlines()[:2] == want.splitlines()[:2]
    angles = [2.0 * math.pi * k / 256 for k in range(256)]
    drift = max(abs(support(vertices(got), t) - support(vertices(want), t)) for t in angles)
    assert drift <= SUPPORT_TOL


@pytest.mark.parametrize("name", list(REGION_RUNS))
def test_region_support_function_unchanged(name, tmp_path):
    assert_same_polygon(rerun(REGION_RUNS[name], tmp_path), recorded(name))


@pytest.mark.parametrize("prefix", list(REGIONS4_RUNS))
def test_regions4_support_functions_unchanged(prefix, tmp_path):
    run(REGIONS4_RUNS[prefix], tmp_path / prefix)
    for label in REGIONS4_LABELS:
        name = f"{prefix}{label}.csv"
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert_same_polygon(text, recorded(name))
        assert text == recorded(name)


@pytest.mark.parametrize("name", list(TABLE_RUNS))
def test_tables_print_the_same_values(name, tmp_path):
    got, want = rows(rerun(TABLE_RUNS[name], tmp_path)), rows(recorded(name))
    assert len(got) == len(want) and got[:2] == want[:2]
    for g, w in zip(got[2:], want[2:]):
        if g[0] == "# summary":
            # max_gap, tolerance, verdict
            assert abs(float(g[1]) - float(w[1])) <= GAP_TOL and g[2:] == w[2:]
        elif len(g) == 5:
            # lambda, inner, outer, gap, case: the gap is float noise
            assert g[:3] + g[4:] == w[:3] + w[4:]
            assert abs(float(g[3]) - float(w[3])) <= GAP_TOL
        else:
            assert g == w


if __name__ == "__main__":
    runs = {**REGION_RUNS, **TABLE_RUNS, **REGIONS4_RUNS}
    for name in sys.argv[1:] or runs:
        run(runs[name], DATA / name)
        print(f"recorded {DATA / name}")
