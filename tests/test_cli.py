"""Command-line front-end tests: flags, files, exit codes, determinism."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import statebc
from statebc.cli import build_parser, main
from statebc.regions import convex_hull


@pytest.fixture()
def bw_json(tmp_path):
    path = tmp_path / "bw.json"
    path.write_text(json.dumps({"input_size": 3, "f1": [0, 1, 1], "f2": [0, 0, 1]}))
    return str(path)


def parse_csv(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or not line or line[0].isalpha():
            continue
        rows.append(tuple(float(v) for v in line.split(",") if not v[0].isalpha()))
    return rows


class TestRegionCommand:
    def test_end_to_end(self, bw_json, tmp_path):
        out = tmp_path / "region.csv"
        rc = main(
            ["region", "--channel", bw_json, "--p1", "0.7", "--p2", "0.3",
             "--n-lambda", "8", "--out", str(out)]
        )
        assert rc == 0
        text = out.read_text()
        assert text.startswith("# p1=0.7 p2=0.3\n")
        rows = parse_csv(out)
        assert rows[0] == rows[-1]
        verts = rows[:-1]
        # round trip: re-hulling the vertices keeps them all (convex already)
        assert convex_hull(verts).shape[0] >= len(verts) - 1
        assert any(abs(r1 - 1.0) < 1e-6 and abs(r2) < 1e-6 for r1, r2 in verts)

    def test_deterministic_output(self, bw_json, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = main(
                ["region", "--channel", bw_json, "--p1", "0.6", "--p2", "0.4",
                 "--n-lambda", "6", "--out", str(out)]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestSupportCommand:
    def test_layout(self, bw_json, tmp_path):
        out = tmp_path / "supp.csv"
        rc = main(
            ["support", "--channel", bw_json, "--p1", "0.7", "--p2", "0.3",
             "--lambdas", "8", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "lambda,value,case"
        assert len(lines) == 2 + 8
        cases = {ln.split(",")[2] for ln in lines[2:]}
        assert cases == {"R1", "R3", "R4", "R2"}


class TestVerifyCommand:
    def test_pass_exit_zero(self, bw_json, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        rc = main(
            ["verify", "--channel", bw_json, "--p1", "0.7", "--p2", "0.3",
             "--lambdas", "8", "--tol", "5e-3", "--out", str(out)]
        )
        assert rc == 0
        assert "result=pass" in capsys.readouterr().out
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "lambda,inner,outer,gap,case"
        assert lines[-1].endswith(",pass")

    def test_zero_tolerance_exit_one(self, capsys):
        # GF(2)'s largest gap at 8 weights is one ulp positive (2.2e-16), so
        # a zero tolerance fails the certification
        gf2 = str(Path(__file__).parent / "data" / "gf2.json")
        rc = main(["verify", "--channel", gf2, "--lambdas", "8", "--tol", "0"])
        out = capsys.readouterr().out
        assert float(out.split("max_gap=")[1].split()[0]) > 0.0
        assert rc == 1
        assert "result=fail" in out


class TestValidationErrors:
    def test_unknown_field_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"input_size": 2, "f1": [0, 1], "f2": [0, 0], "oops": 3}))
        rc = main(["region", "--channel", str(bad), "--p1", "0.7", "--p2", "0.3", "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "unknown channel field" in capsys.readouterr().err

    def test_missing_probabilities_exit_two(self, bw_json, tmp_path, capsys):
        rc = main(["region", "--channel", bw_json, "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "p1 and p2" in capsys.readouterr().err

    def test_grid_is_a_verify_option_only(self, bw_json, tmp_path, capsys):
        # No command takes a lattice setting: the inner solver has no lattice
        # and verify runs no lattice search.
        with pytest.raises(SystemExit) as exc:
            main(["region", "--channel", bw_json, "--p1", "0.7", "--p2", "0.3", "--grid", "12", "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --grid 12" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--channel", bw_json, "--p1", "0.7", "--p2", "0.3", "--grid", "6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --grid 6" in capsys.readouterr().err

    def test_nan_tolerance_exit_two(self, bw_json, capsys):
        rc = main(["verify", "--channel", bw_json, "--p1", "0.7", "--p2", "0.3", "--lambdas", "4", "--tol", "nan"])
        assert rc == 2
        assert "tolerance must be non-negative" in capsys.readouterr().err

    def test_u_size_is_not_an_option(self, bw_json, capsys):
        # verify values its seeds on the default auxiliary alphabet, |X| + 1.
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--channel", bw_json, "--p1", "0.7", "--p2", "0.3", "--u-size", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --u-size 4" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["region", "support", "verify", "regions4"])
    def test_non_integral_input_size_exit_two_before_writing(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"input_size": 2.5, "f1": [0, 1], "f2": [0, 0]}))
        out = tmp_path / "out"
        rc = main([command, "--channel", str(bad), "--p1", "0.7", "--p2", "0.3", "--out", str(out / "o.csv")])
        assert rc == 2
        assert "input_size must be a positive integer, got 2.5" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"input_size": None, "f1": [0, 1], "f2": [0, 0]}, "input_size must be a positive integer, got None"),
            ({"input_size": 2, "f1": [0, None], "f2": [0, 0]}, "f1 values must be integers, got None"),
            ({"input_size": 2, "f1": 5, "f2": [0, 0]}, "f1 must be a list of integers, got 5"),
            ({"input_size": True, "f1": [0], "f2": [0]}, "input_size must be a positive integer, got True"),
            ({"input_size": 2, "f1": [False, True], "f2": [0, 0]}, "f1 values must be integers, got False"),
            ({"input_size": 2, "f1": [0, 1], "f2": [0, 0], "p1": True}, "p1 must be a number in [0, 1], got True"),
            ({"input_size": 2, "f1": [0, 1], "f2": [0, 0], "p1": "0.5"}, "p1 must be a number in [0, 1], got '0.5'"),
        ],
        ids=("null-input-size", "null-map-entry", "numeric-map", "boolean-input-size", "boolean-map-entry", "boolean-p1",
             "string-p1"),
    )
    def test_malformed_channel_file_exit_two_before_writing(self, data, message, tmp_path, capsys):
        # The first three used to escape as a TypeError traceback; the
        # booleans ran as the integers and probabilities 0 and 1, and the
        # string as 0.5.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"p1": 0.7, "p2": 0.3} | data))
        rc = main(["region", "--channel", str(bad), "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [bad]

    def test_missing_file_exit_two(self, tmp_path, capsys):
        rc = main(["region", "--channel", str(tmp_path / "nope.json"), "--p1", "0.7", "--p2", "0.3", "--out", str(tmp_path / "o.csv")])
        assert rc == 2


class TestExampleCommands:
    def test_finite_field_vertex(self, tmp_path):
        out = tmp_path / "ff.csv"
        rc = main(["example-ff", "--k", "2", "--p1", "0.7", "--p2", "0.4", "--out", str(out)])
        assert rc == 0
        rows = parse_csv(out)
        assert (0.7, 0.6) in {(round(a, 9), round(b, 9)) for a, b in rows}

    def test_finite_field_normalized(self, tmp_path):
        out = tmp_path / "ff3.csv"
        rc = main(["example-ff", "--k", "3", "--p1", "0.7", "--p2", "0.4", "--normalize", "--out", str(out)])
        assert rc == 0
        assert "normalized" in out.read_text().splitlines()[0]
        rows = {(round(a, 6), round(b, 6)) for a, b in parse_csv(out)}
        assert (0.7, 0.6) in rows  # axes in units of log2 K
        assert (1.0, 0.0) in rows

    def test_blackwell_sweep(self, tmp_path):
        out = tmp_path / "bw.csv"
        rc = main(["example-blackwell", "--p1", "0.5", "--p2", "0.5", "--alpha-grid", "51", "--out", str(out)])
        assert rc == 0
        rows = parse_csv(out)
        best = max(a + b for a, b in rows)
        assert best == pytest.approx(1.0, abs=1e-3)

    def test_dof_stdout(self, capsys):
        assert main(["dof", "--p1", "0.7", "--p2", "0.4"]) == 0
        assert capsys.readouterr().out.strip() == "1.3"

    def test_module_entry_point(self):
        src = str(Path(statebc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "statebc.cli", "dof", "--p1", "0.7", "--p2", "0.4"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1.3"

    def test_dof_non_canonical_exit_two(self, capsys):
        assert main(["dof", "--p1", "0.3", "--p2", "0.7"]) == 2


class TestFixedCost:
    @pytest.mark.parametrize(
        "argv",
        [
            ["region", "--n-lambda", "4"],
            ["support", "--lambdas", "4"],
            ["verify", "--lambdas", "4"],
            ["regions4", "--n-lambda", "4", "--px-grid", "20"],
            ["example-blackwell", "--alpha-grid", "11"],
            ["example-ff"],
            ["dof"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_command_does_not_import_numpy_ma(self, argv, bw_json, tmp_path):
        # numpy.ma costs ~11 ms to import, as np.unique does on first use;
        # no command needs it.
        args = [*argv, "--p1", "0.7", "--p2", "0.3"]
        if argv[0] in ("region", "support", "verify", "regions4"):
            args += ["--channel", bw_json]
        if argv[0] != "dof":
            args += ["--out", str(tmp_path / "out.csv")]
        code = "import sys\nfrom statebc.cli import main\nrc = main(sys.argv[1:])\nprint(rc, 'numpy.ma' in sys.modules)"
        src = str(Path(statebc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-2:] == ["0", "False"]


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize(
        "bad",
        [
            ["region", "--n-lambda", "x"],
            ["region", "--n-lambda", "5", "--bogus"],
            ["verify", "--lambdas", "5", "--tol", "0.1"],
            ["nope"],
        ],
        ids=["bad-type", "unknown-flag", "missing-required", "unknown-command"],
    )
    def test_failed_parse_leaves_the_parser_clean(self, bad, bw_json, tmp_path, capsys):
        # The shared parser must parse the next command line as a freshly
        # built one does: no value or default of the failed one carries over.
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert "usage: statebc" in capsys.readouterr().err
        out = str(tmp_path / "region.csv")
        good = ["region", "--channel", bw_json, "--p1", "0.7", "--p2", "0.3", "--out", out]
        assert vars(build_parser().parse_args(good)) == vars(build_parser.__wrapped__().parse_args(good))
        assert vars(build_parser().parse_args(good))["n_lambda"] == 64
        assert main([*good, "--n-lambda", "4"]) == 0
        assert Path(out).read_text().startswith("# p1=0.7 p2=0.3\nr1,r2\n")


class TestRegions4Command:
    def test_non_positive_n_lambda_exit_two(self, bw_json, tmp_path, capsys):
        prefix = str(tmp_path / "bw-")
        rc = main(["regions4", "--channel", bw_json, "--p1", "0.7", "--p2", "0.3", "--n-lambda", "0", "--out", prefix])
        assert rc == 2
        assert "n_lambda must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("bw-*.csv"))

    def test_emits_eight_files(self, bw_json, tmp_path):
        prefix = str(tmp_path / "bw-")
        rc = main(
            ["regions4", "--channel", bw_json, "--p1", "0.7", "--p2", "0.3",
             "--n-lambda", "6", "--px-grid", "60", "--out", prefix]
        )
        assert rc == 0
        names = sorted(p.name for p in tmp_path.glob("bw-*.csv"))
        assert names == [
            "bw-R1.csv", "bw-R1p.csv", "bw-R2.csv", "bw-R2p.csv",
            "bw-R3.csv", "bw-R3p.csv", "bw-R4.csv", "bw-R4p.csv",
        ]
