import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import radial_plap
from radial_plap.cli import main
from radial_plap.presets import PRESET_NAMES


def run(*argv):
    return main(list(argv))


def read_json(path):
    return json.loads(Path(path).read_text())


def result_bytes(out_dir):
    """Every result file's bytes; the stamped manifest is left out."""
    return {f.name: f.read_bytes() for f in sorted(Path(out_dir).iterdir())
            if f.name != "manifest.json"}


@pytest.fixture
def condition_A_fails(tmp_path):
    """Exterior pair whose critical sigma tail w = r^-2 violates (A)."""
    spec = tmp_path / "critical.json"
    spec.write_text(json.dumps({
        "N": 3, "p": 2.0, "R1": 1.0, "R2": "inf",
        "v": [{"lo": 1.0, "hi": "inf"}],
        "w": [{"lo": 1.0, "hi": "inf", "b": -2.0}],
    }))
    return spec


class TestCheckConditions:
    def test_rmk23_verdicts(self, tmp_path):
        code = run("check-conditions", "--preset", "rmk23",
                   "--out-dir", str(tmp_path))
        assert code == 0
        reports = {r["condition"]: r["verdict"]
                   for r in read_json(tmp_path / "conditions.json")}
        assert reports["W1"] == "holds"
        assert reports["OK"] == "fails"

    def test_trivial_annulus_A_holds(self, tmp_path):
        code = run("check-conditions", "--preset", "annulus-trivial",
                   "--out-dir", str(tmp_path))
        assert code == 0
        reports = {r["condition"]: r for r in read_json(tmp_path / "conditions.json")}
        assert reports["A"]["verdict"] == "holds"
        assert reports["A"]["witnesses"]["integral_P_sigma"] == pytest.approx(
            0.25, abs=1e-6
        )

    def test_malformed_spec_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"N": 2, "p": 2.0, "R1": 1.0, "R2": 2.0, "v": [], "w": []}')
        assert run("check-conditions", "--problem", str(bad),
                   "--out-dir", str(tmp_path)) == 2

    def test_unparseable_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("check-conditions", "--problem", str(bad),
                   "--out-dir", str(tmp_path)) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert run("check-conditions", "--problem", str(tmp_path / "nope.json"),
                   "--out-dir", str(tmp_path)) == 2

    def test_ball_r1_zero_exits_2(self, tmp_path, capsys):
        ball = tmp_path / "ball.json"
        ball.write_text(json.dumps({
            "N": 1, "p": 2.0, "R1": 0, "R2": 1.0,
            "v": [{"lo": 0.0, "hi": 1.0}], "w": [{"lo": 0.0, "hi": 1.0}],
        }))
        assert run("check-conditions", "--problem", str(ball),
                   "--out-dir", str(tmp_path)) == 2
        assert "invalid problem spec" in capsys.readouterr().err


class TestSolve:
    def test_trivial_preset(self, tmp_path):
        code = run("solve", "--preset", "annulus-trivial", "--no-check",
                   "--out-dir", str(tmp_path))
        assert code == 0
        out = read_json(tmp_path / "solve.json")
        assert out["lambda1"] == pytest.approx(math.pi**2, rel=1e-8)
        rows = np.loadtxt(tmp_path / "eigenfunction.csv", delimiter=",",
                          skiprows=1)
        assert rows.shape[1] == 3
        header = (tmp_path / "eigenfunction.csv").read_text().splitlines()[0]
        assert header == "r,u,flux"

    def test_usage_error_without_problem(self, tmp_path):
        assert run("solve", "--out-dir", str(tmp_path)) == 2

    def test_condition_A_gate_exits_1(self, tmp_path, condition_A_fails):
        assert run("solve", "--problem", str(condition_A_fails),
                   "--out-dir", str(tmp_path)) == 1
        assert not (tmp_path / "solve.json").exists()

    @pytest.mark.parametrize("method", ["shoot", "rayleigh"])
    @pytest.mark.parametrize("flags", [
        ("--bc", "matched", "--ladder", "3"),
        ("--ladder", "3"),
        ("--rmax", "3"),
        ("--bc", "matched"),
    ])
    def test_exterior_options_on_an_annulus_exit_2(self, tmp_path, flags, method):
        assert run("solve", "--preset", "annulus-n3", "--no-check", "--method", method,
                   *flags, "--out-dir", str(tmp_path)) == 2
        assert not (tmp_path / "solve.json").exists()

    def test_matched_solve_on_a_slow_tail_exits_0(self, tmp_path):
        # rho^{1-p'} = (r-1)^-0.5 r^-0.51 decays at the rate 0.01: its right
        # envelope needs more tail panels than the first-pass cap, and the
        # matched condition used to end in brentq's NaN traceback
        spec = tmp_path / "slow.json"
        spec.write_text(json.dumps({
            "N": 3, "p": 2.0, "R1": 1.0, "R2": "inf",
            "v": [{"lo": 1.0, "hi": "inf", "a": 0.5, "b": -1.49}],
            "w": [{"lo": 1.0, "hi": "inf", "b": -4.0}],
        }))
        out_dir = tmp_path / "out"
        assert run("solve", "--problem", str(spec), "--bc", "matched", "--ladder", "2",
                   "--out-dir", str(out_dir)) == 0
        assert read_json(out_dir / "solve.json")["lambda1"] == pytest.approx(0.88198, rel=1e-5)

    def test_ladder_and_rmax_together_exit_2(self, tmp_path):
        assert run("solve", "--preset", "rmk22", "--no-check", "--ladder", "2",
                   "--rmax", "24", "--out-dir", str(tmp_path)) == 2
        assert not (tmp_path / "solve.json").exists()


class TestSolveRayleighExterior:
    """Rayleigh runs on the truncation the shooting solve used or asked for."""

    def test_both_shares_the_shooting_truncation(self, tmp_path):
        code = run("solve", "--preset", "rmk22", "--no-check", "--ladder", "2",
                   "--method", "both", "--nodes", "600", "--out-dir", str(tmp_path))
        assert code == 0
        out = read_json(tmp_path / "solve.json")
        r_shoot = out["diagnostics"]["truncation_radius"]
        assert r_shoot == 8.0
        assert out["rayleigh_diagnostics"]["truncation_radius"] == r_shoot
        # Dirichlet on the same annulus: the two lambdas agree closely
        lam_top = out["diagnostics"]["lambda_dirichlet_last"]
        assert out["lambda1_rayleigh"] == pytest.approx(lam_top, rel=1e-2)

    @pytest.mark.parametrize("flags, radius", [
        ((), 128.0),
        (("--ladder", "1"), 4.0),
        (("--ladder", "3"), 16.0),
        (("--ladder", "5"), 64.0),
        (("--rmax", "24"), 24.0),
    ])
    def test_rayleigh_alone_takes_the_top_rung(self, tmp_path, flags, radius):
        code = run("solve", "--preset", "rmk22", "--no-check", "--method",
                   "rayleigh", "--nodes", "600", *flags, "--out-dir", str(tmp_path))
        assert code == 0
        out = read_json(tmp_path / "solve.json")
        assert out["rayleigh_diagnostics"]["truncation_radius"] == radius
        assert "lambda1" not in out

    @pytest.mark.parametrize("method", ["rayleigh", "both"])
    def test_matched_bc_is_a_usage_error(self, tmp_path, method):
        assert run("solve", "--preset", "rmk22", "--no-check", "--method", method,
                   "--bc", "matched", "--out-dir", str(tmp_path)) == 2
        assert not (tmp_path / "solve.json").exists()

    def test_empty_ladder_is_a_usage_error(self, tmp_path):
        assert run("solve", "--preset", "rmk22", "--no-check", "--ladder", "0",
                   "--out-dir", str(tmp_path)) == 2


class TestAsymptoticsCommand:
    def test_annulus_both_boundaries(self, tmp_path):
        code = run("asymptotics", "--preset", "annulus-trivial", "--no-check",
                   "--out-dir", str(tmp_path))
        assert code == 0
        verdicts = read_json(tmp_path / "asymptotics.json")
        assert {v["boundary"] for v in verdicts} == {"left", "right"}
        assert all(v["pass"] for v in verdicts)
        csv_left = np.loadtxt(tmp_path / "asymptotics_left.csv", delimiter=",",
                              skiprows=1)
        assert csv_left.shape[1] == 4  # r, u, envelope, ratio

    def test_condition_A_gate_on_the_exterior_problem(self, tmp_path,
                                                      condition_A_fails):
        # (A) holds on every truncated annulus, so the gate must see the
        # untruncated problem
        assert run("asymptotics", "--problem", str(condition_A_fails),
                   "--out-dir", str(tmp_path)) == 1
        assert not (tmp_path / "asymptotics.json").exists()

    def test_rmax_on_an_annulus_exits_2_like_solve(self, tmp_path, capsys):
        assert run("solve", "--preset", "annulus-n3", "--rmax", "3",
                   "--out-dir", str(tmp_path / "solve")) == 2
        solve_err = capsys.readouterr().err
        assert run("asymptotics", "--preset", "annulus-n3", "--rmax", "3",
                   "--out-dir", str(tmp_path / "asy")) == 2
        assert capsys.readouterr().err == solve_err
        assert "are for exterior domains" in solve_err
        assert not (tmp_path / "asy" / "asymptotics.json").exists()


@pytest.fixture(scope="module")
def annulus_n3_solved(tmp_path_factory):
    """annulus-n3's eigenfunction.csv from ``solve``, and the rows of a plain
    ``asymptotics`` run."""
    out = tmp_path_factory.mktemp("annulus-n3")
    assert run("solve", "--preset", "annulus-n3", "--out-dir", str(out / "solve")) == 0
    assert run("asymptotics", "--preset", "annulus-n3", "--out-dir", str(out / "asy")) == 0
    return out / "solve" / "eigenfunction.csv", read_json(out / "asy" / "asymptotics.json")


def run_eig(tmp_path, csv):
    code = run("asymptotics", "--preset", "annulus-n3", "--eig", str(csv),
               "--out-dir", str(tmp_path))
    return code, read_json(tmp_path / "asymptotics.json") if code != 2 else None


class TestAsymptoticsEig:
    def test_round_trip_matches_the_solve(self, tmp_path, annulus_n3_solved):
        csv, plain = annulus_n3_solved
        code, rows = run_eig(tmp_path, csv)
        assert code == 0
        assert [r["boundary"] for r in rows] == ["left", "right"]
        for row, ref in zip(rows, plain):
            # the file's mesh rebuilds its left offset as r[0] - R1, which
            # moves the window's ends in their last digits
            assert row["window"] == pytest.approx(ref["window"], rel=1e-9, abs=0)
            assert {**row, "window": None} == {**ref, "window": None}

    def test_exterior_round_trip_matches_the_example(self, tmp_path):
        # rmk23's eigenfunction read back at the example's truncation: both
        # windows are read on the exterior problem, as the example reads them
        assert run("example", "rmk23", "--out-dir", str(tmp_path / "ex")) == 0
        summary = read_json(tmp_path / "ex" / "summary.json")
        r_max = repr(summary["solver_diagnostics"]["truncation_radius"])
        assert run("asymptotics", "--preset", "rmk23", "--rmax", r_max,
                   "--eig", str(tmp_path / "ex" / "eigenfunction.csv"),
                   "--out-dir", str(tmp_path / "asy")) == 0
        rows = read_json(tmp_path / "asy" / "asymptotics.json")
        assert [r["boundary"] for r in rows] == ["left", "right"]
        for row, ref in zip(rows, summary["asymptotics"]):
            assert row["window"] == pytest.approx(ref["window"], rel=1e-9, abs=0)
            assert {**row, "window": None} == {**ref, "window": None}

    def test_negative_u_in_the_left_window_is_an_error_row(self, tmp_path,
                                                           annulus_n3_solved):
        csv, plain = annulus_n3_solved
        rows = np.loadtxt(csv, delimiter=",", skiprows=1)
        rows[rows[:, 0] <= plain[0]["window"][1], 1] *= -1.0
        negated = tmp_path / "negated.csv"
        np.savetxt(negated, rows, delimiter=",", header="r,u,flux", comments="")
        code, out = run_eig(tmp_path, negated)
        assert code == 1
        assert "zero inside the verification window" in out[0]["error"]
        assert out[1]["pass"]

    @pytest.mark.parametrize("body", [
        "1.5,1.0,1.0\n",  # one row
        "1.5,one,1.0\n1.6,1.0,1.0\n",  # not a number
        "1.6,1.0,1.0\n1.5,1.0,1.0\n",  # r decreasing
    ])
    def test_malformed_file_exits_2(self, tmp_path, capsys, body):
        bad = tmp_path / "bad.csv"
        bad.write_text("r,u,flux\n" + body)
        assert run_eig(tmp_path, bad)[0] == 2
        assert "--eig" in capsys.readouterr().err
        assert not (tmp_path / "asymptotics.json").exists()


def _recursion_argv(flag, bad):
    """A degiorgi single run whose numbers lie in their domains, but for
    ``flag`` set to ``bad``, last."""
    good = {"--K": "1", "--eta": "2", "--d1": "1", "--d2": "1", "--J0": "0.25"}
    others = [f for name, value in good.items() if name != flag for f in (name, value)]
    return ("degiorgi", *others, flag, bad)


@pytest.mark.parametrize("argv", [
    ("degiorgi", "--sweep", "-5"),
    ("degiorgi", "--sweep", "0"),
    ("degiorgi", "--sweep", "10", "--seed", "-1"),
    # K = inf used to exit 0 with J_head 1e304 and thresholds 0.0
    *[_recursion_argv(flag, bad) for flag, bads in
      (("--K", ("0", "-1", "nan", "inf")), ("--eta", ("1", "0.5", "nan", "inf")),
       ("--d1", ("0", "nan", "inf")), ("--d2", ("0", "nan", "inf")),
       ("--J0", ("0", "nan", "inf")))
      for bad in bads],
    ("degiorgi", "--K", "1", "--eta", "2", "--J0", "0.25", "--d2", "1", "--d1", "2"),
    *[(*command, "--tol", tol) for command in
      (("check-conditions", "--preset", "annulus-n3"), ("solve", "--preset", "annulus-n3"),
       ("asymptotics", "--preset", "annulus-n3"), ("example", "annulus-n3"))
      for tol in ("-1", "0", "nan", "inf")],
    ("solve", "--preset", "ex62", "--rmax", "0.5"),
    ("asymptotics", "--preset", "ex62", "--rmax", "0.5"),
    # inf used to grow the automatic ladder until memory ran out
    ("solve", "--preset", "ex62", "--rmax", "inf"),
    ("solve", "--preset", "annulus-n3", "--method", "rayleigh", "--nodes", "0"),
    # nan used to report both (A_eps) checks as holding with xi = nan
    *[("check-conditions", "--preset", preset, "--xi", xi) for preset, xi in
      (("ex61", "nan"), ("ex61", "inf"), ("ex61", "1.0"),
       ("ex61", "0.5"), ("annulus-n3", "2.0"), ("annulus-n3", "3.0"))],
    *[("check-conditions", "--preset", "ex61", "--eps", eps)
      for eps in ("nan", "inf")],
], ids=" ".join)
def test_numbers_outside_their_domain_exit_2(tmp_path, capsys, argv):
    """Each number is refused by name, before anything runs."""
    assert run(*argv, "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert argv[-2] in err and "must be" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_asymptotics_rows_match_example(tmp_path, preset):
    """Both commands run the same solve and the same sandwich loop."""
    assert run("example", preset, "--out-dir", str(tmp_path / "ex")) == 0
    code = run("asymptotics", "--preset", preset, "--out-dir", str(tmp_path / "as"))
    assert code == 0
    summary = read_json(tmp_path / "ex" / "summary.json")
    assert read_json(tmp_path / "as" / "asymptotics.json") == summary["asymptotics"]


class TestDegiorgiCommand:
    def test_single_run(self, tmp_path):
        code = run("degiorgi", "--K", "1", "--eta", "2", "--d1", "1",
                   "--d2", "1", "--J0", "0.25", "--out-dir", str(tmp_path))
        assert code == 0
        out = read_json(tmp_path / "degiorgi.json")
        assert out["bound_verified"] is True
        assert out["threshold_a"] == pytest.approx(0.25)

    def test_sweep(self, tmp_path):
        code = run("degiorgi", "--sweep", "50", "--seed", "3",
                   "--out-dir", str(tmp_path))
        assert code == 0
        out = read_json(tmp_path / "degiorgi.json")
        assert out["a"]["counterexamples"] == 0
        assert out["b"]["counterexamples"] == 0

    def test_missing_params_usage_error(self, tmp_path):
        assert run("degiorgi", "--K", "1", "--out-dir", str(tmp_path)) == 2


@pytest.mark.parametrize("argv", [
    ("check-conditions", "--preset", "ex61", "--seed", "7"),
    ("solve", "--preset", "annulus-n3", "--seed", "7"),
    ("asymptotics", "--preset", "annulus-n3", "--seed", "7"),
    ("example", "annulus-trivial", "--seed", "7"),
    ("degiorgi", "--K", "1", "--eta", "2", "--d1", "1", "--d2", "1",
     "--J0", "0.25", "--tol", "1e-6"),
])
def test_flags_exist_only_where_read(tmp_path, argv):
    """--seed only drives degiorgi's sweep, and degiorgi reads no --tol."""
    assert run(*argv, "--out-dir", str(tmp_path)) == 2


class TestExample:
    def test_unknown_preset_exits_2(self, tmp_path):
        assert run("example", "nope", "--out-dir", str(tmp_path)) == 2

    def test_json_prints_the_summary(self, tmp_path, capsys):
        assert run("example", "annulus-trivial", "--json",
                   "--out-dir", str(tmp_path)) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == read_json(tmp_path / "summary.json")

    def test_trivial_pipeline(self, tmp_path):
        code = run("example", "annulus-trivial", "--out-dir", str(tmp_path))
        assert code == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["lambda1"] == pytest.approx(math.pi**2, rel=1e-6)
        assert summary["conditions"]["A"] == "holds"
        assert all(row.get("pass") for row in summary["asymptotics"])
        manifest = read_json(tmp_path / "manifest.json")
        assert "summary.json" in manifest["outputs"]
        assert "eigenfunction.csv" in manifest["outputs"]


class TestDeterminism:
    def test_reruns_byte_identical(self, tmp_path):
        """Identical spec + version produce byte-identical result files; only
        the manifest carries timestamps."""
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run("check-conditions", "--preset", "ex61",
                       "--out-dir", str(d)) == 0
        assert (d1 / "conditions.json").read_bytes() == \
            (d2 / "conditions.json").read_bytes()

    def test_solve_rerun_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run("solve", "--preset", "annulus-n3", "--no-check",
                       "--out-dir", str(d)) == 0
        assert (d1 / "solve.json").read_bytes() == (d2 / "solve.json").read_bytes()
        assert (d1 / "eigenfunction.csv").read_bytes() == \
            (d2 / "eigenfunction.csv").read_bytes()

    @pytest.mark.parametrize("argv", [
        ("example", "rmk22"),
        ("asymptotics", "--preset", "rmk22"),
    ], ids=["example", "asymptotics"])
    def test_pipeline_rerun_identical(self, tmp_path, argv):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run(*argv, "--out-dir", str(d)) == 0
        assert result_bytes(d1) == result_bytes(d2)
        assert len(result_bytes(d1)) >= 2


# The test process imports scipy for its oracles, so the import checks run in
# a child interpreter that imports this radial_plap.
_SRC = str(Path(radial_plap.__file__).resolve().parents[1])
_NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
"""


def _python(code, *args):
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


class TestRuntimeImports:
    def test_cli_import_leaves_scipy_out(self):
        proc = _python("import sys, radial_plap.cli\n"
                       "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_example_runs_without_scipy(self, tmp_path):
        blocked, ordinary = tmp_path / "blocked", tmp_path / "ordinary"
        proc = _python(_NO_SCIPY + "from radial_plap.cli import main\n"
                       "sys.exit(main(['example', 'annulus-trivial', '--out-dir', sys.argv[1]]))",
                       str(blocked))
        assert proc.returncode == 0, proc.stderr
        assert run("example", "annulus-trivial", "--out-dir", str(ordinary)) == 0
        assert result_bytes(blocked) == result_bytes(ordinary)
        assert len(result_bytes(blocked)) >= 4
