"""CLI contract: schemas, determinism, exit codes."""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from tensorpotts.cli import main
from tensorpotts.errors import NonConvergenceError

from conftest import log_weights, support

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestLandmarks:
    def test_4_2_values(self, capsys):
        code, out = run_cli(capsys, "landmarks", "--p", "4", "--q", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["beta_c"] == pytest.approx(2 / 3, abs=1e-7)
        assert payload["beta_tilde"] == pytest.approx(2 / 3, abs=1e-7)
        assert payload["h_tilde"] == 0.0
        assert payload["type"] == "II"


class TestClassify:
    def test_regular_figure_point(self, capsys):
        code, out = run_cli(capsys, "classify", "--p", "4", "--q", "3",
                            "--beta", "0.616", "--h", "0.67")
        assert code == 0
        payload = json.loads(out)
        assert payload["tag"] == "Regular"
        assert set(payload) == {"tag", "s_values", "f_values", "warnings"}

    def test_special_figure_point_with_rounding_tolerance(self, capsys):
        code, out = run_cli(capsys, "classify", "--p", "4", "--q", "3",
                            "--beta", "0.778", "--h", "0.485",
                            "--tol-class", "0.01")
        assert code == 0
        assert json.loads(out)["tag"] == "SpecialTypeI"


class TestExact:
    def test_free_case_u1(self, capsys, tmp_path):
        out_file = tmp_path / "marginals.csv"
        code, out = run_cli(capsys, "exact", "--p", "4", "--q", "3",
                            "--beta", "0", "--h", "0", "--N", "40",
                            "--out", str(out_file))
        assert code == 0
        payload = json.loads(out)
        assert payload["u_N1"] == pytest.approx(1 / 3, abs=1e-10)
        lines = out_file.read_text().splitlines()
        assert lines[0] == "x,pmf_x1,pmf_x2,pmf_x3"
        assert len(lines) == 42
        pmf = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]])
        assert np.allclose(pmf.sum(axis=0), 1.0, atol=1e-10)

    def test_support_beyond_budget_exits_zero(self, capsys, tmp_path):
        # 1.7e8 compositions: the marginals come from the colour profile, not the support
        import tensorpotts.exact  # noqa: F401  (the import is not what is timed)

        out_file = tmp_path / "m.csv"
        t0 = time.perf_counter()
        code, out = run_cli(capsys, "exact", "--p", "4", "--q", "4", "--beta", "0.6",
                            "--h", "0.5", "--N", "1000", "--out", str(out_file))
        assert time.perf_counter() - t0 < 1.0
        assert code == 0
        assert json.loads(out)["support_size"] == 167668501
        pmf = np.loadtxt(out_file, delimiter=",", skiprows=1)[:, 1:]
        assert np.all(np.abs(pmf.sum(axis=0) - 1.0) <= 1e-12)

    def test_colours_after_the_first_share_one_marginal(self, capsys, tmp_path):
        out_file = tmp_path / "q2.csv"
        code, _ = run_cli(capsys, "exact", "--p", "4", "--q", "2", "--beta", "0.8",
                          "--h", "0.3", "--N", "60", "--out", str(out_file))
        assert code == 0
        pmf = np.loadtxt(out_file, delimiter=",", skiprows=1)[:, 1:]
        assert np.all(np.abs(pmf[:, 1] - pmf[::-1, 0]) <= 1e-15)
        out_file = tmp_path / "q4.csv"
        code, _ = run_cli(capsys, "exact", "--p", "4", "--q", "4", "--beta", "0.6",
                          "--h", "0.5", "--N", "40", "--out", str(out_file))
        assert code == 0
        for line in out_file.read_text().splitlines()[1:]:
            cells = line.split(",")
            assert cells[2] == cells[3] == cells[4]

    @pytest.mark.parametrize("q", [3, 4])
    def test_convolves_q_minus_one_times(self, capsys, monkeypatch, q):
        # the marginals and log Z share one set of c_1 convolutions
        from tensorpotts import ModelSpec, exact

        calls = []
        convolve = exact._log_convolve
        monkeypatch.setattr(exact, "_log_convolve",
                            lambda a, b: calls.append(len(a)) or convolve(a, b))
        code, out = run_cli(capsys, "exact", "--p", "4", "--q", str(q), "--beta", "0.616",
                            "--h", "0.67", "--N", "50")
        assert code == 0
        assert len(calls) == q - 1
        monkeypatch.undo()
        assert json.loads(out)["log_partition"] == exact.log_partition(
            ModelSpec(4, q, 0.616, 0.67), 50)

    @pytest.mark.parametrize("p,q,beta,h,N", [(4, 2, 0.8, 0.3, 60), (4, 3, 0.616, 0.67, 60),
                                              (3, 4, 0.9, 0.4, 40), (4, 5, 0.6, 0.3, 30),
                                              (4, 3, 1.3, 0.0, 60), (4, 3, 2.0, 0.0, 60)])
    def test_matches_full_support(self, capsys, tmp_path, p, q, beta, h, N):
        from tensorpotts import ModelSpec

        out_file = tmp_path / "m.csv"
        code, out = run_cli(capsys, "exact", "--p", str(p), "--q", str(q), "--beta", repr(beta),
                            "--h", repr(h), "--N", str(N), "--out", str(out_file))
        assert code == 0
        payload = json.loads(out)
        counts = support(N, q)
        lw = log_weights(ModelSpec(p, q, beta, h), N, counts)
        probs = np.exp(lw - lw.max())
        probs /= probs.sum()
        pmf = np.loadtxt(out_file, delimiter=",", skiprows=1)[:, 1:]
        for r in range(q):
            oracle = np.bincount(counts[:, r], weights=probs, minlength=N + 1)
            assert np.all(np.abs(pmf[:, r] - oracle) <= 1e-12)
        x = counts / N
        assert payload["u_N1"] == pytest.approx(float(probs @ x[:, 0]), rel=1e-13)
        assert payload["u_Np"] == pytest.approx(float(probs @ np.sum(x ** p, axis=1)), rel=1e-13)
        assert payload["support_size"] == len(counts)


class TestSimulate:
    def test_deterministic_outputs(self, capsys, tmp_path):
        args = ("simulate", "--p", "4", "--q", "3", "--beta", "0.616", "--h", "0.67",
                "--N", "120", "--samples", "50", "--seed", "9",
                "--project", "0.157", "0.396", "0.323")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        code1, out1 = run_cli(capsys, *args, "--out", str(a))
        code2, out2 = run_cli(capsys, *args, "--out", str(b))
        assert code1 == code2 == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.density.csv").exists()
        density = (tmp_path / "a.csv.density.csv").read_text().splitlines()
        assert density[0] == "x,pdf,cdf"

    def test_special_point_scaling(self, capsys, tmp_path):
        from tensorpotts import compute_special_point

        sp = compute_special_point(4, 3)
        out_file = tmp_path / "sp.csv"
        code, out = run_cli(capsys, "simulate", "--p", "4", "--q", "3",
                            "--beta", repr(sp.beta_tilde), "--h", repr(sp.h_tilde),
                            "--N", "150", "--samples", "20", "--seed", "1",
                            "--out", str(out_file))
        assert code == 0
        payload = json.loads(out)
        assert payload["tag"] == "SpecialTypeI"
        assert payload["scale_exponent"] == 0.25
        header = out_file.read_text().splitlines()[1]
        assert header == "x1,x2,x3,t_n,v_2,v_3"

    def test_draws_beyond_the_full_support(self, capsys, tmp_path):
        # C(1004, 4) = 4.2e10 compositions, 2.0e12 support bytes: the draws
        # come from the colour convolutions, so no byte budget applies
        out_file = tmp_path / "s.csv"
        code, out = run_cli(capsys, "simulate", "--p", "4", "--q", "5", "--beta", "0.6",
                            "--h", "0.3", "--N", "1000", "--samples", "2000", "--seed", "1",
                            "--out", str(out_file))
        assert code == 0
        assert json.loads(out)["n_samples"] == 2000
        rows = np.loadtxt(out_file, delimiter=",", skiprows=2)
        assert rows.shape == (2000, 5)
        assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-12

    def test_zero_samples_keep_the_special_columns(self, capsys, tmp_path):
        # the header follows the scaling, not the first row
        from tensorpotts import compute_special_point

        sp = compute_special_point(4, 3)
        out_file = tmp_path / "sp.csv"
        code, out = run_cli(capsys, "simulate", "--p", "4", "--q", "3",
                            "--beta", repr(sp.beta_tilde), "--h", repr(sp.h_tilde),
                            "--N", "150", "--samples", "0", "--out", str(out_file))
        assert code == 0
        payload = json.loads(out)
        assert payload["n_samples"] == 0 and payload["scale_exponent"] is None
        assert out_file.read_text().splitlines()[1:] == ["x1,x2,x3,t_n,v_2,v_3"]


class TestEstimate:
    def test_simulated_estimate_schema(self, capsys):
        code, out = run_cli(capsys, "estimate", "--p", "4", "--q", "3",
                            "--beta", "0.616", "--h", "0.67", "--param", "h",
                            "--N", "150", "--simulate", "--seed", "4")
        assert code == 0
        payload = json.loads(out)
        for key in ("estimate", "bracket", "iterations", "converged",
                    "boundary_flag", "ci"):
            assert key in payload
        assert payload["ci"]["lower"] <= payload["estimate"] <= payload["ci"]["upper"]

    def test_data_file(self, capsys, tmp_path):
        data = tmp_path / "x.csv"
        data.write_text("0.52,0.25,0.23\n")
        code, out = run_cli(capsys, "estimate", "--p", "4", "--q", "3",
                            "--beta", "0.616", "--h", "0", "--param", "h",
                            "--N", "150", "--data", str(data))
        assert code == 0
        assert json.loads(out)["observed_statistic"] == 0.52

    def test_q4_estimate_beyond_the_full_support(self, capsys, tmp_path):
        # C(2003, 3) = 1.3e9 compositions: the h profile never builds them
        data = tmp_path / "x.csv"
        data.write_text("0.4,0.2,0.2,0.2\n")
        code, out = run_cli(capsys, "estimate", "--p", "4", "--q", "4",
                            "--beta", "0.6", "--h", "0.5", "--param", "h",
                            "--N", "2000", "--data", str(data))
        assert code == 0
        assert json.loads(out)["converged"] is True

    def test_missing_data_is_precondition_error(self, capsys):
        code, _ = run_cli(capsys, "estimate", "--p", "4", "--q", "3",
                          "--beta", "0.6", "--h", "0.1", "--param", "h", "--N", "50")
        assert code == 2

    def test_ci_two_step_method(self, capsys):
        code, out = run_cli(capsys, "ci", "--p", "4", "--q", "3",
                            "--beta", "1.3", "--h", "0", "--param", "h",
                            "--N", "120", "--simulate", "--seed", "6",
                            "--method", "two_step")
        assert code == 0
        assert json.loads(out)["ci"]["method"] == "two_step"

    def test_ci_augmented_method(self, capsys):
        # estimating beta at h = 0.2: the critical-closure slice T(0.2) exists;
        # the wide single-sample interval contains it, so the union adds nothing
        code, out = run_cli(capsys, "ci", "--p", "4", "--q", "3",
                            "--beta", "0.616", "--h", "0.2", "--param", "beta",
                            "--N", "200", "--simulate", "--seed", "6",
                            "--method", "augmented")
        assert code == 0
        payload = json.loads(out)["ci"]
        assert payload["method"] == "augmented"
        assert payload["lower"] <= 0.965 <= payload["upper"]
        assert payload["appended"] == []


class TestCurveAndDiagram:
    def test_curve_csv(self, capsys, tmp_path):
        out_file = tmp_path / "curve.csv"
        code, out = run_cli(capsys, "curve", "--p", "4", "--q", "3",
                            "--samples", "12", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "h,beta,s_low,s_high"
        assert len(lines) == 13
        payload = json.loads(out)
        assert payload["n_samples"] == 12

    def test_curve_json_format(self, capsys, tmp_path):
        out_file = tmp_path / "curve.json"
        code, _ = run_cli(capsys, "curve", "--p", "4", "--q", "3",
                          "--samples", "4", "--out", str(out_file),
                          "--format", "json")
        assert code == 0
        records = json.loads(out_file.read_text())
        assert len(records) == 4
        assert set(records[0]) == {"h", "beta", "s_low", "s_high"}

    def test_phase_diagram_csv(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        code, out = run_cli(capsys, "phase-diagram", "--p", "4", "--q", "2",
                            "--beta-min", "0.3", "--beta-max", "1.0",
                            "--h-max", "0.4", "--resolution", "5",
                            "--samples", "4", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "beta,h,tag"
        assert len(lines) == 1 + 25
        payload = json.loads(out)
        assert payload["beta_c"] == pytest.approx(2 / 3, abs=1e-7)
        assert payload["curve"] == []


class TestLimitCheck:
    def test_regular_projection(self, capsys):
        code, out = run_cli(capsys, "limit-check", "--p", "4", "--q", "3",
                            "--beta", "0.616", "--h", "0.67", "--N", "400",
                            "--samples", "4000", "--seed", "2",
                            "--project", "0.157", "0.396", "0.323")
        assert code == 0
        payload = json.loads(out)
        assert payload["law"] == "projected Gaussian limit"
        assert payload["ks_distance"] < 0.05
        assert payload["pass"] is True

    @pytest.mark.parametrize("point", [["--beta", "0.616", "--h", "0.67"],
                                       ["--beta", "1.2", "--h", "0"]],
                             ids=["regular", "weakly-critical"])
    def test_projected_stat_matches_rows(self, capsys, monkeypatch, point):
        from tensorpotts import laws, sampling

        seen = {}
        rescale, ks_distance = sampling.rescale, laws.ks_distance
        monkeypatch.setattr(sampling, "rescale",
                            lambda *a: seen.setdefault("rescaled", rescale(*a)))
        monkeypatch.setattr(laws, "ks_distance",
                            lambda stat, law: ks_distance(seen.setdefault("stat", stat), law))
        project = ["0.157", "0.396", "0.323"]
        code, out = run_cli(capsys, "limit-check", "--p", "4", "--q", "3", *point,
                            "--N", "60", "--samples", "3000", "--seed", "5",
                            "--project", *project)
        assert code == 0 and json.loads(out)["n_samples"] == 3000
        direction = np.array([float(v) for v in project])
        rows = np.array([r.w @ direction for r in seen["rescaled"]])
        # relative to the sum of |products|: w sums to zero, so the dot
        # product cancels and its own value is no scale for rounding
        scale = np.abs(seen["rescaled"].w) @ np.abs(direction)
        assert np.all(np.abs(seen["stat"] - rows) <= 1e-15 * scale)


class TestExitCodes:
    def test_precondition_violation(self, capsys):
        code, _ = run_cli(capsys, "classify", "--p", "4", "--q", "1",
                          "--beta", "0.5", "--h", "0")
        assert code == 2

    def test_nonconvergence_maps_to_three(self, capsys, monkeypatch):
        import tensorpotts.cli as cli

        def boom(args):
            raise NonConvergenceError("stub")

        monkeypatch.setattr(cli, "cmd_landmarks", boom)
        parser = cli.build_parser()
        args = parser.parse_args(["landmarks", "--p", "4", "--q", "2"])
        args.func = boom
        monkeypatch.setattr(cli.argparse.ArgumentParser, "parse_args",
                            lambda self, argv=None: args)
        assert cli.main(["landmarks", "--p", "4", "--q", "2"]) == 3

    def test_unsolved_axis_tie_exits_three_without_traceback(self, capsys):
        # beta_c's bracket is 1.2e16 wide at (65, 6); the solve used to stop
        # there and print that bound as beta_c with exit 0
        code = main(["landmarks", "--p", "65", "--q", "6"])
        captured = capsys.readouterr()
        assert code == 3
        assert "h = 0 tie" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    REGULAR = ["--p", "4", "--q", "3", "--beta", "0.616", "--h", "0.67"]

    @pytest.mark.parametrize("argv", [
        ["simulate", *REGULAR, "--N", "30", "--samples", "20", "--project", "1", "0"],
        ["limit-check", *REGULAR, "--N", "30", "--samples", "20", "--project", "1", "0"],
        ["simulate", *REGULAR, "--N", "30", "--samples", "20", "--seed", "-1"],
        ["limit-check", *REGULAR, "--N", "30", "--samples", "20", "--seed", "-1"],
        ["estimate", *REGULAR, "--param", "h", "--N", "30", "--simulate", "--seed", "-1"],
        ["phase-diagram", "--p", "4", "--q", "2", "--beta-min", "0.3", "--beta-max", "1.2",
         "--h-max", "0.5", "--resolution", "-2"],
        ["phase-diagram", "--p", "4", "--q", "2", "--beta-min", "0.3", "--beta-max", "1.2",
         "--h-max", "0.5", "--resolution", "0"],
        ["exact", *REGULAR, "--N", "20", "--out", "{tmp}/missing/marginals.csv"],
        ["estimate", *REGULAR, "--param", "h", "--N", "30", "--data", "{tmp}/missing.csv"],
        ["estimate", *REGULAR, "--param", "h", "--N", "30", "--data", "{tmp}/words.csv"],
        ["estimate", *REGULAR, "--param", "h", "--N", "30", "--data", "{tmp}/empty.csv"],
        ["classify", *REGULAR, "--tol-class", "nan"],
        ["limit-check", "--p", "4", "--q", "3", "--beta", "0.6", "--h", "0.1", "--N", "10",
         "--samples", "5", "--project", "nan", "0", "0"],
        ["simulate", "--p", "4", "--q", "3", "--beta", "0.6", "--h", "0.1", "--N", "10",
         "--samples", "5", "--project", "nan", "0", "0", "--out", "{tmp}/s.csv"],
        ["limit-check", *REGULAR, "--N", "30", "--samples", "20", "--ks-tol", "-1"],
        ["limit-check", *REGULAR, "--N", "30", "--samples", "20", "--ks-tol", "nan"],
        ["landmarks", "--p", "1", "--q", "3"],
        ["curve", "--p", "0", "--q", "3"],
        ["phase-diagram", "--p", "1", "--q", "3", "--beta-min", "0.3", "--beta-max", "1.2",
         "--h-max", "0.5", "--resolution", "5"],
    ], ids=["simulate-project-length", "limit-check-project-length", "simulate-seed",
            "limit-check-seed", "estimate-seed", "resolution-negative", "resolution-zero",
            "out-missing-dir", "data-missing", "data-not-numeric", "data-empty",
            "classify-tol-class-nan", "limit-check-project-nan", "simulate-project-nan",
            "limit-check-ks-tol-negative", "limit-check-ks-tol-nan", "landmarks-p1", "curve-p0",
            "phase-diagram-p1"])
    def test_bad_input_exits_two_without_traceback(self, capsys, recwarn, tmp_path, argv):
        (tmp_path / "words.csv").write_text("x1,x2,x3\nfirst,second,third\n")
        (tmp_path / "empty.csv").write_text("# x1,x2,x3\n")
        code = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and err.strip()
        # rejected before any draw, so nothing written
        assert not (tmp_path / "s.csv").exists()
        if "{tmp}/empty.csv" in argv:
            # no numpy warning ahead of the one message
            assert not recwarn.list
            assert err.startswith("precondition violation: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["simulate", *REGULAR, "--N", "1000", "--seed", "-1"],
        ["simulate", *REGULAR, "--N", "1000", "--samples", "-5"],
        ["limit-check", *REGULAR, "--N", "1000", "--seed", "-1"],
        ["limit-check", *REGULAR, "--N", "1000", "--samples", "-5"],
        ["limit-check", *REGULAR, "--N", "1000", "--samples", "0"],
        ["estimate", *REGULAR, "--param", "h", "--N", "1000", "--simulate", "--seed", "-1"],
        ["ci", *REGULAR, "--param", "h", "--N", "1000", "--simulate", "--seed", "-1"],
    ], ids=["simulate-seed", "simulate-samples", "limit-check-seed", "limit-check-samples",
            "limit-check-no-samples", "estimate-seed", "ci-seed"])
    def test_bad_draw_flags_rejected_before_the_law(self, capsys, monkeypatch, argv):
        from tensorpotts import exact

        def no_law(*args, **kwargs):
            raise AssertionError("the law was built before the flags were checked")

        monkeypatch.setattr(exact, "magnetization_law", no_law)
        monkeypatch.setattr(exact, "_colour_convolutions", no_law)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("precondition violation: --")


def _modules_after(commands, imports=(), block=()):
    """Run CLI commands in a fresh interpreter, after importing ``imports``
    with the packages in ``block`` made unimportable; return its sys.modules names."""
    script = (
        "import json, sys\n"
        + "".join(f"sys.modules[{name!r}] = None\n" for name in block) +
        "import numpy\n"
        "ma_with_numpy = 'numpy.ma' in sys.modules\n"
        + "".join(f"import {name}\n" for name in imports) +
        "from tensorpotts.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "sys.stderr.write(json.dumps([ma_with_numpy, sorted(sys.modules)]))\n")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    ma_with_numpy, loaded = json.loads(proc.stderr.strip().splitlines()[-1])
    # np.unique (and np.union1d) import numpy.ma, about 15 ms per command;
    # an older numpy may import it with numpy itself
    assert ma_with_numpy or "numpy.ma" not in loaded
    return set(loaded)


class TestImports:
    def test_phase_commands_load_no_scipy(self, tmp_path):
        loaded = _modules_after([
            ["landmarks", "--p", "7", "--q", "5"],
            ["classify", "--p", "4", "--q", "3", "--beta", "0.616", "--h", "0.67"],
            ["curve", "--p", "4", "--q", "3", "--samples", "8", "--out", str(tmp_path / "c.csv")],
            ["phase-diagram", "--p", "4", "--q", "2", "--beta-min", "0.3", "--beta-max", "1.2",
             "--h-max", "0.5", "--resolution", "5", "--samples", "4",
             "--out", str(tmp_path / "g.csv")],
        ])
        assert "tensorpotts.phase" in loaded
        assert not {m for m in loaded if m == "scipy" or m.startswith("scipy.")}

    def test_exact_and_estimate_skip_scipy_integrate(self):
        loaded = _modules_after([
            ["exact", "--p", "4", "--q", "3", "--beta", "0.616", "--h", "0.67", "--N", "30"],
            ["estimate", "--p", "4", "--q", "3", "--beta", "0.616", "--h", "0.67",
             "--param", "h", "--N", "60", "--simulate"],
        ])
        assert "tensorpotts.inference" in loaded
        assert "scipy.integrate" not in loaded
        assert "tensorpotts.laws" not in loaded

    def test_laws_commands_skip_scipy_integrate(self, tmp_path):
        loaded = _modules_after([
            ["simulate", "--p", "4", "--q", "3", "--beta", "0.616", "--h", "0.67", "--N", "60",
             "--samples", "50", "--project", "0.157", "0.396", "0.323",
             "--out", str(tmp_path / "s.csv")],
            ["limit-check", "--p", "4", "--q", "2", "--beta", "0.6666666666666666", "--h", "0",
             "--N", "200", "--samples", "200"],
            ["ci", "--p", "4", "--q", "3", "--beta", "1.3", "--h", "0", "--param", "h",
             "--N", "100", "--simulate", "--method", "two_step"],
        ])
        assert (tmp_path / "s.csv.density.csv").exists()
        assert "tensorpotts.laws" in loaded
        assert not {m for m in loaded if m == "scipy" or m.startswith("scipy.")}
        bare = _modules_after([], imports=["tensorpotts.laws"])
        assert "tensorpotts.laws" in bare
        assert "scipy.integrate" not in bare

    def test_engine_and_law_commands_run_without_scipy(self, tmp_path):
        loaded = _modules_after([
            ["exact", "--p", "4", "--q", "3", "--beta", "0.616", "--h", "0.67", "--N", "30",
             "--out", str(tmp_path / "m.csv")],
            ["simulate", "--p", "4", "--q", "3", "--beta", "0.616", "--h", "0.67", "--N", "60",
             "--samples", "50", "--project", "0.157", "0.396", "0.323",
             "--out", str(tmp_path / "s.csv")],
            ["estimate", "--p", "4", "--q", "3", "--beta", "0.616", "--h", "0.67",
             "--param", "h", "--N", "60", "--simulate"],
            ["ci", "--p", "4", "--q", "3", "--beta", "1.3", "--h", "0", "--param", "h",
             "--N", "100", "--simulate", "--method", "two_step"],
            ["limit-check", "--p", "4", "--q", "2", "--beta", "0.6666666666666666", "--h", "0",
             "--N", "200", "--samples", "200"],
        ], imports=["tensorpotts.exact", "tensorpotts.inference", "tensorpotts.laws"],
            block=["scipy"])
        assert (tmp_path / "m.csv").exists() and (tmp_path / "s.csv.density.csv").exists()
        assert {"tensorpotts.exact", "tensorpotts.inference", "tensorpotts.laws"} <= loaded

    def test_every_public_name_imports(self):
        import tensorpotts

        assert len(tensorpotts.__all__) == len(set(tensorpotts.__all__))
        for name in tensorpotts.__all__:
            namespace = {}
            exec(f"from tensorpotts import {name}", namespace)
            assert namespace[name] is getattr(tensorpotts, name)
        with pytest.raises(AttributeError):
            tensorpotts.no_such_name

    def test_dir_lists_public_names(self):
        import tensorpotts

        listed = dir(tensorpotts)
        assert set(tensorpotts.__all__) <= set(listed)
        assert {"phase", "inference", "__version__"} <= set(listed)


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _threads_after(imports, **preset):
    """Import ``imports`` in a fresh interpreter whose environment has none of
    THREAD_VARS except ``preset``; return those variables and the thread count
    (None without /proc)."""
    script = (
        "import json, os\n"
        + "".join(f"import {name}\n" for name in imports) +
        "task = '/proc/self/task'\n"
        f"print(json.dumps([{{v: os.environ.get(v) for v in {THREAD_VARS!r}}},\n"
        "                   len(os.listdir(task)) if os.path.isdir(task) else None]))\n")
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestThreadDefault:
    UNSET = dict.fromkeys(THREAD_VARS)

    def test_cli_import_runs_one_blas_thread(self):
        env, threads = _threads_after(["tensorpotts.cli"])
        assert env == {**self.UNSET, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        if threads is None:
            pytest.skip("no /proc/self/task to count threads")
        assert threads == 1

    def test_a_variable_the_user_set_wins(self):
        env, _ = _threads_after(["tensorpotts.cli"], OPENBLAS_NUM_THREADS="2")
        assert env == {**self.UNSET, "OPENBLAS_NUM_THREADS": "2"}

    def test_library_imports_leave_the_environment(self):
        env, _ = _threads_after(["tensorpotts", "tensorpotts.phase", "tensorpotts.exact",
                                 "tensorpotts.laws"])
        assert env == self.UNSET

    def test_numpy_loaded_first_leaves_the_environment(self):
        env, _ = _threads_after(["numpy", "tensorpotts.cli"])
        assert env == self.UNSET
