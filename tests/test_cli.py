import dataclasses
import json
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from vortexbell import bell, wigner
from vortexbell.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_json(capsys, argv):
    code = main(argv)
    payload = json.loads(capsys.readouterr().out)
    return code, payload


def _child_env(unbuffered=None):
    """The parent's environment with this checkout's src first on the path.

    ``unbuffered`` True/False sets/clears PYTHONUNBUFFERED; stdout buffering
    decides whether a closed pipe fails a write or the final flush.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    return env


def strip_timestamps(obj):
    """The output without its run-dependent timestamp and elapsed_s."""
    if isinstance(obj, dict):
        return {
            k: strip_timestamps(v) for k, v in obj.items()
            if k not in ("timestamp", "elapsed_s")
        }
    if isinstance(obj, list):
        return [strip_timestamps(v) for v in obj]
    return obj


class TestBellMax:
    def test_restricted_lowest_vortex(self, capsys):
        code, payload = run_json(
            capsys, ["bell-max", "--n", "1", "--m", "0", "--settings", "restricted"]
        )
        assert code == 0
        assert payload["converged"] is True
        assert payload["best_value"] == pytest.approx(2.17, abs=0.01)
        assert len(payload["argmax"]) == 2
        assert payload["manifest"]["command"] == "bell-max"
        elapsed = payload["manifest"]["elapsed_s"]
        assert math.isfinite(elapsed) and elapsed >= 0.0
        assert payload["manifest"]["python"] == ".".join(map(str, sys.version_info[:3]))
        assert payload["manifest"]["numpy"] == np.__version__

    def test_general_lowest_vortex(self, capsys):
        code, payload = run_json(
            capsys, ["bell-max", "--n", "1", "--m", "0", "--settings", "general"]
        )
        assert code == 0
        assert payload["best_value"] == pytest.approx(2.24, abs=0.01)
        assert len(payload["argmax"]) == 8

    def test_general_vortex_30_exits_zero(self, capsys):
        code, payload = run_json(
            capsys, ["bell-max", "--n", "30", "--m", "0", "--settings", "general"]
        )
        assert code == 0
        assert payload["converged"] is True
        assert payload["best_value"] >= 2.5446000714 - 1e-9

    def test_restricted_vortex_17_exits_zero(self, capsys):
        code, payload = run_json(capsys, ["bell-max", "--n", "17", "--m", "0"])
        assert code == 0
        assert payload["converged"] is True

    def test_ground_mode_bounded(self, capsys):
        code, payload = run_json(
            capsys, ["bell-max", "--n", "0", "--m", "0", "--settings", "restricted"]
        )
        assert code == 0
        assert payload["best_value"] <= 2.0 + 1e-9
        assert payload["violation"] is False

    @pytest.mark.parametrize("settings", ["restricted", "general"])
    def test_balanced_mode_reports_no_violation(self, capsys, settings):
        # |B| = 2 at the origin, where the restricted Hessian is zero: a converged
        # search with no violation, not a failure
        code, payload = run_json(
            capsys, ["bell-max", "--n", "3", "--m", "3", "--settings", settings])
        assert code == 0
        assert (payload["converged"], payload["violation"]) == (True, False)

    def test_nonconvergence_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(bell, "_MAX_ITERS", 1)
        code, payload = run_json(capsys, ["bell-max", "--n", "1", "--m", "0"])
        assert code == 3
        assert payload["converged"] is False

    def test_manifest_defaults_are_the_library_config(self, capsys):
        # with no optimizer flags the manifest lists exactly OptimizerConfig()'s values
        _, payload = run_json(capsys, ["bell-max", "--n", "1", "--m", "0"])
        parameters = payload["manifest"]["parameters"]
        defaults = dataclasses.asdict(bell.OptimizerConfig())
        assert {name: parameters[name] for name in defaults} == defaults
        assert "seed" not in payload["manifest"]

    def test_seed_is_accepted_and_ignored(self, capsys):
        runs = []
        for seed in ("1", "2"):
            argv = ["bell-max", "--n", "1", "--m", "0", "--settings", "general", "--seed", seed]
            code, payload = run_json(capsys, argv)
            assert code == 0
            assert payload["manifest"]["parameters"].pop("seed") == int(seed)
            runs.append(strip_timestamps(payload))
        assert runs[0] == runs[1]

    def test_json_reproducible_modulo_timestamp(self, capsys):
        argv = ["bell-max", "--n", "1", "--m", "0", "--seed", "777"]
        _, first = run_json(capsys, argv)
        _, second = run_json(capsys, argv)
        assert strip_timestamps(first) == strip_timestamps(second)


class TestBellScan:
    def test_csv_shape_and_header(self, capsys):
        code = main(
            ["bell-scan", "--n", "1", "--m", "0", "--x-min", "0", "--x-max", "2",
             "--samples", "41"]
        )
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "x,py,abs_B"
        assert len(lines) == 42
        peak = max(float(line.split(",")[2]) for line in lines[1:])
        assert peak == pytest.approx(2.17, abs=0.02)

    def test_ground_mode_flat_curve(self, capsys):
        main(["bell-scan", "--n", "0", "--m", "0", "--samples", "21"])
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        assert all(float(line.split(",")[2]) <= 2.0 + 1e-12 for line in lines)

    def test_two_sample_scan(self, capsys):
        code = main(["bell-scan", "--n", "1", "--m", "0", "--samples", "2"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert code == 0
        assert len(lines) == 3

    def test_file_output_with_sidecar_manifest(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = main(
            ["bell-scan", "--n", "1", "--m", "0", "--samples", "11",
             "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().startswith("x,py,abs_B\n")
        manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
        assert manifest["command"] == "bell-scan"
        assert manifest["parameters"]["seed"] == 12345 and "seed" not in manifest

    def test_byte_identical_reruns(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            main(["bell-scan", "--n", "5", "--m", "0", "--samples", "33",
                  "--out", str(path)])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_bad_range_is_usage_error(self, capsys):
        code = main(["bell-scan", "--n", "1", "--m", "0", "--x-min", "5", "--x-max", "1"])
        assert code == 2
        assert "usage" in capsys.readouterr().err

    def test_unwritable_path_is_io_error(self, capsys):
        code = main(
            ["bell-scan", "--n", "1", "--m", "0", "--out", "/nonexistent/dir/out.csv"]
        )
        assert code == 4


class TestCorr:
    def test_max_lowest_vortex(self, capsys):
        code, payload = run_json(capsys, ["corr", "--n", "1", "--m", "0", "--max"])
        assert code == 0
        assert payload["c_max"] == pytest.approx(0.5, abs=1e-9)

    def test_max_ground(self, capsys):
        _, payload = run_json(capsys, ["corr", "--n", "0", "--m", "0", "--max"])
        assert payload["c_max"] == pytest.approx(0.0, abs=1e-10)

    def test_max_fourth_vortex(self, capsys):
        _, payload = run_json(capsys, ["corr", "--n", "4", "--m", "0", "--max"])
        assert payload["c_max"] == pytest.approx(0.8, abs=1e-6)

    def test_grid_csv(self, capsys):
        code = main(
            ["corr", "--n", "1", "--m", "0", "--theta-samples", "1",
             "--theta-max", "0", "--phi-samples", "24"]
        )
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "theta,phi,c"
        assert len(lines) == 25
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert max(values) == pytest.approx(0.5, abs=1e-9)

    def test_order_flag_is_unknown_argument(self, capsys):
        code = main(["corr", "--n", "8", "--m", "0", "--max", "--order", "16"])
        assert code == 2
        assert "unrecognized arguments: --order" in capsys.readouterr().err


class TestSchmidt:
    def test_lowest_vortex(self, capsys):
        code, payload = run_json(capsys, ["schmidt", "--n", "1", "--m", "0"])
        assert code == 0
        assert len(payload["terms"]) == 2
        for term in payload["terms"]:
            assert term["abs2"] == pytest.approx(0.5, abs=1e-12)
        assert payload["sum_abs2"] == pytest.approx(1.0, abs=1e-10)

    def test_ground(self, capsys):
        _, payload = run_json(capsys, ["schmidt", "--n", "0", "--m", "0"])
        assert len(payload["terms"]) == 1
        assert payload["terms"][0]["abs2"] == pytest.approx(1.0, abs=1e-12)

    def test_balanced_mode_parity(self, capsys):
        _, payload = run_json(capsys, ["schmidt", "--n", "2", "--m", "2"])
        assert len(payload["terms"]) == 5
        for term in payload["terms"]:
            if term["k"] % 2:
                assert term["abs2"] <= 1e-20

    def test_invalid_mode_is_usage_error(self, capsys):
        assert main(["schmidt", "--n", "-1", "--m", "0"]) == 2
        assert main(["schmidt", "--n", "40", "--m", "30"]) == 2


class TestWigner:
    def test_origin_parity_value(self, capsys):
        code = main(
            ["wigner", "--n", "1", "--m", "0", "--grid-min", "0", "--grid-max", "0",
             "--grid-samples", "1"]
        )
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "x,px,y,py,w,pi"
        row = [float(v) for v in lines[1].split(",")]
        assert row[5] == pytest.approx(-1.0, abs=1e-12)

    def test_ground_peak_value(self, capsys):
        main(["wigner", "--n", "0", "--m", "0", "--grid-min", "0", "--grid-max", "0",
              "--grid-samples", "1"])
        row = capsys.readouterr().out.strip().split("\n")[1]
        w = float(row.split(",")[4])
        assert w == pytest.approx(1.0 / math.pi**2, rel=1e-12)

    def test_numeric_agrees_with_closed_form(self, capsys):
        args = ["wigner", "--n", "2", "--m", "1", "--grid-min", "-1", "--grid-max", "1",
                "--grid-samples", "3"]
        main(args)
        closed = capsys.readouterr().out
        main(args + ["--numeric", "--order", "72"])
        numeric = capsys.readouterr().out
        closed_rows = [list(map(float, r.split(","))) for r in closed.strip().split("\n")[1:]]
        numeric_rows = [list(map(float, r.split(","))) for r in numeric.strip().split("\n")[1:]]
        assert len(closed_rows) == len(numeric_rows) == 81
        worst = max(abs(a[4] - b[4]) for a, b in zip(closed_rows, numeric_rows))
        assert worst <= 1e-6

    def test_elliptical_table(self, capsys):
        code = main(
            ["wigner", "--elliptical-t", "0.5", "--grid-min", "0", "--grid-max", "0",
             "--grid-samples", "1"]
        )
        row = capsys.readouterr().out.strip().split("\n")[1]
        assert code == 0
        assert float(row.split(",")[5]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "flags, pi",
        [
            (["--n", "30", "--m", "0"], wigner.lg_transform_evaluator((30, 0))),
            (["--n", "2", "--m", "3"], wigner.lg_transform_evaluator((2, 3))),
            (["--elliptical-t", "0.7", "--sign", "-1"],
             wigner.elliptical_transform_evaluator((0.7, -1))),
        ],
        ids=["lg-30-0", "lg-2-3", "elliptical"],
    )
    def test_rows_match_point_by_point_values(self, capsys, flags, pi):
        code = main(["wigner", *flags, "--grid-min", "-1.5", "--grid-max", "1",
                     "--grid-samples", "5"])
        lines = capsys.readouterr().out.strip().split("\n")
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert code == 0
        axis = np.linspace(-1.5, 1.0, 5)
        expected = [(x, px, y, py) for x in axis for px in axis for y in axis for py in axis]
        assert np.array_equal(rows[:, :4], expected)
        values = np.array([pi(point) for point in expected])
        assert np.max(np.abs(rows[:, 5] - values)) <= 1e-12
        assert np.max(np.abs(rows[:, 4] - values / math.pi**2)) <= 1e-12

    @pytest.mark.parametrize(
        "flags, plan",
        [
            (["--n", "2", "--m", "1"], wigner.lg_numeric_plan((2, 1))),
            (["--elliptical-t", "0.5"],
             wigner.NumericWignerPlan(partial(wigner.elliptical_field, (0.5, 1)))),
        ],
        ids=["lg-2-1", "elliptical"],
    )
    def test_numeric_rows_are_the_plans_point_values(self, capsys, flags, plan):
        # 3 samples per axis: 81 points on 9 positions, 9 momenta at each
        code = main(["wigner", *flags, "--numeric", "--grid-min", "-1.5", "--grid-max", "1",
                     "--grid-samples", "3"])
        lines = capsys.readouterr().out.strip().split("\n")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert code == 0 and len(rows) == 81
        values = [plan(tuple(row[:4])) for row in rows]
        assert [row[4] for row in rows] == values
        assert [row[5] for row in rows] == [math.pi**2 * w for w in values]

    @pytest.mark.parametrize("numeric", [[], ["--numeric"]], ids=["closed", "numeric"])
    def test_huge_grid_point_gives_zero(self, capsys, numeric):
        code = main(["wigner", "--n", "1", "--m", "0", "--grid-min", "1e200", "--grid-max",
                     "1e200", "--grid-samples", "1", *numeric])
        row = capsys.readouterr().out.strip().split("\n")[1]
        assert code == 0
        assert [float(v) for v in row.split(",")[4:]] == [0.0, 0.0]

    def test_mode_and_elliptical_flags_conflict(self, capsys):
        code = main(["wigner", "--n", "1", "--m", "0", "--elliptical-t", "0.5"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--n", "1", "--m", "0", "--order", "50"],
        ["--elliptical-t", "0.5", "--order", "50"],
        ["--n", "1", "--m", "0", "--sign", "-1"],
        ["--n", "1", "--m", "0", "--numeric", "--sign", "1"],
    ], ids=["order-closed-lg", "order-closed-elliptical", "sign-lg", "sign-lg-numeric"])
    def test_flag_that_would_be_ignored_is_usage_error(self, capsys, argv):
        code = main(["wigner", *argv, "--grid-samples", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {argv[-2]} ") and "usage" in err

    def test_numeric_default_order_resolves_high_modes(self, capsys):
        code = main(["wigner", "--n", "16", "--m", "16", "--numeric", "--grid-samples", "1",
                     "--grid-min", "0.2", "--grid-max", "0.2"])
        row = [float(v) for v in capsys.readouterr().out.strip().split("\n")[1].split(",")]
        assert code == 0
        assert row[4] == pytest.approx(wigner.wigner_lg((16, 16), (0.2,) * 4), abs=1e-6)

    def test_numeric_engine_rejects_unresolvable_squeeze(self, capsys):
        # at t = 2 the squeezed field outgrows the default integration box
        code = main(["wigner", "--elliptical-t", "2", "--numeric"])
        assert code == 2
        assert "norm" in capsys.readouterr().err


class TestEllipticalProfile:
    def test_small_profile(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        code = main(
            ["elliptical-profile", "--t-min", "0", "--t-max", "0.4", "--t-samples", "3",
             "--out", str(out)]
        )
        streams = capsys.readouterr()
        assert (streams.out, streams.err) == ("", "")
        manifest = json.loads((tmp_path / "profile.csv.manifest.json").read_text())
        assert code == 0
        assert manifest["command"] == "elliptical-profile"
        assert manifest["converged"] is True and manifest["unconverged_t"] == []
        assert manifest["violation"] is True and manifest["evaluations"] > 0
        assert math.isfinite(manifest["elapsed_s"]) and manifest["elapsed_s"] >= 0.0
        assert (manifest["python"], manifest["numpy"]) == (
            ".".join(map(str, sys.version_info[:3])), np.__version__)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,best_abs_B"
        assert len(lines) == 4
        first = float(lines[1].split(",")[1])
        assert first <= 2.0 + 1e-9
        assert manifest["sup_best_abs_B"] == pytest.approx(
            max(float(l.split(",")[1]) for l in lines[1:]), abs=1e-12
        )

    def test_csv_on_stdout_summary_on_stderr(self, capsys):
        argv = ["elliptical-profile", "--t-min", "0.2", "--t-max", "0.4",
                "--t-samples", "2"]
        assert main(argv) == 0
        run = capsys.readouterr()
        # stdout is the CSV alone; the summary is JSON on stderr
        assert run.out.splitlines()[0] == "t,best_abs_B"
        assert len(run.out.splitlines()) == 3
        summary = json.loads(run.err)
        assert summary["sup_t"] == 0.4
        assert summary["converged"] is True
        # both sign branches give one profile, so the command takes no --sign
        assert main(argv + ["--sign", "1"]) == 2

    def test_unconverged_t_exits_three(self, capsys, monkeypatch):
        # one Newton iteration leaves the violating searches short
        monkeypatch.setattr(bell, "_MAX_ITERS", 1)
        argv = ["elliptical-profile", "--t-min", "0", "--t-max", "1", "--t-samples", "3"]
        assert main(argv) == 3
        summary = json.loads(capsys.readouterr().err)
        assert summary["converged"] is False and summary["unconverged_t"] == [0.5, 1.0]

    def test_restricted_profile_reports_no_violation(self, capsys):
        assert main(["elliptical-profile", "--settings", "restricted", "--t-samples", "5"]) == 0
        summary = json.loads(capsys.readouterr().err)
        assert (summary["converged"], summary["violation"]) == (True, False)

    def test_default_profile_exits_zero(self, capsys):
        assert main(["elliptical-profile"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 21
        values = [float(v) for _, v in rows]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("argv, ts", [
        (["--t-min", "0", "--t-max", "2", "--t-samples", "21"], bell.DEFAULT_T_GRID),
        (["--t-min", "1.0", "--t-max", "1.2", "--t-samples", "3"], (1.0, 1.1, 1.2)),
        (["--t-min", "0.5", "--t-max", "1.5", "--t-samples", "1"], (0.5,)),
    ], ids=["readme", "cli-workload", "one-sample"])
    def test_t_column_is_the_library_grid(self, capsys, argv, ts):
        assert main(["elliptical-profile", *argv]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert tuple(float(row.split(",")[0]) for row in rows) == ts

    def test_out_of_range_t_is_usage_error(self, capsys):
        assert main(["elliptical-profile", "--t-min", "0", "--t-max", "5.5"]) == 2
        assert "must sit inside [0, 5]" in capsys.readouterr().err

    def test_largest_squeeze_converges(self, capsys):
        argv = ["elliptical-profile", "--t-min", "4.5", "--t-max", "5", "--t-samples", "3"]
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().err)
        assert summary["converged"] is True and summary["sup_t"] == 5.0


class TestHarness:
    def test_unknown_command_exits_two(self, capsys):
        assert main(["bogus"]) == 2
        # input the library rejects is a usage error, not a traceback
        for argv in (
            ["wigner", "--n", "1", "--m", "0", "--grid-min", "nan"],
            ["wigner", "--elliptical-t", "0.5", "--grid-min", "nan"],
            ["corr", "--n", "1", "--m", "0", "--theta-min", "nan"],
            ["wigner", "--n", "1", "--m", "0", "--numeric", "--order", "0"],
            # the search options the one start from the origin dropped
            ["bell-max", "--n", "1", "--m", "0", "--settings", "general", "--grid-bounds", "2"],
            ["bell-max", "--n", "1", "--m", "0", "--grid-points", "21"],
            ["elliptical-profile", "--restarts", "8"],
            ["bell-max", "--n", "1", "--m", "0", "--simplex-tol", "1e-9"],
            ["bell-max", "--n", "1", "--m", "0", "--max-iters", "4000"],
            ["elliptical-profile", "--simplex-tol", "1e-9"],
            ["elliptical-profile", "--max-iters", "4000"],
            ["wigner", "--elliptical-t", "0.5", "--grid-min", "1e308", "--grid-max", "1e308",
             "--grid-samples", "1", "--numeric"],
            ["bell-max", "--n", "1", "--m", "0", "--seed", "-1"],
            ["bell-max", "--n", "1", "--m", "0", "--settings", "general", "--seed", "-1"],
        ):
            capsys.readouterr()
            assert main(argv) == 2, argv
            assert "usage" in capsys.readouterr().err, argv

    @pytest.mark.parametrize("argv", [
        ["wigner", "--n", "1", "--m", "0", "--order", "50"],
        ["bell-scan", "--n", "1", "--m", "0", "--samples", "1"],
    ], ids=["wigner", "bell-scan"])
    def test_library_error_shows_the_subcommand_usage(self, capsys, argv):
        assert main(argv) == 2
        assert f"usage: vortexbell {argv[0]} [-h]" in capsys.readouterr().err

    def test_request_too_large_for_memory_exits_two(self, capsys, monkeypatch):
        # the library call raises as numpy does; nothing here really allocates
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 11.9 GiB for an array with shape "
                              "(4, 100000000, 4) and data type float64")

        monkeypatch.setattr("vortexbell.cli.bell_scan", too_large)
        assert main(["bell-scan", "--n", "1", "--m", "0", "--samples", "100000000"]) == 2
        run = capsys.readouterr()
        assert run.out == ""
        assert run.err.splitlines() == ["error: out of memory: Unable to allocate 11.9 GiB for an "
                                        "array with shape (4, 100000000, 4) and data type float64"]

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_import_loads_no_scipy(self):
        code = (
            "import sys, vortexbell, vortexbell.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, timeout=120, env=_child_env())
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_searches_load_no_numpy_random(self):
        # this process cannot tell: the scipy oracles of the tests load numpy.random;
        # numpy 1.x imports numpy.random with numpy itself, numpy >= 2 only on use,
        # so the child reports what vortexbell and its searches add beyond numpy
        code = (
            "import sys, numpy as np; "
            "rand = lambda: {m for m in sys.modules "
            "if m == 'numpy.random' or m.startswith('numpy.random.')}; "
            "before = rand(); import vortexbell as vb; "
            "vb.maximize_bell(vb.lg_transform_evaluator((1, 0)), vb.GENERAL, "
            "vb.OptimizerConfig(seed=np.int64(3))); "
            "vb.elliptical_profile([0.5]); "
            "print(sorted(rand() - before))"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, timeout=120, env=_child_env())
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_reader_gone_before_output_exits_zero(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            result = subprocess.run(
                [sys.executable, "-m", "vortexbell", "corr", "--n", "40", "--m", "20", "--max"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
                env=_child_env(unbuffered),
            )
        finally:
            os.close(write_end)
        assert result.returncode == 0
        assert result.stderr == ""

    def test_reader_closing_midway_exits_zero(self):
        # 2.3 MB of CSV, far more than a pipe holds, written through a buffered
        # stdout: the write after the reader leaves fails with EPIPE
        proc = subprocess.Popen(
            [sys.executable, "-m", "vortexbell", "corr", "--n", "40", "--m", "20",
             "--theta-samples", "200", "--phi-samples", "200"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(unbuffered=False),
        )
        head = [proc.stdout.readline() for _ in range(4)]
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert head[0] == b"theta,phi,c\n"
        assert stderr == b""

    def test_console_script_installed(self):
        result = subprocess.run(
            [sys.executable, "-m", "vortexbell", "corr", "--n", "1", "--m", "0", "--max"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["c_max"] == pytest.approx(0.5, abs=1e-9)
