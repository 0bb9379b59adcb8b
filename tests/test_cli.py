import json
import math
import random
import subprocess
import sys
import threading

import pytest

from expcross import cli
from expcross.cli import (
    _NEGATIVE_NUMBER,
    _PARSER,
    EXIT_CONVERGENCE,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvalCommand:
    def test_zero(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--z", "0", "--branch", "0", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["w"] == 0.0

    def test_json_has_all_result_fields(self, capsys):
        _, out, _ = run_cli(
            capsys, "eval", "--z", "-0.262364", "--branch", "-1", "--format", "json"
        )
        payload = json.loads(out)
        for field in ("z", "branch", "w", "residual", "iterations"):
            assert field in payload
        assert "config" not in payload
        assert payload["branch"] == -1
        assert payload["w"] == pytest.approx(-2.061, abs=0.005)

    def test_domain_error_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--z", "-0.5", "--branch", "0")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.strip().count("\n") == 0 and "branch point" in err

    def test_convergence_error_exits_3(self, capsys):
        # W0(1e200) is a known ConvergenceError (TestOpenDefects in test_lambertw)
        code, out, err = run_cli(capsys, "eval", "--z", "1e200", "--branch", "0")
        assert code == EXIT_CONVERGENCE
        assert out == ""
        assert "residual" in err and "Halley steps" in err

    def test_csv_format(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "--z", "1", "--branch", "0", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "z,branch,w,residual,iterations"
        assert len(lines) == 2

    def test_plain_format(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "--z", "1", "--branch", "0")
        assert "w          " in out
        assert "branch     W0" in out

    def test_negative_exponent_literal_is_a_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--z", "-1e-10", "--branch", "-1", "--format", "json"
        )
        assert code == EXIT_OK
        assert json.loads(out)["z"] == -1e-10

    def test_usage_errors_exit_64(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["eval", "--z", "1", "--branch", "2"])
        assert err.value.code == EXIT_USAGE
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(["eval"])
        assert err.value.code == EXIT_USAGE
        capsys.readouterr()


class TestIntersectCommand:
    def test_two_points_json(self, capsys):
        code, out, _ = run_cli(capsys, "intersect", "--base", "1.3", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["class"] == "two_points"
        assert payload["z"] == pytest.approx(-math.log(1.3))
        xs = [p["x"] for p in payload["points"]]
        assert xs[0] == pytest.approx(1.47, abs=0.005)
        assert xs[1] == pytest.approx(7.86, abs=0.005)
        for p in payload["points"]:
            for field in ("x", "y", "source_branch", "residual"):
                assert field in p

    def test_unique_point(self, capsys):
        _, out, _ = run_cli(capsys, "intersect", "--base", "0.8", "--format", "json")
        payload = json.loads(out)
        assert payload["class"] == "unique_diagonal"
        assert payload["points"][0]["x"] == pytest.approx(0.83, abs=0.005)

    def test_tangent_base(self, capsys):
        _, out, _ = run_cli(capsys, "intersect", "--base", "1.444667861", "--format", "json")
        payload = json.loads(out)
        assert payload["class"] == "tangent"
        assert payload["points"][0]["x"] == pytest.approx(math.e, abs=1e-6)

    def test_csv_no_points_is_header_only(self, capsys):
        _, out, _ = run_cli(capsys, "intersect", "--base", "3.0", "--format", "csv")
        assert out.splitlines() == ["b,z,class,x,y,source_branch,residual"]

    def test_unit_base_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "intersect", "--base", "1.0")
        assert code == EXIT_DOMAIN
        assert "1" in err


class TestOracleCommand:
    def test_matches_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--base", "1.3", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["count_mismatch"] is False
        assert payload["max_delta"] <= 1e-8
        assert len(payload["oracle_roots"]) == 2
        for field in ("oracle_roots", "closed_form_roots", "matched_pairs", "deltas", "config"):
            assert field in payload

    def test_empty_both_sides(self, capsys):
        _, out, _ = run_cli(capsys, "oracle", "--base", "3", "--format", "json")
        payload = json.loads(out)
        assert payload["oracle_roots"] == []
        assert payload["closed_form_roots"] == []
        assert payload["count_mismatch"] is False

    def test_csv_pairs(self, capsys):
        _, out, _ = run_cli(capsys, "oracle", "--base", "1.3", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "oracle_root,closed_form_root,delta"
        assert len(lines) == 3

    def test_small_base_finding_reported_with_exit_0(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--base", "0.05", "--samples", "20000", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["count_mismatch"] is True
        assert len(payload["oracle_roots"]) == 3


class TestPlotCommand:
    def test_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "fig5.csv"
        code, out, _ = run_cli(capsys, "plot", "--figure", "fig5", "--out", str(out_path))
        assert code == EXIT_OK
        assert "wrote" in out
        lines = out_path.read_text().splitlines()
        assert lines[0] == "x,y,series_label"
        points = [ln for ln in lines if ln.endswith(",point")]
        assert len(points) == 1
        x, y, _ = points[0].split(",")
        assert float(x) == pytest.approx(math.e, abs=1e-6)
        assert float(y) == pytest.approx(math.e, abs=1e-6)

    def test_unwritable_path_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "plot", "--figure", "fig1", "--out", str(tmp_path / "no_dir" / "x.csv")
        )
        assert code == EXIT_DOMAIN
        assert "cannot write" in err

    def test_custom_requires_base(self, capsys):
        code, _, err = run_cli(capsys, "plot", "--figure", "custom", "--out", "/tmp/unused.csv")
        assert code == EXIT_USAGE
        assert "--base" in err

    def test_custom_plot(self, capsys, tmp_path):
        out_path = tmp_path / "custom.csv"
        code, _, _ = run_cli(
            capsys, "plot", "--figure", "custom", "--base", "1.2", "--out", str(out_path)
        )
        assert code == EXIT_OK
        assert sum(ln.endswith(",point") for ln in out_path.read_text().splitlines()) == 2

    def test_negative_exponent_x_min(self, capsys, tmp_path):
        out_path = tmp_path / "custom.csv"
        code, _, _ = run_cli(
            capsys, "plot", "--figure", "custom", "--base", "1.3", "--x-min", "-1e-3",
            "--out", str(out_path),
        )
        assert code == EXIT_OK
        assert out_path.read_text().splitlines()[1].startswith("-0.001,")

    def test_custom_plot_tiny_base(self, capsys, tmp_path):
        # b**x overflows for the window's x < 0
        out_path = tmp_path / "custom.csv"
        code, out, _ = run_cli(
            capsys, "plot", "--figure", "custom", "--base", "1e-200", "--out", str(out_path)
        )
        assert code == EXIT_OK
        assert "wrote" in out

    @pytest.mark.parametrize("bound", [("--x-max", "inf"), ("--x-min", "-inf")])
    def test_custom_infinite_window_exits_2(self, capsys, tmp_path, bound):
        out_path = tmp_path / "custom.csv"
        code, out, err = run_cli(
            capsys, "plot", "--figure", "custom", "--base", "0.5", *bound, "--out", str(out_path)
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "finite" in err
        assert not out_path.exists()

    def test_bad_figure_name_exits_64(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["plot", "--figure", "fig9", "--out", "/tmp/x.csv"])
        assert err.value.code == EXIT_USAGE
        capsys.readouterr()


class TestContracts:
    def test_identical_invocations_are_byte_identical(self, capsys):
        _, first_out, _ = run_cli(capsys, "intersect", "--base", "1.3", "--format", "json")
        _, second_out, _ = run_cli(capsys, "intersect", "--base", "1.3", "--format", "json")
        assert first_out == second_out

    def test_plot_files_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "plot", "--figure", "fig4", "--out", str(a))
        run_cli(capsys, "plot", "--figure", "fig4", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_help_everywhere(self, capsys):
        for argv in (["--help"], ["eval", "--help"], ["intersect", "--help"],
                     ["oracle", "--help"], ["plot", "--help"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 0
            assert capsys.readouterr().out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "expcross", "eval", "--z", "0", "--branch", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert "w          0.0" in proc.stdout

    def test_module_entry_point_domain_exit(self):
        proc = subprocess.run(
            [sys.executable, "-m", "expcross", "intersect", "--base", "-1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_DOMAIN


def _parses_as_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def test_negative_number_matcher_agrees_with_float():
    literals = [
        "-1", "-1.", "-.5", "-1e-10", "-1E+5", "-1.e5", "-.5e-3", "-00.00e00", "-1_000.5",
        "-1e1_0", "-inf", "-INF", "-Infinity", "-nan", "-NaN", "-1e5 ", "-\u0663",
        "-", "-.", "-e5", "-.e5", "-1e", "-1e+", "-1__0", "-_1", "-1_", "-1_.5", "-1._5",
        "-1e_10", "-infinit", "-nan1", "- 1", "-1 2", "-0x10", "-1j", "-1e5x",
        "-h", "--z", "--x-min",
    ]
    rng = random.Random(64)
    literals += [repr(-(10.0 ** rng.uniform(-320.0, 308.0))) for _ in range(500)]
    for text in literals:
        assert bool(_NEGATIVE_NUMBER.match(text)) == _parses_as_float(text), text


class TestSharedParser:
    """main() parses with one parser built at import; calls must not leak into each other."""

    ARGVS = [
        ["eval", "--z", "-0.25", "--branch", "-1", "--format", "json"],
        ["eval", "--format", "csv", "--branch", "0", "--z", "-1e-10"],
        ["intersect", "--base", "1.3"],
        ["intersect", "--base", "0.8", "--format", "csv"],
        ["oracle", "--base", "1.3", "--x-max", "10", "--samples", "500"],
        ["oracle", "--base", "2.0", "--format", "plain"],
        ["plot", "--figure", "custom", "--base", "1.2", "--x-min", "-1e-3", "--out", "c.csv"],
        ["plot", "--figure", "fig4", "--samples", "50", "--out", "f.csv"],
    ]

    def test_threads_share_the_parser(self):
        expected = [vars(build_parser().parse_args(argv)) for argv in self.ARGVS]
        mismatches = []

        def work(offset):
            for i in range(100):
                k = (offset + i) % len(self.ARGVS)
                if vars(_PARSER.parse_args(self.ARGVS[k])) != expected[k]:
                    mismatches.append(self.ARGVS[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    def test_main_does_not_rebuild_the_parser(self, capsys, monkeypatch):
        def no_rebuild():
            raise AssertionError("main() rebuilt the parser")

        monkeypatch.setattr(cli, "build_parser", no_rebuild)
        code, out, _ = run_cli(capsys, "intersect", "--base", "1.3", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["class"] == "two_points"
