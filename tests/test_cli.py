"""End-to-end tests for the command-line front end and self-checks."""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import osinv
from osinv import cli
from osinv.cli import (
    MAX_GRID_COUNT,
    main,
    parse_n_grid,
    parse_space_descriptor,
)
from osinv.errors import BadParameter, NotRegular, ParseError
from osinv.monotone_fn import evaluate
from osinv.verify import run_suite

OH_JSON = '{"kind":"oh"}'
NINE_POINT_GRID = "geometric:16:1048576:9"


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    """Exit code (also of an argparse exit), stdout and stderr of `main`."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseSpaceDescriptor:
    def test_inline_catalog_member(self) -> None:
        desc = parse_space_descriptor(OH_JSON)
        assert desc.label == "OH"
        assert evaluate(desc.phi_c, 9.0) == pytest.approx(3.0, rel=1e-12)

    def test_intersection_family_cube_root(self) -> None:
        desc = parse_space_descriptor('{"kind":"cr_p","p":1.5}')
        assert evaluate(desc.phi_c, 8.0) == pytest.approx(2.0, rel=1e-12)
        assert evaluate(desc.phi_r, 8.0) == pytest.approx(2.0, rel=1e-12)

    def test_explicit_tables(self) -> None:
        text = json.dumps({
            "kind": "fundamental",
            "phi_c": {"knots": [1.0], "values": [1.0],
                      "right_exponent": 0.5},
            "phi_r": {"knots": [1.0], "values": [1.0],
                      "right_exponent": 0.5},
        })
        desc = parse_space_descriptor(text)
        assert evaluate(desc.phi_c, 4.0) == pytest.approx(2.0, rel=1e-12)

    def test_linear_tables_fail_the_regularity_gate(self) -> None:
        text = json.dumps({
            "kind": "fundamental",
            "phi_c": {"knots": [1.0], "values": [1.0],
                      "right_exponent": 1.0},
            "phi_r": {"knots": [1.0], "values": [1.0],
                      "right_exponent": 0.5},
        })
        with pytest.raises(NotRegular):
            parse_space_descriptor(text)

    def test_reads_descriptor_files(self, tmp_path) -> None:
        path = tmp_path / "space.json"
        path.write_text('{"kind":"column_p","p":3}')
        desc = parse_space_descriptor(str(path))
        assert desc.p == 3.0

    @pytest.mark.parametrize(
        "bad", ['{"kind":', "[1,2]", "no/such/file.json"]
    )
    def test_rejects_malformed_input(self, bad: str) -> None:
        with pytest.raises(ParseError):
            parse_space_descriptor(bad)


class TestParseNGrid:
    def test_comma_list(self) -> None:
        assert parse_n_grid("16,64,256") == (16, 64, 256)

    def test_sorts_and_dedupes(self) -> None:
        assert parse_n_grid("64,16,16,4") == (4, 16, 64)

    def test_geometric_grid_is_exactly_dyadic(self) -> None:
        assert parse_n_grid(NINE_POINT_GRID) == tuple(
            16 * 4**k for k in range(9)
        )

    def test_single_point_geometric(self) -> None:
        assert parse_n_grid("geometric:16:16:1") == (16,)

    @pytest.mark.parametrize(
        "bad",
        [
            "geometric:16:4:3",
            "geometric:1:8",
            "geometric:a:8:3",
            "1.5,2",
            "",
            "0,4",
        ],
    )
    def test_rejects_malformed_grids(self, bad: str) -> None:
        with pytest.raises(ParseError):
            parse_n_grid(bad)

    def test_largest_dimension_is_accepted(self) -> None:
        assert parse_n_grid(f"16,{2**60}") == (16, 2**60)
        assert parse_n_grid("geometric:16:1152921504606846976:2")[-1] == 2**60

    @pytest.mark.parametrize(
        "bad",
        [
            "geometric:1:1e300:3",
            f"16,{2**60 + 1}",
            "geometric:1:inf:3",
            "geometric:1:nan:3",
            "geometric:inf:inf:1",
        ],
    )
    def test_rejects_dimensions_beyond_the_limit(self, bad: str) -> None:
        with pytest.raises(ParseError, match=r"2\*\*60"):
            parse_n_grid(bad)

    def test_oversized_grid_exits_three_without_numpy_warnings(
        self, capsys
    ) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "table", "--space", OH_JSON, "--n",
                "geometric:1:1e300:3",
            )
        assert code == 3
        assert out == ""
        assert "2**60" in err
        assert "log-log" not in err

    @pytest.mark.parametrize("command", ["table", "fit", "pi1"])
    def test_near_duplicate_fit_window_exits_three(self, command) -> None:
        # Three points a few ulps apart in log n: the slope fit over them
        # is rank deficient, so no slope row can be printed.
        spaces = (
            ["--domain", OH_JSON, "--codomain", OH_JSON]
            if command == "pi1" else ["--space", OH_JSON]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "osinv.cli", command, *spaces, "--n",
             "1152921504606838784,1152921504606842880,1152921504606846976"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert "slope" in proc.stderr

    def test_largest_count_is_accepted(self) -> None:
        assert parse_n_grid(f"geometric:1:2:{MAX_GRID_COUNT}") == (1, 2)

    @pytest.mark.parametrize(
        "count", [MAX_GRID_COUNT + 1, 1_000_000, 10**30]
    )
    def test_rejects_counts_beyond_the_limit(self, count: int) -> None:
        with pytest.raises(ParseError, match=f"at most {MAX_GRID_COUNT}"):
            parse_n_grid(f"geometric:1:2:{count}")

    @pytest.mark.parametrize(
        ("bad", "limit"),
        [
            ("9" * 5000, f"2**60 = {2**60}"),
            ("16,64," + "9" * 5000, f"2**60 = {2**60}"),
            ("16, -" + "9" * 5000, f"2**60 = {2**60}"),
            ("16,64," + "9" * 4000, f"2**60 = {2**60}"),
            ("geometric:1:" + "9" * 5000 + ":3", f"2**60 = {2**60}"),
            ("geometric:1:2:" + "9" * 5000, f"1 to {MAX_GRID_COUNT}"),
            ("geometric:1:" + "x" * 5000 + ":3", "must be numbers"),
        ],
    )
    def test_huge_token_message_is_short_and_states_the_limit(
        self, bad: str, limit: str
    ) -> None:
        with pytest.raises(ParseError) as exc:
            parse_n_grid(bad)
        message = str(exc.value)
        assert limit in message
        assert len(message) < 200
        assert "set_int_max_str_digits" not in message

    def test_huge_token_exits_three_with_one_short_line(self, capsys) -> None:
        code, out, err = run_cli(
            capsys, "table", "--space", OH_JSON, "--n", "16," + "9" * 5000
        )
        assert code == 3 and out == ""
        assert err.startswith("error: bad n-grid point ")
        assert err.count("\n") == 1 and len(err) < 200
        assert "2**60" in err

    def test_oversized_count_exits_three(self, capsys) -> None:
        code, out, err = run_cli(
            capsys, "table", "--space", OH_JSON, "--n", "geometric:1:2:1000000"
        )
        assert code == 3
        assert out == ""
        assert str(MAX_GRID_COUNT) in err


class TestTableCommand:
    def test_oh_table_shape_and_exactness_slope(self, capsys) -> None:
        code, out, err = run_cli(
            capsys, "table", "--space", OH_JSON, "--n", NINE_POINT_GRID
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0].startswith("# osinv ")
        assert lines[1] == "n,phi_c,phi_r,ex,proj,pi1"
        assert len(lines) == 2 + 9 + 1
        footer = lines[-1].split(",")
        assert footer[0] == "slope"
        assert float(footer[3]) == pytest.approx(0.25, abs=0.01)

    def test_column_family_exactness_slope(self, capsys) -> None:
        code, out, _ = run_cli(
            capsys,
            "table",
            "--space", '{"kind":"column_p","p":3}',
            "--n", NINE_POINT_GRID,
        )
        assert code == 0
        footer = out.splitlines()[-1].split(",")
        assert float(footer[3]) == pytest.approx(2.0 / 9.0, abs=0.03)

    def test_numbers_use_ten_significant_digits(self, capsys) -> None:
        _, out, _ = run_cli(
            capsys, "table", "--space", OH_JSON, "--n", "16,64,256"
        )
        for line in out.splitlines()[2:]:
            for field in line.split(",")[1:]:
                if field:
                    assert f"{float(field):.10g}" == field

    def test_endpoint_space_exits_two(self, capsys) -> None:
        code, out, err = run_cli(
            capsys, "table", "--space", '{"kind":"c"}', "--n", "16,64,256"
        )
        assert code == 2 and out == "" and err.startswith("error:")

    def test_bad_descriptor_exits_three(self, capsys) -> None:
        code, out, err = run_cli(
            capsys, "table", "--space", '{"kind":', "--n", "16,64,256"
        )
        assert code == 3 and out == "" and err.startswith("error:")

    def test_bad_grid_exits_three(self, capsys) -> None:
        code, _, err = run_cli(
            capsys, "table", "--space", OH_JSON, "--n", "0,4"
        )
        assert code == 3 and err.startswith("error:")

    def test_two_point_grid_exits_three(self, capsys) -> None:
        code, _, err = run_cli(
            capsys, "table", "--space", OH_JSON, "--n", "16,64"
        )
        assert code == 3 and err.startswith("error:")

    def test_identical_flags_are_byte_identical(self, capsys) -> None:
        _, first, _ = run_cli(
            capsys, "table", "--space", OH_JSON, "--n", "16,64,256"
        )
        _, second, _ = run_cli(
            capsys, "table", "--space", OH_JSON, "--n", "16,64,256"
        )
        assert first == second

    def test_json_output_carries_metadata(self, capsys) -> None:
        code, out, _ = run_cli(
            capsys,
            "table",
            "--space", OH_JSON,
            "--n", "16,64,256",
            "--out", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["tool"] == "osinv"
        assert doc["meta"]["version"] == osinv.__version__
        assert doc["meta"]["space"]["kind"] == "oh"
        assert doc["meta"]["n_grid"] == [16, 64, 256]
        assert [row["n"] for row in doc["rows"]] == [16, 64, 256]
        assert set(doc["slopes"]) == {"phi_c", "phi_r", "ex", "proj", "pi1"}

    def test_out_path_writes_the_same_bytes(self, capsys, tmp_path) -> None:
        _, streamed, _ = run_cli(
            capsys, "table", "--space", OH_JSON, "--n", "16,64,256"
        )
        path = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys,
            "table",
            "--space", OH_JSON,
            "--n", "16,64,256",
            "--out-path", str(path),
        )
        assert code == 0 and out == ""
        assert path.read_text() == streamed


class TestInputOutputErrorsExitThree:
    """File and decoding failures are config errors: one line, exit 3."""

    def _assert_one_error_line(self, code: int, out: str, err: str) -> None:
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_out_path_in_a_missing_directory(self, capsys, tmp_path) -> None:
        path = tmp_path / "missing" / "table.csv"
        code, out, err = run_cli(
            capsys, "table", "--space", OH_JSON, "--n", "16,64,256",
            "--out-path", str(path),
        )
        self._assert_one_error_line(code, out, err)
        assert "cannot write output file" in err
        assert "No such file or directory" in err
        assert not path.parent.exists()

    def test_out_path_that_is_a_directory(self, capsys, tmp_path) -> None:
        code, out, err = run_cli(
            capsys, "fit", "--space", OH_JSON, "--n", "16,64,256",
            "--out-path", str(tmp_path),
        )
        self._assert_one_error_line(code, out, err)
        assert "cannot write output file" in err
        assert "Is a directory" in err

    def test_descriptor_file_that_is_not_utf8(self, capsys, tmp_path) -> None:
        path = tmp_path / "space.json"
        path.write_bytes(b'{"kind":"oh","label":"\xff"}')
        code, out, err = run_cli(
            capsys, "pi1", "--domain", str(path), "--codomain", OH_JSON,
            "--n", "16,64,256",
        )
        self._assert_one_error_line(code, out, err)
        assert "is not UTF-8 text" in err

    def test_descriptor_nested_too_deeply(self, capsys) -> None:
        depth = 100_000
        text = '{"kind":"oh","x":' + "[" * depth + "]" * depth + "}"
        code, out, err = run_cli(
            capsys, "table", "--space", text, "--n", "16,64,256"
        )
        self._assert_one_error_line(code, out, err)
        assert "nested too deeply" in err
        assert len(err) < 200

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--space", "space\0.json", "--n", "16,64,256"),
            ("table", "--space", OH_JSON, "--n", "16,64,256",
             "--out-path", "table\0.csv"),
        ],
    )
    def test_path_with_a_nul_byte(self, capsys, argv) -> None:
        code, out, err = run_cli(capsys, *argv)
        self._assert_one_error_line(code, out, err)
        assert "embedded null byte" in err

    def test_module_entry_exits_three(self, tmp_path) -> None:
        proc = subprocess.run(
            [sys.executable, "-m", "osinv.cli", "table", "--space", OH_JSON,
             "--n", "16,64,256", "--out-path", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: cannot write output file")
        assert proc.stderr.count("\n") == 1


class TestParserCache:
    """One parser per process; each call parses as a fresh one would."""

    RUN = (
        ("table", "--space", OH_JSON, "--n", "16,64,256"),
        ("table", "--space", OH_JSON),
        ("--version",),
        ("verify", "--suite", "bogus"),
        ("fit", "--space", OH_JSON, "--n", "16,64,256", "--out", "json"),
    )

    def test_one_parser_serves_a_run_of_calls(self, capsys) -> None:
        fresh = []
        for argv in self.RUN:
            cli._build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        cli._build_parser.cache_clear()
        cached = [run_cli(capsys, *argv) for argv in self.RUN]
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(self.RUN) - 1)
        assert cached == fresh
        assert [code for code, _, _ in cached] == [0, 2, 0, 2, 0]
        assert "required: --n" in cached[1][2]
        assert cached[2][1] == f"osinv {osinv.__version__}\n"
        assert "invalid choice: 'bogus'" in cached[3][2]

    def test_help_width_follows_columns_after_the_first_call(
        self, capsys, monkeypatch
    ) -> None:
        monkeypatch.setenv("COLUMNS", "200")
        cli._build_parser.cache_clear()
        run_cli(capsys, "fit", "--space", OH_JSON, "--n", "16,64,256")
        helps = {}
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            helps[columns] = run_cli(capsys, "table", "--help")
            cli._build_parser.cache_clear()
            assert run_cli(capsys, "table", "--help") == helps[columns]
        assert cli._build_parser.cache_info().currsize == 1
        assert helps["40"] != helps["200"]
        assert max(len(line) for line in helps["40"][1].splitlines()) <= 40
        assert helps["40"][0] == helps["200"][0] == 0

    def test_import_does_not_build_the_parser(self) -> None:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import osinv.cli as c; print(c._build_parser.cache_info())"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "currsize=0" in proc.stdout


class TestPi1Command:
    def test_pair_breakdown_and_slope(self, capsys) -> None:
        code, out, _ = run_cli(
            capsys,
            "pi1",
            "--domain", '{"kind":"column_p","p":2}',
            "--codomain", '{"kind":"column_p","p":4}',
            "--n", "geometric:16:65536:5",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == (
            "n,pi1,lambda1_mp,lambda1_pm,lambda2_mp,lambda2_pm,"
            "lambda3_mp,lambda3_pm,s_break,t_break"
        )
        footer = lines[-1].split(",")
        assert footer[0] == "slope"
        assert float(footer[1]) == pytest.approx(0.625, abs=0.03)
        row = next(
            line.split(",") for line in lines[2:] if line.startswith("1024,")
        )
        assert float(row[-2]) == pytest.approx(32.0, rel=1e-9)
        assert float(row[-1]) == pytest.approx(1024.0**0.25, rel=1e-9)
        assert all(float(v) > 0.0 for v in row[1:])

    def test_identical_flags_are_byte_identical(self, capsys) -> None:
        argv = (
            "pi1",
            "--domain", OH_JSON,
            "--codomain", OH_JSON,
            "--n", "16,64,256",
        )
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_missing_codomain_is_a_usage_error(self) -> None:
        with pytest.raises(SystemExit):
            main(["pi1", "--domain", OH_JSON, "--n", "16,64,256"])


class TestFitCommand:
    def test_reports_the_three_exponents(self, capsys) -> None:
        code, out, _ = run_cli(
            capsys, "fit", "--space", OH_JSON, "--n", NINE_POINT_GRID
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "quantity,slope,r_squared"
        rows = {f.split(",")[0]: f.split(",")[1:] for f in lines[2:]}
        assert set(rows) == {"ex", "proj", "pi1"}
        assert float(rows["ex"][0]) == pytest.approx(0.25, abs=0.01)
        assert all(float(v[1]) >= 0.99 for v in rows.values())


class TestVerifyCommand:
    def test_growth_suite_passes(self, capsys) -> None:
        code, out, _ = run_cli(capsys, "verify", "--suite", "growth")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("pass") for line in lines[:-1])
        assert lines[-1] == "3 passed, 0 failed"

    def test_all_suites_pass(self, capsys) -> None:
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "11 passed, 0 failed"
        assert any("oracle.indicator-argmin" in line for line in lines)
        assert any("growth.tail-growth-identity" in line for line in lines)

    def test_failing_check_exits_one(self, capsys, monkeypatch) -> None:
        monkeypatch.setattr(
            "osinv.verify._CHECKS",
            (("oracle", "doomed", lambda: (False, "measured 9 > 1")),),
        )
        code, out, _ = run_cli(capsys, "verify", "--suite", "oracle")
        assert code == 1
        assert "fail" in out and "0 passed, 1 failed" in out

    def test_crashing_check_is_reported_not_raised(
        self, capsys, monkeypatch
    ) -> None:
        def boom() -> tuple[bool, str]:
            raise ValueError("exploded")

        monkeypatch.setattr(
            "osinv.verify._CHECKS", (("oracle", "crash", boom),)
        )
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "raised ValueError" in out

    def test_unknown_suite_is_a_usage_error(self) -> None:
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "bogus"])

    def test_timings_go_to_stderr_only(self, capsys) -> None:
        code, plain_out, plain_err = run_cli(
            capsys, "verify", "--suite", "growth"
        )
        timed_code, out, err = run_cli(
            capsys, "verify", "--suite", "growth", "--timings"
        )
        assert code == timed_code == 0
        assert plain_err == ""
        assert out == plain_out
        lines = err.splitlines()
        assert [line.split()[0] for line in lines] == [
            "growth.power-law-growth",
            "growth.tail-growth-identity",
            "growth.weight-recovery",
        ]
        assert all(
            len(line.split()) == 2 and float(line.split()[1]) >= 0.0
            for line in lines
        )


class TestRunSuite:
    def test_suite_filter(self) -> None:
        results = run_suite("orlicz")
        assert {r.suite for r in results} == {"orlicz"}
        assert all(r.passed for r in results)

    def test_unknown_suite_rejected(self) -> None:
        with pytest.raises(BadParameter):
            run_suite("bogus")


class TestConsoleScript:
    def test_module_entry_reports_version(self) -> None:
        proc = subprocess.run(
            [sys.executable, "-m", "osinv.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"osinv {osinv.__version__}"

    def test_declared_script_target_reports_version(self, capsys) -> None:
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"osinv": "osinv.cli:main"}
        module_name, _, attr = scripts["osinv"].partition(":")
        entry = getattr(importlib.import_module(module_name), attr)
        with pytest.raises(SystemExit) as exc:
            entry(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"osinv {osinv.__version__}"

    def test_declared_numpy_floor_has_trapezoid(self) -> None:
        # oracle.riemann_integral calls np.trapezoid, added in numpy 2.0;
        # tests/test_growth.py takes its reference integrals from mpmath.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            project = tomllib.load(fh)["project"]
        deps = project["dependencies"]
        floors = [d.replace(" ", "") for d in deps if d.startswith("numpy")]
        assert floors == ["numpy>=2.0"]
        test_extra = project["optional-dependencies"]["test"]
        assert "mpmath" in {
            d.split(">")[0].split("=")[0].strip() for d in test_extra
        }

    @pytest.mark.skipif(
        shutil.which("osinv") is None,
        reason="no `osinv` console script on PATH (package not installed)",
    )
    def test_installed_script_reports_version(self) -> None:
        proc = subprocess.run(
            ["osinv", "--version"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"osinv {osinv.__version__}"
