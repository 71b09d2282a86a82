import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from nilcohom.cli import main

DATA = Path(__file__).parent / "data"
SCHEMA = json.loads(
    resources.files("nilcohom").joinpath("run_report_schema.json").read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return report


class TestCohomologyCommand:
    def test_builtin_x5(self, capsys):
        report = run_json(capsys, "cohomology", "--builtin", "xr:5")
        assert report["outputs"]["betti"]["total"] == 26

    def test_builtin_torus(self, capsys):
        report = run_json(capsys, "cohomology", "--builtin", "torus:3")
        assert report["outputs"]["betti"]["per_degree"] == [1, 3, 3, 1]

    def test_builtin_upper_tri(self, capsys):
        report = run_json(capsys, "cohomology", "--builtin", "upper-tri:4")
        assert report["outputs"]["betti"]["total"] == 24

    def test_representatives_flag(self, capsys):
        report = run_json(capsys, "cohomology", "--builtin", "xr:2", "--representatives")
        reps = report["outputs"]["representatives"]
        assert reps["0"] == ["1"]
        assert sorted(reps["1"]) == ["a", "b"]

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "circle.cdga"
        path.write_text("algebra circle\ngen a : 1\nd a = 0\n")
        report = run_json(capsys, "cohomology", str(path))
        assert report["outputs"]["betti"]["per_degree"] == [1, 1]

    def test_model_file_not_utf8_exits_2(self, capsys, tmp_path):
        path = tmp_path / "latin1.cdga"
        path.write_bytes("algebra circle\n# \u00e9\ngen a : 1\nd a = 0\n".encode("latin-1"))
        code, out, err = run_cli(capsys, "cohomology", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")

    def test_parse_failure_exits_2_with_stderr_diagnostics(self, capsys, tmp_path):
        path = tmp_path / "broken.cdga"
        path.write_text("algebra broken\ngen a : 1\nd a = q\n")
        code, out, err = run_cli(capsys, "cohomology", str(path))
        assert code == 2
        assert "unknown-generator" in err

    def test_validation_failure_exits_2(self, capsys, tmp_path):
        path = tmp_path / "invalid.cdga"
        path.write_text(
            "algebra invalid\ngen u : 2\ngen a : 1\ngen v : 2\n"
            "d u = 0\nd a = u\nd v = u*a\n"
        )
        code, out, err = run_cli(capsys, "cohomology", str(path))
        assert code == 2
        assert "d-squared" in err

    def test_generator_ceiling(self, capsys):
        code, out, err = run_cli(capsys, "cohomology", "--builtin", "xr-product:9,9,9")
        assert code == 2
        assert "ceiling" in err or "--unsafe-large" in err

    def test_usage_error_on_unknown_builtin(self, capsys):
        code, out, err = run_cli(capsys, "cohomology", "--builtin", "nope:3")
        assert code == 2

    @pytest.mark.parametrize("spec", ["twist-xr:0", "twist-xr:-2"])
    def test_twist_without_a_chain_generator_exits_2(self, capsys, spec):
        # X_0 has no x0 to twist, and X_-2 does not exist: usage errors, not failed checks.
        code, out, err = run_cli(capsys, "cohomology", "--builtin", spec)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_csv_format(self, capsys):
        code, out, err = run_cli(
            capsys, "cohomology", "--builtin", "torus:2", "--format", "csv"
        )
        assert code == 0
        assert out == "degree,dimension\r\n0,1\r\n1,2\r\n2,1\r\ntotal,4\r\n"

    def test_truncate_window_on_odd_model(self, capsys):
        report = run_json(
            capsys, "cohomology", "--builtin", "xr:5", "--truncate", "4"
        )
        table = report["outputs"]["betti"]
        assert table["per_degree"] == [1, 2, 4, 6]
        assert table["truncated_at"] == 4

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_truncate_keeps_the_orbit_ranking_of_u_n(self, capsys, monkeypatch, jobs):
        # The anti-transpose of u_6 keeps degrees, so the truncated rebuild
        # carries it: checked once, then one weight block per orbit.
        from nilcohom import cohomology
        from nilcohom.cdga import CDGA

        checks = []
        real_check, real_costs = CDGA._check_symmetry, cohomology._weight_costs
        monkeypatch.setattr(CDGA, "_check_symmetry", lambda cdga: checks.append(real_check(cdga)))
        mirrored = []

        def costs(cdga, degrees):
            found = real_costs(cdga, degrees)
            mirrored.append(sorted(1 + (w != image) for w, (_, image) in found.items()))
            return found

        monkeypatch.setattr(cohomology, "_weight_costs", costs)
        report = run_json(
            capsys, "cohomology", "--builtin", "upper-tri:6", "--truncate", "7", "--jobs", jobs
        )
        assert report["outputs"]["betti"]["per_degree"] == [1, 5, 14, 29, 49, 71, 90]
        assert len(checks) == 1
        if jobs == "1":
            assert len(mirrored) == 1 and 1 in mirrored[0] and 2 in mirrored[0]

    def test_a_doubled_weight_in_two_rank_workers_exits_3(self, capsys, monkeypatch):
        from nilcohom import cohomology

        real = cohomology._shares

        def doubling(cost, workers):
            shares = real(cost, workers)
            shares[1].append(shares[0][0])
            return shares

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(cohomology, "_shares", doubling)
        code, out, err = run_cli(capsys, "cohomology", "--builtin", "upper-tri:6", "--jobs", "2")
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("internal consistency error: ") and "monomials of degree" in err

    def test_a_dropped_representative_in_one_process_exits_3(self, capsys, monkeypatch):
        from nilcohom import cohomology

        real = cohomology._weight_costs

        def dropping(cdga, degrees):
            costs = real(cdga, degrees)
            del costs[max(costs, key=lambda w: costs[w][0])]
            return costs

        monkeypatch.setattr(cohomology, "_weight_costs", dropping)
        code, out, err = run_cli(capsys, "cohomology", "--builtin", "upper-tri:6", "--jobs", "1")
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("internal consistency error: ") and "monomials of degree" in err

    def test_an_exponent_past_the_key_limit_exits_2(self, capsys, monkeypatch, tmp_path):
        # The text format has no power syntax, so the limit is lowered to 4
        # for the file to reach it: d y = t^5 then has no monomial key.
        from nilcohom import algebra

        path = tmp_path / "power.cdga"
        path.write_text("algebra power\ngen t : 2\ngen y : 9\nd t = 0\nd y = t*t*t*t*t\n")
        assert run_json(capsys, "cohomology", str(path))["outputs"]["name"] == "power"
        monkeypatch.setattr(algebra, "_EXPONENT_LIMIT", 4)
        code, out, err = run_cli(capsys, "cohomology", str(path))
        assert code == 2
        assert out == ""
        assert err == "1:1: differential: term t^5: exponent 5 is not below 4\n"

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_truncate_below_one_exits_2(self, capsys, value):
        code, out, err = run_cli(
            capsys, "cohomology", "--builtin", "xr:3", "--truncate", value
        )
        assert code == 2
        assert out == ""
        assert "truncation must be >= 1" in err

    def test_md_format(self, capsys):
        code, out, err = run_cli(
            capsys, "cohomology", "--builtin", "torus:1", "--format", "md"
        )
        assert code == 0
        assert out.splitlines()[0] == "| degree | dimension |"


class TestTable1Command:
    def test_rows_and_discrepancy_note(self, capsys):
        report = run_json(capsys, "table1")
        rows = {row["r"]: row for row in report["outputs"]["rows"]}
        assert rows[7]["power"] == 128 and rows[7]["total"] == 64
        assert rows[9]["power"] == 512 and rows[9]["total"] == 180
        for r in range(1, 5):
            assert rows[r]["power"] <= rows[r]["total"]
        for r in range(5, 10):
            assert rows[r]["total"] < rows[r]["power"]
        note = report["outputs"]["r0_discrepancy"]
        assert note["computed_total"] == 4 and note["tabulated_total"] == 3

    def test_max_r_limits_rows(self, capsys):
        report = run_json(capsys, "table1", "--max-r", "3")
        assert [row["r"] for row in report["outputs"]["rows"]] == [1, 2, 3]


class TestTrcCommand:
    def test_certificate_49_26(self, capsys):
        report = run_json(capsys, "trc", "--n", "49", "--k", "26")
        cert = report["outputs"]["certificate"]
        assert cert["inequality_holds"] is True
        assert cert["stirling_threshold_holds"] is False
        assert cert["d_nk"] == 300

    def test_scan_min(self, capsys):
        report = run_json(capsys, "trc", "--scan-min", "--max-n", "40")
        assert report["outputs"]["scan"]["minimal_n"] == 26

    def test_xr_certificate(self, capsys):
        report = run_json(capsys, "trc", "--xr", "5")
        assert report["outputs"]["xr_certificate"]["verdict"] is True

    def test_product_certificate(self, capsys):
        report = run_json(capsys, "trc", "--product", "5,5")
        cert = report["outputs"]["xr_certificate"]
        assert cert["total_betti"] == 676 and cert["verdict"] is True

    def test_five_factor_product_certificate(self, capsys):
        report = run_json(capsys, "trc", "--product", "5,5,5,5,5")
        cert = report["outputs"]["xr_certificate"]
        assert cert["fiber_rank"] == 25
        assert cert["total_betti"] == 11881376
        assert cert["power"] == "33554432"
        assert cert["verdict"] is True
        assert cert["factors"] == [5, 5, 5, 5, 5]

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "product",
        [",".join(["9"] * 1600), ",".join(["0"] * 7200)],
        ids=["power-2^14400", "total-4^7200"],
    )
    def test_unrenderable_product_exits_2(self, capsys, product, fmt):
        code, out, err = run_cli(capsys, "trc", "--product", product, "--format", fmt)
        assert code == 2
        assert out == ""
        assert "Exceeds the limit" in err
        assert "Traceback" not in err

    def test_product_ranks_each_distinct_factor_once(self, capsys, monkeypatch):
        from nilcohom import trc

        seen = []
        real_betti = trc.betti

        def recording_betti(model, jobs=None):
            seen.append(model.name)
            return real_betti(model, jobs=jobs)

        monkeypatch.setattr(trc, "betti", recording_betti)
        report = run_json(capsys, "trc", "--product", "5,3,5,5,3")
        assert sorted(seen) == ["xr3", "xr5"]
        assert report["outputs"]["xr_certificate"]["total_betti"] == 26**3 * 12**2

    @pytest.mark.parametrize("product", ["5", "10,1"])
    def test_product_argument_checks_exit_2(self, capsys, product):
        code, out, err = run_cli(capsys, "trc", "--product", product)
        assert code == 2
        assert out == ""

    def test_ratio_range(self, capsys):
        report = run_json(capsys, "trc", "--ratio-range", "5", "6")
        decimals = [e["ratio_decimal"] for e in report["outputs"]["ratio_table"]]
        assert decimals == ["15", "11.25"]

    def test_mutually_exclusive_modes(self, capsys):
        code, out, err = run_cli(capsys, "trc", "--n", "5", "--k", "4", "--scan-min")
        assert code == 2

    def test_out_of_range_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "trc", "--n", "5", "--k", "9")
        assert code == 2


class TestSplitCommand:
    def test_abelian_split(self, capsys):
        report = run_json(capsys, "split", "--n", "5", "--k", "4", "--fiber-betti")
        out = report["outputs"]
        assert out["fiber_differential_zero"] is True
        assert out["d_nk"] == 3
        assert out["fiber_betti"]["total"] == 8

    def test_non_abelian_split_witness(self, capsys):
        report = run_json(capsys, "split", "--n", "5", "--k", "3")
        out = report["outputs"]
        assert out["fiber_differential_zero"] is False
        assert out["fiber_differential_witness"]["generator"] == "x_5_1"

    def test_large_n_summary_without_betti(self, capsys):
        report = run_json(capsys, "split", "--n", "8", "--k", "5")
        assert report["outputs"]["d_nk"] == 10
        assert report["outputs"]["total_generators"] == 28


class TestObstructionCommand:
    def test_x5_rank_2_forcing(self, capsys):
        report = run_json(capsys, "obstruction", "--builtin", "xr:5", "--rank", "2")
        out = report["outputs"]["obstruction"]
        forced_gens = {g for g, _ in out["forced_zero"]}
        assert forced_gens == {"a", "b", "x1", "x2", "x3", "x4"}
        assert out["solution_dimension"] == 2


class TestCenterCommand:
    def test_u6(self, capsys):
        report = run_json(capsys, "center", "--builtin", "upper-tri-lie:6")
        assert report["outputs"]["center"] == {"dimension": 1, "basis": ["X_6_1"]}

    def test_xr_dual(self, capsys):
        report = run_json(capsys, "center", "--builtin", "xr-dual:7")
        assert report["outputs"]["center"]["basis"] == ["X7"]

    def test_lie_file(self, capsys, tmp_path):
        path = tmp_path / "heis.cdga"
        path.write_text("lie heis\nbasis X Y Z\nbracket X Y = Z\n")
        report = run_json(capsys, "center", str(path))
        assert report["outputs"]["center"] == {"dimension": 1, "basis": ["Z"]}

    def test_cdga_builtin_rejected(self, capsys):
        code, out, err = run_cli(capsys, "center", "--builtin", "xr:5")
        assert code == 2

    def test_jacobi_failure_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.cdga"
        path.write_text("lie broken\nbasis E1 E2 E3\nbracket E1 E2 = E3\nbracket E1 E3 = E1\n")
        code, out, err = run_cli(capsys, "center", str(path))
        assert code == 2
        assert out == ""
        assert ": jacobi: Jacobi fails on triple ('E1', 'E2', 'E3')" in err
        assert "Traceback" not in err


class TestShiftCommand:
    def test_totals_agree(self, capsys):
        report = run_json(capsys, "shift", "--n", "4", "--kappa", "1")
        out = report["outputs"]
        assert out["totals_equal"] is True
        assert out["original_betti"]["total"] == out["shifted_betti"]["total"] == 24


class TestVerifyCommand:
    def test_reference_classes_pass(self, capsys):
        report = run_json(
            capsys,
            "verify",
            "--builtin",
            "xr:5",
            "--classes",
            str(DATA / "x5_classes.txt"),
        )
        assert report["outputs"]["ok"] is True
        assert report["outputs"]["count"] == 26

    def test_dependent_classes_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a\n2 * a\n")
        code, out, err = run_cli(
            capsys, "verify", "--builtin", "xr:5", "--classes", str(path)
        )
        assert code == 1
        report = json.loads(out)
        assert report["outputs"]["verdict"]["independent"] is False

    def test_class_list_not_spanning_degree_2_exit_1(self, capsys, tmp_path):
        # b*x1 + a*b is cohomologous to b*x1 (a*b = d x1), so this list
        # repeats a class and misses one in degree 2.
        text = (DATA / "x5_classes.txt").read_text()
        assert "x1*x2 - b*x3\n" in text
        path = tmp_path / "classes.txt"
        path.write_text(text.replace("x1*x2 - b*x3\n", "b*x1 + a*b\n"))
        code, out, err = run_cli(
            capsys, "verify", "--builtin", "xr:5", "--classes", str(path)
        )
        assert code == 1
        verdict = json.loads(out)["outputs"]["verdict"]
        assert verdict["independent"] is False
        assert verdict["dependency"] is not None
        assert 2 in [m["degree"] for m in verdict["missing_degrees"]]

    @pytest.mark.parametrize("line", ["a + a*b", "0"])
    def test_inhomogeneous_or_zero_class_exits_2(self, capsys, tmp_path, line):
        path = tmp_path / "classes.txt"
        path.write_text(line + "\n")
        code, out, err = run_cli(
            capsys, "verify", "--builtin", "xr:5", "--classes", str(path)
        )
        assert code == 2
        assert out == ""
        assert err == "error: element 0 is not homogeneous\n"

    def test_classes_file_not_utf8_exits_2(self, capsys, tmp_path):
        path = tmp_path / "classes.txt"
        path.write_bytes(b"a\n\xff\xfe b\n")
        code, out, err = run_cli(
            capsys, "verify", "--builtin", "xr:5", "--classes", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("jobs", [None, "1", "3"])
    def test_jobs_reach_betti(self, capsys, monkeypatch, jobs):
        from nilcohom import cli

        seen = []
        real_betti = cli.betti

        def recording_betti(model, jobs=None):
            seen.append(jobs)
            return real_betti(model, jobs=jobs)

        monkeypatch.setattr(cli, "betti", recording_betti)
        argv = ["verify", "--builtin", "xr:5", "--classes", str(DATA / "x5_classes.txt")]
        if jobs is not None:
            argv += ["--jobs", jobs]
        report = run_json(capsys, *argv)
        assert report["outputs"]["ok"] is True
        default = cli.build_parser().parse_args(argv[:5]).jobs
        assert seen == [default if jobs is None else int(jobs)]


class TestReportEnvelope:
    def test_schema_fields_present(self, capsys):
        report = run_json(capsys, "trc", "--n", "5", "--k", "4")
        assert report["schema_version"] == "1"
        assert report["engine_version"]
        assert report["wall_time_seconds"] >= 0

    def test_byte_stable_modulo_wall_time(self, capsys):
        first = run_json(capsys, "table1", "--max-r", "4")
        second = run_json(capsys, "table1", "--max-r", "4")
        for report in (first, second):
            report["wall_time_seconds"] = 0.0
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_format_env_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("NILCOHOM_FORMAT", "csv")
        code, out, err = run_cli(capsys, "cohomology", "--builtin", "torus:1")
        assert code == 0
        assert out.startswith("degree,dimension")

    def test_format_env_variable_outside_the_choices_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("NILCOHOM_FORMAT", "xml")
        code, out, err = run_cli(capsys, "cohomology", "--builtin", "torus:1")
        assert code == 2
        assert out == ""
        assert err == "error: NILCOHOM_FORMAT='xml' is not one of json, csv, md\n"
        # An explicit --format still wins over the variable.
        code, out, err = run_cli(capsys, "cohomology", "--builtin", "torus:1", "--format", "csv")
        assert code == 0
        assert out.startswith("degree,dimension")

    def test_jobs_flag_does_not_change_results(self, capsys):
        one = run_json(capsys, "cohomology", "--builtin", "xr:6", "--jobs", "1")
        four = run_json(capsys, "cohomology", "--builtin", "xr:6", "--jobs", "4")
        assert one["outputs"] == four["outputs"]

    @pytest.mark.parametrize("subcommand", [("cohomology", "--builtin", "xr:3"), ("table1",)])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, capsys, subcommand, value):
        code, out, err = run_cli(capsys, *subcommand, "--jobs", value)
        assert code == 2
        assert out == ""
        assert "--jobs must be >= 1" in err


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nilcohom.cli", "trc", "--n", "5", "--k", "4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["outputs"]["certificate"]["inequality_holds"] is False

    def test_import_loads_no_pool_module(self):
        # The --jobs workers are plain os.fork children; no pool module is loaded.
        probe = (
            "import sys, nilcohom.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_missing_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nilcohom.cli"], capture_output=True, text=True
        )
        assert proc.returncode == 2
