"""Command-line interface: parsing, formats, exit codes, determinism."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmeanrep.cli import (
    EXIT_CONFIG,
    EXIT_CUT,
    EXIT_OK,
    EXIT_OUTPUT,
    EXIT_QUAD,
    EXIT_VERIFY,
    cfmt,
    main,
    parse_complex,
    parse_sequence,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    @pytest.mark.parametrize(
        "text,expect",
        [
            ("0", 0j),
            ("2+3i", 2 + 3j),
            ("-1.5", -1.5 + 0j),
            ("1e-3i", 1e-3j),
            ("i", 1j),
            ("-i", -1j),
            ("2-i", 2 - 1j),
            ("+1-2i", 1 - 2j),
            ("1e+2i", 100j),
            ("2.5+0.5j", 2.5 + 0.5j),
        ],
    )
    def test_parse_complex(self, text, expect):
        assert parse_complex(text) == expect

    @pytest.mark.parametrize("bad", ["abc", "2+", "1+2", "inf", "nan", ""])
    def test_parse_complex_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_complex(bad)

    @given(st.floats(-1e12, 1e12), st.floats(-1e12, 1e12))
    @settings(max_examples=50, derandomize=True)
    def test_complex_round_trip(self, re, im):
        z = complex(re, im)
        assert parse_complex(cfmt(z)) == z

    def test_parse_sequence_sorts(self):
        assert parse_sequence("3,1,2").values == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize("bad", ["", "1,,2", "0,1", "-1,2", "a,b"])
    def test_parse_sequence_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_sequence(bad)


class TestEval:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "eval", "--a", "1,2", "--z", "0")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["direct_value"]["re"] == pytest.approx(math.sqrt(2), abs=1e-8)
        assert doc["repr_value"]["re"] == pytest.approx(math.sqrt(2), abs=1e-9)
        assert doc["abs_error"] <= 1e-9
        assert doc["segments_evaluated"] == 1

    def test_detail_includes_remainder(self, capsys):
        code, out, _ = run(capsys, "eval", "--a", "1,2,3", "--z", "1+1i", "--detail")
        doc = json.loads(out)
        assert len(doc["remainder"]["per_segment"]) == 2

    def test_constant_sequence(self, capsys):
        code, out, _ = run(capsys, "eval", "--a", "5,5,5", "--z", "1+1i")
        doc = json.loads(out)
        assert doc["repr_value"] == {"re": 6.0, "im": 1.0}
        assert doc["abs_error"] <= 1e-14

    def test_cut_violation_names_cut(self, capsys):
        code, _, err = run(capsys, "eval", "--a", "1,2", "--z=-1.5")
        assert code == EXIT_CUT
        assert "(-inf, -1.0]" in err

    def test_quadrature_failure_exit(self, capsys):
        code, _, err = run(
            capsys, "eval", "--a", "1,2", "--z", "0.5", "--abs-tol", "1e-30", "--rel-tol", "1e-30"
        )
        assert code == EXIT_QUAD

    def test_missing_argument_is_config_error(self, capsys):
        assert run(capsys, "eval", "--a", "1,2")[0] == EXIT_CONFIG

    def test_bad_sequence_is_config_error(self, capsys):
        assert run(capsys, "eval", "--a", "0,1", "--z", "1")[0] == EXIT_CONFIG

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "eval", "--a", "1,2", "--z", "0", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "direct_re,direct_im,repr_re,repr_im,abs_error,quad_error_estimate,segments_evaluated"
        assert len(lines) == 2

    def test_table_format(self, capsys):
        _, out, _ = run(capsys, "eval", "--a", "1,2", "--z", "i", "--format", "table")
        assert "direct_value" in out and "i" in out


class TestDensity:
    def test_constant_header_only(self, capsys):
        code, out, _ = run(capsys, "density", "--a", "7,7")
        assert code == EXIT_OK
        assert out == "t,closed,numeric_eps,segment\n"

    def test_limit_table(self, capsys):
        _, out, _ = run(capsys, "density", "--a", "1,2,3", "--points", "3")
        lines = out.splitlines()
        assert lines[0] == "t,closed,numeric_eps,segment"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3 * 2 + 3  # interior points per gap + tail rows
        for t, closed, numeric, seg in rows:
            if seg != "0":
                assert abs(float(closed) - float(numeric)) <= 1e-3
        assert all(r[3] == "0" for r in rows[-3:])
        assert all(float(r[1]) == 0.0 for r in rows[-3:])

    def test_segment_samples(self, capsys):
        _, out, _ = run(capsys, "density", "--a", "1,2", "--kind", "segments", "--points", "3")
        lines = out.splitlines()
        assert lines[0] == "t,density,weighted_density,segment_index"
        assert len(lines) == 4


class TestGap:
    def test_two_entry_gap(self, capsys):
        code, out, _ = run(capsys, "gap", "--a", "1,2")
        lines = out.splitlines()
        assert lines[0] == "a,A,G,gap_direct,gap_repr"
        fields = next(__import__("csv").reader([lines[1]]))
        assert fields[0] == "1.0,2.0"
        gap_direct, gap_repr = float(fields[3]), float(fields[4])
        assert gap_direct == pytest.approx(1.5 - math.sqrt(2), abs=1e-12)
        assert abs(gap_direct - gap_repr) <= 1e-9


class TestContour:
    def test_csv_pieces(self, capsys):
        code, out, _ = run(capsys, "contour", "--a", "1,2", "--z", "1")
        lines = out.splitlines()
        assert lines[0] == "piece,re,im"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["small_arc", "outer_arc", "upper_line", "lower_line", "total"]
        total_re = float(lines[-1].split(",")[1])
        assert total_re == pytest.approx(math.sqrt(2) - 1, abs=1e-3)

    def test_json_format(self, capsys):
        _, out, _ = run(capsys, "contour", "--a", "1,2", "--z", "1", "--format", "json")
        doc = json.loads(out)
        assert set(doc) == {"small_arc", "outer_arc", "upper_line", "lower_line", "total"}

    def test_geometry_error_is_config_error(self, capsys):
        assert run(capsys, "contour", "--a", "1,2", "--z", "1e-9")[0] == EXIT_CONFIG


class TestSweep:
    def test_default_grid_accuracy(self, capsys):
        # default 20x20 grid on [-0.9, 5] x [-3, 3]; the cut sits left of it
        code, out, _ = run(capsys, "sweep", "--a", "1,2,3")
        lines = out.splitlines()
        assert lines[0] == "re_z,im_z,abs_error,quad_error"
        assert len(lines) == 1 + 400
        for line in lines[1:]:
            re_z, im_z, abs_err, quad_err = map(float, line.split(","))
            assert abs_err <= 1e-8

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, "sweep", "--a", "1,2", "--grid", "4")
        _, out2, _ = run(capsys, "sweep", "--a", "1,2", "--grid", "4")
        assert out1 == out2


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code, out, err = run(capsys, "verify", "--seed", "7", "--cases", "2")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["passed"] is True
        assert {s["suite"] for s in doc["suites"]} >= {
            "representation-equivalence",
            "am-gm-gap",
            "quad-error-honesty",
            "contour-reconstruction",
        }
        assert "wall_time" not in out  # reports stay byte-comparable
        assert "max_err" in err  # progress goes to stderr

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, "verify", "--seed", "7", "--cases", "2")
        _, out2, _ = run(capsys, "verify", "--seed", "7", "--cases", "2")
        assert out1 == out2

    def test_pinned_constant_sequence(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "42", "--cases", "1", "--a", "5,5,5")
        assert code == EXIT_OK
        doc = json.loads(out)
        gap = next(s for s in doc["suites"] if s["suite"] == "am-gm-gap")
        assert gap["max_error"] <= 1e-12

    def test_fault_injection_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "7", "--cases", "2", "--perturb-density", "1e-3")
        assert code == EXIT_VERIFY
        doc = json.loads(out)
        bad = next(s for s in doc["suites"] if s["suite"] == "representation-equivalence")
        assert bad["failures"]

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "7", "--cases", "1", "--format", "table")
        assert "overall: pass" in out

    def test_no_tolerance_flags(self, capsys):
        # suites use one quadrature configuration; no flag moves their bounds
        for flag in ("--abs-tol", "--rel-tol"):
            code, _, _ = run(capsys, "verify", "--cases", "1", flag, "1e-6")
            assert code == EXIT_CONFIG


class TestOutput:
    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "gap.csv"
        code, out, _ = run(capsys, "gap", "--a", "1,2", "--out", str(target))
        assert code == EXIT_OK and out == ""
        assert target.read_text().startswith("a,A,G,")

    def test_unwritable_path(self, capsys):
        code, _, err = run(capsys, "gap", "--a", "1,2", "--out", "/nonexistent-dir/x.csv")
        assert code == EXIT_OUTPUT

    def test_out_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GMEANREP_OUT_DIR", str(tmp_path))
        code, _, _ = run(capsys, "gap", "--a", "1,2", "--out", "relative.csv")
        assert code == EXIT_OK
        assert (tmp_path / "relative.csv").exists()

    def test_absolute_path_ignores_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GMEANREP_OUT_DIR", "/nonexistent-dir")
        target = tmp_path / "abs.csv"
        code, _, _ = run(capsys, "gap", "--a", "1,2", "--out", str(target))
        assert code == EXIT_OK and target.exists()
