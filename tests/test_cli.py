import argparse
import codecs
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy
import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from modxl import cli, sweep
from modxl.cli import CSV_HEADER, main
from modxl.errors import SweepPointError
from modxl.snr_models import QUADRATURE_AGREEMENT, SnrModel

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"


def run_fresh(*argv):
    """Run ``python -m modxl.cli`` in a fresh interpreter, so that numpy's
    RuntimeWarning text reaches stderr as it does for a user instead of
    pytest's capture."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "modxl.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def column(path, name):
    header, rows = read_rows(path)
    i = header.index(name)
    return [row[i] for row in rows]


class TestEval:
    def test_default_report(self, capsys):
        code, out = run_cli(capsys, "eval")
        assert code == 0
        payload = json.loads(out)
        assert payload["geometry"]["stride"] == 35.0
        assert payload["geometry"]["total_elements"] == 320
        assert payload["snr"]["snr_upw_db"] == pytest.approx(44.1701, abs=5e-4)
        assert payload["snr"]["snr_exact_db"] == pytest.approx(43.6789, abs=5e-4)
        assert "far_field_assumed" in payload["flags"]
        assert "snr_collocated_db" not in payload["snr"]
        assert "snr_asymptotic_db" in payload["snr"]

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli(capsys, "eval", "--out", str(target))
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["link"]["txsnr_db"] == pytest.approx(50.0, abs=1e-9)

    def test_single_element_models_coincide(self, capsys):
        code, out = run_cli(
            capsys, "eval", "--elements-per-module", "1", "--modules", "1",
            "--models", "exact,upw",
        )
        assert code == 0
        snr = json.loads(out)["snr"]
        assert snr["snr_exact_linear"] == snr["snr_upw_linear"]

    def test_endfire_flags_and_model_set(self, capsys):
        code, out = run_cli(capsys, "eval", "--theta-deg", "90")
        assert code == 0
        payload = json.loads(out)
        assert "theta_near_endfire" in payload["flags"]
        assert "snr_asymptotic_db" not in payload["snr"]

    def test_integral_sets_its_own_flag(self, capsys):
        # Once "flags": [] for an integral 11.7 times the exact sum; the flag
        # came only with the closed form.
        code, out = run_cli(
            capsys, "eval", "--range-m", "0.05", "--models", "exact,integral"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["flags"] == ["epsilon_not_small"]
        snr = payload["snr"]
        assert snr["snr_integral_linear"] > 10 * snr["snr_exact_linear"]

    def test_collocated_included_when_applicable(self, capsys):
        code, out = run_cli(capsys, "eval", "--separation-ratio", "1")
        assert code == 0
        assert "snr_collocated_db" in json.loads(out)["snr"]

    @pytest.mark.parametrize(
        "argv,code",
        [
            (("eval", "--models", "bogus"), 2),
            (("eval", "--models", ","), 2),
            (("eval", "--models", "collocated"), 2),
            (("eval", "--models", "asymptotic", "--theta-deg", "90"), 3),
            (("eval", "--modules", "0"), 2),
            (("eval", "--theta-deg", "91"), 2),
            (("eval", "--separation-ratio", "0.5"), 2),
            (("eval", "--range-m", "inf", "--models", "upw"), 2),
            # Once exit 3 with "closed form bracket is 0.000e+00".
            (("eval", "--range-m", "1e200", "--theta-deg", "-45",
              "--models", "closed"), 2),
            (("eval", "--txsnr-db", "4000"), 2),
            (("eval", "--range-m", "1e200"), 2),
            (("eval", "--txsnr-db", "nan", "--models", "exact"), 2),
            # Once exit 3 with "closed form bracket is nan".
            (("eval", "--range-m", "1e-170", "--models", "closed"), 2),
            # Once exit 3 with a bare "float division by zero".
            (("eval", "--range-m", "1e-320", "--theta-deg", "89.99",
              "--separation-ratio", "1", "--models", "collocated"), 2),
            # Each once exit 3 with "float division by zero".
            (("eval", "--frequency-ghz", "0"), 2),
            (("eval", "--frequency-ghz", "-0.0"), 2),
            (("eval", "--spacing-m", "0", "--separation-m", "1"), 2),
            (("eval", "--spacing-wl", "0", "--separation-m", "1"), 2),
            # Each once exit 3 with "float division by zero": a zero divisor
            # in a model's scale.
            (("eval", "--spacing-m", "1e-170", "--models", "closed"), 2),
            (("eval", "--spacing-m", "1e-170", "--models", "integral"), 2),
            (("eval", "--range-m", "5e-324", "--theta-deg", "89.99999",
              "--models", "asymptotic"), 2),
            # Once exit 3 with "closed_form model returned NaN": an infinite
            # prefactor times a bracket that underflowed to 0.
            (("eval", "--spacing-m", "1e-152", "--range-m", "1e12",
              "--txsnr-db", "60", "--models", "closed"), 2),
            # Once exit 0 with a sum 6.4 times that of 10**15 modules: centred
            # indices above 2**53 are not exact floats.
            (("eval", "--modules", "100000000000000000", "--range-m", "1",
              "--models", "exact"), 2),
        ],
    )
    def test_error_exit_codes(self, capsys, argv, code):
        assert main(list(argv)) == code
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv,name",
        [
            (("--frequency-ghz", "0"), "wavelength_m"),
            (("--spacing-m", "0", "--separation-m", "1"), "element_spacing"),
            (("--spacing-wl", "0", "--separation-m", "1"), "element_spacing"),
        ],
    )
    def test_zero_input_named(self, capsys, argv, name):
        assert main(["eval", *argv]) == 2
        assert capsys.readouterr().err == (
            f"modxl: error: {name} must be positive and finite\n"
        )

    def test_overflowing_input_named_as_out_of_range(self, capsys):
        assert main(["eval", "--txsnr-db", "4000"]) == 2
        assert "input value is out of range" in capsys.readouterr().err

    def test_overflowing_model_value_named_as_out_of_range(self, capsys):
        # The squared distance ratios overflow at 5e-155 m.
        assert main(["eval", "--range-m", "5e-155", "--models", "exact"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "modxl: error: an input value is out of range "
            "(floating-point overflow)\n"
        )

    @pytest.mark.parametrize("model", ["upw", "integral"])
    def test_underflowing_squared_range_named_as_out_of_range(self, capsys, model):
        # r**2 underflows to 0 at 1e-170 m: once a bare "float division by
        # zero" with exit 3.
        assert main(["eval", "--range-m", "1e-170", "--models", model]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "modxl: error: an input value is out of range "
            "(floating-point overflow)\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            # The squared distance ratios overflow in the element kernel.
            ("--range-m", "5e-155", "--models", "exact"),
            # Once a numpy warning from the integrand, then a bare "float
            # division by zero".
            ("--range-m", "1e-170", "--models", "integral"),
            # Spacing over range overflows to inf: once numpy's two-line
            # "invalid value" warning from the kernel, then the error line.
            ("--range-m", "1e-318", "--modules", "3", "--models", "exact"),
            # The integration interval overflows: once four numpy warnings
            # and "integral model returned NaN" (exit 3).
            ("--elements-per-module", "2", "--modules", "3", "--spacing-m", "1",
             "--separation-ratio", "1e308", "--range-m", "1", "--theta-deg", "17",
             "--models", "integral"),
            # A report field overflows, normalized_spacing and then the
            # aperture: once json's "Out of range float values are not JSON
            # compliant: inf".
            ("--spacing-m", "1e300", "--range-m", "1e-10", "--models", "upw"),
            ("--spacing-m", "1e300", "--separation-ratio", "1e10", "--models", "upw"),
        ],
    )
    def test_overflow_writes_only_the_error_line(self, argv):
        proc = run_fresh("eval", *argv)
        assert proc.returncode == 2
        assert proc.stderr == (
            "modxl: error: an input value is out of range "
            "(floating-point overflow)\n"
        )

    def test_integrand_overflow_writes_no_warning(self):
        # The quadrature's squared offsets overflow at some nodes, where the
        # integrand is 0; numpy once warned about it on stderr twice.
        proc = run_fresh(
            "eval", "--range-m", "1e-153", "--txsnr-db", "-300",
            "--models", "integral",
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["snr"]["snr_integral_linear"] > 0

    @pytest.mark.parametrize(
        "argv,rel",
        [
            # Once 61 dB too high with "flags": [].
            (("--range-m", "1e12", "--theta-deg", "-45"), 1e-12),
            # Once 1.5% off with "flags": [].
            (("--elements-per-module", "6", "--modules", "5",
              "--separation-ratio", "29.852789547469307",
              "--range-m", "619275.557", "--theta-deg", "-89.94264"), 1e-10),
        ],
    )
    def test_far_closed_form_tracks_exact_sum(self, capsys, argv, rel):
        code, out = run_cli(capsys, "eval", *argv, "--models", "exact,closed")
        assert code == 0
        payload = json.loads(out)
        snr = payload["snr"]
        assert snr["snr_closed_linear"] == pytest.approx(
            snr["snr_exact_linear"], rel=rel, abs=0.0
        )
        assert payload["flags"] == []

    def test_underflowed_value_is_out_of_range(self, capsys):
        # Once exit 0 with "snr_upw_db": null.
        code = main([
            "eval", "--range-m", "1e150", "--txsnr-db", "-300", "--models", "upw",
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "modxl: error: upw SNR is 0.0, outside the floating-point range\n"
        )

    @pytest.mark.parametrize("model", list(SnrModel), ids=lambda m: m.token)
    def test_underflowing_snr_is_positive_or_out_of_range(
        self, capsys, tmp_path, model
    ):
        # At 1e150 m and -300 dB every per-element model's SNR underflows.
        # No model may report it as 0, inf or NaN: each gives a finite
        # positive value or exits 2 with one error line and no output.
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        ratio = ("--separation-ratio", "1") if model is SnrModel.COLLOCATED else ()
        target = tmp_path / "report.json"
        code = main([
            "eval", "--range-m", "1e150", "--txsnr-db", "-300", *ratio,
            "--models", model.token, "--out", str(target),
        ])
        err = capsys.readouterr().err
        if code == 0:
            snr = json.loads(target.read_text(), parse_constant=reject)["snr"]
            assert 0.0 < snr[f"snr_{model.token}_linear"] < math.inf
            assert isinstance(snr[f"snr_{model.token}_db"], float)
        else:
            assert code == 2
            assert err.startswith("modxl: error: ") and err.count("\n") == 1
            assert not target.exists()

    def test_close_in_near_endfire_quadrature_converges(self, capsys):
        # Close in near endfire the integrand is a thin ridge along
        # x + v = sin(angle); the quadrature must still converge.
        code, out = run_cli(
            capsys, "eval", "--elements-per-module", "23", "--modules", "35",
            "--separation-ratio", "23.296", "--range-m", "18.0176",
            "--theta-deg", "-89.077",
        )
        assert code == 0
        snr = json.loads(out)["snr"]
        assert snr["snr_integral_linear"] == pytest.approx(
            snr["snr_closed_linear"], rel=QUADRATURE_AGREEMENT
        )

    def test_all_leaves_out_integral_on_the_segment(self, capsys):
        # 5 m along the axis of the 45 m reference array.
        code, out = run_cli(capsys, "eval", "--theta-deg", "90", "--range-m", "5")
        assert code == 0
        payload = json.loads(out)
        assert not any(key.startswith("snr_integral_") for key in payload["snr"])
        assert "theta_near_endfire" in payload["flags"]

    def test_integral_on_the_segment_is_a_breakdown(self, capsys):
        code = main([
            "eval", "--theta-deg", "90", "--range-m", "5", "--models", "integral",
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            "modxl: error: integrand singular: user lies on the array segment\n"
        )

    @pytest.mark.parametrize(
        "argv,golden",
        [
            ((), "eval_default.json"),
            (("--theta-deg", "75"), "eval_theta_75.json"),
            (("--theta-deg", "-89.9", "--modules", "100", "--models", "all"),
             "eval_endfire_all.json"),
            (("--range-m", "1e12"), "eval_far_1e12.json"),
        ],
    )
    def test_report_matches_golden_file(self, capsys, tmp_path, argv, golden):
        target = tmp_path / "report.json"
        assert main(["eval", *argv, "--out", str(target)]) == 0
        capsys.readouterr()
        assert target.read_bytes() == (DATA / golden).read_bytes()

    def test_entry_point_matches_golden_file(self):
        # The module's own ``__main__`` block, which only ``python -m`` runs.
        proc = run_fresh("eval")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == (DATA / "eval_default.json").read_text()

    @pytest.mark.parametrize(
        "argv,prefix",
        [
            (("eval", "--models", "exact"), ""),
            (("sweep", "--var", "module_count", "--start", "1", "--stop", "3",
              "--steps", "2", "--models", "exact"), "sweep point 0 failed: "),
        ],
        ids=["eval", "sweep"],
    )
    @pytest.mark.parametrize(
        "message",
        [
            "Unable to allocate 7.28 TiB for an array with shape "
            "(1000000000000,) and data type float64",
            "",
        ],
        ids=["numpy", "bare"],
    )
    def test_array_too_large_for_memory_is_usage_error(
        self, capsys, tmp_path, monkeypatch, argv, prefix, message
    ):
        # `--modules 1000000000000 --models exact` once crashed with numpy's
        # _ArrayMemoryError and exit 1.  The failure is faked, in the exact
        # sum's reciprocal of its ratios: a real allocation could succeed
        # under an overcommitting kernel and exhaust memory.
        def unable_to_allocate(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(numpy, "reciprocal", unable_to_allocate)
        target = tmp_path / "out"
        assert main([*argv, "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"modxl: error: {prefix}{message or 'MemoryError'}\n"
        )
        assert not target.exists()

    def test_degenerate_geometry_exit(self, capsys):
        code = main([
            "eval", "--elements-per-module", "3", "--modules", "1",
            "--spacing-m", "1", "--separation-ratio", "1",
            "--range-m", "1", "--theta-deg", "90", "--models", "exact",
        ])
        assert code == 3
        capsys.readouterr()

    @pytest.mark.parametrize(
        "first,second",
        [
            ("spacing-m=0.1", "spacing-wl=0.5"),
            ("separation-m=1.2", "separation-ratio=20"),
            ("frequency-ghz=2.4", "wavelength-m=0.125"),
        ],
    )
    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_mutual_exclusion(self, capsys, tmp_path, source, first, second):
        # Once argparse's SystemExit(2) and usage line for two flags.
        if source == "flags":
            argv = [f"--{first}", f"--{second}"]
        else:
            cfg = tmp_path / "settings.cfg"
            cfg.write_text(f"{first}\n{second}\n")
            argv = ["--config", str(cfg)]
        assert main(["eval", *argv]) == 2
        assert "give only one of" in capsys.readouterr().err

    def test_frequency_sets_wavelength(self, capsys):
        code, out = run_cli(capsys, "eval", "--frequency-ghz", "3.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["link"]["wavelength_m"] == pytest.approx(
            0.0999308, abs=1e-6
        )
        assert payload["geometry"]["element_spacing_m"] == pytest.approx(
            0.0999308 / 2, abs=1e-6
        )

    @pytest.mark.parametrize(
        "extra, spacing", [((), 0.1), (("--spacing-m", "0.05"), 0.05)]
    )
    def test_wavelength_sets_link_and_default_spacing(self, capsys, extra, spacing):
        # Without --spacing-m the spacing stays half a wavelength.
        code, out = run_cli(capsys, "eval", "--wavelength-m", "0.2", *extra)
        assert code == 0
        payload = json.loads(out)
        assert payload["link"]["wavelength_m"] == 0.2
        assert payload["geometry"]["element_spacing_m"] == spacing


class TestSweep:
    def test_requires_out(self, capsys):
        assert main(["sweep"]) == 2
        capsys.readouterr()

    def test_default_sweep_csv(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, _ = run_cli(capsys, "sweep", "--out", str(target))
        assert code == 0
        text = target.read_text()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER == (
            "index,var_name,var_value,M,N,d_m,D_m,r_m,theta_rad,txsnr_db,"
            "snr_exact_db,snr_closed_db,snr_collocated_db,snr_asymptotic_db,"
            "snr_upw_db,snr_integral_db,flags"
        )
        assert len(lines) == 41
        header, rows = read_rows(target)
        ix = {name: header.index(name) for name in header}
        for row in rows:
            assert row[ix["var_name"]] == "module_count"
            assert row[ix["M"]] == "16"
            assert float(row[ix["N"]]) == float(row[ix["var_value"]])
            gap = abs(float(row[ix["snr_closed_db"]])
                      - float(row[ix["snr_exact_db"]]))
            assert gap < 0.05
            assert row[ix["snr_collocated_db"]] == ""
            assert row[ix["snr_asymptotic_db"]] == ""
            assert row[ix["snr_integral_db"]] == ""

    def test_runs_are_byte_identical(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["sweep", "--out", str(first)]) == 0
        assert main(["sweep", "--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_explicit_variable_needs_bounds(self, capsys, tmp_path):
        code = main(["sweep", "--var", "theta", "--out",
                     str(tmp_path / "x.csv")])
        assert code == 2
        capsys.readouterr()

    def test_theta_sweep_records_radians(self, capsys, tmp_path):
        target = tmp_path / "theta.csv"
        code, _ = run_cli(
            capsys, "sweep", "--var", "theta", "--start", "-60",
            "--stop", "60", "--steps", "5", "--models", "upw",
            "--out", str(target),
        )
        assert code == 0
        values = [float(v) for v in column(target, "var_value")]
        assert values[0] == pytest.approx(-math.pi / 3, rel=1e-8)
        assert values[-1] == pytest.approx(math.pi / 3, rel=1e-8)
        thetas = [float(v) for v in column(target, "theta_rad")]
        assert thetas == values

    def test_separation_preset_sign_pattern(self, capsys, tmp_path):
        target = tmp_path / "sep.csv"
        code, _ = run_cli(
            capsys, "sweep", "--preset", "separation", "--theta-deg", "75",
            "--models", "exact,upw", "--out", str(target),
        )
        assert code == 0
        header, rows = read_rows(target)
        assert len(rows) == 50
        ei = header.index("snr_exact_db")
        ui = header.index("snr_upw_db")
        for row in rows:
            assert float(row[ei]) > float(row[ui])

    def test_separation_preset_starts_at_given_spacing(self, capsys, tmp_path):
        target = tmp_path / "sep.csv"
        code, _ = run_cli(
            capsys, "sweep", "--preset", "separation", "--spacing-m", "0.1",
            "--steps", "2", "--models", "upw", "--out", str(target),
        )
        assert code == 0
        assert [float(v) for v in column(target, "D_m")] == [0.1, 4.0]

    def test_all_token_filters_inapplicable_models(self, capsys, tmp_path):
        target = tmp_path / "range.csv"
        code, _ = run_cli(
            capsys, "sweep", "--var", "range", "--start", "30",
            "--stop", "40", "--steps", "3", "--models", "all",
            "--out", str(target),
        )
        assert code == 0
        assert all(v != "" for v in column(target, "snr_asymptotic_db"))
        assert all(v != "" for v in column(target, "snr_integral_db"))
        assert all(v == "" for v in column(target, "snr_collocated_db"))

    def test_all_leaves_out_integral_on_the_segment(self, capsys, tmp_path):
        # The base scenario, 20 modules, reaches past the user at 5 m on the
        # axis; once "sweep point 1 failed: integrand singular", exit 3.
        target = tmp_path / "axis.csv"
        code, _ = run_cli(
            capsys, "sweep", "--theta-deg", "90", "--range-m", "5",
            "--var", "module_count", "--start", "1", "--stop", "10",
            "--steps", "3", "--models", "all", "--out", str(target),
        )
        assert code == 0
        assert column(target, "snr_integral_db") == ["", "", ""]
        assert all(v != "" for v in column(target, "snr_exact_db"))

    @pytest.mark.parametrize("sweep", [
        # An angle sweep whose last point is endfire at 5 m, within the span.
        ("--var", "theta", "--start", "0", "--stop", "90", "--range-m", "5"),
        # A range sweep at endfire whose base range, 35 m, lies beyond the
        # span while its first point lies inside it.
        ("--var", "range", "--start", "5", "--stop", "30", "--theta-deg", "90"),
    ])
    def test_all_resolves_on_the_sweep_ends(self, capsys, tmp_path, sweep):
        # Once "sweep point 2 failed" and "sweep point 0 failed": exit 3.
        target = tmp_path / "ends.csv"
        code, _ = run_cli(
            capsys, "sweep", *sweep, "--steps", "3", "--models", "all",
            "--out", str(target),
        )
        assert code == 0
        assert column(target, "snr_integral_db") == ["", "", ""]
        assert all(v != "" for v in column(target, "snr_exact_db"))

    def test_sweep_point_failure_maps_to_usage(self, capsys, tmp_path):
        # Collocated model breaks as soon as the separation leaves 1.
        code = main([
            "sweep", "--preset", "separation", "--models", "collocated",
            "--out", str(tmp_path / "bad.csv"),
        ])
        assert code == 2
        capsys.readouterr()

    def test_overflowing_link_budget_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "x.csv"
        code = main([
            "sweep", "--txsnr-db", "4000",
            "--steps", "2", "--models", "exact", "--out", str(target),
        ])
        assert code == 2
        assert "input value is out of range" in capsys.readouterr().err
        assert not target.exists()

    def test_closed_form_underflow_is_out_of_range(self, capsys, tmp_path):
        # The bracket underflows to 0 from the second point, 1e175 m, on.
        code = main([
            "sweep", "--var", "range", "--start", "1e150", "--stop", "1e200",
            "--scale", "log", "--theta-deg", "-45", "--models", "closed",
            "--steps", "3", "--out", str(tmp_path / "far.csv"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "modxl: error: sweep point 1 failed: closed_form SNR is 0.0, "
            "outside the floating-point range\n"
        )

    def test_overflow_writes_only_the_error_line(self, tmp_path):
        # D_m overflows to inf: once exit 0 with "inf" in the CSV.
        target = tmp_path / "s.csv"
        proc = run_fresh(
            "sweep", "--spacing-m", "1e300", "--separation-ratio", "1e10",
            "--models", "upw", "--steps", "2", "--out", str(target),
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            "modxl: error: an input value is out of range "
            "(floating-point overflow)\n"
        )
        assert not target.exists()

    def test_overflowing_sweep_point_named_as_out_of_range(self, capsys, tmp_path):
        code = main([
            "sweep", "--var", "range", "--start", "1e150", "--stop", "1e200",
            "--scale", "log", "--models", "upw", "--steps", "3",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "modxl: error: sweep point 1 failed: an input value is out of range "
            "(floating-point overflow)\n"
        )

    @pytest.mark.parametrize(
        "argv,golden",
        [
            (("--preset", "element-count"), "sweep_element_count.csv"),
            (("--preset", "separation"), "sweep_separation_0deg.csv"),
            (("--preset", "separation", "--theta-deg", "75"),
             "sweep_separation_75deg.csv"),
            # Range and angle sweeps, whose points share one layout.
            (("--var", "range", "--start", "10", "--stop", "1e4", "--steps", "40",
              "--scale", "log", "--models", "all"), "sweep_range_log.csv"),
            (("--var", "theta", "--start", "-75", "--stop", "75", "--steps", "40",
              "--models", "all"), "sweep_theta.csv"),
        ],
    )
    def test_sweep_csv_matches_golden_file(self, capsys, tmp_path, argv, golden):
        target = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--out", str(target)]) == 0
        capsys.readouterr()
        assert target.read_bytes() == (DATA / golden).read_bytes()

    @pytest.mark.parametrize("start,stop", [("-60", "100"), ("-100", "60")])
    def test_out_of_range_endpoint_evaluates_no_point(
        self, capsys, tmp_path, monkeypatch, start, stop
    ):
        # Once the theta stop of 100 degrees failed only at point 37.
        evaluated = []
        monkeypatch.setattr(
            sweep, "evaluate_models",
            lambda *args: evaluated.append(args) or {},
        )
        target = tmp_path / "theta.csv"
        code = main(["sweep", "--var", "theta", "--start", start,
                     "--stop", stop, "--out", str(target)])
        assert code == 2
        assert capsys.readouterr().err == (
            "modxl: error: angle_rad must lie in [-pi/2, pi/2]\n"
        )
        assert evaluated == []
        assert not target.exists()

    def test_unwritable_out_gives_io_exit(self, capsys, tmp_path):
        code = main(["sweep", "--steps", "2", "--out",
                     str(tmp_path / "missing" / "x.csv")])
        assert code == 4
        capsys.readouterr()

    def test_programming_error_is_not_a_usage_error(self, tmp_path, monkeypatch):
        # An exception outside the documented families is a bug: main lets
        # it through with its own type, raised directly or as the cause of
        # a failed sweep point, instead of reporting an exit code.
        def bug(*args):
            raise RuntimeError("a bug")

        monkeypatch.setattr(cli, "evaluate_models", bug)
        monkeypatch.setattr(sweep, "evaluate_models", bug)
        with pytest.raises(RuntimeError, match="^a bug$") as raised:
            main(["eval"])
        assert type(raised.value) is RuntimeError
        target = tmp_path / "x.csv"
        with pytest.raises(SweepPointError) as raised:
            main(["sweep", "--steps", "2", "--out", str(target)])
        assert type(raised.value.__cause__) is RuntimeError
        assert str(raised.value.__cause__) == "a bug"
        assert not target.exists()


class TestConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "settings.cfg"
        path.write_text(text)
        return str(path)

    def test_config_matches_flags(self, capsys, tmp_path):
        cfg = self.write(
            tmp_path,
            "# scenario\n"
            "elements_per_module = 4\n"
            "modules = 3\n"
            "theta_deg = 15\n"
            "txsnr_db = 40\n",
        )
        _, from_config = run_cli(capsys, "eval", "--config", cfg)
        _, from_flags = run_cli(
            capsys, "eval", "--elements-per-module", "4", "--modules", "3",
            "--theta-deg", "15", "--txsnr-db", "40",
        )
        assert from_config == from_flags

    def test_explicit_flag_wins(self, capsys, tmp_path):
        cfg = self.write(tmp_path, "theta_deg = 15\n")
        _, merged = run_cli(capsys, "eval", "--config", cfg,
                            "--theta-deg", "30")
        _, direct = run_cli(capsys, "eval", "--theta-deg", "30")
        assert merged == direct

    def test_flag_beats_config_sibling_representation(self, capsys, tmp_path):
        # An explicit spacing flag silences the config's other spacing form.
        cfg = self.write(tmp_path, "spacing_m = 0.1\n")
        code, out = run_cli(capsys, "eval", "--config", cfg,
                            "--spacing-wl", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["geometry"]["element_spacing_m"] == pytest.approx(
            0.0628, rel=1e-12
        )

    def test_dashed_keys_and_in_alias(self, capsys, tmp_path):
        csv_path = tmp_path / "s.csv"
        assert main(["sweep", "--steps", "2", "--out", str(csv_path)]) == 0
        cfg = self.write(tmp_path, f"in = {csv_path}\nlogx = false\n")
        out_path = tmp_path / "chart.svg"
        code = main(["plot", "--config", cfg, "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        assert out_path.exists()

    def test_logx_true_matches_flag(self, capsys, tmp_path):
        chart = DATA / "sweep_element_count.csv"
        cfg = self.write(tmp_path, f"in = {chart}\nlogx = true\n")
        from_config, from_flag = tmp_path / "config.svg", tmp_path / "flag.svg"
        assert main(["plot", "--config", cfg, "--out", str(from_config)]) == 0
        assert main(["plot", "--in", str(chart), "--logx",
                     "--out", str(from_flag)]) == 0
        capsys.readouterr()
        assert from_config.read_bytes() == from_flag.read_bytes()
        assert from_config.read_bytes() != chart.with_suffix(".svg").read_bytes()

    def test_option_table_holds_every_long_option(self):
        # The table's keys are the config keys; argparse's own lists, which
        # the package does not read, are the reference here.
        parser, actions = cli._build_parser()
        (subparsers,) = [
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        expected = {}
        for command in ("eval", "sweep", "plot", "verify"):
            for action in subparsers.choices[command]._actions:
                for option in action.option_strings:
                    if option.startswith("--") and option not in ("--help", "--config"):
                        expected[option[2:].replace("-", "_")] = action
        assert set(subparsers.choices) == {"eval", "sweep", "plot", "verify"}
        assert actions == expected

    def test_unknown_key(self, capsys, tmp_path):
        cfg = self.write(tmp_path, "wavelength = 0.1\n")
        assert main(["eval", "--config", cfg]) == 2
        capsys.readouterr()

    def test_unparseable_value(self, capsys, tmp_path):
        cfg = self.write(tmp_path, "modules = twenty\n")
        assert main(["eval", "--config", cfg]) == 2
        capsys.readouterr()

    def test_syntax_error(self, capsys, tmp_path):
        cfg = self.write(tmp_path, "justaword\n")
        assert main(["eval", "--config", cfg]) == 2
        capsys.readouterr()

    def test_missing_file(self, capsys, tmp_path):
        assert main(["eval", "--config", str(tmp_path / "nope.cfg")]) == 4
        capsys.readouterr()

    def test_not_utf8(self, capsys, tmp_path):
        # Still a usage error, now naming the file.
        cfg = tmp_path / "settings.cfg"
        cfg.write_bytes(b"modules = 3\n\xfe\n")
        assert main(["eval", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"modxl: error: {cfg}: not UTF-8 text "
            "(byte 0xfe at offset 12: invalid start byte)\n"
        )
        # After a byte-order mark the offset is still the file's, counting
        # the mark's three bytes.
        cfg.write_bytes(codecs.BOM_UTF8 + b"ab\xff")
        assert main(["eval", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"modxl: error: {cfg}: not UTF-8 text "
            "(byte 0xff at offset 5: invalid start byte)\n"
        )

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        # The mark once stayed in the first key: "unknown config key
        # '\ufeffmodules'", exit 2.
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_bytes(b"modules = 3\ntheta_deg = 15\n")
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        _, expected = run_cli(capsys, "eval", "--config", str(plain))
        code, got = run_cli(capsys, "eval", "--config", str(marked))
        assert code == 0
        assert got == expected

    def test_post_merge_exclusivity(self, capsys, tmp_path):
        cfg = self.write(tmp_path, "spacing_m = 0.1\nspacing_wl = 0.5\n")
        assert main(["eval", "--config", cfg]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command,key,raw",
        [
            ("verify", "seed", "-1"),
            ("verify", "seed", "18446744073709551616"),
            ("verify", "seed", "abc"),
            ("sweep", "seed", "-1"),
            ("sweep", "seed", "18446744073709551616"),
            ("sweep", "preset", "bogus"),
            ("sweep", "var", "bogus"),
            ("sweep", "scale", "sideways"),
            ("plot", "logx", "maybe"),
        ],
    )
    def test_config_value_rejected_like_its_flag(
        self, capsys, tmp_path, command, key, raw
    ):
        target = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as info:
            main([command, f"--{key}={raw}", "--out", str(target)])
        assert info.value.code == 2
        assert "_u64" not in capsys.readouterr().err
        cfg = self.write(tmp_path, f"{key} = {raw}\n")
        assert main([command, "--config", cfg, "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert f"config key {key!r}" in err
        assert "_u64" not in err
        assert not target.exists()

    def test_seed_is_a_verify_setting(self, capsys, tmp_path):
        # eval, sweep and plot once accepted --seed and ignored it.
        for command in ("eval", "sweep", "plot"):
            with pytest.raises(SystemExit) as info:
                main([command, "--seed", "1"])
            assert info.value.code == 2
        cfg = self.write(tmp_path, "seed = 1\n")
        _, from_config = run_cli(capsys, "eval", "--config", cfg)
        _, direct = run_cli(capsys, "eval")
        assert from_config == direct

    def test_config_seed_matches_flag(self, capsys, tmp_path):
        # verify_seed_1.txt is the stdout of `verify --seed 1`.
        cfg = self.write(tmp_path, "seed = 1\n")
        code, out = run_cli(capsys, "verify", "--config", cfg)
        assert code == 0
        assert out.encode() == (DATA / "verify_seed_1.txt").read_bytes()

    def test_sweep_settings_from_config(self, capsys, tmp_path):
        cfg = self.write(tmp_path, "preset = separation\nsteps = 5\n")
        target = tmp_path / "sep.csv"
        code = main(["sweep", "--config", cfg, "--models", "upw",
                     "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        header, rows = read_rows(target)
        assert len(rows) == 5
        assert rows[0][header.index("var_name")] == "separation"


@pytest.fixture
def sweep_csv(tmp_path):
    path = tmp_path / "sweep.csv"
    assert main(["sweep", "--steps", "8", "--out", str(path)]) == 0
    return path


class TestPlot:
    def test_renders_svg(self, capsys, sweep_csv, tmp_path):
        out = tmp_path / "chart.svg"
        code = main(["plot", "--in", str(sweep_csv), "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        root = ET.fromstring(out.read_text())
        polylines = root.findall("{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 3  # exact, closed and upw are populated

    @pytest.mark.parametrize(
        "argv,golden",
        [
            pytest.param(("--in", str(DATA / f"{name}.csv")), f"{name}.svg", id=name)
            for name in (
                "sweep_element_count", "sweep_separation_0deg", "sweep_separation_75deg"
            )
        ] + [
            # Decade ticks, and a title with markup characters to escape.
            pytest.param(
                ("--in", str(DATA / "sweep_range_log.csv"), "--logx",
                 "--title", "SNR vs range <log> & dB"),
                "sweep_range_log_logx.svg", id="sweep_range_log_logx",
            ),
        ],
    )
    def test_preset_chart_matches_golden_file(self, capsys, tmp_path, argv, golden):
        out = tmp_path / "chart.svg"
        code = main(["plot", *argv, "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert out.read_bytes() == (DATA / golden).read_bytes()

    def test_subnormal_extent_renders(self, capsys, tmp_path):
        # The x extent 5e-324 once made a tick step that underflowed to 0,
        # and plot exited 2 with "modxl: error: math domain error".
        source = tmp_path / "tiny.csv"
        source.write_text("var_value,snr_exact_db\n0,1\n5e-324,2\n")
        out = tmp_path / "chart.svg"
        code = main(["plot", "--in", str(source), "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        ET.fromstring(out.read_text())

    def test_explicit_columns(self, capsys, sweep_csv, tmp_path):
        out = tmp_path / "chart.svg"
        code = main([
            "plot", "--in", str(sweep_csv), "--x", "index",
            "--y", "snr_exact_db", "--title", "demo", "--out", str(out),
        ])
        capsys.readouterr()
        assert code == 0
        root = ET.fromstring(out.read_text())
        polylines = root.findall("{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 1

    def test_missing_in(self, capsys, tmp_path):
        assert main(["plot", "--out", str(tmp_path / "c.svg")]) == 2
        capsys.readouterr()

    def test_missing_out(self, capsys):
        code = main(["plot", "--in", str(DATA / "sweep_element_count.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "modxl: error: plot requires --out PATH\n"

    def test_empty_y_list(self, capsys, sweep_csv, tmp_path):
        out = tmp_path / "c.svg"
        code = main(["plot", "--in", str(sweep_csv), "--y", ",", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "modxl: error: empty y column list\n"
        assert not out.exists()

    def test_no_populated_snr_column(self, capsys, tmp_path):
        bad = tmp_path / "blank.csv"
        bad.write_text("var_value,snr_exact_db,snr_closed_db\n1.0,,\n2.0,,\n")
        out = tmp_path / "c.svg"
        code = main(["plot", "--in", str(bad), "--out", str(out)])
        assert code == 5
        assert capsys.readouterr().err == (
            f"modxl: error: {bad}: no populated SNR columns to plot\n"
        )
        assert not out.exists()

    def test_missing_input_file(self, capsys, tmp_path):
        code = main(["plot", "--in", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "c.svg")])
        assert code == 4
        capsys.readouterr()

    @pytest.mark.parametrize("flag,value", [("--x", "bogus"), ("--y", "bogus")])
    def test_unknown_columns(self, capsys, sweep_csv, tmp_path, flag, value):
        code = main(["plot", "--in", str(sweep_csv), flag, value,
                     "--out", str(tmp_path / "c.svg")])
        assert code == 2
        capsys.readouterr()

    def test_empty_file(self, capsys, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        code = main(["plot", "--in", str(bad),
                     "--out", str(tmp_path / "c.svg")])
        assert code == 5
        capsys.readouterr()

    def test_single_data_row(self, capsys, tmp_path):
        bad = tmp_path / "one.csv"
        bad.write_text("var_value,snr_exact_db\n1.0,44.0\n")
        code = main(["plot", "--in", str(bad),
                     "--out", str(tmp_path / "c.svg")])
        assert code == 5
        capsys.readouterr()

    def test_ragged_rows(self, capsys, tmp_path):
        bad = tmp_path / "ragged.csv"
        bad.write_text("var_value,snr_exact_db\n1.0,44.0\n2.0\n")
        code = main(["plot", "--in", str(bad),
                     "--out", str(tmp_path / "c.svg")])
        assert code == 5
        capsys.readouterr()

    def test_log_axis_rejects_zero_x(self, capsys, tmp_path):
        bad = tmp_path / "zero.csv"
        bad.write_text("var_value,snr_exact_db\n0.0,44.0\n1.0,43.0\n")
        code = main(["plot", "--in", str(bad), "--logx",
                     "--out", str(tmp_path / "c.svg")])
        assert code == 5
        capsys.readouterr()

    def test_all_empty_column(self, capsys, sweep_csv, tmp_path):
        code = main(["plot", "--in", str(sweep_csv),
                     "--y", "snr_integral_db",
                     "--out", str(tmp_path / "c.svg")])
        assert code == 5
        capsys.readouterr()

    def test_non_numeric_cell(self, capsys, tmp_path):
        bad = tmp_path / "text.csv"
        bad.write_text("var_value,snr_exact_db\n1.0,44.0\nx,43.0\n")
        code = main(["plot", "--in", str(bad),
                     "--out", str(tmp_path / "c.svg")])
        assert code == 5
        capsys.readouterr()

    def test_non_finite_cell(self, capsys, tmp_path):
        bad = tmp_path / "nan.csv"
        bad.write_text("var_value,snr_exact_db\n1.0,44.0\n2.0,nan\n")
        code = main(["plot", "--in", str(bad),
                     "--out", str(tmp_path / "c.svg")])
        err = capsys.readouterr().err
        assert code == 5
        assert f"{bad}:3: non-finite value" in err

    def test_field_over_the_csv_limit(self, capsys, tmp_path):
        # csv's field limit once raised _csv.Error, which main let through
        # as a traceback and exit 1, the code of a failed verification.
        bad = tmp_path / "wide.csv"
        bad.write_text("var_value,snr_exact_db\n1.0,44.0\n2.0," + "4" * 131073 + "\n")
        out = tmp_path / "c.svg"
        code = main(["plot", "--in", str(bad), "--out", str(out)])
        assert code == 5
        assert capsys.readouterr().err == (
            f"modxl: error: {bad}:3: field larger than field limit (131072)\n"
        )
        assert not out.exists()

    def test_not_utf8(self, capsys, tmp_path):
        # A decode error once exited 2, as a usage error, naming no file.
        bad = tmp_path / "latin.csv"
        bad.write_bytes(b"var_value,snr_exact_db\n1.0,44.0\n2.0,\xff43\n")
        out = tmp_path / "c.svg"
        code = main(["plot", "--in", str(bad), "--out", str(out)])
        assert code == 5
        assert capsys.readouterr().err == (
            f"modxl: error: {bad}: not UTF-8 text "
            "(byte 0xff at offset 36: invalid start byte)\n"
        )
        assert not out.exists()

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        # The mark once stayed in the first column's name: "unknown x
        # column 'var_value'", exit 2.
        text = b"var_value,snr_exact_db,snr_upw_db\n1.0,44.0,44.5\n2.0,43.0,43.2\n"
        charts = []
        for prefix in (b"", codecs.BOM_UTF8):
            folder = tmp_path / f"mark{len(prefix)}"
            folder.mkdir()
            source, out = folder / "sweep.csv", folder / "chart.svg"
            source.write_bytes(prefix + text)
            code = main(["plot", "--in", str(source), "--out", str(out)])
            capsys.readouterr()
            assert code == 0
            charts.append(out.read_bytes())
        assert charts[1] == charts[0]

    def test_underflowed_sweep_round_trip(self, capsys, tmp_path):
        # An SNR that underflows to 0 stops the sweep at that point, so no
        # CSV with a -inf cell is written for plot to read.
        sweep_out = tmp_path / "x.csv"
        code = main([
            "sweep", "--var", "range", "--start", "1e140", "--stop", "1e150",
            "--scale", "log", "--txsnr-db", "-300", "--models", "upw",
            "--steps", "3", "--out", str(sweep_out),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "modxl: error: sweep point 2 failed: upw SNR is 0.0, "
            "outside the floating-point range\n"
        )
        assert not sweep_out.exists()


class TestVerify:
    def test_out_and_seed(self, capsys, tmp_path):
        target = tmp_path / "verify.txt"
        code, out = run_cli(capsys, "verify", "--seed", "123",
                            "--out", str(target))
        assert code == 0
        assert out == ""
        assert "checks passed" in target.read_text()

    @pytest.mark.parametrize(
        "argv,golden",
        [((), "verify_default.txt"), (("--seed", "1"), "verify_seed_1.txt")],
    )
    def test_stdout_matches_golden_file(self, capsys, argv, golden):
        code, out = run_cli(capsys, "verify", *argv)
        assert code == 0
        assert out.encode() == (DATA / golden).read_bytes()


def _numeric_eval_options():
    """Each int and float option of ``eval``, from the option table that
    ``cli._build_parser`` returns, keyed by its flag."""
    parser, actions = cli._build_parser()
    dests = vars(parser.parse_args(["eval"]))
    return {
        "--" + key.replace("_", "-"): action
        for key, action in sorted(actions.items())
        if action.dest in dests and action.type in (int, float)
    }


NUMERIC_EVAL_OPTIONS = _numeric_eval_options()
_FLOAT_EDGES = ("0", "-1", "-0.0", "5e-324", "1e308", "inf", "nan")
_COUNT_EDGES = ("0", "-1", str(2**53 + 1))


def _option_values(action):
    """Edge values, moderate ones and any finite float; counts up to 1000,
    so that an array holds at most a million elements."""
    if action.type is int:
        return st.sampled_from(_COUNT_EDGES) | st.integers(1, 1000).map(str)
    return st.one_of(
        st.sampled_from(_FLOAT_EDGES),
        st.floats(0.01, 100.0).map(repr),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
    )


@st.composite
def eval_argv(draw):
    """``eval`` with some of its numeric options, at most one of each pair
    that sets one quantity in two units."""
    argv, given_dests = ["eval"], set()
    for flag, action in NUMERIC_EVAL_OPTIONS.items():
        siblings = {d for family in cli._FLAG_FAMILIES if action.dest in family
                    for d in family}
        if given_dests & siblings or not draw(st.booleans()):
            continue
        given_dests.add(action.dest)
        argv.append(f"{flag}={draw(_option_values(action))}")
    return argv


class TestFailureContract:
    """``eval`` over its numeric options at edge values: an exit code of 0, 2
    or 3, never a traceback; one error line on failure; strict JSON on
    success."""

    def test_numeric_options_come_from_the_table(self):
        assert set(NUMERIC_EVAL_OPTIONS) == {
            "--elements-per-module", "--modules", "--spacing-m", "--spacing-wl",
            "--separation-m", "--separation-ratio", "--frequency-ghz",
            "--wavelength-m", "--range-m", "--theta-deg", "--txsnr-db",
        }

    @given(eval_argv())
    def test_eval_exits_cleanly(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        event(f"exit {code}")
        assert code in (0, 2, 3), (code, err.getvalue())
        if code:
            assert err.getvalue().startswith("modxl: error: ")
            assert err.getvalue().count("\n") == 1
            assert out.getvalue() == ""
        else:
            assert err.getvalue() == ""
            json.dumps(json.loads(out.getvalue()), allow_nan=False)
