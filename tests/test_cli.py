import json
import math
import xml.etree.ElementTree as ET

import pytest

from modxl.cli import CSV_HEADER, main


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

    def test_collocated_included_when_applicable(self, capsys):
        code, out = run_cli(capsys, "eval", "--separation-ratio", "1")
        assert code == 0
        assert "snr_collocated_db" in json.loads(out)["snr"]

    def test_advanced_link_split(self, capsys):
        code, out = run_cli(
            capsys, "eval", "--power-db", "30", "--ref-gain-db", "20",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["link"]["txsnr_db"] == pytest.approx(50.0, abs=1e-9)

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
            (("eval", "--range-m", "1e9", "--theta-deg", "60",
              "--models", "exact,closed"), 3),
            (("eval", "--txsnr-db", "4000"), 2),
            (("eval", "--range-m", "1e200"), 2),
            (("eval", "--power-db", "3000", "--ref-gain-db", "3000",
              "--models", "exact"), 2),
        ],
    )
    def test_error_exit_codes(self, capsys, argv, code):
        assert main(list(argv)) == code
        capsys.readouterr()

    def test_overflowing_input_named_as_out_of_range(self, capsys):
        assert main(["eval", "--txsnr-db", "4000"]) == 2
        assert "input value is out of range" in capsys.readouterr().err

    def test_non_finite_value_written_as_null(self, capsys):
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        code, out = run_cli(
            capsys, "eval", "--range-m", "1e150", "--txsnr-db", "-300",
            "--models", "upw",
        )
        assert code == 0
        payload = json.loads(out, parse_constant=reject)
        assert payload["snr"]["snr_upw_linear"] == 0.0
        assert payload["snr"]["snr_upw_db"] is None

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
            snr["snr_closed_linear"], rel=1e-6
        )

    def test_degenerate_geometry_exit(self, capsys):
        code = main([
            "eval", "--elements-per-module", "3", "--modules", "1",
            "--spacing-m", "1", "--separation-ratio", "1",
            "--range-m", "1", "--theta-deg", "90", "--models", "exact",
        ])
        assert code == 3
        capsys.readouterr()

    def test_argparse_mutual_exclusion(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["eval", "--spacing-m", "0.1", "--spacing-wl", "0.5"])
        assert info.value.code == 2
        capsys.readouterr()

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
            "sweep", "--power-db", "3000", "--ref-gain-db", "3000",
            "--steps", "2", "--models", "exact", "--out", str(target),
        ])
        assert code == 2
        assert "effective_power" in capsys.readouterr().err
        assert not target.exists()

    def test_closed_form_breakdown_maps_to_model_failure(self, capsys, tmp_path):
        code = main([
            "sweep", "--var", "range", "--start", "35", "--stop", "1e9",
            "--scale", "log", "--theta-deg", "-45",
            "--out", str(tmp_path / "far.csv"),
        ])
        assert code == 3
        capsys.readouterr()

    def test_unwritable_out_gives_io_exit(self, capsys, tmp_path):
        code = main(["sweep", "--steps", "2", "--out",
                     str(tmp_path / "missing" / "x.csv")])
        assert code == 4
        capsys.readouterr()


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

    def test_post_merge_exclusivity(self, capsys, tmp_path):
        cfg = self.write(tmp_path, "spacing_m = 0.1\nspacing_wl = 0.5\n")
        assert main(["eval", "--config", cfg]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command,key,raw",
        [
            ("sweep", "seed", "-1"),
            ("sweep", "seed", "18446744073709551616"),
            ("verify", "seed", "-1"),
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
        capsys.readouterr()
        cfg = self.write(tmp_path, f"{key} = {raw}\n")
        assert main([command, "--config", cfg, "--out", str(target)]) == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not target.exists()

    def test_config_seed_matches_flag(self, capsys, tmp_path):
        cfg = self.write(tmp_path, "seed = 123\n")
        code, from_config = run_cli(capsys, "verify", "--config", cfg)
        assert code == 0
        _, from_flag = run_cli(capsys, "verify", "--seed", "123")
        assert from_config == from_flag
        assert "seed 123" in from_config

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


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out = run_cli(capsys, "verify")
        assert code == 0
        lines = out.strip().splitlines()
        check_lines = [line for line in lines if line.startswith("PASS")]
        assert len(check_lines) >= 8
        passed, total = lines[-1].split()[0].split("/")
        assert passed == total
        assert int(total) == len(check_lines)

    def test_out_and_seed(self, capsys, tmp_path):
        target = tmp_path / "verify.txt"
        code, out = run_cli(capsys, "verify", "--seed", "123",
                            "--out", str(target))
        assert code == 0
        assert out == ""
        assert "checks passed" in target.read_text()
