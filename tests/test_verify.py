import math
from dataclasses import replace

import pytest

from modxl import verify
from modxl.channel import LinkBudget
from modxl.cli import main
from modxl.geometry import ArrayGeometry, UserLocation
from modxl.snr_models import SnrModel, SnrReport
from modxl.sweep import Scenario
from modxl.verify import CheckResult, run_checks


class _SkewedGeometry(ArrayGeometry):
    """Deliberately inconsistent geometry: the module stride reads half a
    spacing wide, so routes that integrate the continuum no longer agree
    with the closed form."""

    @property
    def stride(self) -> float:
        return super().stride + 0.5


class TestCheckResult:
    def test_pass_line(self):
        result = CheckResult("demo", True, 1e-2, 3e-4, "note")
        assert result.line() == (
            "PASS  demo: tolerance 1.000e-02, observed 3.000e-04  (note)"
        )

    def test_fail_line_without_detail(self):
        result = CheckResult("demo", False, 1e-6, 2e-3)
        assert result.line() == (
            "FAIL  demo: tolerance 1.000e-06, observed 2.000e-03"
        )


class TestRunChecks:
    def test_reference_scenario_passes_everything(self):
        results = run_checks()
        assert len(results) >= 8
        names = [r.name for r in results]
        assert len(names) == len(set(names))
        failed = [r.name for r in results if not r.passed]
        assert failed == []
        for result in results:
            assert math.isfinite(result.observed)

    def test_alternate_seed_still_passes(self):
        results = run_checks(seed=3)
        uplink = next(r for r in results if r.name == "uplink_simulation")
        assert uplink.passed

    def test_corrupted_geometry_is_caught(self):
        base = Scenario(
            _SkewedGeometry(16, 20, 0.0628, 20.0),
            UserLocation(35.0, 0.0),
            LinkBudget(wavelength_m=0.1256, transmit_snr=1e5),
        )
        results = run_checks(base)
        failed = {r.name for r in results if not r.passed}
        assert "closed_vs_quadrature" in failed

    @pytest.mark.parametrize(
        "user,name",
        [
            # On an array element: the element-count preset's first point raises.
            (UserLocation(1.0, math.pi / 2), "sweep_determinism"),
            # Broadside, closer to the centre element than the distance floor.
            (UserLocation(1e-10, 0.0), "separation_monotonic"),
        ],
    )
    def test_sweep_checks_run_on_the_base(self, user, name):
        # Both checks once swept the reference scenario whatever the base.
        base = Scenario(
            ArrayGeometry(3, 1, 1.0, 1.0),
            user,
            LinkBudget(wavelength_m=0.1256, transmit_snr=1e5),
        )
        result = {r.name: r for r in run_checks(base)}[name]
        assert not result.passed
        assert result.detail.startswith("raised")

    def test_raising_check_is_reported_not_propagated(self):
        # The user sits on an array element, so distance-based checks raise.
        base = Scenario(
            ArrayGeometry(3, 1, 1.0, 1.0),
            UserLocation(1.0, math.pi / 2),
            LinkBudget(wavelength_m=0.1256, transmit_snr=1e5),
        )
        results = run_checks(base)
        raised = [r for r in results if "raised" in r.detail]
        assert raised
        for result in raised:
            assert not result.passed
            assert math.isnan(result.observed)


class TestFailLines:
    """Each check's own FAIL branch, reached by corrupting the one routine it
    tests, is the only failing line of ``modxl verify``, which exits 1."""

    @staticmethod
    def only_failure(capsys):
        assert main(["verify"]) == 1
        return [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("FAIL")
        ]

    def test_asymptotic_limit_that_recedes(self, monkeypatch, capsys):
        # Half the true limit: the exact sum moves away from it as N grows.
        # The gap check sees both limits halved, so it still passes.
        real = verify.snr_asymptotic

        def halved(*args):
            return SnrReport(SnrModel.ASYMPTOTIC, real(*args).value_linear / 2)

        monkeypatch.setattr(verify, "snr_asymptotic", halved)
        assert self.only_failure(capsys) == [
            "FAIL  asymptotic_convergence: tolerance 5.000e-03, observed inf"
            "  (error sequence not decreasing)"
        ]

    def test_endfire_fallback_without_its_flag(self, monkeypatch, capsys):
        real = verify.snr_closed_form

        def unflagged(*args):
            return replace(real(*args), validity_flags=frozenset())

        monkeypatch.setattr(verify, "snr_closed_form", unflagged)
        assert self.only_failure(capsys) == [
            "FAIL  endfire_fallback: tolerance 0.000e+00, observed inf"
            "  (fallback flag missing)"
        ]

    def test_sweep_rerun_that_differs(self, monkeypatch, capsys):
        # A rerun of a sweep already seen moves one point's variable value.
        real, seen = verify.run_sweep, []

        def drifting(spec):
            records = real(spec)
            if spec in seen:
                moved = records[3].variable_value + 1.0
                records[3] = replace(records[3], variable_value=moved)
            seen.append(spec)
            return records

        monkeypatch.setattr(verify, "run_sweep", drifting)
        assert self.only_failure(capsys) == [
            "FAIL  sweep_determinism: tolerance 0.000e+00, observed inf"
            "  (record mismatch at index 3)"
        ]
