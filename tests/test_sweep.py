import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from modxl.errors import (
    DegenerateGeometryError,
    ModelMismatchError,
    SweepPointError,
    UnboundedLimitError,
)
from modxl.geometry import ArrayGeometry, UserLocation, aperture
from modxl.snr_models import CONTINUUM_TOLERANCE, SnrModel
from modxl.sweep import (
    PRESETS,
    SweepRecord,
    SweepScale,
    SweepSpec,
    SweepVariable,
    MODEL_ORDER,
    applicable_models,
    apply_variable,
    default_scenario,
    evaluate_models,
    run_sweep,
)

EXACT = SnrModel.EXACT_SUM


class TestDefaultScenario:
    def test_field_values(self):
        scen = default_scenario()
        geom, user, link = scen.geometry, scen.user, scen.link
        assert geom.elements_per_module == 16
        assert geom.module_count == 20
        assert geom.element_spacing == 0.0628
        assert geom.separation_ratio == 20.0
        assert user.range_m == 35.0
        assert user.angle_rad == 0.0
        assert link.wavelength_m == 0.1256
        assert link.transmit_snr == 1e5
        assert link.reference_gain == 1.0


class TestSweepSpec:
    def test_validation(self):
        base = default_scenario()
        with pytest.raises(ValueError):
            SweepSpec(base, SweepVariable.RANGE, 1.0, 10.0, steps=1)
        with pytest.raises(ValueError):
            SweepSpec(base, SweepVariable.RANGE, 1.0, 10.0, steps=5.0)
        # Any integral count is accepted, and held as an int: a numpy
        # integer would make the points numpy floats.
        spec = SweepSpec(base, SweepVariable.RANGE, 1.0, 10.0, steps=np.int64(40),
                         scale=SweepScale.LOGARITHMIC)
        assert type(spec.steps) is int and type(spec.point_value(7)) is float
        with pytest.raises(ValueError):
            SweepSpec(base, SweepVariable.RANGE, 10.0, 1.0)
        with pytest.raises(ValueError):
            SweepSpec(base, SweepVariable.RANGE, 1.0, 10.0, models=frozenset())
        with pytest.raises(ValueError):
            SweepSpec(base, SweepVariable.RANGE, 1.0, 10.0,
                      models=frozenset({"exact"}))
        with pytest.raises(ValueError):
            SweepSpec(base, SweepVariable.THETA, 0.0, 1.0,
                      scale=SweepScale.LOGARITHMIC)
        with pytest.raises(ValueError):
            SweepSpec(base, SweepVariable.SEPARATION, 0.01, 1.0)
        with pytest.raises(ValueError):
            SweepSpec(base, SweepVariable.MODULE_COUNT, 0.5, 10.0)

    @pytest.mark.parametrize(
        "variable,start,stop",
        [
            (SweepVariable.THETA, math.radians(-60.0), math.radians(100.0)),
            (SweepVariable.THETA, math.radians(-100.0), math.radians(60.0)),
            (SweepVariable.RANGE, 1.0, math.inf),
            (SweepVariable.SEPARATION, 0.1, math.inf),
            (SweepVariable.ELEMENT_SPACING, 0.1, math.inf),
            (SweepVariable.MODULE_COUNT, 0.2, 10.0),
        ],
        ids=["theta-stop", "theta-start", "range-stop", "separation-stop",
             "spacing-stop", "module-count-start"],
    )
    def test_endpoints_checked_by_scenario_types(self, variable, start, stop):
        # Once a theta stop past 90 degrees was accepted, and the sweep
        # failed only at the first point beyond it.
        with pytest.raises(ValueError):
            SweepSpec(default_scenario(), variable, start, stop)

    def test_module_count_start_rounds_like_every_point(self):
        spec = SweepSpec(default_scenario(), SweepVariable.MODULE_COUNT, 0.7, 5.0,
                         steps=5)
        assert [spec.point_value(i) for i in range(5)] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_linear_point_values(self):
        spec = SweepSpec(default_scenario(), SweepVariable.RANGE, 1.0, 11.0,
                         steps=11)
        assert [spec.point_value(i) for i in range(11)] == [1.0 + i
                                                            for i in range(11)]

    def test_endpoints_are_exact(self):
        spec = SweepSpec(default_scenario(), SweepVariable.RANGE, 7.3, 91.7,
                         steps=7)
        assert spec.point_value(0) == 7.3
        assert spec.point_value(6) == 91.7

    def test_logarithmic_point_values(self):
        spec = SweepSpec(default_scenario(), SweepVariable.RANGE, 1.0, 100.0,
                         steps=3, scale=SweepScale.LOGARITHMIC)
        assert spec.point_value(0) == 1.0
        assert spec.point_value(1) == pytest.approx(10.0, rel=1e-15)
        assert spec.point_value(2) == 100.0

    def test_module_count_values_are_integers(self):
        spec = SweepSpec(default_scenario(), SweepVariable.MODULE_COUNT,
                         1.0, 625.0, steps=40)
        values = [spec.point_value(i) for i in range(40)]
        assert values[0] == 1.0
        assert values[-1] == 625.0
        assert all(v == round(v) for v in values)
        assert values == sorted(values)

    def test_point_index_bounds(self):
        spec = SweepSpec(default_scenario(), SweepVariable.RANGE, 1.0, 2.0,
                         steps=5)
        with pytest.raises(IndexError):
            spec.point_value(-1)
        with pytest.raises(IndexError):
            spec.point_value(5)


class TestApplyVariable:
    def test_module_count(self):
        scen = default_scenario()
        out = apply_variable(scen, SweepVariable.MODULE_COUNT, 5.0)
        assert out.geometry.module_count == 5
        assert out.geometry.elements_per_module == 16
        assert scen.geometry.module_count == 20

    def test_separation_in_meters(self):
        scen = default_scenario()
        out = apply_variable(scen, SweepVariable.SEPARATION, 0.0628)
        assert out.geometry.separation_ratio == 1.0
        out = apply_variable(scen, SweepVariable.SEPARATION, 40 * 0.0628)
        assert out.geometry.separation_ratio == pytest.approx(40.0, rel=1e-12)

    def test_theta_and_range(self):
        scen = default_scenario()
        out = apply_variable(scen, SweepVariable.THETA, 0.7)
        assert out.user.angle_rad == 0.7
        assert out.user.range_m == 35.0
        out = apply_variable(scen, SweepVariable.RANGE, 12.0)
        assert out.user.range_m == 12.0

    def test_element_spacing_keeps_ratio(self):
        scen = default_scenario()
        out = apply_variable(scen, SweepVariable.ELEMENT_SPACING, 0.1)
        assert out.geometry.element_spacing == 0.1
        assert out.geometry.separation_ratio == 20.0
        assert out.geometry.module_separation == pytest.approx(2.0, rel=1e-12)


class TestEvaluateModels:
    def test_canonical_key_order(self):
        scen = default_scenario()
        reports = evaluate_models(scen, {SnrModel.UPW, EXACT})
        assert list(reports) == [EXACT, SnrModel.UPW]

    def test_one_shot_iterable(self):
        # A set is tested for membership as it is; an iterator is copied.
        reports = evaluate_models(default_scenario(), iter([SnrModel.UPW, EXACT]))
        assert list(reports) == [EXACT, SnrModel.UPW]

    @pytest.mark.parametrize(
        "wrap",
        [lambda models: models[::-1], set, frozenset],
        ids=["reversed", "set", "frozenset"],
    )
    def test_order_does_not_depend_on_hashing(self, wrap):
        # Models hash by identity, so a set of them iterates in an order
        # that changes from process to process; the reports must not.
        models = [m for m in MODEL_ORDER if m is not SnrModel.COLLOCATED]
        reports = evaluate_models(default_scenario(), wrap(models))
        assert list(reports) == models

    def test_record_flag_union(self):
        scen = default_scenario()
        reports = evaluate_models(scen, {SnrModel.CLOSED_FORM, SnrModel.UPW})
        record = SweepRecord(0, 0.0, scen, reports)
        assert record.validity_flags == {"far_field_assumed"}


class TestApplicableModels:
    COLLOCATED = replace(
        default_scenario(),
        geometry=replace(default_scenario().geometry, separation_ratio=1.0),
    )

    def test_reference_scenario(self):
        got = applicable_models(default_scenario())
        assert got == tuple(m for m in MODEL_ORDER if m is not SnrModel.COLLOCATED)

    def test_unit_separation_adds_collocated(self):
        assert applicable_models(self.COLLOCATED) == MODEL_ORDER

    def test_separation_sweep_drops_collocated(self):
        got = applicable_models(self.COLLOCATED, SweepVariable.SEPARATION)
        assert SnrModel.COLLOCATED not in got

    @pytest.mark.parametrize("angle,swept", [
        (math.pi / 2, None),
        (-math.pi / 2, SweepVariable.RANGE),
        (0.0, SweepVariable.THETA),
    ])
    def test_endfire_or_theta_sweep_drops_asymptotic(self, angle, swept):
        scen = replace(self.COLLOCATED, user=UserLocation(35.0, angle))
        got = applicable_models(scen, swept)
        assert got == tuple(m for m in MODEL_ORDER if m is not SnrModel.ASYMPTOTIC)

    @given(
        st.integers(1, 8),
        st.integers(1, 8),
        st.one_of(st.just(1.0), st.floats(1.0, 30.0)),
        st.floats(0.05, 3.0),
        st.floats(-90.0, 90.0),
    )
    @example(4, 5, 20.0, 0.5, 90.0)
    @example(4, 5, 20.0, 0.5, -90.0)
    @example(4, 5, 1.0, 0.5, 90.0 - 1e-8)
    @example(4, 5, 1.0, 0.5, -(90.0 - 1e-8))
    def test_every_named_model_is_inside_its_domain(
        self, m, n, ratio, half_spans, deg
    ):
        # The range is a multiple of the augmented half-span, so that at
        # endfire the user lies on the array segment below 1 and beyond it
        # above.  A named model may still fail for its own reasons, as
        # where the user sits on an element; never for its domain.
        geom = ArrayGeometry(m, n, 0.0628, ratio)
        user = UserLocation(half_spans * aperture(geom)[1] / 2, math.radians(deg))
        scen = replace(default_scenario(), geometry=geom, user=user)
        for model in applicable_models(scen):
            try:
                evaluate_models(scen, [model])
            except (ModelMismatchError, UnboundedLimitError) as exc:
                pytest.fail(f"{model.token} named outside its domain: {exc}")
            except DegenerateGeometryError as exc:
                assert "integrand singular" not in str(exc), model.token
            except (ArithmeticError, ValueError):
                pass


class TestRunSweep:
    def test_orders_records_by_index(self):
        spec = SweepSpec(default_scenario(), SweepVariable.RANGE, 10.0, 50.0,
                         steps=5, models=frozenset({EXACT}))
        records = run_sweep(spec)
        assert [r.index for r in records] == list(range(5))
        for record in records:
            assert record.variable_value == spec.point_value(record.index)
            assert record.scenario.user.range_m == record.variable_value

    def test_failing_point_names_its_index(self):
        # The collocated model stops applying once the separation leaves 1.
        d = 0.0628
        spec = SweepSpec(default_scenario(), SweepVariable.SEPARATION,
                         d, 2 * d, steps=3,
                         models=frozenset({SnrModel.COLLOCATED}))
        with pytest.raises(SweepPointError) as info:
            run_sweep(spec)
        assert info.value.index == 1
        assert isinstance(info.value.__cause__, ModelMismatchError)


class TestPresets:
    def test_element_count_preset_shape(self):
        spec = PRESETS["element-count"](default_scenario())
        assert spec.variable is SweepVariable.MODULE_COUNT
        assert (spec.start, spec.stop, spec.steps) == (1.0, 625.0, 40)
        assert spec.scale is SweepScale.LINEAR
        assert spec.models == {EXACT, SnrModel.CLOSED_FORM, SnrModel.UPW}
        assert spec.base.geometry.module_count == 20

    def test_separation_preset_shape(self):
        base = default_scenario()
        user = replace(base.user, angle_rad=math.radians(75.0))
        spec = PRESETS["separation"](replace(base, user=user))
        assert spec.variable is SweepVariable.SEPARATION
        assert spec.base.user.angle_rad == pytest.approx(math.radians(75.0))
        assert spec.start == 0.0628
        assert spec.stop == pytest.approx(40 * 0.0628, rel=1e-15)
        assert spec.steps == 50

    def test_element_count_behaviour(self):
        records = run_sweep(PRESETS["element-count"](default_scenario()))
        for record in records:
            exact = record.reports[EXACT].value_linear
            closed = record.reports[SnrModel.CLOSED_FORM].value_linear
            assert closed == pytest.approx(exact, rel=CONTINUUM_TOLERANCE)
        last = records[-1]
        gap_db = (last.reports[SnrModel.UPW].value_db
                  - last.reports[EXACT].value_db)
        assert gap_db > 10.0

    def test_separation_behaviour_at_broadside(self):
        records = run_sweep(PRESETS["separation"](default_scenario()))
        upw = [r.reports[SnrModel.UPW].value_linear for r in records]
        assert all(v == upw[0] for v in upw)
        exact = [r.reports[EXACT].value_linear for r in records]
        for earlier, later in zip(exact, exact[1:]):
            assert later <= earlier * (1 + 1e-12)
