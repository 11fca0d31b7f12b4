"""Value semantics of the four records a sweep point builds: ``UserLocation``,
``Scenario``, ``SnrReport`` and ``SweepRecord``.  Their constructors are
written by hand for speed; these tests pin what the generated dataclass
methods gave them: equality, hashing, the repr, ``__match_args__``, pickling,
copying, ``dataclasses.replace`` (which runs the checks again) and the
defaults."""

import copy
import math
import pickle
from dataclasses import FrozenInstanceError, replace

import pytest

from modxl.errors import ModelBreakdownError
from modxl.geometry import UserLocation
from modxl.snr_models import SnrModel, SnrReport
from modxl.sweep import Scenario, SweepRecord, default_scenario

SCENARIO = default_scenario()
SCENARIO_REPR = (
    "Scenario(geometry=ArrayGeometry(elements_per_module=16, module_count=20, "
    "element_spacing=0.0628, separation_ratio=20.0), "
    "user=UserLocation(range_m=35.0, angle_rad=0.0), "
    "link=LinkBudget(wavelength_m=0.1256, reference_gain=1.0, "
    "transmit_snr=100000.0))"
)
REPORT_REPR = (
    "SnrReport(model=<SnrModel.UPW: 'upw'>, value_linear=2.5, "
    "validity_flags=frozenset({'far_field_assumed'}))"
)


def user():
    return UserLocation(35.0, 0.25)


def scenario():
    return Scenario(SCENARIO.geometry, UserLocation(35.0, 0.0), SCENARIO.link)


def report():
    return SnrReport(SnrModel.UPW, 2.5, frozenset({"far_field_assumed"}))


def record():
    return SweepRecord(3, 35.0, scenario(), {SnrModel.UPW: report()})


#: Each record: a maker of equal instances, its fields, one field changed
#: to a value that still passes the checks, and its repr.
RECORDS = {
    "UserLocation": (
        user, ("range_m", "angle_rad"), {"angle_rad": -0.25},
        "UserLocation(range_m=35.0, angle_rad=0.25)",
    ),
    "Scenario": (
        scenario, ("geometry", "user", "link"), {"user": UserLocation(36.0)},
        SCENARIO_REPR,
    ),
    "SnrReport": (
        report, ("model", "value_linear", "validity_flags"),
        {"validity_flags": frozenset()}, REPORT_REPR,
    ),
    "SweepRecord": (
        record, ("index", "variable_value", "scenario", "reports"), {"index": 4},
        f"SweepRecord(index=3, variable_value=35.0, scenario={SCENARIO_REPR}, "
        f"reports={{<SnrModel.UPW: 'upw'>: {REPORT_REPR}}})",
    ),
}


@pytest.fixture(params=list(RECORDS))
def kind(request):
    return RECORDS[request.param]


def test_equality_and_repr(kind):
    make, names, change, text = kind
    first, second = make(), make()
    assert first == second and not first != second
    assert first is not second
    assert repr(first) == text
    other = replace(first, **change)
    assert other != first
    assert first != tuple(getattr(first, name) for name in names)


def test_match_args_and_fields_are_frozen(kind):
    make, names, _, _ = kind
    instance = make()
    assert type(instance).__match_args__ == names
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(instance, name, getattr(instance, name))
    assert list(vars(instance)) == list(names)


@pytest.mark.parametrize("name", ["UserLocation", "Scenario", "SnrReport"])
def test_hash_is_that_of_the_fields(name):
    make, names, _, _ = RECORDS[name]
    instance = make()
    assert hash(instance) == hash(tuple(getattr(instance, n) for n in names))
    assert hash(instance) == hash(make())


def test_a_record_with_reports_is_unhashable():
    # Its reports are a dict, as they were under the generated methods.
    with pytest.raises(TypeError, match="unhashable"):
        hash(record())


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trips(kind, protocol):
    make, names, _, _ = kind
    instance = make()
    clone = pickle.loads(pickle.dumps(instance, protocol))
    assert type(clone) is type(instance) and clone == instance
    assert list(vars(clone)) == list(names)
    assert pickle.dumps(clone, protocol) == pickle.dumps(make(), protocol)


def test_copies(kind):
    make, _, _, _ = kind
    instance = make()
    for clone in (copy.copy(instance), copy.deepcopy(instance)):
        assert type(clone) is type(instance) and clone == instance


class TestConstruction:
    def test_keywords_and_positions(self):
        assert UserLocation(range_m=35.0, angle_rad=0.25) == UserLocation(35.0, 0.25)
        assert UserLocation(35.0).angle_rad == 0.0
        geom, where, link = SCENARIO.geometry, SCENARIO.user, SCENARIO.link
        assert Scenario(geometry=geom, user=where, link=link) == Scenario(geom, where, link)
        assert (SnrReport(model=SnrModel.UPW, value_linear=2.5, validity_flags=frozenset())
                == SnrReport(SnrModel.UPW, 2.5))
        assert (SweepRecord(index=3, variable_value=35.0, scenario=SCENARIO, reports={})
                == SweepRecord(3, 35.0, SCENARIO))

    def test_missing_or_extra_arguments(self):
        with pytest.raises(TypeError):
            UserLocation()
        with pytest.raises(TypeError):
            UserLocation(35.0, 0.0, 1.0)
        with pytest.raises(TypeError):
            Scenario(SCENARIO.geometry, SCENARIO.user)
        with pytest.raises(TypeError):
            SnrReport(SnrModel.UPW)
        with pytest.raises(TypeError):
            SweepRecord(3, 35.0)
        with pytest.raises(TypeError):
            UserLocation(35.0, bearing=0.0)

    def test_report_defaults_to_no_flags(self):
        assert SnrReport(SnrModel.UPW, 2.5).validity_flags == frozenset()

    def test_each_record_gets_its_own_reports(self):
        first, second = SweepRecord(0, 1.0, SCENARIO), SweepRecord(0, 1.0, SCENARIO)
        assert first.reports == {} and second.reports == {}
        assert first.reports is not second.reports
        reports = {SnrModel.UPW: report()}
        assert SweepRecord(0, 1.0, SCENARIO, reports).reports is reports


class TestChecks:
    @pytest.mark.parametrize("args, message", [
        ((0.0,), "range_m must be positive and finite"),
        ((math.inf,), "range_m must be positive and finite"),
        ((math.nan, 0.0), "range_m must be positive and finite"),
        ((-1.0, 2.0), "range_m must be positive and finite"),  # the range first
        ((35.0, 1.6), "angle_rad must lie in [-pi/2, pi/2]"),
        ((35.0, math.nan), "angle_rad must lie in [-pi/2, pi/2]"),
    ])
    def test_user_location(self, args, message):
        with pytest.raises(ValueError) as caught:
            UserLocation(*args)
        assert type(caught.value) is ValueError and str(caught.value) == message

    @pytest.mark.parametrize("value, error, message", [
        (math.inf, OverflowError, "SNR value overflows to inf"),
        (math.nan, ModelBreakdownError, "exact_sum model returned NaN"),
        (0.0, ValueError, "exact_sum SNR is 0.0, outside the floating-point range"),
    ])
    def test_report(self, value, error, message):
        with pytest.raises(Exception) as caught:
            SnrReport(SnrModel.EXACT_SUM, value)
        assert type(caught.value) is error and str(caught.value) == message
        with pytest.raises(Exception) as caught:
            replace(SnrReport(SnrModel.EXACT_SUM, 1.0), value_linear=value)
        assert type(caught.value) is error and str(caught.value) == message

    def test_replace_checks_again(self):
        with pytest.raises(ValueError, match="^range_m must be positive and finite$"):
            replace(user(), range_m=-1.0)
        with pytest.raises(ValueError, match=r"^angle_rad must lie in \[-pi/2, pi/2\]$"):
            replace(user(), angle_rad=2.0)
        assert replace(user(), range_m=40.0) == UserLocation(40.0, 0.25)

    def test_replace_keeps_the_other_fields(self):
        moved = replace(record(), index=7)
        assert (moved.index, moved.variable_value) == (7, 35.0)
        assert moved.scenario == scenario() and moved.reports == record().reports
        assert replace(SCENARIO, user=user()).geometry is SCENARIO.geometry
