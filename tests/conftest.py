import pytest
from hypothesis import HealthCheck, settings

from modxl import geometry
from modxl.sweep import Scenario, default_scenario

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
# A deep run of chosen properties: ``--hypothesis-profile=deep``.
settings.register_profile("deep", settings.get_profile("suite"), max_examples=2000)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def reference() -> Scenario:
    "The default 16x20 half-wavelength scenario used throughout the suite."
    return default_scenario()


@pytest.fixture
def set_helpers(monkeypatch):
    """Call with a count: the block runner then has that many helper threads,
    from a fresh pool that is shut down at the next call or at teardown."""

    def shut_down():
        if geometry._pool is not None:
            geometry._pool.shutdown()

    def use(count):
        shut_down()
        monkeypatch.setattr(geometry, "_HELPERS", count)
        monkeypatch.setattr(geometry, "_pool", None)

    monkeypatch.setattr(geometry, "_pool", None)
    yield use
    shut_down()
