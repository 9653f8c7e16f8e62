import pytest

from ait.frozen import FIXTURE
from ait.machine import MachineConfig

# the fixture's length bound at twice its fuel
DOUBLE_FUEL = MachineConfig(FIXTURE.max_program_len, 2 * FIXTURE.fuel)
SMALL = MachineConfig(max_program_len=10, fuel=512)


@pytest.fixture(scope="session")
def fixture_cfg():
    return FIXTURE


@pytest.fixture(scope="session")
def double_fuel_cfg():
    return DOUBLE_FUEL


@pytest.fixture(scope="session")
def small_cfg():
    return SMALL


@pytest.fixture(scope="session")
def enumeration(fixture_cfg):
    from ait.machine import get_enumeration

    return get_enumeration(fixture_cfg, "")


@pytest.fixture(scope="session")
def interval_table(fixture_cfg):
    from ait.leftward import get_interval_table

    return get_interval_table(fixture_cfg, "")
