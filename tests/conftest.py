import math
import pathlib
import sys

import pytest

from shuttleplan import compiler
from shuttleplan.chip import NoiseConfig

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

REPO = HERE.parent
CODES = REPO / "codes"
# every error rate zero and idling free of decoherence
NOISELESS = NoiseConfig(p_cx=0.0, p_h=0.0, p_init=0.0, p_meas=0.0,
                        p_shuttle=0.0, p_displace=0.0, t1=math.inf,
                        t2=math.inf)


@pytest.fixture(scope="session")
def bb72_path() -> pathlib.Path:
    return CODES / "bb_72_12_6.code"


@pytest.fixture(scope="session")
def bb144_path() -> pathlib.Path:
    return CODES / "bb_144_12_12.code"


@pytest.fixture(autouse=True)
def fresh_plan_slot():
    """Each test starts with no kept plan, so no test passes on a schedule
    an earlier one compiled."""
    compiler._plan.cache_clear()
