import math
import os
from pathlib import Path

import pytest

import ionoptics
from ionoptics import BeamProfileParams

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="session")
def beam_a() -> BeamProfileParams:
    return BeamProfileParams(omega0=TWO_PI * 1910.0, center_um=0.0, width_um=1.86)


@pytest.fixture(scope="session")
def beam_b() -> BeamProfileParams:
    return BeamProfileParams(omega0=TWO_PI * 2790.0, center_um=4.31, width_um=1.88)


@pytest.fixture(scope="session")
def subprocess_env() -> dict:
    """Environment for a fresh interpreter that imports this ionoptics checkout."""
    src = str(Path(ionoptics.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)
