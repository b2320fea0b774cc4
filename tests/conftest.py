import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import macfb
from macfb.bounds import Region, RegionSpec, region_boundary
from macfb.symrate import solve_cl_symmetric, solve_db_symmetric

# a child Python (``python -m macfb``, say) imports the package these tests import
_SRC = str(Path(macfb.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile("deterministic", derandomize=True, max_examples=200)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def db_solution():
    return solve_db_symmetric()


@pytest.fixture(scope="session")
def cl_solution():
    return solve_cl_symmetric()


@pytest.fixture(scope="session")
def cl_curve():
    return region_boundary(RegionSpec(Region.COVER_LEUNG, 201))


@pytest.fixture(scope="session")
def dbpc_curve():
    return region_boundary(RegionSpec(Region.DBPC, 201))


@pytest.fixture(scope="session")
def cutset_curve():
    return region_boundary(RegionSpec(Region.CUTSET, 201))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
