import math

import numpy as np
import pytest

from radial_plap import presets, solver
from radial_plap.weights import PowerLogPiece, ProblemSpec, WeightModel

INF = math.inf


@pytest.fixture(scope="session")
def trivial_annulus():
    return presets.get_preset("annulus-trivial").problem


@pytest.fixture(scope="session")
def annulus_n3():
    return presets.get_preset("annulus-n3").problem


@pytest.fixture(scope="session")
def ex61():
    return presets.get_preset("ex61").problem


@pytest.fixture(scope="session")
def ex62():
    return presets.get_preset("ex62").problem


@pytest.fixture(scope="session")
def dual_instance():
    """Builder of the finite-annulus instances of acceptance criterion 3."""

    def build(p, N, alpha, delta, tail, r2=8.0):
        v = WeightModel((PowerLogPiece(1.0, r2, 1.0, alpha),), 1.0)
        w = WeightModel(
            (PowerLogPiece(1.0, 2.0, 1.0, delta),
             PowerLogPiece(2.0, r2, 2.0**-tail, 0.0, tail)),
            1.0,
        )
        return ProblemSpec(N=N, p=p, R1=1.0, R2=r2, v=v, w=w)

    return build


@pytest.fixture(scope="session")
def trivial_eigenpair(trivial_annulus):
    return solver.find_lambda1(trivial_annulus, check=False)


@pytest.fixture(scope="session")
def ex61_asymptotic_run(ex61):
    """One deep truncation of the degenerate exterior preset, shared by the
    asymptotics tests and the acceptance criteria (about 10 s to build)."""
    ps_t = ex61.truncated(640.0)
    eig = solver.find_lambda1(ps_t, check=False, per_decade=16, n_core=3000)
    return ex61, ps_t, eig


@pytest.fixture(scope="session")
def ex62_asymptotic_run(ex62):
    ps_t = ex62.truncated(64.0)
    eig = solver.find_lambda1(ps_t, check=False, per_decade=16)
    return ex62, ps_t, eig
