"""Shared fixtures: grids and cached optimizer runs reused across test modules.

Optimizer runs are session-scoped because they are the expensive part of the
suite; every consumer treats the returned objects as read-only.
"""

import time

import numpy as np
import pytest

from torsionshape import (GridSpec, Sublevel, boundary_samples, build_domain,
                          make_weight, optimize)
from torsionshape.weight import fourier_weight, radial_weight

BOX = (-2.0, -2.0, 2.0, 2.0)


@pytest.fixture(scope="session")
def grid64():
    return GridSpec(64, 64, BOX)


@pytest.fixture(scope="session")
def grid128():
    return GridSpec(128, 128, BOX)


@pytest.fixture(scope="session")
def grid256():
    return GridSpec(256, 256, BOX)


class OptimizerRun:
    """A finished optimizer run plus its wall-clock time and boundary radii."""

    def __init__(self, weight, grid):
        init = build_domain(grid, Sublevel(weight, 1.0))
        t0 = time.perf_counter()
        self.trace = optimize(weight, init)
        self.runtime = time.perf_counter() - t0
        self.weight = weight
        self.grid = grid
        self.domain = self.trace.final_domain
        self.field = self.trace.final_field
        s = boundary_samples(self.domain)
        r = np.hypot(s.points[:, 0], s.points[:, 1])
        self.r_min = float(np.min(r))
        self.r_max = float(np.max(r))


@pytest.fixture(scope="session")
def radial_run(grid256):
    """Radial weight k=1/2, alpha=2: the oracle solution is the unit ball."""
    return OptimizerRun(radial_weight(0.5, 2.0), grid256)


@pytest.fixture(scope="session")
def radial_k06_run(grid256):
    """Radial weight k=0.6 = 1.2 * 0.5: solution ball radius 1/1.2."""
    return OptimizerRun(radial_weight(0.6, 2.0), grid256)


@pytest.fixture(scope="session")
def fourier03_run(grid256):
    """Profile 1 + 0.3 cos(theta), alpha=2: asymmetric weight, A < B strict."""
    return OptimizerRun(fourier_weight(2.0, [1.0, 0.3]), grid256)


@pytest.fixture(scope="session")
def pnorm_run(grid256):
    """Quasi-convex 4-norm weight, alpha=2: the solution must be convex."""
    w = make_weight({"alpha": 2.0,
                     "profile": {"type": "pnorm", "p": 4.0, "a": 1.0, "b": 1.0}})
    return OptimizerRun(w, grid256)


def _cos2_weight(k, eps, alpha=2.0):
    """Radial k-weight with a relative cos(2 theta) band of amplitude eps."""
    return fourier_weight(alpha, [k, 0.0, k * eps])


@pytest.fixture(scope="session")
def cos2_eps01_run(grid256):
    """Perturbed radial weight 0.5(1 + 0.1 cos 2theta): stability test case,
    and the eps = 0.1 member of sweep_runs."""
    return OptimizerRun(_cos2_weight(0.5, 0.1), grid256)


@pytest.fixture(scope="session")
def sweep_runs(grid256, cos2_eps01_run):
    """Perturbation sweep eps -> run for the stability bracket and width fit.

    The G_1 = {g < 1} seed's boundary responds with amplitude eps/2 instead
    of the solution's eps/3, so its relative L2 residual is about eps/2; the
    256² level's stop, C_L2 * h = 0.0039, lies below eps_min / 2 = 0.01, so
    every run leaves its seed.
    """
    runs = {0.1: cos2_eps01_run}
    for eps in (0.02, 0.05):
        runs[eps] = OptimizerRun(_cos2_weight(0.5, eps), grid256)
    return runs
