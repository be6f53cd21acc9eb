"""Shared fixtures.

Heavy state (suite profiling, the experiment context) is session-scoped:
the machine model is analytical, so even the full-scale suites profile
in about a second, and every test after the first reuses the memoized
measurements.
"""

from __future__ import annotations

import pytest

from repro.codelets import Measurer
from repro.experiments import ExperimentContext
from repro.ir import DP, KernelBuilder
from repro.machine import EXACT
from repro.suites import build_nas_suite, build_nr_suite


@pytest.fixture
def measurer() -> Measurer:
    return Measurer()


@pytest.fixture
def exact_measurer() -> Measurer:
    """Measurements without noise, for exact arithmetic checks."""
    return Measurer(noise=EXACT)


@pytest.fixture(scope="session")
def nr_suite():
    return build_nr_suite()


@pytest.fixture(scope="session")
def nas_suite():
    return build_nas_suite()


@pytest.fixture(scope="session")
def nas_suite_small():
    """A shrunken NAS suite for tests that interpret/trace kernels."""
    return build_nas_suite(scale=0.02)


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    """One shared full-scale experiment context for the whole session."""
    return ExperimentContext()


@pytest.fixture
def saxpy_kernel():
    b = KernelBuilder("saxpy_fixture")
    n = 256
    x = b.array("x", (n,), DP)
    y = b.array("y", (n,), DP)
    a = b.scalar("a", DP, init=2.0)
    with b.loop(0, n) as i:
        b.assign(y[i], y[i] + a.value() * x[i])
    return b.build()


@pytest.fixture
def dot_kernel():
    b = KernelBuilder("dot_fixture")
    n = 512
    x = b.array("x", (n,), DP)
    y = b.array("y", (n,), DP)
    s = b.scalar("s", DP, init=0.0)
    with b.loop(0, n) as i:
        b.assign(s.value(), s.value() + x[i] * y[i])
    return b.build()


@pytest.fixture
def recurrence_kernel():
    b = KernelBuilder("rec_fixture")
    n = 256
    u = b.array("u", (n,), DP)
    r = b.array("r", (n,), DP)
    c = b.scalar("c", DP, init=0.5)
    with b.loop(1, n) as i:
        b.assign(u[i], r[i] - c.value() * u[i - 1])
    return b.build()


@pytest.fixture
def stencil_kernel():
    b = KernelBuilder("stencil_fixture")
    n = 48
    u = b.array("u", (n, n), DP)
    v = b.array("v", (n, n), DP)
    with b.loop(1, n - 1) as i:
        with b.loop(1, n - 1) as j:
            b.assign(v[i, j], 0.25 * (u[i - 1, j] + u[i + 1, j]
                                      + u[i, j - 1] + u[i, j + 1]))
    return b.build()
