"""Shared fixtures: small app instances and tilings used across suites."""

import dataclasses

import pytest

from repro.apps import adi, jacobi, sor


@pytest.fixture(scope="session")
def sor_small():
    return sor.app(4, 6)


@pytest.fixture(scope="session")
def jacobi_small():
    return jacobi.app(3, 5, 5)


@pytest.fixture(scope="session")
def adi_small():
    return adi.app(4, 5)


@pytest.fixture(scope="session")
def sor_reference_small():
    return sor.reference(4, 6)


@pytest.fixture(scope="session")
def jacobi_reference_small():
    return jacobi.reference(3, 5, 5)


@pytest.fixture(scope="session")
def adi_reference_small():
    return adi.reference(4, 5)


def values_close(a, b, tol=1e-11):
    """Dict-to-dict comparison with exact key sets."""
    return set(a) == set(b) and all(abs(a[k] - b[k]) < tol for k in a)


def with_kernels(nest, wrap):
    """``nest`` with each statement's kernel replaced by ``wrap(kernel)``
    (the statement re-traces its new kernel)."""
    return dataclasses.replace(nest, statements=tuple(
        dataclasses.replace(s, kernel=wrap(s.kernel))
        for s in nest.statements))


def untraced(kernel):
    """The same values, but ``float()`` on the reads stops the trace."""
    return lambda p, v: kernel(p, [float(x) for x in v])


def doubled(kernel):
    """A kernel computing ``2.0 * kernel``: same geometry, new arithmetic."""
    return lambda p, v, k=kernel: 2.0 * k(p, v)
