"""Shared fixtures: the two bundled toy instances and their explicit-profile
reductions, built once per session."""

import pathlib

import pytest

from svpforge.csp import parse_csp
from svpforge.reduction import derive_profile, reduce_csp

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def sparse_rows(dense):
    """Dense rows as ``GapSvpInstance.rows`` holds them: the (column, value)
    pairs of each row's nonzero entries, columns ascending."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in dense)


def explicit_profile(inst, p=3):
    """The pinned desk-scale profile: unit widths, scale 10**6."""
    return derive_profile(
        inst, p=p, mode="explicit",
        consistency_width=1, support_width=1, scale=10**6,
    )


@pytest.fixture(scope="session")
def toy1():
    return parse_csp((DATA / "toy1.csp").read_text())


@pytest.fixture(scope="session")
def toy_unsat():
    return parse_csp((DATA / "toy_unsat.csp").read_text())


@pytest.fixture(scope="session")
def toy1_reduced(toy1):
    return reduce_csp(toy1, explicit_profile(toy1))


@pytest.fixture(scope="session")
def unsat_reduced(toy_unsat):
    return reduce_csp(toy_unsat, explicit_profile(toy_unsat))
