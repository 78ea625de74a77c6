"""Shared fixtures: the expensive lattices and tope-graph h-polynomials are
computed once per session and reused across test modules."""

from __future__ import annotations

import pytest

from interarr.arrangement import make_family
from interarr.chow import dns_lattice
from interarr.poly import h_to_gamma
from interarr.signed_partitions import enumerate_lattice
from interarr.topegraph import h_via_indegree


@pytest.fixture(scope="session")
def pi_b():
    """Type-B signed partition lattices by n."""
    return {n: enumerate_lattice(n, n) for n in range(1, 5)}


@pytest.fixture(scope="session")
def dns_lattices():
    """Partition-side lattices of the intermediate family, n <= 4, all s."""
    return {(n, s): dns_lattice(n, s)
            for n in range(2, 5) for s in range(n + 1)}


@pytest.fixture(scope="session")
def gamma_computed():
    """Tope-graph route gamma vectors for n = 3..6, all s (the slow part)."""
    table = {}
    for n in range(3, 7):
        for s in range(n + 1):
            h = h_via_indegree(make_family("dns", n, s))
            table[(n, s)] = (h, h_to_gamma(h))
    return table
