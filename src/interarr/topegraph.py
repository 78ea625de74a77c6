"""Chamber graph and h-polynomials from chamber geometry.

The chamber graph is the certified `ChamberComplex`: one vertex per chamber
(a bitmask over the hyperplanes) and an edge whenever two chambers share a
wall.  Directing every edge away from a base chamber makes the base the
unique source; both the in-degree generating polynomial and the
separating-wall statistic yield the h-polynomial of the arrangement's
sphere triangulation.  The h routines take an arrangement or a chamber
complex; a complex is checked to be simplicial, in time linear in the
chambers, but only `build_tope_graph` certifies its walls.  Sign strings
appear only in the optional base argument and in the text dump.
"""

from __future__ import annotations

from .arrangement import (Arrangement, ChamberComplex, chamber_complex,
                          signs_to_mask)
from .linalg import dot
from .poly import IntPolynomial


class BaseNotAChamberError(ValueError):
    """Raised when the requested base sign vector is not a chamber."""


class NotSimplicialError(ValueError):
    """Raised when some chamber does not have exactly dim walls."""


def _verify_walls(cc: ChamberComplex) -> None:
    """Certify each edge's shared wall: an exact point on the hyperplane with
    every other constraint strict (the zeroed sign vector is realizable)."""
    a = cc.arrangement
    normals = a.normals
    for ci, cj, h in cc.edges:
        if cc.masks[ci] ^ cc.masks[cj] != 1 << h:
            raise AssertionError("edge endpoints differ off the recorded wall")
        p, q = cc.witnesses[ci], cc.witnesses[cj]
        ah = normals[h]
        c1, c2 = dot(ah, p), dot(ah, q)
        z = tuple(c1 * y - c2 * x for x, y in zip(p, q))
        if c1 < 0:
            z = tuple(-x for x in z)
        mask = cc.masks[ci]
        for j, aj in enumerate(normals):
            d = dot(aj, z)
            if j == h:
                if d != 0:
                    raise AssertionError("wall certificate misses its hyperplane")
            elif d == 0 or (d < 0) != bool(mask >> j & 1):
                raise AssertionError("wall certificate violates a chamber constraint")


def _require_simplicial(cc: ChamberComplex) -> ChamberComplex:
    """`cc` itself, once every chamber is known to have exactly dim walls."""
    dim = cc.arrangement.dim
    for v, walls in enumerate(cc.facets):
        if len(walls) != dim:
            raise NotSimplicialError(
                f"arrangement is not simplicial: chamber {cc.sign_strings()[v]} "
                f"has {len(walls)} walls, expected {dim}")
    return cc


def build_tope_graph(a: Arrangement) -> ChamberComplex:
    """The chamber complex with every wall certified; edges carry the index
    of the shared wall.  Every chamber must be a simplicial cone."""
    cc = chamber_complex(a)
    _verify_walls(cc)
    return _require_simplicial(cc)


def _resolve_base(cc: ChamberComplex, base: str | None) -> int:
    """Bitmask of the base chamber; the first chamber when no base is given."""
    if base is None:
        return cc.masks[0]
    if len(base) == cc.arrangement.m and set(base) <= {"+", "-"}:
        bmask = signs_to_mask(base)
        if bmask in cc.index:
            return bmask
    raise BaseNotAChamberError(f"{base!r} is not a chamber")


def in_degrees(g: ChamberComplex, base: str | None = None) -> list[int]:
    """In-degree of every chamber once each edge points away from the base
    chamber, toward the endpoint that the edge's wall separates from it."""
    bmask = _resolve_base(g, base)
    masks = g.masks
    indeg = [0] * len(masks)
    for i, j, h in g.edges:
        # the endpoints differ exactly at h, so exactly one is separated
        indeg[i if (masks[i] ^ bmask) >> h & 1 else j] += 1
    return indeg


def _as_graph(a) -> ChamberComplex:
    if isinstance(a, ChamberComplex):
        return _require_simplicial(a)
    return build_tope_graph(a)


def h_via_indegree(a, base: str | None = None) -> IntPolynomial:
    """h(t) = sum over chambers of t^indegree in the directed chamber graph."""
    g = _as_graph(a)
    coeffs = [0] * (g.arrangement.dim + 1)
    for deg in in_degrees(g, base):
        coeffs[deg] += 1
    return IntPolynomial(coeffs)


def h_via_separation(a, base: str | None = None) -> IntPolynomial:
    """h(t) = sum over chambers of t^sep, sep counting the chamber's own
    walls (as recorded by the walk) whose hyperplane separates it from the
    base chamber."""
    g = _as_graph(a)
    bmask = _resolve_base(g, base)
    coeffs = [0] * (g.arrangement.dim + 1)
    for mask, walls in zip(g.masks, g.facets):
        rel = mask ^ bmask
        coeffs[sum(1 for h in walls if rel >> h & 1)] += 1
    return IntPolynomial(coeffs)


def dump_tope_graph(g: ChamberComplex) -> str:
    """Text dump: chambers as sign strings, then one line "i j k" per edge."""
    lines = g.sign_strings()
    lines += [f"{i} {j} {h}" for i, j, h in g.edges]
    return "\n".join(lines) + "\n"
