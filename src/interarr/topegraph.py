"""Chamber graph and h-polynomials from chamber geometry.

The chamber graph is the certified `ChamberComplex`: one vertex per chamber
(a bitmask over the hyperplanes) and an edge whenever two chambers share a
wall.  The walls each chamber records are the only record of the graph;
its edge list is read from them.  Directing every edge away from a base
chamber makes the base the unique source; both the in-degree generating
polynomial and the separating-wall statistic yield the h-polynomial of
the arrangement's sphere triangulation.  The h routines take an
arrangement or a chamber complex; a complex is checked to be simplicial,
in time linear in the chambers, and has its walls certified unless
`build_tope_graph` (or an earlier h routine) already certified that
complex.  Sign strings appear only in the optional base argument and in
the text dump.

The wall certificate builds no point on any wall.  It checks that every
recorded wall of a chamber has a chamber across it that records the same
wall, and that each chamber's witness lies strictly inside the chamber.
It pairs every witness with every normal through the normal's nonzero
entries, read here from the normals themselves (the walk derives its
pairings by reflection instead, so each route still checks the other).
Convexity does the rest; see `_verify_walls`.
"""

from __future__ import annotations

from .arrangement import (Arrangement, ChamberComplex, chamber_complex,
                          signs_to_mask)
from .feasibility import CertificateError
from .poly import IntPolynomial


class BaseNotAChamberError(ValueError):
    """Raised when the requested base sign vector is not a chamber."""


class NotSimplicialError(ValueError):
    """Raised when some chamber does not have exactly dim walls."""


def _verify_walls(cc: ChamberComplex) -> None:
    """Certify every recorded wall by two checks: the chamber across each
    wall h of a chamber (its mask with bit h flipped) exists and records h
    too, and each chamber's witness pairs with every normal nonzero and
    with the chamber's sign.  A pairing reads only the normal's nonzero
    entries (at most two in a built-in family; a dense normal reads all
    of them), and the negative pairings are gathered into a mask in the
    same loop.

    Convexity does the rest.  The witnesses p and q of two chambers whose
    masks differ only at h pair with each a_j, j != h, with the same sign,
    and so does every point between them.  So where the segment from p to
    q crosses H_h, it lies strictly inside every other half-space of both
    chambers: h is a wall of both.
    """
    masks, facets, index = cc.masks, cc.facets, cc.index
    for mask, walls in zip(masks, facets):
        for h in walls:
            across = index.get(mask ^ 1 << h)
            if across is None:
                raise CertificateError("recorded wall has no chamber across it")
            if h not in facets[across]:
                raise CertificateError("wall recorded by one of its two chambers only")
    supports = [(1 << j, tuple((k, c) for k, c in enumerate(aj) if c))
                for j, aj in enumerate(cc.arrangement.normals)]
    for mask, w in zip(masks, cc.witnesses):
        neg = 0
        for bit, support in supports:
            d = 0
            for k, c in support:
                d += c * w[k]
            if d < 0:
                neg |= bit
            elif not d:
                raise CertificateError("chamber witness lies outside its chamber")
        if neg != mask:
            raise CertificateError("chamber witness lies outside its chamber")


def _require_simplicial(cc: ChamberComplex) -> ChamberComplex:
    """`cc` itself, once every chamber is known to have exactly dim walls."""
    dim = cc.arrangement.dim
    for v, walls in enumerate(cc.facets):
        if len(walls) != dim:
            raise NotSimplicialError(
                f"arrangement is not simplicial: chamber {cc.sign_strings()[v]} "
                f"has {len(walls)} walls, expected {dim}")
    return cc


def _certified(cc: ChamberComplex) -> ChamberComplex:
    """`cc` itself, with its walls certified (once per complex) and every
    chamber known to have exactly dim walls."""
    if not cc.certified:
        _verify_walls(cc)
        cc.certified = True
    return _require_simplicial(cc)


def build_tope_graph(a: Arrangement) -> ChamberComplex:
    """The chamber complex with every wall certified; edges carry the index
    of the shared wall.  Every chamber must be a simplicial cone."""
    return _certified(chamber_complex(a))


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
        return _certified(a)
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
