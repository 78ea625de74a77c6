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

The wall certificate reads everything from pairings P[c][j] = a_j . w_c of
each chamber's witness w_c with each normal, computed here once per chamber
by dot products (never taken from the walk, which derives its own pairings
by reflection, so each route still checks the other).  Every edge's wall
point then tests each hyperplane with two multiplications.  The wall
points alone do not pin a witness down (negating the first chamber's
witness moves none of them), so every chamber's witness is also checked
against the chamber's own signs.
"""

from __future__ import annotations

from .arrangement import (Arrangement, ChamberComplex, chamber_complex,
                          signs_to_mask)
from .feasibility import CertificateError
from .linalg import dot
from .poly import IntPolynomial


class BaseNotAChamberError(ValueError):
    """Raised when the requested base sign vector is not a chamber."""


class NotSimplicialError(ValueError):
    """Raised when some chamber does not have exactly dim walls."""


def _verify_walls(cc: ChamberComplex) -> None:
    """Certify each edge's shared wall: an exact point on the hyperplane with
    every other constraint strict (the zeroed sign vector is realizable);
    then certify each chamber's witness against the chamber's own signs.

    The wall point of the edge (p, q) across h is z = c1 q - c2 p with
    c1 = a_h . p and c2 = a_h . q (negated when c1 < 0), so a_j . z is read
    from the pairing rows P[c][j] = a_j . w_c, computed here once per chamber
    and kept only from the first to the last edge that reads them.
    """
    normals = cc.arrangement.normals
    masks, witnesses, edges = cc.masks, cc.witnesses, cc.edges
    # chambers whose witness fails their own signs; no wall point shows these
    # (z does not change under p -> -p, for one)
    outside = []

    def pairing(c):
        row = tuple(dot(aj, witnesses[c]) for aj in normals)
        mask = masks[c]
        for j, d in enumerate(row):
            if d == 0 or (d < 0) != bool(mask >> j & 1):
                outside.append(c)
                break
        return row

    last = [-1] * len(masks)
    for k, (ci, cj, _) in enumerate(edges):
        last[ci] = last[cj] = k
    rows = {}
    for k, (ci, cj, h) in enumerate(edges):
        mask = masks[ci]
        if mask ^ masks[cj] != 1 << h:
            raise CertificateError("edge endpoints differ off the recorded wall")
        rp = rows.get(ci) or rows.setdefault(ci, pairing(ci))
        rq = rows.get(cj) or rows.setdefault(cj, pairing(cj))
        c1, c2 = rp[h], rq[h]
        if c1 < 0:
            c1, c2 = -c1, -c2
        for j, (x, y) in enumerate(zip(rp, rq)):
            d = c1 * y - c2 * x
            if j == h:
                if d != 0:
                    raise CertificateError("wall certificate misses its hyperplane")
            elif d == 0 or (d < 0) != bool(mask >> j & 1):
                raise CertificateError("wall certificate violates a chamber constraint")
        if last[ci] == k:
            del rows[ci]
        if last[cj] == k:
            del rows[cj]
    for c, k in enumerate(last):
        if k < 0:  # a chamber on no edge
            pairing(c)
    if outside:
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
