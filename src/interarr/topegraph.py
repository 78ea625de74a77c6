"""Chamber graph and h-polynomials from chamber geometry.

The chamber graph is the certified `ChamberComplex`: one vertex per chamber
(a bitmask over the hyperplanes) and an edge whenever two chambers share a
wall.  The walls each chamber records are the only record of the graph;
its edges are streamed from them.  Directing every edge away from a base
chamber makes the base the unique source; both the in-degree generating
polynomial and the separating-wall statistic yield the h-polynomial of
the arrangement's sphere triangulation.  The h routines take an
arrangement or a chamber complex.  Certifying a complex checks its walls
and that it is simplicial, in time linear in the chambers, once per
complex: a complex that `build_tope_graph` or an earlier h routine
certified is not checked again, and one that failed is checked, and
refused, on every call.  Sign strings appear only in the optional base
argument and in the text dump.

The wall certificate builds no point on any wall.  It checks that each
chamber's witness lies strictly inside the chamber and, in one pass that
counts the edges, that every recorded wall has a chamber across it
that records it.  It pairs all witnesses with one normal at once, in
packed int lanes: one int per coordinate holds that coordinate of every
witness, so a normal's pairings take one multiply-add of those ints per
nonzero entry of the normal, read here from the normals themselves (the
walk derives its pairings from the Gram matrix instead, so each route still
checks the other), and a few and/subtract operations test the sign of every
lane against the chamber masks, packed the same way.  Convexity does the
rest; see `_verify_walls`.
"""

from __future__ import annotations

import sys
from functools import cache

from .arrangement import (Arrangement, ChamberComplex, chamber_complex,
                          mask_to_signs, signs_to_mask)
from .feasibility import CertificateError
from .poly import IntPolynomial


class BaseNotAChamberError(ValueError):
    """Raised when the requested base sign vector is not a chamber."""


class NotSimplicialError(ValueError):
    """Raised when some chamber does not have exactly dim walls."""


def _verify_walls(cc: ChamberComplex) -> None:
    """Certify every recorded wall: each chamber's witness lies inside it
    (`_verify_witnesses`, whose lanes are freed before the walls are read),
    and the chamber across each wall h records h too; set `cc.edge_count`.

    Convexity does the rest.  The witnesses p and q of two chambers whose
    masks differ only at h pair with each a_j, j != h, with the same sign,
    and so does every point between them.  So where the segment from p to
    q crosses H_h, it lies strictly inside every other half-space of both
    chambers: h is a wall of both.
    """
    _verify_witnesses(cc)
    index, facets = cc.index, cc.facets
    try:  # the lower end's record of each edge whose far end records it too
        paired = sum(h in facets[cj] for ci, mask in enumerate(cc.masks) for h in facets[ci]
                     if (cj := index[mask ^ 1 << h]) > ci)
    except KeyError:
        raise CertificateError("recorded wall has no chamber across it") from None
    # a record names one chamber across it, so no two edges share one: each
    # record is one of an edge's two only if the records number 2 paired
    if 2 * paired != sum(map(len, facets)):
        raise CertificateError("wall recorded by one of its two chambers only")
    cc.edge_count = paired


def _verify_witnesses(cc: ChamberComplex) -> None:
    """Check that each chamber's witness lies strictly inside the chamber,
    pairing all chambers with one normal at once in packed lanes: one int
    per witness coordinate k holds w[k] of every chamber in an F-bit lane,
    and a normal's lanes are the sum of at most one multiple of those ints
    per nonzero entry.  2^(F-1) exceeds max |w| max ||a_j||_1, so each lane
    2^(F-1) + a_j . w lies strictly between 0 and 2^F: its top bit is set
    exactly when the pairing is >= 0, and that of the lane less one exactly
    when it is >= 1.  Both must match the normal's bit of the chamber
    masks, packed the same way (F > m keeps a mask in its lane).  F is 8,
    16, 32 or 64 where one of those is enough, so that an array packs the
    columns at C speed, and otherwise the least multiple of 8 that is.  A
    chamber may store no witness when its antipode stores one: -w lies
    inside -C exactly when w lies inside C, so only stored ones are packed.
    """
    normals = cc.arrangement.normals
    witnesses, full = cc.witnesses, (1 << len(normals)) - 1
    antipodes = [cc.index.get(mask ^ full) for mask in cc.masks]
    if None in antipodes:
        raise CertificateError("chamber set not closed under negation")
    if any(w is None and witnesses[anti] is None for w, anti in zip(witnesses, antipodes)):
        raise CertificateError("neither a chamber nor its antipode stores a witness")
    masks = [mask for mask, w in zip(cc.masks, witnesses) if w is not None]
    columns = list(zip(*[w for w in witnesses if w is not None]))
    largest = max(max(map(max, columns), default=0), -min(map(min, columns), default=0))
    reach = largest * max((sum(map(abs, a)) for a in normals), default=1)
    width, pack = _packer((max(reach.bit_length(), len(normals)) + 8) // 8)
    top = 8 * width - 1
    ones = int.from_bytes(b"\1".ljust(width, b"\0") * len(masks), "little")
    high = ones << top
    columns = [x - ((x & high) << 1) for x in map(pack, columns)]  # signed lanes
    # bit j of a lane is set where the pairing with a_j must be positive
    positive = pack(masks) ^ (high << 1) - ones
    for j, a in enumerate(normals):
        lanes = high
        for x, c in zip(columns, a):
            if c:
                lanes += c * x
        want = positive << top - j & high
        if lanes & high != want or lanes - ones & high != want:
            raise CertificateError("chamber witness lies outside its chamber")


@cache
def _packer(need: int):
    """(width, pack) for lanes of at least `need` bytes: the narrowest item
    width of a machine integer array that is enough, or `need` when none
    is, and the function that packs a sequence of ints into one int with a
    lane of that width per value, the first lowest, each in two's
    complement.  The array module is loaded by the first certificate, not
    by importing interarr."""
    from array import array

    for code in "bhiq":
        width = array(code).itemsize
        if width >= need:
            def pack(values):
                lanes = array(code, values)
                if sys.byteorder == "big":
                    lanes.byteswap()
                return int.from_bytes(lanes.tobytes(), "little")
            return width, pack

    def pack(values):
        return int.from_bytes(
            b"".join([x.to_bytes(need, "little", signed=True) for x in values]), "little")
    return need, pack


def _require_simplicial(cc: ChamberComplex) -> ChamberComplex:
    """`cc` itself, once every chamber is known to have exactly dim walls."""
    dim, m = cc.arrangement.dim, cc.arrangement.m
    for mask, walls in zip(cc.masks, cc.facets):
        if len(walls) != dim:
            raise NotSimplicialError(
                f"arrangement is not simplicial: chamber {mask_to_signs(mask, m)} "
                f"has {len(walls)} walls, expected {dim}")
    return cc


def _certified(cc: ChamberComplex) -> ChamberComplex:
    """`cc` itself, with its walls certified and every chamber known to
    have exactly dim walls; a complex is marked certified once both hold,
    and is not checked again."""
    if not cc.certified:
        _verify_walls(cc)
        _require_simplicial(cc)
        cc.certified = True
    return cc


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
    chamber, toward the endpoint that the edge's wall separates from it; each
    edge is recorded at both ends, so count the chamber's separating walls."""
    g = _certified(g)
    bmask = _resolve_base(g, base)
    indeg = []
    for mask, walls in zip(g.masks, g.facets):
        rel, k = mask ^ bmask, 0
        for h in walls:
            k += rel >> h & 1
        indeg.append(k)
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
