"""Integer-normal central hyperplane arrangements.

Provides the standard families (type A/B/D and the intermediate family
interpolating between D and B), restrictions, the intersection lattice,
chamber enumeration, and the f-vector of the induced simplicial complex
(from Moebius values on the intersection lattice, with no chamber walk).

A chamber is a bitmask over the hyperplane list (bit h set <=> negative
side of hyperplane h).  Sign strings over '+'/'-' exist only at the
boundary: `ChamberComplex.sign_strings()`, the
`dump_tope_graph` text and the CLI's `--base`.

Chamber enumeration is one breadth-first wall-crossing loop,
`_chamber_bfs`.  The chambers of a central arrangement come in pairs C,
-C with the same walls, so a chamber whose antipode the walk expanded
first takes that chamber's walls, and a new chamber whose antipode the
walk already has stores None for its negated witness: the walk finds the
walls and witness of one chamber in each pair.  In wall mode one routine,
`_chamber_walls`, decides every candidate wall of such a chamber exactly
and returns a point, with its pairing row, of each new chamber across
one.  Its first pass runs the cheap rungs on every hyperplane: a
neighbour already found, the mirror image of the chamber's point and a
ray walk across the hyperplane prove walls, and a Farkas certificate (a
nonnegative combination of two other signed normals) proves a non-wall.
Its second pass gives what is left to the integer LP oracle, first on
the chamber's known walls and the flipped hyperplane only: most
non-walls are infeasible already there.  The full system decides the
rest, and its witness is the point of the new chamber.
Arrangements flagged simplicial are walked in pivot mode, which asks
`_chamber_walls` only about the first chamber and derives every other
chamber's walls from its neighbour's: crossing wall w replaces each
other wall k by the next hyperplane through the codimension-2 flat H_w &
H_k, read from the walk's table of rank-2 flats.  The new chamber's
witness is the parent's mirrored across H_w, or else a point just past
H_w on the ray from it, or else the LP oracle's point over the chamber's
d walls.  Every chamber is still certified by an integer witness point,
and any inconsistency falls back to wall mode.
The pair certificate and the pivot ask the same question, whether
a_h = alpha a_j + beta a_k, answered by integer Cramer on the Gram
matrix of the normals once per rank-2 flat in a walk (`_WalkTables`):
the first pair of a flat that either asks about scans the hyperplanes
and fills the entries of every pair in the flat, so a chamber pays only
sign tests.  Both modes test a witness through its pairing row (a_j . w
for every hyperplane j).  A mirrored or ray-walked point q = alpha p +
beta a_i, made primitive, has the row (alpha row + beta G_i) / g, with no
dot product (`_on_line`), and both rungs return it.  Where the
reflection is integral (n2 = a_i . a_i divides 2 a_i entrywise, as in
every built-in family), the mirror of p is p - c a_i with c =
2 (a_i . p) / n2, with no scaling, gcd or division: an integral
reflection is its own inverse, so it keeps p primitive, and every
witness of a walk is primitive (the first point ends in 1, and every
later one is such a mirror, gcd-reduced or a negated witness).  Only the
entries of its row on the support of G_i change, and only those are
computed and tested; in a built-in family of rank n >= 2 that support
holds at most 4n - 5 of up to n^2 entries.
The walls each chamber records (`ChamberComplex.facets`) are the only
record of the adjacency; `ChamberComplex.edges` is streamed from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import gcd

from .feasibility import feasible_strict, generic_point
from .lattice import GradedLattice, moebius_inversion_from_above
from .linalg import EchelonBasis, dot, primitive_vector
from .poly import IntPolynomial


class NotEssentialError(ValueError):
    """Raised when an operation requires rank(arrangement) == ambient dim."""


class InvalidParamsError(ValueError):
    """Raised for out-of-range family parameters."""


class _SimplicialityError(RuntimeError):
    """Internal: the walk's pivot mode detected a non-simplicial situation."""


@dataclass(frozen=True)
class Arrangement:
    """A central arrangement: one primitive integer normal per hyperplane.

    `simplicial` promises that every chamber is a simplicial cone, and
    selects the walk's pivot mode; the library trusts it.  Every built-in
    family is a Coxeter arrangement or a restriction of one (dns(n, s) is a
    restriction of D_(n+s)), and a restriction of a simplicial arrangement
    is simplicial, so these hold it by theorem.  The command line checks
    the promise a file makes against the face counts of its lattice of
    flats.
    """

    dim: int
    normals: tuple[tuple[int, ...], ...]
    simplicial: bool = False  # compared, so the walk cache keys on it

    def __post_init__(self):
        if self.dim < 0:
            raise InvalidParamsError(f"dim must be >= 0, got {self.dim}")
        seen = set()
        for v in self.normals:
            if len(v) != self.dim:
                raise InvalidParamsError(f"normal {v} has wrong length")
            if v != primitive_vector(v):
                raise InvalidParamsError(f"normal {v} is not primitive-canonical")
            if v in seen:
                raise InvalidParamsError(f"repeated hyperplane {v}")
            seen.add(v)

    @property
    def m(self) -> int:
        return len(self.normals)

    def rank(self) -> int:
        basis = EchelonBasis()
        for v in self.normals:
            basis.add(v)
        return basis.rank

    def is_essential(self) -> bool:
        return self.rank() == self.dim


def make_arrangement(dim: int, vectors, simplicial: bool = False) -> Arrangement:
    """Build an arrangement, reducing every normal to primitive form."""
    return Arrangement(dim, tuple(primitive_vector(v) for v in vectors), simplicial)


def _coordinate(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def _pair_vector(n: int, i: int, j: int, sign: int) -> tuple[int, ...]:
    return tuple((1 if k == i else sign if k == j else 0) for k in range(n))


def make_family(family: str, n: int, s: int | None = None) -> Arrangement:
    """Standard families:

    - "b": e_i - e_j, e_i + e_j (i < j), and all coordinate hyperplanes
    - "d": e_i - e_j, e_i + e_j only
    - "dns": type D plus the first s coordinate hyperplanes (0 <= s <= n)
    - "a": the essential rank-n realization of the braid arrangement,
      e_i - e_j (i < j) plus all coordinate hyperplanes; linearly isomorphic
      to the rank-n reflection arrangement of the symmetric group on n+1
      letters, with the partition lattice on n+1 blocks as lattice of flats

    Hyperplane order is fixed (differences lex, then sums lex, then
    coordinates) so sign vectors are reproducible byte for byte.
    """
    fam = family.lower()
    if n < 1:
        raise InvalidParamsError("n must be >= 1")
    if fam == "a":
        vecs = [_pair_vector(n, i, j, -1) for i in range(n) for j in range(i + 1, n)]
        vecs += [_coordinate(n, i) for i in range(n)]
        return Arrangement(n, tuple(vecs), simplicial=True)
    if fam == "b":
        s = n
    elif fam == "d":
        s = 0
    elif fam == "dns":
        if s is None:
            raise InvalidParamsError("family dns requires s")
    else:
        raise InvalidParamsError(f"unknown family {family!r}")
    if not 0 <= s <= n:
        raise InvalidParamsError(f"s={s} out of range for n={n}")
    vecs = [_pair_vector(n, i, j, -1) for i in range(n) for j in range(i + 1, n)]
    vecs += [_pair_vector(n, i, j, +1) for i in range(n) for j in range(i + 1, n)]
    vecs += [_coordinate(n, i) for i in range(s)]
    return Arrangement(n, tuple(vecs), simplicial=True)


def parse_arrangement_text(text: str, simplicial: bool = False) -> Arrangement:
    """Parse the file format: "dim n" line, then one normal per line."""
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1)]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise InvalidParamsError("expected 'dim n', got no non-comment line")
    no, head = lines[0]
    word, *rest = head.split()
    try:
        (n,) = map(int, rest)  # exactly one integer after "dim"
    except ValueError:
        word = None
    if word != "dim":
        raise InvalidParamsError(f"line {no}: expected 'dim n', got {head!r}")
    first_line = {}  # primitive normal -> the line that gave it first
    for no, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != n:
            raise InvalidParamsError(f"line {no}: expected {n} integers, got {ln!r}")
        try:
            v = tuple(map(int, parts))
        except ValueError:
            raise InvalidParamsError(
                f"line {no}: entries must be integers, got {ln!r}") from None
        if not any(v):
            raise InvalidParamsError(f"line {no}: a normal must be nonzero, got {ln!r}")
        first = first_line.setdefault(primitive_vector(v), no)
        if first != no:
            raise InvalidParamsError(f"line {no}: repeats the hyperplane of line {first}")
    return Arrangement(n, tuple(first_line), simplicial)


def load_arrangement(path, simplicial: bool = False) -> Arrangement:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_arrangement_text(fh.read(), simplicial=simplicial)


# ---------------------------------------------------------------------------
# flats, intersection lattice


def _cover_classes(a: Arrangement, basis: EchelonBasis) -> dict[tuple[int, ...], list[int]]:
    """The hyperplanes outside the flat spanned by `basis`, grouped by the
    primitive form of their residuals.  A residual is a nonzero multiple
    of the normal modulo the row space, zero at every pivot, so a_g lies in
    the span of the flat and a_h exactly when their residuals are parallel:
    each group closes the flat to one cover, and every cover is one group."""
    classes: dict[tuple[int, ...], list[int]] = {}
    for h, v in enumerate(a.normals):
        r = basis.residual(v)
        if any(r):
            classes.setdefault(primitive_vector(r), []).append(h)
    return classes


def intersection_lattice(a: Arrangement) -> GradedLattice:
    """All flats, rank by rank from their covers, graded by codimension.  A
    flat is the frozenset of the hyperplanes through it.

    A flat's covers are its `_cover_classes`: one reduction per hyperplane
    against the flat's echelon basis finds them all, and only a cover not
    yet found copies the basis and adds one row.  Each rank is numbered in
    the sorted order of its hyperplane sets and parents are visited in id
    order, so every cover list comes out sorted.
    """
    flats, ranks, covers = [frozenset()], [0], [[]]
    layer = [(0, EchelonBasis())]
    while layer:
        nxt: dict[frozenset, tuple[EchelonBasis, list[int]]] = {}
        for fid, basis in layer:
            flat = flats[fid]
            for residual, hs in _cover_classes(a, basis).items():
                bigger = flat.union(hs)
                if bigger not in nxt:
                    nxt[bigger] = (basis.copy(), [])
                    nxt[bigger][0].add(residual)
                nxt[bigger][1].append(fid)
        rank = ranks[-1] + 1
        layer = []
        for bigger in sorted(nxt, key=sorted):
            basis, parents = nxt[bigger]
            for fid in parents:
                covers[fid].append(len(flats))
            layer.append((len(flats), basis))
            flats.append(bigger)
            ranks.append(rank)
            covers.append([])
    return GradedLattice(flats, ranks, covers)


def restrict_to_flat(a: Arrangement, hyperplanes) -> Arrangement:
    """The induced arrangement inside the flat of the given hyperplanes: one
    hyperplane per cover, its residual read on the non-pivot coordinates,
    onto which the flat projects isomorphically (the rows are triangular on
    the pivots); on the flat a residual pairs as its normal does."""
    basis = EchelonBasis()
    for h in hyperplanes:
        basis.add(a.normals[h])
    free = [j for j in range(a.dim) if j not in basis.pivots]
    return Arrangement(len(free), tuple(tuple(r[j] for j in free)
                                        for r in _cover_classes(a, basis)), a.simplicial)


# ---------------------------------------------------------------------------
# chambers


_SIGNS = str.maketrans("01", "+-")


def mask_to_signs(mask: int, m: int) -> str:
    # bit h is sign h; format(0, "00b") is "0", so m = 0 is read apart
    return format(mask, f"0{m}b")[::-1].translate(_SIGNS) if m else ""


def signs_to_mask(signs: str) -> int:
    mask = 0
    for h, c in enumerate(signs):
        if c == "-":
            mask |= 1 << h
        elif c != "+":
            raise ValueError(f"invalid sign character {c!r}")
    return mask


class ChamberComplex:
    """Chambers, their walls, and the wall-crossing adjacency of an arrangement."""

    __slots__ = ("arrangement", "masks", "witnesses", "facets", "index", "edge_count",
                 "certified")

    def __init__(self, a: Arrangement, masks, witnesses, facets, index):
        self.arrangement = a
        self.masks = masks                  # bitmask per chamber
        self.witnesses = witnesses          # integer interior point, or None: -(antipode's)
        self.facets = facets                # sorted wall hyperplanes per chamber
        self.index = index                  # mask -> chamber id, the walk's own
        self.edge_count = None              # the edges topegraph counted as it checked the walls
        self.certified = False              # set once topegraph has checked the walls

    @property
    def edges(self):
        """(chamber, chamber, wall) per adjacent pair, id-sorted, streamed."""
        return _Edges(self)

    @property
    def vertices(self):
        """The chambers as vertices of the chamber graph: their bitmasks."""
        return self.masks

    def sign_strings(self):
        """The chambers as sign strings, in id order, made one at a time."""
        m = self.arrangement.m
        return (mask_to_signs(mk, m) for mk in self.masks)


class _Edges:
    """The edges (i, j, wall), i < j, never stored: streamed chamber by
    chamber, each sorting its at most d edges whose far end is later, and
    counted by the certificate or, before it, by a pass over the records."""

    __slots__ = ("cc",)

    def __init__(self, cc: ChamberComplex):
        self.cc = cc

    def __iter__(self):
        index, facets = self.cc.index, self.cc.facets
        for ci, mask in enumerate(self.cc.masks):
            yield from sorted([(ci, cj, w) for w in facets[ci]
                               if (cj := index[mask ^ 1 << w]) > ci])

    def __len__(self):
        if self.cc.edge_count is not None:
            return self.cc.edge_count
        index, facets = self.cc.index, self.cc.facets
        return sum(index[mask ^ 1 << w] > ci for ci, mask in enumerate(self.cc.masks)
                   for w in facets[ci])


def _pairings(normals, p) -> tuple[int, ...]:
    """The pairing row of a point: a_j . p for every hyperplane j."""
    return tuple(dot(a, p) for a in normals)


def _row_mask(row) -> int | None:
    """Bitmask of a pairing row; None if the point lies on a hyperplane."""
    mask = 0
    for h, d in enumerate(row):
        if d == 0:
            return None
        if d < 0:
            mask |= 1 << h
    return mask


def _signed_rows(normals, mask):
    return [tuple(-x for x in v) if mask >> h & 1 else v
            for h, v in enumerate(normals)]


def _span_pair(gram, j, k, h):
    """(alpha, beta) with D a_h = alpha a_j + beta a_k, where D = G_jj G_kk -
    G_jk^2 > 0 (no two normals are parallel); None if a_h is not in the span
    of a_j and a_k.  Cramer on the Gram matrix gives the only candidates;
    the residual r = D a_h - alpha a_j - beta a_k is then orthogonal to a_j
    and a_k, so r . r = D (D G_hh - alpha G_jh - beta G_kh) decides."""
    gj, gk, gh = gram[j], gram[k], gram[h]
    gjj, gkk, gjk = gj[j], gk[k], gj[k]
    det = gjj * gkk - gjk * gjk
    alpha = gj[h] * gkk - gk[h] * gjk
    beta = gk[h] * gjj - gj[h] * gjk
    if det * gh[h] != alpha * gj[h] + beta * gk[h]:
        return None
    return alpha, beta


class _WalkTables:
    """What a chamber walk reads of its arrangement, each entry found once
    per walk: the Gram matrix, the reflection of every hyperplane and,
    filled as the walk asks, the rank-2 flats.

    `reflections[i]` is (n2, the nonzero (j, G_ij), integral), n2 =
    G_ii and `integral` true when n2 divides 2 a_i entrywise (for a
    primitive a_i, when n2 is 1 or 2, as for every hyperplane of a
    built-in family): then the reflection across H_i is an integer matrix.
    """

    __slots__ = ("normals", "gram", "reflections", "_flats", "_spans")

    def __init__(self, normals):
        self.normals = normals
        self.gram = gram = tuple(_pairings(normals, a) for a in normals)  # a_i . a_j
        self.reflections = tuple(
            (gi[i], tuple((j, x) for j, x in enumerate(gi) if x),
             all(2 * x % gi[i] == 0 for x in ai))
            for i, (ai, gi) in enumerate(zip(normals, gram)))
        self._flats = {}
        self._spans = {}

    def flat(self, w, k):
        """The hyperplanes through H_w & H_k, w and k among them, ascending:
        those h that `_span_pair(gram, w, k, h)` spans.  The first pair of a
        rank-2 flat asked about scans every hyperplane once, for every pair
        in the flat."""
        got = self._flats.get((w, k))
        if got is None:
            gram = self.gram
            got = tuple(h for h in range(len(gram))
                        if h == w or h == k or _span_pair(gram, w, k, h) is not None)
            for x, y in permutations(got, 2):
                self._flats[x, y] = got
        return got

    def line(self, w, k):
        """(h, alpha, beta) for every other hyperplane h through H_w & H_k,
        ascending, with D a_h = alpha a_w + beta a_k (`_span_pair`)."""
        return tuple((h, *_span_pair(self.gram, w, k, h))
                     for h in self.flat(w, k) if h != w and h != k)

    def spans(self, i):
        """(j, k, alpha, beta) with j < k and D a_i = alpha a_j + beta a_k,
        for every pair of other hyperplanes whose normals span a_i: the
        pairs of the rank-2 flats through H_i."""
        got = self._spans.get(i)
        if got is None:
            gram = self.gram
            got = []
            seen = {i}
            for j in range(len(gram)):
                if j not in seen:
                    flat = self.flat(i, j)
                    seen.update(flat)
                    got += [(x, y, *_span_pair(gram, x, y, i))
                            for x, y in combinations([h for h in flat if h != i], 2)]
            self._spans[i] = got = tuple(got)
        return got


def _pivot(tables, w, k, same_side: bool) -> int:
    """The wall that replaces wall k of a chamber crossed at its wall w.

    The hyperplanes h through H_w & H_k are those of `tables.line(w, k)`,
    with D a_h = alpha a_w + beta a_k.  In the chamber's coordinates s, t
    (its signed pairings with a_w, a_k, both positive inside) such a
    hyperplane is the line alpha' s + beta' t = 0, and it misses the
    chamber's sector unless alpha' and beta' differ in sign; `same_side`
    says whether the chamber's signs on w and k agree.  The neighbour's
    sector runs from w to the first such line, the one with the least
    |beta| / |alpha|, and to k itself when there is none.
    """
    best, best_a, best_b = k, 1, None
    for h, alpha, beta in tables.line(w, k):
        if ((alpha > 0) == (beta > 0)) != same_side:
            raise _SimplicialityError("a hyperplane cuts the sector between two walls")
        alpha, beta = abs(alpha), abs(beta)
        if best_b is None or beta * best_a < best_b * alpha:
            best, best_a, best_b = h, alpha, beta
    return best


def _on_line(tables, p, row, i, alpha, beta, target_mask):
    """q = alpha p + beta a_i over the gcd g of its entries, with its row
    (alpha row + beta G_i) / g from p's `row`; None outside the target."""
    qrow = [alpha * x + beta * y for x, y in zip(row, tables.gram[i])]
    if _row_mask(qrow) != target_mask:
        return None
    q = [alpha * x + beta * y for x, y in zip(p, tables.normals[i])]
    g = gcd(*q)  # q != 0: its row has no zero
    return tuple([x // g for x in q]), tuple([x // g for x in qrow])


def _mirror(tables, p, row, i, target_mask):
    """The reflection of p across hyperplane i, primitive, with its pairing
    row; None unless it lies in the target chamber.  `row` is p's pairing
    row, and its signs are those of `target_mask` except at i.

    Where the reflection is integral, q = p - c a_i with c = 2 (a_i . p) /
    n2 an integer, and qrow = row - c G_i changes only on the support of
    G_i: only those entries are computed and tested, since every other one
    keeps the sign `row` already has.  An integral reflection is its own
    inverse, so q is primitive when p is, as every witness of a walk is.
    Otherwise q is n2 p - 2 (a_i . p) a_i over its gcd (`_on_line`)."""
    n2, support, integral = tables.reflections[i]
    aip = row[i]
    if integral:
        c = 2 * aip // n2
        qrow = list(row)
        for j, gij in support:
            d = qrow[j] - c * gij
            if d < 0:
                if not target_mask >> j & 1:
                    return None
            elif not d or target_mask >> j & 1:
                return None
            qrow[j] = d
        return tuple([x - c * y for x, y in zip(p, tables.normals[i])]), tuple(qrow)
    return _on_line(tables, p, row, i, n2, -2 * aip, target_mask)


def _try_ray_walk(tables, mask, p, row, i, target_mask):
    """A point just past H_i on the ray from p along a_i, out of the chamber,
    with its row (`_on_line`); None unless it lies in the target chamber.
    `row` is p's pairing row, and along the ray a_j . x changes at the rate
    -s_i G_ij.  A crossing time (num, den > 0) compares by cross-multiplying."""
    gi = tables.gram[i]
    si = -1 if mask >> i & 1 else 1
    t_i = None
    t_next = None
    for j, gij in enumerate(gi):
        sj = -1 if mask >> j & 1 else 1
        slope = -si * sj * gij
        if slope >= 0:
            continue
        t_j = (sj * row[j], -slope)
        if j == i:
            t_i = t_j
        elif t_next is None or t_j[0] * t_next[1] < t_next[0] * t_j[1]:
            t_next = t_j
    if t_i is None or (t_next is not None and t_next[0] * t_i[1] <= t_i[0] * t_next[1]):
        return None
    # q = scale p + step direction, at step / scale = t_i + 1 or the midpoint
    if t_next is None:
        step, scale = t_i[0] + t_i[1], t_i[1]
    else:
        step, scale = t_i[0] * t_next[1] + t_next[0] * t_i[1], 2 * t_i[1] * t_next[1]
    return _on_line(tables, p, row, i, scale, -si * step, target_mask)


def _pair_redundant(tables, mask, i) -> bool:
    """True if the flipped constraint of hyperplane i is a nonnegative
    combination of two other signed rows, certifying (Farkas) that i is not
    a wall of the chamber `mask`.  With D a_i = alpha a_j + beta a_k (one
    of `tables.spans(i)`) and signs s (-1 on the chamber's negative sides),
    s_i a_i is that combination when s_i s_j alpha >= 0 and
    s_i s_k beta >= 0."""
    si = mask >> i & 1
    for j, k, alpha, beta in tables.spans(i):
        if ((alpha <= 0 if mask >> j & 1 != si else alpha >= 0)
                and (beta <= 0 if mask >> k & 1 != si else beta >= 0)):
            return True
    return False


def _chamber_walls(tables, mask, p, row, index):
    """The walls of the chamber `mask` (interior point p, pairing row `row`),
    ascending, and an interior point of the chamber across each wall whose
    chamber and its antipode are not yet in `index`, with its pairing row,
    as {wall: (point, row)}.

    Pass 1 runs the cheap exact rungs on every hyperplane, in this order.
    It is a wall when the chamber across it or that chamber's antipode is
    already known (chambers come in antipodal pairs) or when the
    mirror image of p lands across it; it is no wall when a Farkas
    combination of two other signed normals certifies so
    (`_pair_redundant`); it is a wall when a point just past H_i on the
    ray from p perpendicular to it (`_try_ray_walk`) lands across it.
    The walls found are the chamber's known walls.
    Pass 2 decides what is left in hyperplane order, with the integer LP
    oracle.  If the chamber's known walls and the flipped row of i admit
    no common point, neither do all the rows, and i is no wall (Clarkson's
    output-sensitive test).  Otherwise the full system decides; its witness
    is the point across a new wall, which joins the known walls.  The LP
    is only asked about the full system after a feasible subsystem, so
    every wall gets the witness the full system alone would give.
    """
    d = len(p)
    signed = _signed_rows(tables.normals, mask)
    full = (1 << len(signed)) - 1
    known = []          # signed rows of the walls proved so far
    walls = []
    crossed = {}
    undecided = []
    for i in range(len(signed)):
        nmask = mask ^ 1 << i
        if nmask not in index and nmask ^ full not in index:
            hit = _mirror(tables, p, row, i, nmask)
            if hit is None:
                # cheaper than the ray walk, and never true of a wall
                if _pair_redundant(tables, mask, i):
                    continue
                hit = _try_ray_walk(tables, mask, p, row, i, nmask)
                if hit is None:
                    undecided.append(i)
                    continue
            crossed[i] = hit
        walls.append(i)
        known.append(signed[i])
    for i in undecided:
        flipped = tuple(-x for x in signed[i])
        if feasible_strict(known + [flipped], d) is None:
            continue
        wit = feasible_strict(signed[:i] + [flipped] + signed[i + 1:], d)
        if wit is not None:
            crossed[i] = wit, _pairings(tables.normals, wit)
            walls.append(i)
            known.append(signed[i])
    return tuple(sorted(walls)), crossed


def _chamber_bfs(a: Arrangement, pivot: bool) -> ChamberComplex:
    """The chamber complex, breadth-first from a generic point's chamber:
    in pivot mode a new chamber's walls are pivoted from its parent's, in
    wall mode `_chamber_walls` decides them (see the module docstring)."""
    normals = a.normals
    d = a.dim
    m = a.m
    tables = _WalkTables(normals)
    p0 = generic_point(normals, d)
    row0 = _pairings(normals, p0)
    mask0 = _row_mask(row0)
    pivots: dict[int, int] = {}  # 2 (w m + k) + (sides of w and k differ) -> pivot
    full = (1 << m) - 1

    masks = [mask0]
    witnesses = [p0]
    facets = [None]  # None until the chamber's walls are known
    index = {mask0: 0}
    rows = [row0]  # pairing rows, dropped once their chamber is expanded
    for ci, mask in enumerate(masks):  # breadth-first: masks grows as chambers are found
        walls = facets[ci]
        row = rows[ci]
        rows[ci] = None
        if walls is None:
            anti = index.get(mask ^ full, ci)
            if anti < ci:
                walls = facets[ci] = facets[anti]
            else:
                walls, crossed = _chamber_walls(tables, mask, witnesses[ci], row, index)
                facets[ci] = walls
                if pivot and len(walls) != d:
                    raise _SimplicialityError(f"seed chamber has {len(walls)} walls, expected {d}")
        for w in walls:
            nmask = mask ^ (1 << w)
            ni = index.get(nmask)
            if ni is None:
                index[nmask] = len(masks)
                masks.append(nmask)
                anti = index.get(nmask ^ full)
                if anti is not None:
                    # C = nmask has the walls of its antipode -C, and -C's
                    # negated witness.  -C was added, and so is expanded,
                    # before C; once it is, -C ^ v, the antipode of C ^ v, is
                    # known for each wall v.  So every chamber that C adds
                    # comes through this branch too: C's None is never read.
                    witnesses.append(None)
                    facets.append(facets[anti])
                    rows.append(None)
                    continue
                if not pivot:
                    hit = crossed[w]
                    witnesses.append(hit[0])
                    rows.append(hit[1])
                    facets.append(None)
                    continue
                nf = [w]
                base = 2 * w * m
                for k in walls:
                    if k == w:
                        continue
                    key = base + 2 * k + ((mask >> w ^ mask >> k) & 1)
                    try:
                        h = pivots[key]
                    except KeyError:
                        h = pivots[key] = _pivot(tables, w, k, not key & 1)
                    nf.append(h)
                if len(set(nf)) != d:
                    raise _SimplicialityError("pivoted walls collide")
                # the parent's witness mirrored across w, or a point just past
                # H_w on the ray from it, is usually an interior point of the
                # neighbour; otherwise the LP over the new walls finds one
                p = witnesses[ci]
                hit = _mirror(tables, p, row, w, nmask)
                if hit is None or max(map(abs, hit[0])) > 1 << 24:
                    hit = _try_ray_walk(tables, mask, p, row, w, nmask)
                if hit is None:
                    signed = _signed_rows(normals, nmask)
                    q = feasible_strict([signed[f] for f in nf], d)
                    if q is None:
                        raise _SimplicialityError("wall normals are dependent")
                    hit = q, _pairings(normals, q)
                    if _row_mask(hit[1]) != nmask:
                        raise _SimplicialityError("facet witness landed in the wrong chamber")
                witnesses.append(hit[0])
                rows.append(hit[1])
                facets.append(tuple(sorted(nf)))
            elif pivot and w not in facets[ni]:
                # a wall of one chamber is a wall of the chamber across it
                raise _SimplicialityError("crossed wall is not a wall of the neighbour")
    return ChamberComplex(a, masks, witnesses, facets, index)


@lru_cache(maxsize=12)
def chamber_complex(a: Arrangement) -> ChamberComplex:
    """Chambers with walls and adjacency; cached per arrangement."""
    if a.rank() != a.dim:
        raise NotEssentialError(
            f"rank {a.rank()} < dim {a.dim}: quotient to an essential arrangement first")
    try:
        return _chamber_bfs(a, a.simplicial)
    except _SimplicialityError:
        return _chamber_bfs(a, False)


def chamber_count(a: Arrangement) -> int:
    return len(chamber_complex(a).masks)


def f_vector(a: Arrangement) -> list[int]:
    """(f_-1, f_0, ..., f_(d-1)) of the induced sphere triangulation.

    A cone of dimension k+1 is a pair (flat X of dimension k+1, chamber of
    the restriction A^X).  By Zaslavsky's theorem A^X has
    sum over Y >= X of |mu(X, Y)| chambers, which is |g(X)| for g(X) = sum
    over Y >= X of mu(X, Y) (-1)^rank(Y), since mu(X, Y) has the sign of
    (-1)^(rank(Y) - rank(X)).  One Moebius inversion over the lattice of
    flats gives g at every flat.
    """
    if not a.is_essential():
        raise NotEssentialError("f-vector requires an essential arrangement")
    lat = intersection_lattice(a)
    out = [0] * (a.dim + 1)
    g = moebius_inversion_from_above(lat, [(-1) ** rank for rank in lat.rank])
    for rank, gx in zip(lat.rank, g):
        out[a.dim - rank] += abs(gx)
    return out


def f_polynomial(fvec) -> IntPolynomial:
    """f(t) = sum f_(d-1-i) t^i for the f-vector list (f_-1, ..., f_(d-1))."""
    return IntPolynomial(tuple(reversed(fvec)))
