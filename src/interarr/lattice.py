"""Finite graded lattices shared by the geometric and partition sides.

Elements are indexed 0..N-1 with opaque payloads; `covers[i]` lists the ids
covering i.  Instances are immutable after construction and safe to share.
"""

from __future__ import annotations

from collections import deque


class NotComparableError(ValueError):
    """Raised when an interval [lo, hi] is requested with lo not below hi."""


class GradedLattice:
    __slots__ = ("elements", "rank", "covers", "bottom", "top",
                 "_lower", "_down_masks")

    def __init__(self, elements, rank, covers, bottom: int, top: int):
        self.elements = tuple(elements)
        self.rank = tuple(rank)
        self.covers = tuple(tuple(c) for c in covers)
        self.bottom = bottom
        self.top = top
        self._lower = None
        self._down_masks = None

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def height(self) -> int:
        """Rank of the top element."""
        return self.rank[self.top]

    def lower_covers(self):
        if self._lower is None:
            lower = [[] for _ in self.elements]
            for i, ups in enumerate(self.covers):
                for j in ups:
                    lower[j].append(i)
            self._lower = tuple(tuple(l) for l in lower)
        return self._lower

    def atoms(self):
        return [i for i, r in enumerate(self.rank) if r == 1]

    def up_set(self, x: int):
        """Ids of all y >= x, in BFS order."""
        seen = {x}
        order = [x]
        dq = deque([x])
        while dq:
            v = dq.popleft()
            for w in self.covers[v]:
                if w not in seen:
                    seen.add(w)
                    order.append(w)
                    dq.append(w)
        return order

    def _ensure_down_masks(self):
        # bitmask of {j : j <= i} per element; built once, rank by rank
        if self._down_masks is None:
            masks = [0] * len(self.elements)
            for i in sorted(range(len(self.elements)), key=lambda v: self.rank[v]):
                m = 1 << i
                for j in self.lower_covers()[i]:
                    m |= masks[j]
                masks[i] = m
            self._down_masks = masks
        return self._down_masks

    def leq(self, x: int, y: int) -> bool:
        return bool(self._ensure_down_masks()[y] >> x & 1)

    def maximal_chains(self, lo: int, hi: int):
        """Yield saturated chains lo -> hi as id tuples (DFS order)."""
        masks = self._ensure_down_masks()
        hi_mask = masks[hi]
        if not (hi_mask >> lo & 1):
            raise NotComparableError(f"element {lo} is not below {hi}")
        stack = [(lo, (lo,))]
        while stack:
            v, chain = stack.pop()
            if v == hi:
                yield chain
                continue
            for w in reversed(self.covers[v]):
                if hi_mask >> w & 1:
                    stack.append((w, chain + (w,)))


def characteristic_polys(lat: GradedLattice, lo: int) -> dict[int, list[int]]:
    """Coefficients of chi([lo, hi]) for every hi >= lo, constant term first,
    in the corank convention: sum over b in [lo, hi] of mu(lo, b) *
    t^(rank(hi) - rank(b)).  The constant term is mu(lo, hi).

    One pass over [lo, top] in BFS order, which is rank order.  The
    coefficient of t^(rank(hi) - rank(lo) - k) sums mu over hi's down mask
    cut to the k-th layer of [lo, top], and mu(lo, hi) is minus the other
    coefficients.  Layer 0 is lo, with mu 1, and mu is -1 on layer 1.
    """
    up = lat.up_set(lo)
    rank = lat.rank
    base = rank[lo]
    layers = [0] * (lat.height - base + 1)
    for v in up:
        layers[rank[v] - base] |= 1 << v
    masks = lat._ensure_down_masks()
    mu = {lo: 1}
    chis = {lo: [1]}
    for hi in up[1:]:
        r = rank[hi] - base
        below = masks[hi]
        coeffs = [0] * (r + 1)
        coeffs[r] = 1
        if r > 1:
            coeffs[r - 1] = -(below & layers[1]).bit_count()
        for k in range(2, r):
            bits = below & layers[k]
            total = 0
            while bits:
                lsb = bits & -bits
                total += mu[lsb.bit_length() - 1]
                bits ^= lsb
            coeffs[r - k] = total
        mu[hi] = coeffs[0] = -sum(coeffs)
        chis[hi] = coeffs
    return chis


def moebius_inversion_from_above(lat: GradedLattice, f) -> list[int]:
    """g with f(x) = sum of g(y) over y >= x for every element x, that is
    g(x) = sum over y >= x of mu(x, y) f(y).

    Highest rank first: g(y) is final once every element above y has been
    taken off it, and is then taken off every element below y, read from
    y's down mask.
    """
    masks = lat._ensure_down_masks()
    g = list(f)
    for y in sorted(range(len(g)), key=lat.rank.__getitem__, reverse=True):
        gy = g[y]
        bits = masks[y] ^ 1 << y
        while bits:
            lsb = bits & -bits
            g[lsb.bit_length() - 1] -= gy
            bits ^= lsb
    return g


def _refine_colors(lat: GradedLattice):
    lower = lat.lower_covers()
    colors = list(lat.rank)
    while True:
        sig = [
            (colors[i],
             tuple(sorted(colors[j] for j in lat.covers[i])),
             tuple(sorted(colors[j] for j in lower[i])))
            for i in range(len(lat.elements))
        ]
        relabel = {s: c for c, s in enumerate(sorted(set(sig)))}
        new = [relabel[s] for s in sig]
        if new == colors:
            return colors
        colors = new


def lattice_isomorphic(a: GradedLattice, b: GradedLattice) -> bool:
    """Graded-poset isomorphism via color refinement plus backtracking.

    The search matches a most-constrained element next (one with the most
    already-matched neighbours), drawing candidates from the image of a
    matched neighbour; this keeps highly symmetric lattices tractable at
    the n <= 4 sizes it is used for.
    """
    if len(a) != len(b) or sorted(a.rank) != sorted(b.rank):
        return False
    ca, cb = _refine_colors(a), _refine_colors(b)
    if sorted(ca) != sorted(cb):
        return False
    by_color_b: dict[int, list[int]] = {}
    for j, c in enumerate(cb):
        by_color_b.setdefault(c, []).append(j)
    a_low, b_low = a.lower_covers(), b.lower_covers()
    n = len(a)
    mapping: dict[int, int] = {}
    inverse: dict[int, int] = {}

    def compatible(i: int, j: int) -> bool:
        if ca[i] != cb[j]:
            return False
        for k in a.covers[i]:
            if k in mapping and mapping[k] not in b.covers[j]:
                return False
        for k in a_low[i]:
            if k in mapping and mapping[k] not in b_low[j]:
                return False
        for k in b.covers[j]:
            if k in inverse and inverse[k] not in a.covers[i]:
                return False
        for k in b_low[j]:
            if k in inverse and inverse[k] not in a_low[i]:
                return False
        return True

    def pick_next() -> int:
        best, best_key = -1, None
        for i in range(n):
            if i in mapping:
                continue
            matched = sum(1 for k in a.covers[i] if k in mapping) \
                + sum(1 for k in a_low[i] if k in mapping)
            key = (-matched, len(by_color_b[ca[i]]), i)
            if best_key is None or key < best_key:
                best, best_key = i, key
        return best

    def candidates(i: int):
        for k in a.covers[i]:
            if k in mapping:
                return b_low[mapping[k]]
        for k in a_low[i]:
            if k in mapping:
                return b.covers[mapping[k]]
        return by_color_b[ca[i]]

    def backtrack(count: int) -> bool:
        if count == n:
            return True
        i = pick_next()
        for j in candidates(i):
            if j in inverse or not compatible(i, j):
                continue
            mapping[i] = j
            inverse[j] = i
            if backtrack(count + 1):
                return True
            del mapping[i]
            del inverse[j]
        return False

    return backtrack(0)
