import hashlib
import math
import random
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import interarr.arrangement as arr
from interarr.arrangement import (Arrangement, Flat, InvalidParamsError,
                                  NotEssentialError, chamber_complex, make_arrangement,
                                  chamber_count, f_polynomial, f_vector, intersection_lattice,
                                  make_family, parse_arrangement_text,
                                  restrict_to_flat)
from interarr.arrangement import _pairings, _row_mask
from interarr.feasibility import feasible_strict
from interarr.chow import chow_recursive, chow_via_chains
from interarr.labeling import min_atom_label
from interarr.linalg import EchelonBasis, dot, gcd_reduced, primitive_vector
from interarr.lattice import (GradedLattice, NotComparableError, characteristic_polys,
                              lattice_isomorphic)
from interarr.poly import f_to_h
from interarr.topegraph import _verify_walls
from test_feasibility import feasible_strict_fraction, scale_to_int, solve_square_int


def arrangement_to_text(a) -> str:
    """The file format of `parse_arrangement_text`, written back."""
    lines = [f"dim {a.dim}"]
    lines += [" ".join(str(x) for x in v) for v in a.normals]
    return "\n".join(lines) + "\n"


def check_graded(lat: GradedLattice) -> None:
    """Assert the grading axioms."""
    assert lat.rank[lat.bottom] == 0
    for i, ups in enumerate(lat.covers):
        for j in ups:
            assert lat.rank[j] == lat.rank[i] + 1, "cover must raise rank by 1"
    for chain in lat.maximal_chains(lat.bottom, lat.top):
        assert len(chain) == lat.height + 1


def contract_interval(lat: GradedLattice, lo: int, hi: int) -> GradedLattice:
    """Induced graded lattice on [lo, hi], rank shifted so rank(lo) = 0."""
    if not lat.leq(lo, hi):
        raise NotComparableError(f"element {lo} is not below {hi}")
    ids = [v for v in lat.up_set(lo) if lat.leq(v, hi)]  # BFS order is rank order
    pos = {v: i for i, v in enumerate(ids)}
    base = lat.rank[lo]
    elements = [lat.elements[v] for v in ids]
    rank = [lat.rank[v] - base for v in ids]
    covers = [[pos[w] for w in lat.covers[v] if w in pos] for v in ids]
    return GradedLattice(elements, rank, covers, pos[lo], pos[hi])


def test_make_family_b2_normals_and_order():
    b2 = make_family("b", 2)
    assert b2.normals == ((1, -1), (1, 1), (1, 0), (0, 1))


def test_dns_interpolates_between_d_and_b():
    assert set(make_family("dns", 3, 0).normals) == set(make_family("d", 3).normals)
    for n in range(2, 6):
        assert set(make_family("dns", n, n).normals) == set(make_family("b", n).normals)


def test_make_family_validation():
    with pytest.raises(InvalidParamsError):
        make_family("dns", 3, 4)
    with pytest.raises(InvalidParamsError):
        make_family("dns", 3, -1)
    with pytest.raises(InvalidParamsError):
        make_family("q", 3)
    with pytest.raises(InvalidParamsError):
        make_family("dns", 3)


def test_normals_must_be_distinct():
    with pytest.raises(InvalidParamsError):
        make_arrangement(2, [(1, 1), (2, 2)])


def test_chamber_counts_type_b():
    for n in range(2, 6):
        assert chamber_count(make_family("b", n)) == 2 ** n * math.factorial(n)


def test_chamber_count_d3_and_single_hyperplane():
    assert chamber_count(make_family("d", 3)) == 24
    assert frozenset(chamber_complex(make_arrangement(1, [(1,)])).sign_strings()) \
        == frozenset({"+", "-"})


def test_chambers_closed_under_negation():
    for fam, n, s in [("b", 3, None), ("dns", 4, 2), ("a", 3, None)]:
        cs = frozenset(chamber_complex(make_family(fam, n, s)).sign_strings())
        for v in cs:
            flipped = "".join("-" if c == "+" else "+" for c in v)
            assert flipped in cs


def test_chambers_match_bruteforce_sign_enumeration():
    # independent oracle: test all 2^m full-support sign vectors for
    # realizability directly
    from itertools import product

    from interarr.feasibility import feasible_strict

    for a in (make_family("b", 2), make_family("d", 3)):
        realizable = set()
        for signs in product("+-", repeat=a.m):
            rows = [v if c == "+" else tuple(-x for x in v)
                    for v, c in zip(a.normals, signs)]
            if feasible_strict(rows, a.dim) is not None:
                realizable.add("".join(signs))
        assert frozenset(chamber_complex(a).sign_strings()) == realizable


def test_chambers_requires_essential():
    # braid normals alone span only a hyperplane
    braid = make_arrangement(3, [(1, -1, 0), (1, 0, -1), (0, 1, -1)])
    with pytest.raises(NotEssentialError):
        chamber_complex(braid)


def witness(cc, i):
    """A point inside chamber i: its stored witness, or its antipode's
    negated where it stores none."""
    w = cc.witnesses[i]
    if w is None:
        return tuple(-x for x in cc.witnesses[cc.index[cc.masks[i] ^ (1 << cc.arrangement.m) - 1]])
    return w


def all_witnesses(cc):
    """A point inside every chamber, in id order."""
    return [witness(cc, i) for i in range(len(cc.masks))]


def edge_list(cc):
    """Test oracle: the sorted edge list a complex stored before it streamed
    its edges, its comprehension kept verbatim."""
    index, facets = cc.index, cc.facets
    return sorted((ci, cj, w) for mask, ci in index.items() for w in facets[ci]
                  if (cj := index[mask ^ 1 << w]) > ci)


def _assert_same_complex(fast, gen):
    """Same chambers, the same walls per chamber, and the same edges as
    (mask, mask, wall), whatever the order the walks found them in."""
    assert set(fast.masks) == set(gen.masks)
    for mk in fast.masks:
        assert fast.facets[fast.index[mk]] == gen.facets[gen.index[mk]]

    def edges(cc):
        return {(*sorted((cc.masks[i], cc.masks[j])), h) for i, j, h in cc.edges}
    assert edges(fast) == edges(gen)


# every family with n <= 4: dns(n, n) is B_n and dns(n, 0) is D_n; dns(1, 0)
# has no hyperplane
_SMALL_FAMILIES = [("a", n, None) for n in range(1, 5)] + [
    ("dns", n, s) for n in range(1, 5) for s in range(n + 1) if (n, s) != (1, 0)]


def test_fast_and_general_bfs_agree():
    for fam, n, s in _SMALL_FAMILIES + [("dns", 5, s) for s in range(6)]:
        a = make_family(fam, n, s)
        _assert_same_complex(arr._chamber_bfs(a, True), arr._chamber_bfs(a, False))


@pytest.mark.parametrize("fam, n, s, digest", [
    ("b", 3, None, "58813eef274da302b0b845a95837403e25acd6ac32f4ffe75942dbf975a906e7"),
    ("d", 4, None, "eff7b33a885dedca6bf1fb47ed47271a37e4507abca7bd87d12a92e85a0c69d0"),
    ("dns", 4, 2, "6319795740e66ab6b0396ebe13425ffb15f6c53126a580f44ed0b0f8227d8bee"),
    ("b", 5, None, "eeabf46f475d8720c477c5ba2acb5b2a93450786bff184144b085e59b8ab5dc5"),
    ("dns", 5, 3, "6f501a2e17f39fef34c1dc513b3c3dc6563982111faa395630a57a751beac67d"),
])
def test_fast_walk_witnesses_are_pinned(fam, n, s, digest):
    # the walk's witness lists stay byte-identical when its arithmetic changes
    witnesses = all_witnesses(arr._chamber_bfs(make_family(fam, n, s), True))
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == digest


@pytest.mark.parametrize("fam, n, s, digest", [
    ("b", 3, None, "86368864e287f527fd950d36dd61662cbab64986fa10dbde24df73100f8354dd"),
    ("d", 4, None, "36c74018dbc6f541e6ea8e25ffdf7b93fea4453d68e5490b54c5c93504dd6ac7"),
    ("dns", 4, 2, "f9ad7f08bf3ca84ec432a94074f71f99f3353159c145b7f8c9d574ca77dc4cfa"),
    ("b", 5, None, "c3f8b5ffe8420e308d1d346dab4bf5cbc9c4df3126e908ec230fdea73fa9cfb5"),
    ("dns", 5, 3, "e2c5e412bc55f14c1568f4cd4d35a8e01b5e3919376830038cec2f6a9ca4af33"),
])
def test_fast_walk_facets_and_edges_are_pinned(fam, n, s, digest):
    # wall mode checks these walls up to n = 5 (test_fast_and_general_bfs_agree);
    # the pin holds pivot mode's chamber order and edges byte for byte too
    cc = arr._chamber_bfs(make_family(fam, n, s), True)
    assert hashlib.sha256(repr((cc.facets, list(cc.edges))).encode()).hexdigest() == digest


@pytest.mark.parametrize("case, digest", [
    ("b3", "c2e426e6df7b8649b0cfa69e41851a9425b88a51c3004ad44bf5572c12b7a8f3"),
    ("d4", "5d05adaa08e81e35922b2540672bc8d09452c861930e614df9c3d71454437578"),
    ("dns42", "b80b880ae7be73e10538ba48f368cbf8b27e97b3655139a630e8c058ebe3965e"),
    ("square cone", "37c37ad5c64b16abf28987a356d5998e121c9be680b2ca79297cdd248258fc59"),
    ("random 0", "ef96f704a08c3e9d3a1423300bde1f98ce7ff3ab1b772e8f8accc0c332a85aed"),
    ("random 1", "c88842b8ebfbf0e6b87f3d7917f83abbaf3a2764386d1c76caaa3c1a7cf76d9f"),
])
def test_general_walk_is_pinned(case, digest):
    # wall mode's chambers, witnesses, walls and edges, byte for byte
    a = {"b3": make_family("b", 3), "d4": make_family("d", 4),
         "dns42": make_family("dns", 4, 2),
         "square cone": make_arrangement(3, [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]),
         "random 0": RANDOM_POOL[0], "random 1": RANDOM_POOL[1]}[case]
    cc = arr._chamber_bfs(a, False)
    got = repr((cc.masks, all_witnesses(cc), cc.facets, list(cc.edges)))
    assert hashlib.sha256(got.encode()).hexdigest() == digest


def test_general_bfs_on_non_simplicial_input():
    # three concurrent planes through a line plus two more in R^3; chamber
    # count must match the Moebius-weighted count from the subset expansion
    from interarr.chow import char_poly_bruteforce

    a = make_arrangement(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 2, 3)])
    cc = chamber_complex(a)
    chi = char_poly_bruteforce(a)
    assert len(cc.masks) == (-1) ** a.dim * chi(-1)
    full = (1 << a.m) - 1
    assert all((mk ^ full) in cc.index for mk in cc.masks)


# Integer arrangements of the benchmark's files workload (dim 3, 8 and 10
# normals); neither is simplicial, so their walks use the LP oracle.
RANDOM_POOL = (
    make_arrangement(3, [(0, 1, -2), (1, 0, -1), (1, 2, -1), (1, 2, 2), (2, 1, 2),
                         (2, -2, -1), (1, 0, 2), (2, -1, 2)]),
    make_arrangement(3, [(1, 0, 0), (1, 1, 1), (2, -1, 2), (1, 2, -1), (1, -1, 1),
                         (1, 0, 1), (1, 2, 2), (1, -1, 0), (2, 1, -2), (1, -1, -1)]),
)

# non-simplicial inputs that wall mode walks: it decides their walls with
# every rung, the LP included
_WALL_CASES = {
    "random 0": RANDOM_POOL[0], "random 1": RANDOM_POOL[1],
    "square cone": make_arrangement(3, [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]),
    "five planes": make_arrangement(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 2, 3)]),
}


def _assert_antipodes_copy_the_first(cc, first_witnesses=None):
    """Of each pair C, -C of the walk the chamber found second holds the
    first one's walls and stores no witness, so that its witness is the
    first one's negated, and the first one holds its entry of
    `first_witnesses` when given."""
    full = (1 << cc.arrangement.m) - 1
    copies = 0
    for i, mask in enumerate(cc.masks):
        anti = cc.index[mask ^ full]
        if anti < i:
            copies += 1
            assert cc.facets[i] == cc.facets[anti]
            assert cc.witnesses[i] is None
            assert witness(cc, i) == tuple(-x for x in cc.witnesses[anti])
        else:
            assert cc.witnesses[i] is not None
            if first_witnesses is not None:
                assert cc.witnesses[i] == first_witnesses[i], i
    assert 2 * copies == len(cc.masks)


@pytest.mark.parametrize("case", [*_WALL_CASES, "b3"])
def test_walls_are_decided_once_per_antipodal_pair(monkeypatch, case):
    # wall mode asks about one chamber of each pair C, -C, pivot mode about
    # the seed alone
    a = {**_WALL_CASES, "b3": make_family("b", 3)}[case]
    asked = []
    decide = arr._chamber_walls

    def recording(tables, mask, *rest):
        asked.append(mask)
        return decide(tables, mask, *rest)

    monkeypatch.setattr(arr, "_chamber_walls", recording)
    cc = arr._chamber_bfs(a, False)
    full = (1 << a.m) - 1
    assert len(asked) == len({min(mk, mk ^ full) for mk in asked}) == len(cc.masks) // 2
    if a.simplicial:
        asked.clear()
        arr._chamber_bfs(a, True)
        assert asked == [cc.masks[0]]


@pytest.mark.parametrize("case", ["random 0", "random 1", "dns42"])
def test_wall_mode_runs_no_rung_toward_a_known_antipode(monkeypatch, case):
    # a chamber whose antipode is indexed exists, which proves its wall with
    # the chamber being decided; the walk copies it from that antipode, so
    # no mirror, ray walk or LP may look for a point in it
    a = {**_WALL_CASES, "dns42": make_family("dns", 4, 2)}[case]
    full = (1 << a.m) - 1
    walk = {}
    known = []  # per rung call: is the antipode of its target indexed?
    decide, mirror, ray, lp = (arr._chamber_walls, arr._mirror, arr._try_ray_walk,
                               arr.feasible_strict)

    def deciding(tables, mask, p, row, index):
        walk.update(mask=mask, index=index)
        return decide(tables, mask, p, row, index)

    def targeted(rung):
        def call(*args):
            known.append(args[-1] ^ full in walk["index"])
            return rung(*args)
        return call

    def solving(rows, d):
        # the row the LP is asked to flip names the hyperplane crossed
        signed = arr._signed_rows(a.normals, walk["mask"])
        (i,) = [i for i, r in enumerate(signed) if tuple(-x for x in r) in rows]
        known.append(walk["mask"] ^ 1 << i ^ full in walk["index"])
        return lp(rows, d)

    monkeypatch.setattr(arr, "_chamber_walls", deciding)
    monkeypatch.setattr(arr, "_mirror", targeted(mirror))
    monkeypatch.setattr(arr, "_try_ray_walk", targeted(ray))
    monkeypatch.setattr(arr, "feasible_strict", solving)
    arr._chamber_bfs(a, False)
    assert known and not any(known)


def test_multi_term_non_wall_is_left_to_the_lp():
    # (1, 1, 1) = e1 + e2 + e3 on the positive chamber: no two rows give it,
    # so the pair certificate misses this non-wall and the LP decides it
    a = make_arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    assert not arr._pair_redundant(arr._WalkTables(a.normals), 0, 3)
    assert feasible_strict(arr._signed_rows(a.normals, 1 << 3), 3) is None


# Test oracle: the pair search of the crossing test before it moved to the
# Gram matrix, one 2x2 minor per pair of signed rows, kept verbatim.


def _pair_redundant_minor(normals, mask, i) -> bool:
    rows = arr._signed_rows(normals, mask)
    target = rows[i]
    n = len(target)
    others = rows[:i] + rows[i + 1:]
    for j, rj in enumerate(others):
        for rk in others[j + 1:]:
            pq = None
            for pi in range(n):
                for qi in range(pi + 1, n):
                    det = rj[pi] * rk[qi] - rj[qi] * rk[pi]
                    if det != 0:
                        pq = (pi, qi, det)
                        break
                if pq:
                    break
            if pq is None:
                continue
            pi, qi, det = pq
            # Cramer numerators: the coefficients are cj / det and ck / det
            cj = target[pi] * rk[qi] - target[qi] * rk[pi]
            ck = rj[pi] * target[qi] - rj[qi] * target[pi]
            if det < 0:
                det, cj, ck = -det, -cj, -ck
            if cj < 0 or ck < 0:
                continue
            if all(cj * rj[t] + ck * rk[t] == det * target[t] for t in range(n)):
                return True
    return False


def _assert_pair_certificates_match_minor_oracle(a):
    """The same verdict as the 2x2-minor search on every chamber and
    hyperplane of the wall-mode walk; returns how many were certified."""
    tables = arr._WalkTables(a.normals)
    certified = 0
    for mask in arr._chamber_bfs(a, False).masks:
        for i in range(a.m):
            got = arr._pair_redundant(tables, mask, i)
            assert got == _pair_redundant_minor(a.normals, mask, i), (mask, i)
            certified += got
    return certified


@pytest.mark.parametrize("k", [0, 1])
def test_pair_certificate_matches_minor_oracle(k):
    assert _assert_pair_certificates_match_minor_oracle(RANDOM_POOL[k])


# Test oracle: the Fraction ray walk the crossing test ran before it moved to
# integer crossing times, kept verbatim.


def _try_ray_walk_fraction(normals, mask, p, i, target_mask):
    ai = normals[i]
    si = -1 if mask >> i & 1 else 1
    direction = tuple(-si * x for x in ai)
    t_i = None
    t_next = None
    for j, aj in enumerate(normals):
        sj = -1 if mask >> j & 1 else 1
        slope = sj * dot(aj, direction)
        if slope >= 0:
            continue
        t_j = Fraction(sj * dot(aj, p), -slope)
        if j == i:
            t_i = t_j
        elif t_next is None or t_j < t_next:
            t_next = t_j
    if t_i is None or (t_next is not None and t_next <= t_i):
        return None
    t_mid = t_i + 1 if t_next is None else (t_i + t_next) / 2
    q = scale_to_int([Fraction(x) + t_mid * dx for x, dx in zip(p, direction)])
    return q if _row_mask(_pairings(normals, q)) == target_mask else None


@pytest.mark.parametrize("case", ["random 0", "random 1", "b3", "square cone"])
def test_integer_ray_walk_matches_fraction_oracle(case):
    a = {"random 0": RANDOM_POOL[0], "random 1": RANDOM_POOL[1],
         "b3": make_family("b", 3),
         "square cone": make_arrangement(3, [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)])}[case]
    cc = arr._chamber_bfs(a, False)
    tables = arr._WalkTables(a.normals)
    hits = 0
    for mask, p in zip(cc.masks, all_witnesses(cc)):
        row = _pairings(a.normals, p)
        for i in range(a.m):
            got = arr._try_ray_walk(tables, mask, p, row, i, mask ^ 1 << i)
            want = _try_ray_walk_fraction(a.normals, mask, p, i, mask ^ 1 << i)
            assert got == (want and (want, _pairings(a.normals, want)))
            hits += got is not None
    assert hits


@pytest.mark.parametrize("case", ["b3 full support", "random 0", "random 1"])
def test_mirror_and_ray_walk_rows_are_the_pairings_of_their_points(case):
    # both rungs return the row they tested, (alpha row + beta G_i) / g, and
    # the walks keep it: it must be the point's own pairing row
    a = {"b3 full support": B3_FULL_SUPPORT,
         "random 0": RANDOM_POOL[0], "random 1": RANDOM_POOL[1]}[case]
    tables = arr._WalkTables(a.normals)
    hits = {"mirror": 0, "ray": 0}
    cc = arr._chamber_bfs(a, False)
    for mask, p in zip(cc.masks, all_witnesses(cc)):
        row = _pairings(a.normals, p)
        for i in range(a.m):
            target = mask ^ 1 << i
            for rung, hit in (("mirror", arr._mirror(tables, p, row, i, target)),
                              ("ray", arr._try_ray_walk(tables, mask, p, row, i, target))):
                if hit is not None and (rung == "ray" or not tables.reflections[i][2]):
                    assert hit[1] == _pairings(a.normals, hit[0]), (rung, mask, i)
                    hits[rung] += 1
    assert all(hits.values()), hits


@pytest.mark.parametrize("k", [0, 1])
def test_integer_simplex_matches_fraction_oracle_on_walls(monkeypatch, k):
    # the same witness for every wall the wall-mode walk asks the LP about, and
    # the same None for every non-wall of its first chamber
    a = RANDOM_POOL[k]
    asked = []
    monkeypatch.setattr(arr, "feasible_strict",
                        lambda rows, n: asked.append(rows) or feasible_strict(rows, n))
    cc = arr._chamber_bfs(a, False)
    non_walls = [arr._signed_rows(a.normals, cc.masks[0] ^ 1 << i)
                 for i in range(a.m) if i not in cc.facets[0]]
    assert asked and non_walls
    for rows in asked + non_walls:
        assert feasible_strict(rows, a.dim) == feasible_strict_fraction(rows, a.dim)


# b3 in coordinates where every normal has full support: each normal a
# becomes a M, and M is unimodular (det 1), so the chambers are b3's
_FULL_SUPPORT_BASIS = ((3, 3, 4), (2, 1, 2), (1, -2, -1))
B3_FULL_SUPPORT = make_arrangement(
    3, [tuple(dot(a, col) for col in zip(*_FULL_SUPPORT_BASIS))
        for a in make_family("b", 3).normals], simplicial=True)


# Test oracle: the mirror step before it read only the support of the Gram
# row, kept verbatim.


def _try_mirror_dense(normals, gram, p, row, i, target_mask):
    ai, gi = normals[i], gram[i]
    n2, aip = gi[i], row[i]
    q = [n2 * x - 2 * aip * y for x, y in zip(p, ai)]
    qrow = [n2 * x - 2 * aip * y for x, y in zip(row, gi)]
    g = math.gcd(*q)
    if g > 1:
        q = [x // g for x in q]
        qrow = [x // g for x in qrow]
    if _row_mask(qrow) != target_mask:
        return None
    return tuple(q), tuple(qrow)


@pytest.mark.parametrize("case", ["b3", "d4", "dns42", "dns53", "b3 full support",
                                  "random 0", "random 1"])
def test_sparse_mirror_matches_dense_oracle(case):
    # every chamber of both walks against every hyperplane, walls or not:
    # the same None or the same (q, qrow) as the dense oracle
    a = {"b3": make_family("b", 3), "d4": make_family("d", 4),
         "dns42": make_family("dns", 4, 2), "dns53": make_family("dns", 5, 3),
         "b3 full support": B3_FULL_SUPPORT,
         "random 0": RANDOM_POOL[0], "random 1": RANDOM_POOL[1]}[case]
    random_case = case.startswith("random")
    walks = [arr._chamber_bfs(a, False)]
    if not random_case:
        walks.append(arr._chamber_bfs(a, True))
    tables = arr._WalkTables(a.normals)
    gram = tables.gram
    seen = set()  # (gcd(q) == G_ii, a point was returned)
    for mask, p in ((mk, p) for cc in walks for mk, p in zip(cc.masks, all_witnesses(cc))):
        row = _pairings(a.normals, p)
        for i in range(a.m):
            target = mask ^ 1 << i
            got = arr._mirror(tables, p, row, i, target)
            assert got == _try_mirror_dense(a.normals, gram, p, row, i, target), (mask, i)
            reflected = [gram[i][i] * x - 2 * row[i] * y for x, y in zip(p, a.normals[i])]
            seen.add((math.gcd(*reflected) == gram[i][i], got is not None))
    # the sparse step both lands and misses; the dense one is reached where
    # the reflection is not integral
    assert {(True, True), (True, False)} <= seen
    assert any(not sparse for sparse, _ in seen) == (random_case or case == "b3 full support")


# Test oracle: the mirror step before it read the walk's reflection table,
# kept verbatim with the Gram supports it was given.  It scales by n2 and
# divides by the gcd of the scaled point, so for a primitive point it
# returns what q = p - c a_i gives where the reflection is integral.


def _supports(gram):
    return tuple(tuple((j, x) for j, x in enumerate(gi) if x) for gi in gram)


def _try_mirror(normals, gram, supports, p, row, i, target_mask):
    ai, gi = normals[i], gram[i]
    n2, aip = gi[i], row[i]
    q = [n2 * x - 2 * aip * y for x, y in zip(p, ai)]
    g = math.gcd(*q)
    if g == n2:
        c = 2 * aip // n2
        qrow = list(row)
        for j, gij in supports[i]:
            d = qrow[j] - c * gij
            if not d or (d < 0) != (target_mask >> j & 1):
                return None
            qrow[j] = d
        return tuple([x // g for x in q]), tuple(qrow)
    qrow = [n2 * x - 2 * aip * y for x, y in zip(row, gi)]
    if g > 1:
        q = [x // g for x in q]
        qrow = [x // g for x in qrow]
    if _row_mask(qrow) != target_mask:
        return None
    return tuple(q), tuple(qrow)


_MIRROR_CASES = {"b3": make_family("b", 3), "d4": make_family("d", 4),
                 "dns42": make_family("dns", 4, 2), "b3 full support": B3_FULL_SUPPORT,
                 "random 0": RANDOM_POOL[0], "random 1": RANDOM_POOL[1]}


@pytest.mark.parametrize("case", list(_MIRROR_CASES))
def test_table_mirror_matches_gcd_oracle(case):
    # every chamber of the walk against every hyperplane, walls or not
    a = _MIRROR_CASES[case]
    random_case = case.startswith("random")
    cc = arr._chamber_bfs(a, not random_case)
    tables = arr._WalkTables(a.normals)
    supports = _supports(tables.gram)
    integral = set()
    for mask, p in zip(cc.masks, all_witnesses(cc)):
        row = _pairings(a.normals, p)
        for i in range(a.m):
            target = mask ^ 1 << i
            got = arr._mirror(tables, p, row, i, target)
            assert got == _try_mirror(a.normals, tables.gram, supports, p, row, i, target), (
                mask, i)
            integral.add(tables.reflections[i][2])
    # the integral step is taken in the root systems and the random pool; the
    # full-support image of b3 has non-integral reflections only
    assert integral == ({False} if case == "b3 full support"
                        else {True, False} if random_case else {True})


@pytest.mark.parametrize("a", [
    *(pytest.param(make_family(fam, n, s), id=f"{fam}-{n}-{s}")
      for fam, n, s in _SMALL_FAMILIES),
    pytest.param(B3_FULL_SUPPORT, id="b3-full-support"),
    *(pytest.param(a, id=f"random-{k}") for k, a in enumerate(RANDOM_POOL))])
def test_walk_witnesses_are_primitive(a):
    # the integral mirror returns the gcd oracle's point only from a
    # primitive one; every witness of both walks is primitive
    for pivot in {False, a.simplicial}:
        for w in all_witnesses(arr._chamber_bfs(a, pivot)):
            assert math.gcd(*w) == 1, (pivot, w)


# Test oracle: the simplicial walk before it copied each chamber from its
# antipode, kept verbatim with the exact facet solve it fell back to where
# the mirrored witness missed the neighbour.


def _witness_from_facets(a, mask: int, facets):
    """An interior point of the chamber solved from its walls, with its
    pairing row."""
    rows = []
    for f in facets:
        v = a.normals[f]
        rows.append(tuple(-x for x in v) if mask >> f & 1 else v)
    sol = solve_square_int(rows, [1] * a.dim)
    if sol is None:
        raise arr._SimplicialityError("wall normals are dependent")
    nums, den = sol
    wit = gcd_reduced([-x for x in nums] if den < 0 else nums)
    row = _pairings(a.normals, wit)
    if _row_mask(row) != mask:
        raise arr._SimplicialityError("facet witness landed in the wrong chamber")
    return wit, row


def _chamber_bfs_by_facet_solve(a):
    normals = a.normals
    d = a.dim
    m = a.m
    tables = arr._WalkTables(normals)
    p0 = arr.generic_point(normals, d)
    row0 = _pairings(normals, p0)
    mask0 = _row_mask(row0)
    facets0 = arr._chamber_walls(tables, mask0, p0, row0, {})[0]
    if len(facets0) != d:
        raise arr._SimplicialityError(f"seed chamber has {len(facets0)} walls, expected {d}")
    pivots: dict[int, int] = {}  # 2 (w m + k) + (sides of w and k differ) -> pivot

    masks = [mask0]
    witnesses = [p0]
    facets = [facets0]
    index = {mask0: 0}
    rows = [row0]  # pairing rows, dropped once their chamber is expanded
    for ci, mask in enumerate(masks):  # breadth-first: masks grows as chambers are found
        walls = facets[ci]
        row = rows[ci]
        rows[ci] = None
        for w in walls:
            nmask = mask ^ (1 << w)
            ni = index.get(nmask)
            if ni is None:
                nf = [w]
                base = 2 * w * m
                for k in walls:
                    if k == w:
                        continue
                    key = base + 2 * k + ((mask >> w ^ mask >> k) & 1)
                    try:
                        h = pivots[key]
                    except KeyError:
                        h = pivots[key] = arr._pivot(tables, w, k, not key & 1)
                    nf.append(h)
                if len(set(nf)) != d:
                    raise arr._SimplicialityError("pivoted walls collide")
                # mirroring the parent witness is usually an interior point of
                # the neighbour and avoids the exact solve; verify, never trust
                hit = arr._mirror(tables, witnesses[ci], row, w, nmask)
                if hit is None or max(map(abs, hit[0])) > 1 << 24:
                    hit = _witness_from_facets(a, nmask, nf)
                ni = len(masks)
                masks.append(nmask)
                witnesses.append(hit[0])
                rows.append(hit[1])
                facets.append(tuple(sorted(nf)))
                index[nmask] = ni
            elif w not in facets[ni]:
                # a wall of one chamber is a wall of the chamber across it
                raise arr._SimplicialityError("crossed wall is not a wall of the neighbour")
    return arr.ChamberComplex(a, masks, witnesses, facets, index)


@pytest.mark.parametrize("a, pivot", [
    *(pytest.param(make_family(fam, n, s), True, id=f"{fam}-{n}-{s}")
      for fam, n, s in _SMALL_FAMILIES),
    pytest.param(B3_FULL_SUPPORT, True, id="b3-full-support"),
    *(pytest.param(make_family("dns", 5, s), True, id=f"dns-5-{s}") for s in range(6)),
    *(pytest.param(make_family(fam, n, s), False, id=f"walls-{fam}-{n}-{s}")
      for fam, n, s in _SMALL_FAMILIES),
    *(pytest.param(a, False, id=f"walls-{case}") for case, a in _WALL_CASES.items())])
def test_antipode_copies_match_the_facet_solve_walk(a, pivot):
    # the same chambers in the same order, with the same walls and edges, as
    # the walk that decided every chamber (pivot mode: the facet-solve walk,
    # wall mode: the ladder, whose witness the first chamber of each pair
    # C, -C holds); the chamber found second holds the first one's walls and
    # no witness, and every witness is primitive and certified; the edges'
    # number is a pass over the records before the certificate, its count after
    cc = arr._chamber_bfs(a, pivot)
    old = (_chamber_bfs_by_facet_solve if pivot else _chamber_bfs_by_ladder)(a)
    edges = edge_list(old)
    assert (cc.masks, cc.facets, list(cc.edges), len(cc.edges)) == (
        old.masks, old.facets, edges, len(edges))
    _assert_antipodes_copy_the_first(cc, None if pivot else old.witnesses)
    assert all(math.gcd(*w) == 1 for w in all_witnesses(cc))
    _verify_walls(cc)
    assert (cc.edge_count, len(cc.edges)) == (len(edges), len(edges))


# Test oracle: the pivot before the walk kept a table of rank-2 flats, which
# scanned every hyperplane for each (w, k, side), kept verbatim.


def _pivot_by_scan(gram, w, k, same_side: bool) -> int:
    best, best_a, best_b = k, 1, None
    for h in range(len(gram)):
        if h == w or h == k:
            continue
        span = arr._span_pair(gram, w, k, h)
        if span is None:
            continue
        alpha, beta = span
        if ((alpha > 0) == (beta > 0)) != same_side:
            raise arr._SimplicialityError("a hyperplane cuts the sector between two walls")
        alpha, beta = abs(alpha), abs(beta)
        if best_b is None or beta * best_a < best_b * alpha:
            best, best_a, best_b = h, alpha, beta
    return best


def _pivot_or_error(pivot, *args):
    try:
        return pivot(*args)
    except arr._SimplicialityError as exc:
        return str(exc)


def _non_simplicial_files():
    from test_cli import NON_SIMPLICIAL_NORMALS

    return {f"non-simplicial {t}": make_arrangement(3, [tuple(map(int, ln.split()))
                                                        for ln in normals])
            for t, normals in enumerate(NON_SIMPLICIAL_NORMALS)}


@pytest.mark.parametrize("case", ["b3", "d4", "dns42", "b3 full support", "random 0",
                                  "random 1", "non-simplicial"])
def test_table_pivot_matches_scan_oracle(case):
    # both sides of every pair of walls of every chamber, the rejection of a
    # hyperplane that cuts the sector between two walls included
    arrangements = (_non_simplicial_files() if case == "non-simplicial"
                    else {case: _MIRROR_CASES[case]})
    outcomes = {}
    for name, a in arrangements.items():
        tables = arr._WalkTables(a.normals)
        for walls in arr._chamber_bfs(a, False).facets:
            for w, k in permutations(walls, 2):
                for same_side in (True, False):
                    got = _pivot_or_error(arr._pivot, tables, w, k, same_side)
                    assert got == _pivot_or_error(_pivot_by_scan, tables.gram, w, k,
                                                  same_side), (name, w, k, same_side)
                    outcomes.setdefault(name, set()).add(got)
    # pivots are found, and refused on the side where a third hyperplane
    # through the pair's flat would cut the sector
    assert all(any(isinstance(h, int) for h in got) for got in outcomes.values())
    assert "a hyperplane cuts the sector between two walls" in set().union(*outcomes.values())


@pytest.mark.parametrize("t, reason, by_facet_solve", [
    (0, "seed chamber has 4 walls, expected 3", None),
    (1, "facet witness landed in the wrong chamber", None),
    (2, "crossed wall is not a wall of the neighbour", None),
    # copying chambers from their antipodes makes fewer pivots: a revisit
    # refuses this file before the pivot that refuses it in the oracle
    (3, "crossed wall is not a wall of the neighbour",
     "a hyperplane cuts the sector between two walls"),
])
def test_fast_walk_refuses_each_non_simplicial_file(t, reason, by_facet_solve):
    a = _non_simplicial_files()[f"non-simplicial {t}"]
    for walk, want in ((partial(arr._chamber_bfs, pivot=True), reason),
                       (_chamber_bfs_by_facet_solve, by_facet_solve or reason)):
        with pytest.raises(arr._SimplicialityError) as exc:
            walk(a)
        assert str(exc.value) == want, walk


@pytest.mark.parametrize("case", ["b3", "dns42", "random 0", "random 1"])
def test_rank_two_tables_match_a_full_scan(case):
    a = _MIRROR_CASES[case]
    tables = arr._WalkTables(a.normals)
    gram = tables.gram
    for w, k in permutations(range(a.m), 2):
        assert tables.line(w, k) == tuple(
            (h, *arr._span_pair(gram, w, k, h)) for h in range(a.m)
            if h != w and h != k and arr._span_pair(gram, w, k, h) is not None)
    for i in range(a.m):
        # grouped by flat; a chamber's sign test reads them in any order
        assert sorted(tables.spans(i)) == [
            (j, k, *arr._span_pair(gram, j, k, i)) for j, k in combinations(range(a.m), 2)
            if i != j and i != k and arr._span_pair(gram, j, k, i) is not None]


@st.composite
def _essential_small(draw):
    dim = draw(st.integers(2, 4))
    vecs = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim).filter(any),
                         min_size=dim, max_size=dim + 2))
    a = make_arrangement(dim, sorted({primitive_vector(v) for v in vecs}))
    assume(a.is_essential())
    return a


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_essential_small())
@example(make_arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]))
def test_cone_certificate_matches_lp_oracle(a):
    tables = arr._WalkTables(a.normals)
    for mask in arr._chamber_bfs(a, False).masks:
        for i in range(a.m):
            if arr._pair_redundant(tables, mask, i):
                # sound: a certified non-wall has no point across it
                assert feasible_strict(arr._signed_rows(a.normals, mask ^ 1 << i),
                                       a.dim) is None, (mask, i)
    _assert_pair_certificates_match_minor_oracle(a)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_essential_small())
@example(make_arrangement(3, make_family("b", 3).normals))
@example(B3_FULL_SUPPORT)
def test_flagged_walk_matches_general_bfs_random(a):
    # flagged simplicial, pivot mode either finds wall mode's complex or
    # refuses and hands the input to wall mode
    cc = chamber_complex(make_arrangement(a.dim, a.normals, simplicial=True))
    gen = arr._chamber_bfs(a, False)
    assert (cc.masks, cc.facets, list(cc.edges)) == (gen.masks, gen.facets, edge_list(gen))


# Test oracle: the crossing ladder the wall-mode walk ran before it decided a
# chamber's walls in two passes, kept verbatim.  It asks the full LP about
# every hyperplane that the three cheap rungs leave open.


def _cross(tables, mask, p, row, i):
    nmask = mask ^ 1 << i
    hit = arr._mirror(tables, p, row, i, nmask)
    if hit is not None:
        return hit[0]
    hit = arr._try_ray_walk(tables, mask, p, row, i, nmask)
    wit = hit and hit[0]
    if wit is None and not arr._pair_redundant(tables, mask, i):
        wit = arr.feasible_strict(arr._signed_rows(tables.normals, nmask), len(p))
    return wit


def _chamber_bfs_by_ladder(a):
    normals = a.normals
    p0 = arr.generic_point(normals, a.dim)
    mask0 = _row_mask(_pairings(normals, p0))
    masks = [mask0]
    witnesses = [p0]
    facets = []
    index = {mask0: 0}
    tables = arr._WalkTables(normals)
    for ci, mask in enumerate(masks):
        p = witnesses[ci]
        row = _pairings(normals, p)
        walls = []
        for i in range(a.m):
            nmask = mask ^ (1 << i)
            if nmask not in index:
                wit = _cross(tables, mask, p, row, i)
                if wit is None:
                    continue
                index[nmask] = len(masks)
                masks.append(nmask)
                witnesses.append(wit)
            walls.append(i)
        facets.append(tuple(walls))
    return arr.ChamberComplex(a, masks, witnesses, facets, index)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_essential_small())
@example(RANDOM_POOL[0])
@example(RANDOM_POOL[1])
@example(make_arrangement(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 2, 3)]))
@example(make_arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]))
def test_two_pass_walls_match_the_ladder_oracle(a):
    # chambers in the same order with the same walls and edges; the first
    # chamber of each pair C, -C has the ladder's witness, the second none
    cc, ladder = arr._chamber_bfs(a, False), _chamber_bfs_by_ladder(a)
    assert (cc.masks, cc.facets, list(cc.edges)) == (ladder.masks, ladder.facets,
                                                     edge_list(ladder))
    _assert_antipodes_copy_the_first(cc, ladder.witnesses)


@pytest.mark.parametrize("k", [0, 1])
def test_known_walls_refute_non_walls_before_the_full_lp(monkeypatch, k):
    # every LP question of the walk is a subsystem over the chamber's known
    # walls, followed by the full system only when the subsystem is feasible
    a = RANDOM_POOL[k]
    asked = []

    def recording(rows, n):
        asked.append((len(rows), feasible_strict(rows, n)))
        return asked[-1][1]
    monkeypatch.setattr(arr, "feasible_strict", recording)
    _chamber_bfs_by_ladder(a)
    ladder = len(asked)
    asked.clear()
    arr._chamber_bfs(a, False)
    full = refuted = t = 0
    while t < len(asked):
        size, wit = asked[t]
        assert size < a.m
        if wit is None:
            refuted += 1
            t += 1
        else:
            assert asked[t + 1][0] == a.m
            full += 1
            t += 2
    # most non-walls never reach the full system
    assert refuted > 2 * full and 3 * full < ladder, (refuted, full, ladder)


def _f_vector_by_walks(a):
    """Oracle: count the chambers of every restriction A^X by a chamber walk
    inside X, in integer coordinates."""
    lat = intersection_lattice(a)
    out = [0] * (a.dim + 1)
    for flat in lat.elements:
        out[a.dim - flat.rank] += chamber_count(restrict_to_flat(a, flat.hyperplanes))
    return out


# Test oracle: the f-vector before one Moebius inversion served every flat,
# kept verbatim.  It runs a full characteristic-polynomial pass above each
# flat and sums |mu| over it.


def _f_vector_by_moebius_passes(a):
    lat = intersection_lattice(a)
    out = [0] * (a.dim + 1)
    for x, rank in enumerate(lat.rank):
        out[a.dim - rank] += sum(abs(chi[0]) for chi in characteristic_polys(lat, x).values())
    return out


def test_f_vector_matches_the_per_flat_moebius_oracle():
    cases = [make_family("b", n) for n in range(1, 6)]
    cases += [make_family("d", n) for n in range(3, 6)]
    cases += [make_family("dns", n, s) for n in range(1, 6) for s in range(n + 1)
              if (n, s) != (1, 0)]
    cases += [make_family("a", n) for n in range(2, 6)]
    for a in cases + list(RANDOM_POOL):
        assert f_vector(a) == _f_vector_by_moebius_passes(a), a.normals


def _euler_ok(fv) -> bool:
    d = len(fv) - 1
    return sum((-1) ** k * fv[k + 1] for k in range(d)) == 1 + (-1) ** (d - 1)


def test_f_vector_matches_walk_oracle():
    cases = [make_family(f, n) for f, n in
             [("b", 2), ("b", 3), ("b", 4), ("d", 3), ("d", 4), ("a", 3), ("a", 4)]]
    cases += [make_family("dns", 4, s) for s in range(5)]
    for a in cases + list(RANDOM_POOL):
        assert f_vector(a) == _f_vector_by_walks(a), a.normals


@st.composite
def _essential_dim3(draw):
    vecs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * 3).filter(any),
                         min_size=3, max_size=7))
    a = make_arrangement(3, sorted({primitive_vector(v) for v in vecs}))
    assume(a.is_essential())
    return a


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_essential_dim3())
def test_f_vector_property_random_dim3(a):
    fv = f_vector(a)
    assert fv == _f_vector_by_walks(a)
    assert fv[-1] == chamber_count(a)
    assert _euler_ok(fv)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_essential_dim3())
def test_chow_chains_match_recursion_random_dim3(a):
    lat = intersection_lattice(a)
    assert chow_via_chains(lat, min_atom_label(lat)) == chow_recursive(lat)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_essential_dim3())
def test_fast_walk_matches_general_bfs_random_dim3(a):
    # pivot mode either notices that the input is not simplicial or finds
    # exactly the complex of wall mode
    try:
        fast = arr._chamber_bfs(a, True)
    except arr._SimplicialityError:
        return
    _assert_same_complex(fast, arr._chamber_bfs(a, False))


def test_simplicial_flag_runs_its_own_walk(monkeypatch):
    # the flag selects pivot mode; a file that pivot mode refuses is walked
    # again in wall mode
    modes = []
    walk = arr._chamber_bfs

    def recording(a, pivot):
        modes.append(pivot)
        return walk(a, pivot)

    monkeypatch.setattr(arr, "_chamber_bfs", recording)
    chamber_complex.cache_clear()  # earlier tests may have walked these
    normals = make_family("b", 3).normals
    plain = chamber_complex(make_arrangement(3, normals))
    flagged = chamber_complex(make_arrangement(3, normals, simplicial=True))
    assert modes == [False, True]
    assert flagged is not plain and set(flagged.masks) == set(plain.masks)
    cone = _non_simplicial_files()["non-simplicial 0"]
    refused = chamber_complex(make_arrangement(3, cone.normals, simplicial=True))
    assert modes == [False, True, True, False]
    walls = walk(cone, False)
    assert (refused.masks, refused.facets) == (walls.masks, walls.facets)


def test_f_vector_examples():
    assert f_vector(make_family("d", 3)) == [1, 14, 36, 24]
    assert f_vector(make_arrangement(1, [(1,)])) == [1, 2]
    b2 = f_vector(make_family("b", 2))
    assert b2 == [1, 8, 8]
    assert f_vector(make_family("b", 5)) == [1, 242, 2640, 8160, 9600, 3840]


def test_f_vector_euler_relation():
    for fam, n, s in [("b", 2, None), ("b", 3, None), ("d", 3, None),
                      ("dns", 3, 2), ("a", 3, None), ("dns", 4, 1)]:
        assert _euler_ok(f_vector(make_family(fam, n, s)))


def test_f_vector_matches_h_and_chambers():
    for fam, n, s in [("b", 2, None), ("d", 3, None), ("b", 3, None)]:
        a = make_family(fam, n, s)
        fv = f_vector(a)
        h = f_to_h(f_polynomial(fv))
        assert h(1) == chamber_count(a) == fv[-1]


def test_intersection_lattice_b2():
    lat = intersection_lattice(make_family("b", 2))
    assert len(lat) == 6
    assert sorted(lat.rank) == [0, 1, 1, 1, 1, 2]
    assert sum(1 for _ in lat.maximal_chains(lat.bottom, lat.top)) == 4
    check_graded(lat)


def test_intersection_lattice_single_hyperplane():
    lat = intersection_lattice(make_arrangement(1, [(1,)]))
    assert len(lat) == 2 and lat.height == 1


def closure_of(a, subset) -> frozenset[int]:
    """All hyperplanes containing the intersection of the given ones."""
    basis = EchelonBasis()
    for h in subset:
        basis.add(a.normals[h])
    return frozenset(h for h in range(a.m) if not any(basis.residual(a.normals[h])))


def _lattice_by_every_closure(a):
    """Oracle: close every (flat, hyperplane outside it) pair from scratch,
    then number the flats by (rank, sorted hyperplanes)."""
    ranks = {frozenset(): 0}
    pairs = set()
    layer = [frozenset()]
    while layer:
        nxt = set()
        for f in layer:
            for h in range(a.m):
                if h not in f:
                    g = closure_of(a, f | {h})
                    ranks[g] = ranks[f] + 1
                    pairs.add((f, g))
                    nxt.add(g)
        layer = nxt
    flats = sorted((Flat(f, r) for f, r in ranks.items()), key=Flat.sort_key)
    ids = {f.hyperplanes: i for i, f in enumerate(flats)}
    covers = [[] for _ in flats]
    for lo, hi in pairs:
        covers[ids[lo]].append(ids[hi])
    return flats, [sorted(c) for c in covers]


def test_intersection_lattice_matches_every_closure_oracle():
    for fam in ("b", "a"):
        for n in range(2, 6):
            lat = intersection_lattice(make_family(fam, n))
            flats, covers = _lattice_by_every_closure(make_family(fam, n))
            assert list(lat.elements) == flats, (fam, n)
            assert [list(c) for c in lat.covers] == covers, (fam, n)
            assert lat.rank == tuple(f.rank for f in flats)
            assert (lat.bottom, lat.top) == (0, len(flats) - 1)


def _join(lat, x, y):
    masks = lat._ensure_down_masks()
    uppers = [z for z in range(len(lat))
              if masks[z] >> x & 1 and masks[z] >> y & 1]
    top = min(uppers, key=lambda z: lat.rank[z])
    assert all(lat.leq(top, z) for z in uppers if lat.rank[z] == lat.rank[top])
    return top


def _meet(lat, x, y):
    masks = lat._ensure_down_masks()
    both = masks[x] & masks[y]
    lowers = [z for z in range(len(lat)) if both >> z & 1]
    return max(lowers, key=lambda z: lat.rank[z])


def test_geometric_lattice_axioms():
    rng = random.Random(11)
    for fam, n, s in [("b", 2, None), ("b", 3, None), ("d", 3, None), ("dns", 3, 1)]:
        lat = intersection_lattice(make_family(fam, n, s))
        atoms = lat.atoms()
        pairs = [(x, y) for x in range(len(lat)) for y in range(len(lat))]
        for x, y in pairs:
            j, m = _join(lat, x, y), _meet(lat, x, y)
            assert lat.rank[j] + lat.rank[m] <= lat.rank[x] + lat.rank[y]
        for x in range(len(lat)):
            below = [a for a in atoms if lat.leq(a, x)]
            if below:
                j = below[0]
                for a in below[1:]:
                    j = _join(lat, j, a)
                assert j == x
            else:
                assert x == lat.bottom
    lat4 = intersection_lattice(make_family("b", 4))
    for _ in range(300):
        x, y = rng.randrange(len(lat4)), rng.randrange(len(lat4))
        j, m = _join(lat4, x, y), _meet(lat4, x, y)
        assert lat4.rank[j] + lat4.rank[m] <= lat4.rank[x] + lat4.rank[y]


def test_matroid_rank_examples_and_axioms():
    # the rank of a subarrangement is the matroid rank of its hyperplanes
    def rank(a, subset):
        return Arrangement(a.dim, tuple(a.normals[h] for h in sorted(subset))).rank()

    b2 = make_family("b", 2)
    assert rank(b2, []) == 0
    assert rank(b2, range(4)) == 2
    assert rank(b2, [0, 1]) == 2
    rng = random.Random(5)
    a = make_family("b", 3)
    ground = range(a.m)
    for _ in range(200):
        s = frozenset(e for e in ground if rng.random() < 0.4)
        t = frozenset(e for e in ground if rng.random() < 0.4)
        rs, rt = rank(a, s), rank(a, t)
        assert 0 <= rs <= len(s)
        if s <= t:
            assert rs <= rt
        assert rank(a, s & t) + rank(a, s | t) <= rs + rt


def test_restrict_b2_to_coordinate():
    r = restrict_to_flat(make_family("b", 2), [2])
    assert r.dim == 1 and r.normals == ((1,),)


def test_restrict_coordinate_hyperplane_gives_smaller_b_lattice():
    for n in (2, 3, 4):
        bn = make_family("b", n)
        coord_idx = bn.normals.index(tuple(1 if i == 0 else 0 for i in range(n)))
        restricted = restrict_to_flat(bn, [coord_idx])
        if n == 2:
            assert restricted.m == 1
            continue
        assert lattice_isomorphic(intersection_lattice(restricted),
                                  intersection_lattice(make_family("b", n - 1)))


def test_restrict_single_hyperplane_is_empty():
    r = restrict_to_flat(make_arrangement(1, [(1,)]), [0])
    assert r.dim == 0 and r.m == 0
    assert len(intersection_lattice(r)) == 1


def test_restriction_lattice_is_the_upper_interval():
    # L(A^X) = [X, top]: the restriction to every flat has the upper
    # interval above it as its lattice of flats
    cases = [make_family("b", 3), make_family("d", 4), make_family("dns", 4, 2)]
    for a in cases + list(RANDOM_POOL):
        lat = intersection_lattice(a)
        for x, flat in enumerate(lat.elements):
            sub = restrict_to_flat(a, flat.hyperplanes)
            assert sub.dim == a.dim - flat.rank and sub.is_essential()
            assert lattice_isomorphic(intersection_lattice(sub),
                                      contract_interval(lat, x, lat.top)), (a, flat)


def test_contract_interval():
    lat = intersection_lattice(make_family("b", 3))
    single = contract_interval(lat, lat.bottom, lat.bottom)
    assert len(single) == 1
    whole = contract_interval(lat, lat.bottom, lat.top)
    assert len(whole) == len(lat)
    # interval above a coordinate-hyperplane atom is the next smaller type-B lattice
    for n in (3, 4):
        bn = make_family("b", n)
        latn = intersection_lattice(bn)
        coord = bn.normals.index(tuple(1 if i == 0 else 0 for i in range(n)))
        atom = next(i for i, f in enumerate(latn.elements)
                    if f.rank == 1 and f.hyperplanes == frozenset({coord}))
        upper = contract_interval(latn, atom, latn.top)
        assert lattice_isomorphic(upper, intersection_lattice(make_family("b", n - 1)))


def test_closure():
    b2 = make_family("b", 2)
    assert closure_of(b2, []) == frozenset()
    assert closure_of(b2, [0, 1]) == frozenset(range(4))


def test_file_format_round_trip(tmp_path):
    a = make_family("dns", 3, 1)
    text = arrangement_to_text(a)
    back = parse_arrangement_text(text)
    assert back.dim == a.dim and back.normals == a.normals
    assert parse_arrangement_text("# comment\ndim 2\n1 -1\n# more\n1 1\n").m == 2
    with pytest.raises(InvalidParamsError):
        parse_arrangement_text("1 2\n")
    with pytest.raises(InvalidParamsError):
        parse_arrangement_text("dim 2\n1 2 3\n")


_ENTRY = st.one_of(st.integers(-3, 3), st.integers(2**40, 2**64),
                   st.integers(-2**64, -2**40))
_NOISE = st.sampled_from(["", "   ", "# comment", "  # 1 2 3", "#dim 9"])
# up to dim + 4 = 8 normals and the dim line, with noise after the last one
_MAX_LINES = 10


@st.composite
def _essential_integer(draw):
    dim = draw(st.integers(1, 4))
    vecs = draw(st.lists(st.tuples(*[_ENTRY] * dim).filter(any),
                         min_size=dim, max_size=dim + 4))
    a = make_arrangement(dim, dict.fromkeys(primitive_vector(v) for v in vecs))
    assume(a.is_essential())
    return a


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_essential_integer(),
       st.lists(st.lists(_NOISE, max_size=2), min_size=_MAX_LINES, max_size=_MAX_LINES))
@example(make_arrangement(2, [(2**41 + 1, -3), (-5, 2**45), (1, 1)]), [["# c"], [""]] * 5)
def test_file_format_round_trip_random(a, noise):
    text = arrangement_to_text(a)
    assert parse_arrangement_text(text) == a
    # comment lines and blank lines anywhere are ignored
    lines = []
    for extra, line in zip(noise, text.splitlines() + [""]):
        lines += extra + [line]
    assert parse_arrangement_text("\n".join(lines)) == a


def test_sign_strings_are_stable():
    # golden ordering: BFS from the dominant chamber over sorted walls
    cs = chamber_complex(make_family("b", 2))
    assert cs.sign_strings()[0] == "++++"


def test_fast_and_general_bfs_agree_on_restrictions():
    # restrictions of simplicial arrangements are simplicial but far less
    # symmetric; both walks must produce identical complexes on them
    for base in (make_family("b", 4), make_family("d", 4)):
        for h in range(base.m):
            sub = restrict_to_flat(base, [h])
            _assert_same_complex(arr._chamber_bfs(sub, True),
                                 arr._chamber_bfs(sub, False))


def test_random_arrangements_match_bruteforce(tmp_path):
    from itertools import product

    from interarr.feasibility import feasible_strict
    from interarr.linalg import primitive_vector

    rng = random.Random(99)
    done = 0
    while done < 12:
        dim = rng.choice([2, 3])
        m = rng.randint(2, 5)
        vecs = set()
        while len(vecs) < m:
            v = tuple(rng.randint(-4, 4) for _ in range(dim))
            if any(v):
                vecs.add(primitive_vector(v))
        a = make_arrangement(dim, sorted(vecs))
        if a.rank() < a.dim:
            continue
        done += 1
        brute = set()
        for signs in product("+-", repeat=a.m):
            rows = [vv if c == "+" else tuple(-x for x in vv)
                    for vv, c in zip(a.normals, signs)]
            if feasible_strict(rows, a.dim) is not None:
                brute.add("".join(signs))
        assert frozenset(chamber_complex(a).sign_strings()) == brute, a.normals
