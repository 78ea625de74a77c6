import random

import pytest

from interarr.arrangement import (ChamberComplex, chamber_complex,
                                  make_arrangement, make_family)
from interarr.feasibility import CertificateError
from interarr.linalg import dot
from interarr.poly import IntPolynomial, f_to_h, is_palindromic
from interarr.arrangement import f_polynomial, f_vector, chamber_count
from interarr.topegraph import (BaseNotAChamberError, NotSimplicialError,
                                _verify_walls, build_tope_graph, dump_tope_graph,
                                h_via_indegree, h_via_separation, in_degrees)
from test_arrangement import B3_FULL_SUPPORT, all_witnesses, edge_list, witness


def edge_degrees(g):
    """Chamber degrees counted from the edge list, which holds each wall
    once: they equal the wall counts only if every wall is recorded by both
    of its chambers."""
    deg = [0] * len(g.masks)
    for i, j, _ in g.edges:
        deg[i] += 1
        deg[j] += 1
    return deg


def test_single_hyperplane_graph():
    g = build_tope_graph(make_arrangement(1, [(1,)]))
    assert len(g.vertices) == 2 and len(g.edges) == 1
    assert in_degrees(g, "+") == [int(v == "-") for v in g.sign_strings()]
    assert h_via_indegree(g) == IntPolynomial((1, 1))


def test_b2_is_an_octagon():
    g = build_tope_graph(make_family("b", 2))
    assert len(g.vertices) == 8 and len(g.edges) == 8
    assert edge_degrees(g) == [len(f) for f in g.facets] == [2] * 8
    h = h_via_indegree(g)
    assert h == IntPolynomial((1, 6, 1))


def test_d3_simplicial_degrees():
    g = build_tope_graph(make_family("d", 3))
    assert len(g.vertices) == 24
    assert edge_degrees(g) == [len(f) for f in g.facets] == [3] * 24


def test_in_degrees_unique_source_and_antipode():
    g = build_tope_graph(make_family("d", 3))
    signs = g.sign_strings()
    for base in (signs[0], signs[7]):
        indeg = in_degrees(g, base)
        assert indeg.count(0) == 1
        assert indeg[signs.index(base)] == 0
        anti = "".join("-" if c == "+" else "+" for c in base)
        assert indeg[signs.index(anti)] == 3
        assert sum(indeg) == len(g.edges)


def test_base_rejects_non_chamber():
    g = build_tope_graph(make_family("b", 2))
    # "++" is too short: read as a bitmask it would be the chamber "++++"
    for base in ("+0+-", "++--", "++"):
        with pytest.raises(BaseNotAChamberError):
            in_degrees(g, base)
        with pytest.raises(BaseNotAChamberError):
            h_via_separation(g, base)


@pytest.mark.parametrize("route", [h_via_indegree, h_via_separation])
def test_h_routes_reject_uncertified_non_simplicial_complex(route):
    # a complex straight from the walk, never through build_tope_graph
    square_cone = make_arrangement(3, [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)])
    with pytest.raises(NotSimplicialError):
        route(chamber_complex(square_cone))


@pytest.mark.parametrize("route", [h_via_indegree, h_via_separation])
def test_h_routes_certify_a_complex_they_are_given(route):
    # b3's walk with one wall of chamber 5 swapped for a hyperplane that is
    # no wall of it: still dim walls per chamber, but not a chamber graph
    cc = chamber_complex(make_family("b", 3))
    walls = cc.facets[5]
    g = next(g for g in range(cc.arrangement.m) if g not in walls)
    facets = list(cc.facets)
    facets[5] = tuple(sorted(walls[1:] + (g,)))
    bad = ChamberComplex(cc.arrangement, cc.masks, cc.witnesses, facets, cc.index)
    with pytest.raises(CertificateError):
        route(bad)


def test_wall_with_no_chamber_across_is_a_certificate_error(monkeypatch):
    # the edge list finds the chamber across every recorded wall; one that
    # is missing is a failed certificate, never a KeyError, on every route
    a = make_family("b", 3)
    cc = chamber_complex(a)
    walls = cc.facets[5]
    g = next(g for g in range(a.m) if g not in walls and cc.masks[5] ^ 1 << g not in cc.index)
    facets = list(cc.facets)
    facets[5] = tuple(sorted(walls + (g,)))
    bad = ChamberComplex(a, cc.masks, cc.witnesses, facets, cc.index)
    message = "recorded wall has no chamber across it"
    for route in (_verify_walls, h_via_indegree, h_via_separation):
        with pytest.raises(CertificateError, match=message):
            route(bad)
    import interarr.topegraph as tg

    monkeypatch.setattr(tg, "chamber_complex", lambda arrangement: bad)
    with pytest.raises(CertificateError, match=message):
        dump_tope_graph(build_tope_graph(a))
    assert not bad.certified


def test_walls_are_certified_once_per_complex(monkeypatch):
    import interarr.topegraph as tg

    checked = []
    verify = tg._verify_walls
    monkeypatch.setattr(tg, "_verify_walls", lambda cc: checked.append(cc) or verify(cc))
    chamber_complex.cache_clear()  # each walk gives a complex not yet certified
    g = build_tope_graph(make_family("b", 2))
    h_via_indegree(g)
    h_via_separation(g)
    assert checked == [g]


def test_simpliciality_is_checked_once_per_complex(monkeypatch):
    import interarr.topegraph as tg

    checked = []
    require = tg._require_simplicial
    monkeypatch.setattr(tg, "_require_simplicial",
                        lambda cc: checked.append(cc) or require(cc))
    chamber_complex.cache_clear()
    g = build_tope_graph(make_family("b", 2))
    h_via_indegree(g)
    h_via_separation(g)
    assert checked == [g] and g.certified


def test_non_simplicial_complex_is_refused_on_every_call():
    square_cone = make_arrangement(3, [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)])
    cc = chamber_complex(square_cone)
    messages = []
    for route in (h_via_indegree, h_via_indegree, h_via_separation, build_tope_graph):
        with pytest.raises(NotSimplicialError) as exc:
            route(square_cone if route is build_tope_graph else cc)
        messages.append(str(exc.value))
    assert len(set(messages)) == 1 and "has 4 walls, expected 3" in messages[0]
    assert not cc.certified


def test_h_examples():
    assert h_via_indegree(make_family("d", 3)) == IntPolynomial((1, 11, 11, 1))
    assert h_via_indegree(make_family("b", 3)) == IntPolynomial((1, 23, 23, 1))


def test_method_agreement_family():
    cases = [("a", 3, None), ("b", 2, None), ("b", 3, None), ("b", 4, None),
             ("d", 3, None), ("d", 4, None)]
    cases += [("dns", 4, s) for s in range(5)]
    for fam, n, s in cases:
        a = make_family(fam, n, s)
        g = build_tope_graph(a)
        h1 = h_via_indegree(g)
        h2 = h_via_separation(g)
        h3 = f_to_h(f_polynomial(f_vector(a)))
        assert h1 == h2 == h3, (fam, n, s)
        assert is_palindromic(h1)
        assert h1(1) == chamber_count(a)
        # the certificate proves every recorded wall; the count of
        # (dim-1)-cones proves none is missing
        assert len(g.edges) == f_vector(a)[a.dim - 1], (fam, n, s)


def test_base_independence_all_bases_d3():
    g = build_tope_graph(make_family("d", 3))
    values = {h_via_indegree(g, v) for v in g.sign_strings()}
    assert len(values) == 1
    values_sep = {h_via_separation(g, v) for v in g.sign_strings()}
    assert values_sep == values


def test_base_independence_sampled_b4():
    g = build_tope_graph(make_family("b", 4))
    rng = random.Random(2)
    signs = g.sign_strings()
    picks = rng.sample(range(len(signs)), 10)
    values = {h_via_indegree(g, signs[i]) for i in picks}
    assert len(values) == 1


def test_sep_of_base_and_antipode():
    g = build_tope_graph(make_family("d", 3))
    signs = g.sign_strings()
    indeg = in_degrees(g, signs[0])
    assert indeg[0] == 0  # contributes the constant 1
    # every wall of the antipode separates it from the base
    anti = signs.index("".join("-" if c == "+" else "+" for c in signs[0]))
    rel = g.masks[anti] ^ g.masks[0]
    sep = sum(1 for h in g.facets[anti] if rel >> h & 1)
    assert indeg[anti] == sep == g.arrangement.dim


def test_dump_format():
    g = build_tope_graph(make_arrangement(1, [(1,)]))
    lines = dump_tope_graph(g).strip().split("\n")
    assert lines[0] in ("+", "-") and lines[1] in ("+", "-")
    i, j, h = lines[2].split()
    assert h == "0" and {lines[int(i)], lines[int(j)]} == {"+", "-"}


def test_dump_b2_exact():
    # the boundary format, byte for byte: chambers in walk order, then edges
    assert dump_tope_graph(build_tope_graph(make_family("b", 2))) == (
        "++++\n-+++\n+++-\n-+-+\n+-+-\n---+\n+---\n----\n"
        "0 1 0\n0 2 3\n1 3 2\n2 4 1\n3 5 1\n4 6 2\n5 7 3\n6 7 0\n")


def _verify_walls_by_dot(cc, chambers=None):
    """Reference wall certificate: for every recorded wall, the wall point z
    between the witnesses of its two chambers is built and each hyperplane
    is tested with a fresh dot product.  Given a set of `chambers`, only
    the walls that one of them records or lies across are checked, in the
    same order."""
    normals = cc.arrangement.normals
    for ci, (mask, walls) in enumerate(zip(cc.masks, cc.facets)):
        for h in walls:
            cj = cc.index.get(mask ^ 1 << h)
            if chambers is not None and ci not in chambers and cj not in chambers:
                continue
            if cj is None:
                raise CertificateError("recorded wall has no chamber across it")
            if h not in cc.facets[cj]:
                raise CertificateError("wall recorded by one of its two chambers only")
            p, q = witness(cc, ci), witness(cc, cj)
            ah = normals[h]
            c1, c2 = dot(ah, p), dot(ah, q)
            z = tuple(c1 * y - c2 * x for x, y in zip(p, q))
            if c1 < 0:
                z = tuple(-x for x in z)
            for j, aj in enumerate(normals):
                d = dot(aj, z)
                if j == h:
                    if d != 0:
                        raise CertificateError("wall certificate misses its hyperplane")
                elif d == 0 or (d < 0) != bool(mask >> j & 1):
                    raise CertificateError("wall certificate violates a chamber constraint")


def _verdict(check, cc):
    try:
        check(cc)
    except CertificateError as exc:
        return str(exc)
    return "pass"


def _changed_chambers(bad, true):
    """The chambers whose witness or walls differ between two complexes on
    the same chambers."""
    return {c for c in range(len(true.masks)) if witness(bad, c) != witness(true, c)
            or bad.facets[c] != true.facets[c]}


def _expected_verdict(cc, true=None):
    """The reference's verdict; where it passes, the witness of every chamber
    must still lie in that chamber.  Given the `true` complex, which passes
    both checks, only the walls and witnesses at chambers that differ from
    it are checked: any other check reads the normals, masks, walls and
    witnesses it read on the true complex, so it passes again."""
    chambers = None if true is None else _changed_chambers(cc, true)
    verdict = _verdict(lambda c: _verify_walls_by_dot(c, chambers), cc)
    if verdict == "pass":
        for c in range(len(cc.masks)) if chambers is None else sorted(chambers):
            mask, w = cc.masks[c], witness(cc, c)
            for j, aj in enumerate(cc.arrangement.normals):
                d = dot(aj, w)
                if d == 0 or (d < 0) != bool(mask >> j & 1):
                    return "chamber witness lies outside its chamber"
    return verdict


PERTURBATIONS = 12


def _corruptions(cc):
    """(name, complex) pairs: the true complex and copies broken one way each."""
    def copy(witnesses=None, facets=None):
        return ChamberComplex(cc.arrangement, cc.masks, witnesses or cc.witnesses,
                              facets or cc.facets, cc.index)

    def with_witness(k, f):
        # where chamber k stores no witness, as the last one does, the
        # corrupted point is stored there in place of its antipode's negated
        witnesses = list(cc.witnesses)
        witnesses[k] = tuple(f(witness(cc, k)))
        return copy(witnesses=witnesses)

    def with_walls(walls_of):
        facets = list(cc.facets)
        for c, walls in walls_of.items():
            facets[c] = tuple(sorted(walls))
        return copy(facets=facets)

    last = len(cc.masks) - 1
    i = len(cc.masks) // 2
    h = cc.facets[i][0]
    j = cc.index[cc.masks[i] ^ 1 << h]
    # a hyperplane that is no wall of i, and a wall of j that is none of i
    # (the chamber across it is two walls away from i)
    g = next(g for g in range(cc.arrangement.m) if g not in cc.facets[i])
    w = next(w for w in cc.facets[j] if w not in cc.facets[i])
    yield "true", cc
    for c in (1, last):
        yield f"negated {c}", with_witness(c, lambda w: (-x for x in w))
        yield f"scaled {c}", with_witness(c, lambda w: (3 * x for x in w))
        yield f"shifted {c}", with_witness(c, lambda w: (w[0] + 7 * max(map(abs, w)),) + w[1:])
        yield f"nudged {c}", with_witness(c, lambda w: (w[0] + 1,) + w[1:])
    walls_i = set(cc.facets[i])
    yield "wrong wall", with_walls({i: walls_i | {g}})
    yield "two bits", with_walls({i: walls_i | {w}})
    yield "one side", with_walls({i: walls_i - {h}})
    yield "both sides", with_walls({i: walls_i - {h}, j: set(cc.facets[j]) - {h}})
    # seeded perturbations: a random witness, scaled by 4, has every
    # coordinate moved by up to a spread that halves from its largest
    # coordinate down; the wide ones mostly leave the chamber, the narrow stay
    rng = random.Random(len(cc.masks))
    for r in range(PERTURBATIONS):
        c = rng.randrange(len(cc.masks))
        spread = max(map(abs, witness(cc, c))) * 4 >> r % 6
        yield f"perturbed {r}", with_witness(
            c, lambda w: (4 * x + rng.randint(-spread, spread) for x in w))


WITNESS_FAULTS = ("negated", "scaled", "shifted", "nudged", "perturbed")


@pytest.mark.parametrize("a", [
    *(pytest.param(make_family(fam, n, s), id=f"{fam}-{n}-{s}") for fam, n, s in
      [("b", 2, None), ("b", 3, None), ("d", 4, None), ("dns", 4, 2), ("dns", 5, 3)]),
    # every normal has full support, so no pairing skips an entry
    pytest.param(B3_FULL_SUPPORT, id="b3-full-support")])
def test_pairing_certificate_matches_dot_products(a):
    cc = chamber_complex(a)
    corrupted = dict(_corruptions(cc))
    # before the certificate, the edges' number is a pass over the records:
    # the stored list's length, or the same wall with no chamber across it
    for name, bad in corrupted.items():
        try:
            want = len(edge_list(bad))
        except KeyError:
            with pytest.raises(KeyError):
                len(bad.edges)
        else:
            assert len(bad.edges) == want, name
    # the full reference on the true complex, the restricted one on each copy
    verdicts = {name: (_verdict(_verify_walls, bad),
                       _expected_verdict(bad, None if bad is cc else cc))
                for name, bad in corrupted.items()}
    # the reference and the certificate pass and fail the same complexes
    assert {name: got == "pass" for name, (got, _) in verdicts.items()} == {
        name: want == "pass" for name, (_, want) in verdicts.items()}
    # a moved witness is caught at its own chamber, a bad wall at its mask
    for name, (got, _) in verdicts.items():
        if name.startswith(WITNESS_FAULTS):
            assert got in ("pass", "chamber witness lies outside its chamber"), name
    assert verdicts["wrong wall"][0] == verdicts["two bits"][0] == (
        "recorded wall has no chamber across it")
    assert verdicts["one side"][0] == "wall recorded by one of its two chambers only"
    assert verdicts["true"][0] == verdicts["scaled 1"][0] == verdicts["both sides"][0] == "pass"
    assert all(verdicts[name][0] != "pass" for name in
               ("negated 1", "shifted 1", "wrong wall", "two bits", "one side"))
    # the last chamber, the base's antipode, stores no witness: a negated
    # point stored in its place is a corrupted antipodal copy
    last = len(cc.masks) - 1
    assert cc.witnesses[last] is None
    assert verdicts[f"negated {last}"][0] == "chamber witness lies outside its chamber"
    # a wall dropped from both of its chambers leaves them too few walls
    with pytest.raises(NotSimplicialError):
        h_via_indegree(corrupted["both sides"])
    assert {verdicts[f"perturbed {r}"][0] == "pass" for r in range(PERTURBATIONS)} == {
        True, False}


@pytest.mark.parametrize("a", [pytest.param(make_family("dns", 4, 2), id="dns-4-2"),
                               pytest.param(make_family("b", 3), id="b3")])
def test_restricted_reference_matches_the_full_one(a):
    # skipping the walls no corruption touched changes no verdict string
    cc = chamber_complex(a)
    for name, bad in _corruptions(cc):
        if bad is not cc:
            assert _changed_chambers(bad, cc)
            assert _expected_verdict(bad, cc) == _expected_verdict(bad), name


@pytest.mark.parametrize("a", [pytest.param(make_family("b", 3), id="b3"),
                               pytest.param(make_family("dns", 4, 2), id="dns-4-2"),
                               pytest.param(B3_FULL_SUPPORT, id="b3-full-support")])
def test_a_witness_per_antipodal_pair_is_enough(a):
    # the walk stores the witness of one chamber of each pair C, -C; a point
    # stored for the other is checked like any other, and a pair that
    # stores none, or a chamber with no antipode, is refused
    cc = chamber_complex(a)
    c = next(c for c, w in enumerate(cc.witnesses) if w is None)
    anti = cc.index[cc.masks[c] ^ (1 << a.m) - 1]

    def storing(changes):
        witnesses = list(cc.witnesses)
        for k, w in changes.items():
            witnesses[k] = w
        return ChamberComplex(a, cc.masks, witnesses, cc.facets, cc.index)

    own = witness(cc, c)
    assert _verdict(_verify_walls, storing({c: own})) == "pass"
    assert _verdict(_verify_walls, storing({c: own, anti: None})) == "pass"
    assert _verdict(_verify_walls, storing({c: cc.witnesses[anti]})) == (
        "chamber witness lies outside its chamber")
    assert _verdict(_verify_walls, storing({anti: None})) == (
        "neither a chamber nor its antipode stores a witness")
    last = len(cc.masks) - 1
    cut = ChamberComplex(a, cc.masks[:last], cc.witnesses[:last], cc.facets[:last],
                         {mask: i for mask, i in cc.index.items() if i != last})
    assert _verdict(_verify_walls, cut) == "chamber set not closed under negation"


# Test oracle: the certificate before it paired every witness at once in
# packed lanes, kept verbatim.  It pairs one chamber's witness with one
# normal at a time and gathers the negative pairings into a mask.


def _verify_walls_by_loop(cc: ChamberComplex) -> None:
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
    for mask, w in zip(masks, all_witnesses(cc)):
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


@pytest.mark.parametrize("a", [
    *(pytest.param(make_family(fam, n, s), id=f"{fam}-{n}-{s}") for fam, n, s in
      [("b", 2, None), ("b", 3, None), ("d", 4, None), ("dns", 4, 2), ("dns", 5, 3)]),
    pytest.param(B3_FULL_SUPPORT, id="b3-full-support")])
def test_packed_certificate_matches_the_loop(a):
    for name, bad in _corruptions(chamber_complex(a)):
        assert _verdict(_verify_walls, bad) == _verdict(_verify_walls_by_loop, bad), name


@pytest.mark.parametrize("a", [pytest.param(make_family("b", 3), id="b3"),
                               pytest.param(make_family("dns", 4, 2), id="dns-4-2")])
def test_one_sided_records_that_keep_the_count_are_caught(a):
    # the upper end's record of one edge and the lower end's of another
    # dropped: one edge fewer and two records fewer keep 2 len(edges) equal
    # to the records, so the far-end test, not the count, refuses it
    cc = chamber_complex(a)
    (_, j, h), (i, _, g) = edge_list(cc)[0], edge_list(cc)[-1]
    facets = list(cc.facets)
    facets[j] = tuple(w for w in facets[j] if w != h)
    facets[i] = tuple(w for w in facets[i] if w != g)
    bad = ChamberComplex(a, cc.masks, cc.witnesses, facets, cc.index)
    assert 2 * len(bad.edges) == sum(map(len, facets))
    assert _verdict(_verify_walls, bad) == _verdict(_verify_walls_by_loop, bad) == (
        "wall recorded by one of its two chambers only")


def _on_a_wall(cc, c):
    """A point on wall h of chamber c, strictly inside every other
    half-space of c: between c's witness and its neighbour's across h."""
    h = cc.facets[c][0]
    p, q = witness(cc, c), witness(cc, cc.index[cc.masks[c] ^ 1 << h])
    ah = cc.arrangement.normals[h]
    c1, c2 = dot(ah, p), dot(ah, q)
    z = tuple(c1 * y - c2 * x for x, y in zip(p, q))
    return z if c1 > 0 else tuple(-x for x in z)


def _lane_stress_cases(cc):
    """(name, complex) pairs: the true complex and copies whose first or
    last witness lies on a wall of its chamber or is negated."""
    yield "true", cc
    last = len(cc.masks) - 1
    for c in (0, last) if cc.arrangement.m else ():
        for kind, point in (("on a wall", _on_a_wall(cc, c)),
                            ("negated", tuple(-x for x in witness(cc, c)))):
            witnesses = list(cc.witnesses)
            witnesses[c] = point
            yield f"{kind} {c}", ChamberComplex(cc.arrangement, cc.masks, witnesses,
                                                cc.facets, cc.index)


# b3 under a unimodular map with entries 2^41: its witnesses exceed 2^64
_HUGE = 1 << 41
B3_HUGE = make_arrangement(
    3, [tuple(dot(a, col) for col in zip(*((1, _HUGE, 0), (0, 1, _HUGE), (0, 0, 1))))
        for a in make_family("b", 3).normals], simplicial=True)


@pytest.mark.parametrize("a", [
    # 70 lines: the chamber masks need 71 bits, more than a machine word
    pytest.param(make_arrangement(2, [(1, k) for k in range(-35, 35)], simplicial=True),
                 id="70-lines"),
    pytest.param(B3_HUGE, id="b3-huge"),
    pytest.param(make_arrangement(0, []), id="dim-0"),
    pytest.param(make_arrangement(1, [(1,)]), id="dim-1"),
])
def test_packed_certificate_lanes_match_the_loop(a):
    cc = chamber_complex(a)
    widest = max((abs(x) for w in all_witnesses(cc) for x in w), default=0)
    verdicts = {name: _verdict(_verify_walls, bad) for name, bad in _lane_stress_cases(cc)}
    assert verdicts == {name: _verdict(_verify_walls_by_loop, bad)
                        for name, bad in _lane_stress_cases(cc)}
    assert verdicts.pop("true") == "pass"
    assert set(verdicts.values()) <= {"chamber witness lies outside its chamber"}
    if a is B3_HUGE:
        assert widest > 1 << 64
    if a.m == 70:
        assert max(cc.masks).bit_length() > 64
    assert len(verdicts) == (4 if a.m else 0)
