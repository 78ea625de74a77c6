"""Acceptance suite: every shipped claim at full scale, one line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the PASS lines; the
whole module is also part of the default pytest run.  The heavy shared
computations (tope graphs up to n = 6, chain sums up to n = 7) live in
session/module fixtures.  Criteria 5-7 are the `interarr verify` suites
el, chains and lattice at --n-max 4, run through the same check registry.
"""

from __future__ import annotations

import pytest

from interarr.arrangement import (chamber_count, f_polynomial, f_vector,
                                  intersection_lattice, make_family)
from interarr.chow import (check_chow_arithmetic, check_gamma_arithmetic,
                           chow_dns, chow_type_a, chow_type_b, chow_via_chains)
from interarr.cli import _run_verify_task, _verify_tasks
from interarr.fixtures import (CHOW_A_EXAMPLES, CHOW_B_EXAMPLES, chow_table,
                               gamma_table)
from interarr.labeling import min_atom_label
from interarr.permstats import gamma_b_closed, h_d_closed
from interarr.poly import f_to_h, h_to_gamma, is_palindromic
from interarr.topegraph import build_tope_graph, h_via_indegree, h_via_separation


@pytest.fixture(scope="module")
def chow_computed():
    """Chain-enumeration Chow polynomials for n = 2..7, all s."""
    return {(n, s): chow_dns(n, s) for n in range(2, 8) for s in range(n + 1)}


def _announce(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {num} [{name}]: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def _announce_suite(num: int, name: str, suite: str) -> None:
    """Run one verify suite at --n-max 4; name every failing check."""
    results = [_run_verify_task(task) for task in _verify_tasks(suite, 4)]
    failed = [f"{r['check']}: {r['details']}" for r in results
              if r["status"] != "pass"]
    _announce(num, name, not failed, "; ".join(failed))


def test_criterion_1_appendix_chow_tables(chow_computed):
    table = chow_table()
    mismatches = [
        (n, s) for n in range(2, 8) for s in range(n + 1)
        if chow_computed[(n, s)] != table[n][s]
    ]
    closed_check = chow_computed[(7, 7)] == chow_type_b(7)
    _announce(1, "appendix Chow tables n=2..7", not mismatches and closed_check,
              f"{sum(n + 1 for n in range(2, 8))} rows, closed-form check at (7,7)")


def test_criterion_2_small_chow_examples(chow_computed):
    ok = True
    for n, want in CHOW_A_EXAMPLES.items():
        lat = intersection_lattice(make_family("a", n))
        via_chains = chow_via_chains(lat, min_atom_label(lat))
        ok = ok and chow_type_a(n) == want and via_chains == want
    for n, want in CHOW_B_EXAMPLES.items():
        ok = ok and chow_type_b(n) == want and chow_computed[(n, n)] == want
    _announce(2, "rank 2..4 type A/B Chow values", ok,
              "closed forms and chain enumeration")


def test_criterion_3_gamma_tables(gamma_computed):
    table = gamma_table()
    mismatches = []
    for n in range(3, 7):
        for s in range(n + 1):
            _, gamma = gamma_computed[(n, s)]
            if gamma.entries != table[n][s]:
                mismatches.append((n, s, gamma.entries))
    closed_ok = True
    for n in range(3, 7):
        closed_ok = closed_ok and gamma_b_closed(n).entries == table[n][n]
        closed_ok = closed_ok and h_to_gamma(h_d_closed(n)).entries == table[n][0]
    _announce(3, "gamma tables n=3..6 via tope graph and peak census",
              not mismatches and closed_ok, f"mismatches: {mismatches}")


def test_criterion_4_arithmeticity(gamma_computed, chow_computed):
    reports = [("gamma", check_gamma_arithmetic(
        [gamma_computed[(n, s)][0] for s in range(n + 1)])) for n in range(3, 7)]
    reports += [("chow", check_chow_arithmetic(
        [chow_computed[(n, s)] for s in range(n + 1)])) for n in range(2, 8)]
    details = [f"{kind} n={r.n}: {f}" for kind, r in reports for f in r.failures]
    _announce(4, "gamma and Chow arithmeticity", not details, "; ".join(details))


def test_criterion_5_el_verification():
    _announce_suite(5, "EL-labeling verification n<=4 plus negative control", "el")


def test_criterion_6_chain_count_oracle():
    _announce_suite(6, "chain counts match the inversion-sequence product", "chains")


def test_criterion_7_cross_method_lattice_checks():
    _announce_suite(7, "lattice isomorphisms and Moebius vs subset-sum", "lattice")


def test_criterion_8_h_method_agreement():
    cases = [("a", 3, None), ("b", 2, None), ("b", 3, None), ("b", 4, None),
             ("d", 3, None), ("d", 4, None)]
    cases += [("dns", 4, s) for s in range(5)]
    ok = True
    for fam, n, s in cases:
        a = make_family(fam, n, s)
        graph = build_tope_graph(a)
        h1 = h_via_indegree(graph)
        h2 = h_via_separation(graph)
        h3 = f_to_h(f_polynomial(f_vector(a)))
        if not (h1 == h2 == h3 and is_palindromic(h1) and h1(1) == chamber_count(a)):
            ok = False
        signs = graph.sign_strings()
        bases = signs if (fam, n) == ("d", 3) else signs[:5]
        if any(h_via_indegree(graph, b) != h1 or h_via_separation(graph, b) != h1
               for b in bases):
            ok = False
    _announce(8, "h-polynomial method agreement and base independence", ok)


def test_criterion_9_fixture_scope():
    gt, ct = gamma_table(), chow_table()
    keys_ok = (sorted(gt) == [3, 4, 5, 6] and sorted(ct) == [2, 3, 4, 5, 6, 7]
               and all(sorted(gt[n]) == list(range(n + 1)) for n in gt)
               and all(sorted(ct[n]) == list(range(n + 1)) for n in ct))
    # every gamma fixture has the length forced by its own n; nothing from
    # outside the intermediate family (no rank 6/7 exceptional data) is present
    lengths_ok = all(len(v) == n // 2 + 1 for n, row in gt.items()
                     for v in row.values())
    degrees_ok = all((ct[n][s].degree == n - 1 and is_palindromic(ct[n][s]))
                     for n in ct for s in ct[n])
    _announce(9, "fixtures cover exactly the intermediate family",
              keys_ok and lengths_ok and degrees_ok)
