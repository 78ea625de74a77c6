"""Command-line front end: compute invariants, regenerate the golden
tables, and run the verification suites.

Exit codes: 0 success, 1 verification/diff/certificate failure, 2 flag errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from itertools import permutations

from . import fixtures
from .arrangement import (InvalidParamsError, f_vector, intersection_lattice,
                          load_arrangement, make_family)
from .chow import (chain_sum, char_poly_bruteforce, characteristic_poly,
                   chow_dns, chow_recursive, chow_type_a, chow_type_b,
                   chow_via_chains, dns_lattice, verify_chow_arithmetic,
                   verify_gamma_arithmetic)
from .feasibility import CertificateError
from .labeling import (count_chains_with_word, dump_chain_line, el_label,
                       enumerate_filtered_chains, min_atom_label, verify_el)
from .lattice import lattice_isomorphic
from .permstats import (h_b_closed, h_d_closed, increment_closed,
                        inversion_sequence)
from .poly import IntPolynomial, h_to_gamma
from .signed_partitions import enumerate_lattice, variant_b
from .topegraph import (NotSimplicialError, build_tope_graph, dump_tope_graph,
                        h_via_indegree, h_via_separation)


def _emit(payload: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _dump_writer(flag: str, path, args, parser):
    """The writer of a dump flag's PATH ('-' for stdout), or None without the
    flag.  '-' with --format json is a flag error, so call this before
    computing anything."""
    if not path:
        return None
    if path == "-":
        if args.format == "json":
            parser.error(f"{flag} - and --format json both write to stdout")
        return sys.stdout.writelines

    def write(chunks) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)

    return write


def _resolve_family(args, parser) -> tuple[str, int | None, int | None]:
    """(family, n, s) of the family flags: b is dns(n, n) and d is dns(n, 0),
    so s is None exactly for a and file, and n is None exactly for file."""
    fam = args.family
    n, s = args.n, args.s
    if fam == "file":
        if not args.path:
            parser.error("--family file requires --path")
        if n is not None or s is not None:
            parser.error("--n and --s do not apply to --family file")
        return fam, None, None
    if args.path or args.simplicial:
        parser.error("--path and --simplicial require --family file")
    if s is not None and fam != "dns":
        parser.error(f"--s applies to --family dns only, not {fam}")
    if n is None:
        parser.error(f"--family {fam} requires --n")
    if n < 1:
        parser.error(f"--n must be >= 1, got {n}")
    if fam == "dns":
        if s is None:
            parser.error("--family dns requires --s")
        if not 0 <= s <= n:
            parser.error(f"--s must be in 0..{n}")
    elif fam == "b":
        s = n
    elif fam == "d":
        s = 0
    else:
        s = None
    return fam, n, s


def _arrangement(args, fam: str, n: int | None, s: int | None):
    """The arrangement of a resolved family: the file, A_n or dns(n, s)."""
    if fam == "file":
        return load_arrangement(args.path, simplicial=args.simplicial)
    return make_family("a", n) if s is None else make_family("dns", n, s)


# ---------------------------------------------------------------------------
# gamma


def _gamma_h_closed(fam: str, n: int | None, s: int | None, parser):
    if s is None:
        parser.error(f"--method closed is not available for family {fam}")
    if s == n:
        return h_b_closed(n)
    if n < 3:
        parser.error("the type-D closed form needs n >= 3")
    h = h_d_closed(n)
    return h + s * increment_closed(n) if s else h


def _require_face_counts(graph, fv) -> None:
    """Refuse a chamber complex with fewer chambers or walls than the
    lattice of flats counts, f_(d-1) and f_(d-2) of the f-vector `fv`.  Its
    chambers and walls are certified, so neither count can exceed the true
    one, and equal counts mean that the walk missed none.  A file flagged
    `--simplicial` that is not can lead the pivoting walk to a certified
    complex that misses walls."""
    if graph.arrangement.dim and (len(graph.masks), len(graph.edges)) != (fv[-1], fv[-2]):
        raise NotSimplicialError(
            f"arrangement is not simplicial: the walk found {len(graph.masks)} chambers "
            f"and {len(graph.edges)} walls, the lattice of flats counts {fv[-1]} and {fv[-2]}")


def cmd_gamma(args, parser) -> int:
    fam, n, s = _resolve_family(args, parser)
    arr = _arrangement(args, fam, n, s)
    method = "topegraph" if args.method == "auto" else args.method
    fv = None
    if method == "closed":
        if args.base is not None or args.dump_tope_graph:
            parser.error("--base and --dump-tope-graph require --method "
                         "topegraph or separation")
        h = _gamma_h_closed(fam, n, s, parser)
    else:
        write_dump = _dump_writer("--dump-tope-graph", args.dump_tope_graph, args, parser)
        graph = build_tope_graph(arr)
        if args.simplicial:
            fv = f_vector(arr)
            _require_face_counts(graph, fv)
        route = h_via_indegree if method == "topegraph" else h_via_separation
        h = route(graph, args.base)
        if write_dump:
            write_dump([dump_tope_graph(graph)])
    gamma = h_to_gamma(h)
    payload = {"family": fam, "n": n, "s": s, "method": method,
               "gamma": list(gamma.entries)}
    lines = [f"gamma = ({', '.join(str(g) for g in gamma.entries)})"]
    if args.show_h:
        payload["h"] = h.to_json_coeffs()
        lines.append(f"h = {h.to_text()}")
    if args.show_f:
        fv = fv or f_vector(arr)
        payload["f"] = fv
        lines.append(f"f = ({', '.join(str(x) for x in fv)})")
    _emit(payload, args.format, lines)
    return 0


# ---------------------------------------------------------------------------
# chow


def cmd_chow(args, parser) -> int:
    fam, n, s = _resolve_family(args, parser)
    method = args.method
    if method == "auto":
        method = "closed" if fam in ("a", "b") else "chains"
    if args.dump_chains and method != "chains":
        parser.error("--dump-chains requires --method chains")
    write_dump = _dump_writer("--dump-chains", args.dump_chains, args, parser)
    if method == "closed":
        if fam == "a":
            poly = chow_type_a(n)
        elif s is not None and s == n:
            poly = chow_type_b(n)
        else:
            parser.error(f"--method closed is not available for family {fam}")
    else:
        partition_side = s is not None
        lat = (dns_lattice(n, s) if partition_side
               else intersection_lattice(_arrangement(args, fam, n, s)))
        if method == "recursive":
            poly = chow_recursive(lat)
        else:
            labeler = el_label if partition_side else min_atom_label(lat)
            poly = chow_via_chains(lat, labeler)
    if write_dump:
        write_dump(dump_chain_line(chain) + "\n"
                   for chain in enumerate_filtered_chains(lat, labeler))
    payload = {"family": fam, "n": n, "s": s, "method": method,
               "coeffs": poly.to_json_coeffs()}
    _emit(payload, args.format, [f"chow = {poly.to_text()}"])
    return 0


# ---------------------------------------------------------------------------
# fvector


def cmd_fvector(args, parser) -> int:
    fam, n, s = _resolve_family(args, parser)
    fv = f_vector(_arrangement(args, fam, n, s))
    payload = {"family": fam, "n": n, "s": s, "f": fv}
    _emit(payload, args.format, [f"f = ({', '.join(str(x) for x in fv)})"])
    return 0


# ---------------------------------------------------------------------------
# tables


def _table_cell(task) -> list[int]:
    kind, n, s = task
    if kind == "gamma":
        h = h_via_indegree(make_family("dns", n, s))
        return list(h_to_gamma(h).entries)
    return chow_dns(n, s).to_json_coeffs()


def _map_tasks(fn, tasks, jobs: int, n_of) -> list:
    """fn over tasks, in their order, run from the largest n_of(task) down:
    a pool hands tasks out in order, so the costliest start first, and the
    tasks of one n share its B_n.  A pool never has more workers than
    tasks, since it forks every worker at the first submit.  The pool is
    imported here, so a serial run never loads multiprocessing."""
    by_n = sorted(tasks, key=lambda task: -n_of(task))
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = dict(zip(by_n, pool.map(fn, by_n)))
    else:
        done = {task: fn(task) for task in by_n}
    return [done[task] for task in tasks]


def cmd_tables(args, parser) -> int:
    gtab = fixtures.gamma_table()
    ctab = fixtures.chow_table()
    tasks = [("gamma", n, s) for n in sorted(gtab) for s in sorted(gtab[n])]
    tasks += [("chow", n, s) for n in sorted(ctab) for s in sorted(ctab[n])]
    results = _map_tasks(_table_cell, tasks, args.jobs, lambda task: task[1])
    failures = 0
    for (kind, n, s), got in zip(tasks, results):
        if kind == "gamma":
            want = list(gtab[n][s])
            shown = f"({', '.join(str(x) for x in got)})"
        else:
            want = ctab[n][s].to_json_coeffs()
            shown = IntPolynomial.from_json_coeffs(got).to_text()
        status = "OK" if got == want else "MISMATCH"
        if status != "OK":
            failures += 1
        print(f"{kind} n={n} s={s}: {shown} {status}")
    verdict = "PASS" if failures == 0 else f"FAIL ({failures} mismatches)"
    print(f"TABLES: {verdict} ({len(results)} rows)")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# verify


def _check_el(n, s):
    """EL on pi_B(n) for s None, else on the lattice of dns(n, s)."""
    lat = enumerate_lattice(variant_b(n)) if s is None else dns_lattice(n, s)
    report = verify_el(lat, el_label)
    return (not report, f"{len(report)} violating intervals")


def _check_el_negative(n):
    """Two corruptions of the (1,1) label, each must break EL on pi_B(n)."""
    lat = enumerate_lattice(variant_b(n))
    for bad in ((2, 9), (0, 1)):
        def corrupted(x, y, bad=bad):
            lab = el_label(x, y)
            return bad if lab == (1, 1) else lab

        if not verify_el(lat, corrupted):
            return (False, f"corrupted labeling (1, 1) -> {bad} went unnoticed")
    return (True, "corrupted labeling was detected")


def _check_chains(n):
    lat = enumerate_lattice(variant_b(n))
    total = 0
    for sigma in permutations(range(1, n + 1)):
        expected = math.prod(2 * x - 1 for x in inversion_sequence(sigma))
        got = count_chains_with_word(lat, lat.bottom, lat.top, sigma)
        if got != expected:
            return (False, f"word {sigma}: {got} chains, formula {expected}")
        total += got
    if total != math.factorial(n) ** 2:
        return (False, f"total {total} != (n!)^2")
    return (True, f"all words match, total {total}")


def _check_four_way(n, s):
    lat = dns_lattice(n, s)
    chains = enumerate_filtered_chains(lat, el_label)
    dfs = chain_sum(Counter(c.descent_count for c in chains), lat.height)
    layered = chow_via_chains(lat, el_label)
    rec = chow_recursive(lat)
    expected = fixtures.chow_table()[n][s]
    if not dfs == layered == rec == expected:
        return (False, f"dfs={dfs.to_text()} layered={layered.to_text()} "
                       f"recursive={rec.to_text()} table={expected.to_text()}")
    return (True, dfs.to_text())


def _check_type_b(n):
    got = chow_via_chains(enumerate_lattice(variant_b(n)), el_label)
    want = chow_type_b(n)
    return (got == want, f"chains {got.to_text()} vs closed {want.to_text()}")


def _check_type_a(n):
    lat = intersection_lattice(make_family("a", n))
    got = chow_via_chains(lat, min_atom_label(lat))
    want = chow_type_a(n)
    return (got == want, f"chains {got.to_text()} vs closed {want.to_text()}")


def _check_gamma_arith(n):
    report = verify_gamma_arithmetic(n)
    return (report.ok, "; ".join(report.failures) or
            f"increment {report.increment.entries}")


def _check_chow_arith(n):
    report = verify_chow_arithmetic(n)
    return (report.ok, "; ".join(report.failures) or
            f"increment {report.increment.to_text()}")


def _check_lattice_iso(n):
    ok = lattice_isomorphic(intersection_lattice(make_family("b", n)),
                            enumerate_lattice(variant_b(n)))
    return (ok, "arrangement and partition lattices are isomorphic"
            if ok else "lattices differ")


def _check_charpoly(n, s):
    """Moebius against subsets on A_n for s None, else on dns(n, s)."""
    arr = make_family("a", n) if s is None else make_family("dns", n, s)
    lat = intersection_lattice(arr)
    via_moebius = characteristic_poly(lat, lat.bottom, lat.top)
    via_subsets = char_poly_bruteforce(arr)
    ok = via_moebius == via_subsets
    return (ok, via_moebius.to_text() if ok else
            f"moebius {via_moebius.to_text()} vs subsets {via_subsets.to_text()}")


def _verify_tasks(suite: str, n_max: int):
    """(check, (n, ...), label) per check, filtered by suite and n_max.  The
    checks are module-level functions, so a pool can pickle them."""
    tasks = []
    if suite in ("all", "el"):
        for n in range(2, min(4, n_max) + 1):
            tasks.append((_check_el, (n, None), f"el/pi-b-{n}"))
            tasks += [(_check_el, (n, s), f"el/dns-{n}-{s}") for s in range(n)]
        if n_max >= 2:
            tasks.append((_check_el_negative, (2,), "el/negative-control"))
    if suite in ("all", "chains"):
        tasks += [(_check_chains, (n,), f"chains/count-formula-{n}")
                  for n in range(2, min(4, n_max) + 1)]
    if suite in ("all", "chow"):
        tasks += [(_check_four_way, (n, s), f"chow/four-way-{n}-{s}")
                  for n in range(2, min(5, n_max) + 1) for s in range(n + 1)]
        tasks += [(_check_type_b, (n,), f"chow/type-b-{n}")
                  for n in range(2, min(6, n_max) + 1)]
        tasks += [(_check_type_a, (n,), f"chow/type-a-{n}")
                  for n in range(2, min(5, n_max) + 1)]
    if suite in ("all", "gamma"):
        tasks += [(_check_gamma_arith, (n,), f"gamma/arithmetic-{n}")
                  for n in range(3, min(6, n_max) + 1)]
    if suite in ("all", "chow-arith"):
        tasks += [(_check_chow_arith, (n,), f"chow/arithmetic-{n}")
                  for n in range(2, min(7, n_max) + 1)]
    if suite in ("all", "lattice"):
        tasks += [(_check_lattice_iso, (n,), f"lattice/iso-b-{n}")
                  for n in range(2, min(4, n_max) + 1)]
        if n_max >= 3:
            tasks.append((_check_charpoly, (3, None), "charpoly/a-3"))
        tasks += [(_check_charpoly, (n, s), f"charpoly/dns-{n}-{s}")
                  for n in range(3, min(4, n_max) + 1) for s in range(n + 1)]
    return tasks


def _run_verify_task(item):
    check, args, label = item
    try:
        ok, details = check(*args)
    except Exception as exc:  # a crash is a failed check, not a crashed run
        ok, details = False, f"exception: {exc!r}"
    return {"check": label, "status": "pass" if ok else "fail", "details": details}


def cmd_verify(args, parser) -> int:
    tasks = _verify_tasks(args.suite, args.n_max)
    if not tasks:
        parser.error(f"suite {args.suite!r} selected no checks at --n-max {args.n_max}")
    results = _map_tasks(_run_verify_task, tasks, args.jobs, lambda task: task[1][0])
    failed = [r for r in results if r["status"] != "pass"]
    if args.format == "json":
        print(json.dumps(results, sort_keys=True))
    else:
        for r in results:
            print(f"{r['status'].upper():4} {r['check']}: {r['details']}")
        print(f"VERIFY: {'PASS' if not failed else 'FAIL'} "
              f"({len(results) - len(failed)}/{len(results)} checks)")
    if failed:
        for r in failed:
            print(f"failed: {r['check']}: {r['details']}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interarr",
        description="Exact invariants of reflection-type hyperplane arrangements")
    sub = parser.add_subparsers(dest="command", required=True)

    def family_flags(p, methods):
        p.add_argument("--family", choices=["a", "b", "d", "dns", "file"], required=True)
        p.add_argument("--n", type=int)
        p.add_argument("--s", type=int)
        p.add_argument("--path", help="arrangement file for --family file")
        p.add_argument("--simplicial", action="store_true",
                       help="assert a file arrangement is simplicial (faster walk)")
        p.add_argument("--method", choices=methods, default="auto")
        p.add_argument("--format", choices=["text", "json"], default="text")

    g = sub.add_parser("gamma", help="gamma vector of an arrangement")
    family_flags(g, ["auto", "topegraph", "separation", "closed"])
    g.add_argument("--base", help="base chamber sign string")
    g.add_argument("--show-h", action="store_true")
    g.add_argument("--show-f", action="store_true")
    g.add_argument("--dump-tope-graph", metavar="PATH",
                   help="write the chambers and edges ('-' for stdout)")
    g.set_defaults(func=cmd_gamma, parser=g)

    c = sub.add_parser("chow", help="Chow polynomial of the lattice of flats")
    family_flags(c, ["auto", "chains", "closed", "recursive"])
    c.add_argument("--dump-chains", metavar="PATH",
                   help="write surviving labeled chains ('-' for stdout)")
    c.set_defaults(func=cmd_chow, parser=c)

    f = sub.add_parser("fvector", help="f-vector of the sphere triangulation")
    family_flags(f, ["auto"])
    f.set_defaults(func=cmd_fvector, parser=f)

    t = sub.add_parser("tables", help="regenerate the golden tables and diff")
    t.add_argument("--jobs", type=positive_int, default=1)
    t.set_defaults(func=cmd_tables, parser=t)

    v = sub.add_parser("verify", help="run the verification suites")
    v.add_argument("--suite", default="all",
                   choices=["all", "el", "chains", "chow", "gamma", "chow-arith", "lattice"])
    v.add_argument("--n-max", type=int, default=4)
    v.add_argument("--jobs", type=positive_int, default=1)
    v.add_argument("--format", choices=["text", "json"], default="text")
    v.set_defaults(func=cmd_verify, parser=v)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # a command's flag errors print that command's usage line
        return args.func(args, args.parser)
    except (InvalidParamsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
