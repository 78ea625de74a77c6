import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "interarr"

# Defined in the library although only tests reach them for now; whether
# restrictions get a route of their own is still open.
EXEMPT = {
    "arrangement.restrict_to_flat": "ROADMAP item 6",
}


def _definitions(tree: ast.Module, module: str):
    """(qualified name, node, class node or None) of every top-level
    function and class and of every method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item, node


def _bound(fn) -> set[str]:
    """Parameters and assigned names of a function: reads of them are locals."""
    args = fn.args
    out = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    out |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    out |= {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Store)}
    return out


def _reads(node, local=frozenset()):
    """Names read, as (receiver, name) pairs: (None, f) for a global name
    or an imported one, (r, m) for an attribute m read from r, the last
    name of the receiver ("" when it ends in no name)."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        local = local | _bound(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
            and node.id not in local:
        yield None, node.id
    elif isinstance(node, ast.Attribute):
        value = node.value
        yield (value.id if isinstance(value, ast.Name)
               else value.attr if isinstance(value, ast.Attribute) else ""), node.attr
    elif isinstance(node, ast.alias):
        yield None, node.name.split(".")[-1]
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, local)


def _wrap_points(tree):
    """Names the benchmark's tracer wraps, given as ("interarr.mod", name, ...)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2 \
                and all(isinstance(e, ast.Constant) for e in node.elts[:2]) \
                and str(node.elts[0].value).startswith("interarr."):
            yield None, node.elts[1].value


def _reached(node, cls, modules, reads) -> bool:
    name = node.name
    if cls is None:
        return (None, name) in reads or any((m, name) in reads for m in modules)
    if any(isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
           for d in node.decorator_list):
        return (cls.name, name) in reads or ("cls", name) in reads
    return any(m == name for r, m in reads if r is not None)


def test_every_library_definition_is_reached():
    # A definition is reached when library code other than its own body,
    # `__init__` and the exempt definitions reads it, when the benchmark
    # reads it, or when it is the console entry point.  Special methods are
    # called by Python itself.  A method counts as read by any attribute read
    # of its name; a class or static method only through its class or `cls`.
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(LIBRARY.glob("*.py")) if p.stem != "__init__"}
    assert trees
    reads = Counter()
    for tree in trees.values():
        reads.update(_reads(tree))
    bench = set()
    for p in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(p.read_text(encoding="utf-8"))
        bench |= set(_reads(tree)) | set(_wrap_points(tree))
    scripts = re.findall(r'^\w+ = "interarr\.(\w+):(\w+)"$',
                         (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    assert scripts
    entry = {f"{mod}.{fn}" for mod, fn in scripts}
    # reads inside an exempt definition reach nothing
    for module, tree in trees.items():
        for qual, node, _ in _definitions(tree, module):
            if qual in EXEMPT:
                reads -= Counter(_reads(node))
    unreached = []
    exempt_reached = []
    defined = set()
    for module, tree in trees.items():
        for qual, node, cls in _definitions(tree, module):
            defined.add(qual)
            if qual in entry or re.fullmatch(r"__\w+__", node.name):
                continue
            outside = +(reads - Counter(_reads(node)))
            reached = _reached(node, cls, trees, bench.union(outside))
            if qual in EXEMPT and reached:
                exempt_reached.append(qual)
            elif qual not in EXEMPT and not reached:
                unreached.append(qual)
    assert unreached == []
    # an exemption lapses once its name is gone or something reaches it
    assert sorted(EXEMPT.keys() - defined) == []
    assert exempt_reached == []


def test_only_the_lattice_module_reads_its_order():
    # the down masks and lower covers are the lattice's private order; every
    # other module asks `leq`, `up_set` or `characteristic_polys`
    private = {"_ensure_down_masks", "_down_masks", "_lower"}
    for path in sorted(LIBRARY.glob("*.py")):
        if path.stem == "lattice":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        assert names & private == set(), path.name


def test_no_library_sort_orders_by_rank():
    # ids rise with rank, so a pass in rank order reads the ids in order
    # and no sort by rank is needed
    found = []
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == "sorted"
                    or isinstance(node.func, ast.Attribute) and node.func.attr == "sort"):
                for kw in node.keywords:
                    if kw.arg == "key" and "rank" in {name for _, name in _reads(kw.value)}:
                        found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_the_partition_module_reads_its_label_memo():
    # where a filtered lattice comes from in B_n and the label memo kept
    # with B_n are its own; every other module asks `lat.edge_labels`
    private = {"memo", "source", "kept", "rows_for"}
    for path in sorted(LIBRARY.glob("*.py")):
        if path.stem == "signed_partitions":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert names & private == set(), path.name


def test_subset_sum_oracle_shares_nothing_with_the_moebius_route():
    # `char_poly_bruteforce` checks the Moebius route, so its body reads
    # ranks and closures through `EchelonBasis` and names none of that route
    route = {"_cover_classes", "intersection_lattice", "characteristic_polys",
             "characteristic_poly"}
    tree = ast.parse((LIBRARY / "chow.py").read_text(encoding="utf-8"))
    body = next(n for n in tree.body if isinstance(n, ast.FunctionDef)
                and n.name == "char_poly_bruteforce")
    names = {name for _, name in _reads(body)}
    assert names & route == set()


def test_gamma_to_h_is_the_one_gamma_expansion():
    # chain counts, closed forms and censuses are gamma vectors, and only
    # `poly.gamma_to_h` expands one in the basis t^i (1+t)^(d-2i)
    readers = set()
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if "one_plus_t_power" in {name for _, name in _reads(node)}:
                readers.add(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    assert readers == {"poly.gamma_to_h"}
