"""Layout: ``src/homotrace`` holds what the package uses.

An AST scan lists every top-level function and class of the package and
every method of those classes (dunder methods aside), and every identifier
that the code in ``src/``, ``scripts/`` and ``bench/`` names: variable
names, attribute names and imported names.  A definition that nothing
names outside its own body is unused by the package, so it belongs in the
tests (``tests/oracles.py``) or nowhere.  A method counts as named only
where it is read as an attribute, so a local variable of the same name
does not keep it.  ``__init__.py`` is not read for names, since
re-exporting a definition does not use it.

A second scan keeps one way to build an algebra and an instance: in
``src/``, only ``dgcore`` calls ``DgAlgebra`` and ``DgModuleBundle``,
and only ``instances.build_instance`` calls ``Instance``.  It also keeps
``GradedMap`` and its private constructor ``_graded_map`` to ``glinalg``:
the kernels there store the arrays they compute without a copy, which is
safe only because no other module hands a map blocks it could still
write to.

A third scan keeps one tolerance rule: in ``src/homotrace`` only
``scalars`` names ``DEFAULT_TOL``, so a missing float tolerance is
resolved by ``scalars.session_tol`` alone.

A fourth keeps glinalg's exact row format to glinalg: in ``src/homotrace``
no other module names ``sparse_rows`` or imports, or reads as an
attribute of ``glinalg``, a name of glinalg that starts with an
underscore.  Sums and supertraces of maps go through its public kernels.

A fifth keeps one exact map arithmetic: ``instances`` forms no matrix
product (``@``), so the random closure multiplies operators with
glinalg's ``compose`` and ``supercommutator``.

A sixth keeps one walk over block partitions: in ``src/homotrace`` no
module but ``hochschild`` names ``combinations`` or ``_compositions``, so
the push-forward and the cyclic pull-back both go through
``hochschild._push``.

A seventh keeps one instance registry in the tests: no test module but
``tests/oracles.py`` writes out the constructor of an instance of its
``REGISTRY``, directly or with the arguments of a parametrize row, except
the tests of ``GENERATOR_TESTS``, whose subject is the generator itself.
"""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "homotrace"

# definition -> why it stays although nothing in src/, scripts/ or bench/
# names it
ALLOWED = {
    "DgAlgebra.mul_vectors": "bench/tracing.py wraps it by its name as a "
                             "string, and its tracer fails without it",
    "euler_characteristic": "public entry point: the Euler characteristic "
                            "of a space, or of its cohomology under Q",
    "torus_element": "public entry point: a torus derivative operator, "
                     "refused above the instance's order cap",
    "propagator": "public entry point: the gap propagator at one gap length",
    "antisymmetrized_supertrace": "public entry point: the finite "
                                  "counterpart of the level-1 cyclic trace "
                                  "(acceptance criterion 8)",
}


def _trees():
    for folder in ("src", "scripts", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _definitions(tree):
    """(qualified name, node) of each top-level function and class and of
    each non-dunder method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("__")):
                    yield f"{node.name}.{sub.name}", sub


def _names(tree):
    """(identifier, line, whether it is an attribute) of every name,
    attribute and import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno, False


def unnamed_definitions(trees) -> list[str]:
    """The package definitions in ``trees``, (path, tree) pairs, that
    nothing names outside their own body; a method is named only as an
    attribute."""
    defs, refs = [], []
    for path, tree in trees:
        if path.parent == PACKAGE:
            defs += [(name, path, node) for name, node in _definitions(tree)]
        if path.name != "__init__.py":
            refs += [(ident, path, line, attr)
                     for ident, line, attr in _names(tree)]
    return [name for name, path, node in defs if not any(
        ident == name.rsplit(".", 1)[-1] and (attr or "." not in name)
        and (where != path or not node.lineno <= line <= node.end_lineno)
        for ident, where, line, attr in refs)]


def test_every_package_definition_is_used():
    unused = [name for name in unnamed_definitions(_trees())
              if name not in ALLOWED]
    assert not unused, (
        f"nothing in src/, scripts/ or bench/ names {unused}: move test "
        "oracles to tests/oracles.py and delete the rest")


def test_every_exception_is_still_needed():
    """An allow-list entry goes once the definition is gone or named."""
    assert sorted(unnamed_definitions(_trees())) == sorted(ALLOWED)
    assert all(reason.strip() for reason in ALLOWED.values())


def test_the_scan_finds_what_only_itself_or_init_names():
    """Recursion and a re-export in ``__init__.py`` do not count as use; a
    call from another module or from the same module does."""
    module = ast.parse("def lonely(n):\n    return lonely(n - 1)\n\n"
                       "def exported():\n    pass\n\n"
                       "def helper():\n    pass\n\n"
                       "class Thing:\n    def method(self):\n"
                       "        return helper()\n\n"
                       "    def shadowed(self):\n        pass\n")
    init = ast.parse("from homotrace.fake import exported\n")
    caller = ast.parse("from homotrace.fake import Thing\nThing().method()\n"
                       "shadowed = 1\n")
    assert unnamed_definitions([
        (PACKAGE / "fake.py", module), (PACKAGE / "__init__.py", init),
        (ROOT / "scripts" / "fake.py", caller)]) == [
        "lonely", "exported", "Thing.shadowed"]


# class -> the (module, top-level function or None) that may call it in src/
BUILDERS = {"DgAlgebra": ("dgcore.py", None),
            "DgModuleBundle": ("dgcore.py", None),
            "Instance": ("instances.py", "build_instance"),
            "GradedMap": ("glinalg.py", None),
            "_graded_map": ("glinalg.py", None)}


def constructor_calls(trees) -> set[tuple[str, str, str]]:
    """(class, module file, enclosing top-level definition) of each call
    of a class of ``BUILDERS`` in the package modules of ``trees``."""
    out = set()
    for path, tree in trees:
        if path.parent != PACKAGE:
            continue
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, (ast.Name, ast.Attribute))):
                    name = getattr(node.func, "id", None) or node.func.attr
                    if name in BUILDERS:
                        out.add((name, path.name, getattr(top, "name", "")))
    return out


def test_one_way_to_build_an_algebra_and_an_instance():
    calls = constructor_calls(_trees())
    assert ("Instance", "instances.py", "build_instance") in calls
    stray = [(name, where, top) for name, where, top in calls
             if where != BUILDERS[name][0]
             or BUILDERS[name][1] not in (None, top)]
    assert not stray, (
        f"{stray} build an algebra, bundle, instance or map outside its one "
        "builder: pass operators to dgcore.algebra_from_operators, an "
        "instance's parts to instances.build_instance, or blocks to "
        "GradedMap.build")


def test_the_constructor_scan_finds_a_stray_call():
    stray = ast.parse("def cast(a):\n    return DgAlgebra(a.space, a.entries,"
                      " 'float')\n\n"
                      "def bare(m):\n    return glinalg.GradedMap(m.source, "
                      "m.target, 0, m.blocks, m.mode)\n\n"
                      "def lent(m):\n    return _graded_map(m.source, "
                      "m.target, 0, m.blocks, m.mode)\n")
    assert constructor_calls([(PACKAGE / "instances.py", stray)]) == {
        ("DgAlgebra", "instances.py", "cast"),
        ("GradedMap", "instances.py", "bare"),
        ("_graded_map", "instances.py", "lent")}


def default_tol_names(trees) -> list[tuple[str, int]]:
    """(module file, line) of each name, attribute or import of
    ``DEFAULT_TOL`` in the package modules of ``trees`` other than
    ``scalars.py``; a docstring is a string, so it does not count."""
    return sorted((path.name, line) for path, tree in trees
                  if path.parent == PACKAGE and path.name != "scalars.py"
                  for ident, line, _ in _names(tree) if ident == "DEFAULT_TOL")


def test_only_scalars_names_the_default_tolerance():
    stray = default_tol_names(_trees())
    assert not stray, (
        f"{stray} name DEFAULT_TOL: take tol=None and resolve it with "
        "scalars.session_tol")


def test_the_tolerance_scan_finds_a_stray_default():
    stray = ast.parse('"""Compares to DEFAULT_TOL."""\n'
                      "from homotrace.scalars import DEFAULT_TOL as eps\n\n"
                      "def close(x, tol=DEFAULT_TOL):\n"
                      "    return abs(x) <= scalars.DEFAULT_TOL\n")
    assert default_tol_names([(PACKAGE / "fake.py", stray),
                              (PACKAGE / "scalars.py", stray),
                              (ROOT / "scripts" / "fake.py", stray)]) == [
        ("fake.py", 2), ("fake.py", 4), ("fake.py", 5)]


def row_format_reads(trees) -> list[tuple[str, int]]:
    """(module file, line) of each name or attribute ``sparse_rows``, and
    of each import or ``glinalg.`` attribute of a name starting with an
    underscore, in the package modules of ``trees`` other than
    ``glinalg.py``."""
    out = []
    for path, tree in trees:
        if path.parent != PACKAGE or path.name == "glinalg.py":
            continue
        out += [(path.name, line) for ident, line, _ in _names(tree)
                if ident == "sparse_rows"]
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom)
                    and node.module == "homotrace.glinalg"):
                out += [(path.name, node.lineno) for alias in node.names
                        if alias.name.startswith("_")]
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "glinalg"
                  and node.attr.startswith("_")):
                out.append((path.name, node.lineno))
    return sorted(out)


def test_only_glinalg_reads_its_rows():
    stray = row_format_reads(_trees())
    assert not stray, (
        f"{stray} read glinalg's rows or private names: sum maps with "
        "glinalg.combination and take supertraces with glinalg.supertrace")


def test_the_row_scan_finds_a_stray_reader():
    stray = ast.parse('"""Reads sparse_rows."""\n'
                      "from homotrace.glinalg import _exact_sum, compose\n"
                      "from homotrace import glinalg\n\n"
                      "def rows(m):\n"
                      "    return m.sparse_rows, glinalg._ratio(1)\n")
    assert row_format_reads([(PACKAGE / "fake.py", stray),
                             (PACKAGE / "glinalg.py", stray),
                             (ROOT / "scripts" / "fake.py", stray)]) == [
        ("fake.py", 2), ("fake.py", 6), ("fake.py", 6)]


def matrix_products(trees) -> list[tuple[str, int]]:
    """(module file, line) of each ``@`` in ``instances.py`` and in
    ``dgcore.build_splitting_projector`` among the package modules of
    ``trees``."""
    scopes = []
    for path, tree in trees:
        if path == PACKAGE / "instances.py":
            scopes.append((path, tree))
        elif path == PACKAGE / "dgcore.py":
            scopes += [(path, node) for node in tree.body
                       if isinstance(node, ast.FunctionDef)
                       and node.name == "build_splitting_projector"]
    return sorted((path.name, node.lineno) for path, scope in scopes
                  for node in ast.walk(scope)
                  if isinstance(node, ast.BinOp)
                  and isinstance(node.op, ast.MatMult))


def test_instances_forms_no_matrix_product():
    stray = ast.parse("def product(f, g):\n    return f @ g\n")
    splitting = ast.parse("def build_splitting_projector(q, w):\n"
                          "    return q @ w\n\n\n"
                          "def homotopy(l, r):\n"
                          "    return l @ r\n")
    assert matrix_products([(PACKAGE / "instances.py", stray),
                            (PACKAGE / "glinalg.py", stray),
                            (PACKAGE / "dgcore.py", splitting)]) == [
        ("dgcore.py", 2), ("instances.py", 2)]
    stray = matrix_products(_trees())
    assert not stray, (
        f"{stray} multiply matrices in instances or in the projector "
        "splitting: compose maps with glinalg.compose and "
        "glinalg.supercommutator, and keep the splitting's vectors sparse")


def partition_enumerations(trees) -> list[tuple[str, int]]:
    """(module file, line) of each name, attribute or import
    ``combinations`` or ``_compositions`` in the package modules of
    ``trees`` other than ``hochschild.py``."""
    return sorted((path.name, line) for path, tree in trees
                  if path.parent == PACKAGE and path.name != "hochschild.py"
                  for ident, line, _ in _names(tree)
                  if ident in ("combinations", "_compositions"))


def test_only_hochschild_enumerates_block_partitions():
    stray = partition_enumerations(_trees())
    assert not stray, (
        f"{stray} enumerate block partitions: push with "
        "hochschild._push and a block count")


def test_the_partition_scan_finds_a_stray_enumeration():
    stray = ast.parse('"""Cuts with itertools.combinations."""\n'
                      "import itertools\n"
                      "from itertools import combinations\n\n"
                      "def cuts(k, n):\n"
                      "    return (itertools.combinations(range(1, k), n),\n"
                      "            hochschild._compositions(k))\n")
    assert partition_enumerations([(PACKAGE / "fake.py", stray),
                                   (PACKAGE / "hochschild.py", stray),
                                   (ROOT / "scripts" / "fake.py", stray)]) == [
        ("fake.py", 3), ("fake.py", 6), ("fake.py", 7)]


def test_the_benchmark_tracer_installs_and_uninstalls():
    """``bench/tracing.py`` wraps package names it looks up by attribute
    (``PropagatorCache.value``, ``AInfinityMorphism.on_basis`` and
    ``DgAlgebra.mul_vectors`` among them): installing it fails if a rename
    breaks one, and uninstalling puts every original back."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    methods = {(cls, attr): cls.__dict__[attr]
               for cls, attr, _ in tracing.METHODS}
    functions = {(mod, name): fn for mod in tracing.LAYERS.values()
                 for name, fn in vars(mod).items() if callable(fn)}
    tracer = tracing.Tracer("layout")
    try:
        tracer.install()
        assert all(cls.__dict__[attr] is not raw
                   for (cls, attr), raw in methods.items())
    finally:
        tracer.uninstall()
    assert all(cls.__dict__[attr] is raw
               for (cls, attr), raw in methods.items())
    assert all(vars(mod)[name] is fn for (mod, name), fn in functions.items())


# (test module, test) -> why it writes out a registered constructor
GENERATOR_TESTS = {
    ("test_instances.py", "test_random_instance_file_is_unchanged"):
        "pins the files of random_instance itself at r11's and r7's seeds",
    ("test_hochschild.py", "test_chain_map_exhaustive_short_chains"):
        "walks the random_instance seeds on which the push-forward once "
        "broke the A-infinity signs, seed 7 (r7's) among them",
}


def _call_key(call: ast.Call, bound: dict) -> tuple:
    """A call as its function's name and arguments: a literal or a name
    that ``bound`` binds as its value, anything else as its AST dump."""
    def arg(node):
        if isinstance(node, ast.Name) and node.id in bound:
            return repr(bound[node.id])
        try:
            return repr(ast.literal_eval(node))
        except (ValueError, TypeError, SyntaxError):
            return ast.dump(node)

    func = call.func
    return (getattr(func, "id", None) or getattr(func, "attr", None),
            tuple(map(arg, call.args)),
            tuple(sorted((str(k.arg), arg(k.value)) for k in call.keywords)))


def registered_constructors(tree) -> set[tuple]:
    """The call keys of the constructors in the ``REGISTRY`` of the
    oracles module ``tree``: a lambda's body, or a call with no argument
    of a function named as the constructor."""
    registry = next(node.value for node in tree.body
                    if isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "REGISTRY")
    return {_call_key(b.body if isinstance(b, ast.Lambda)
                      else ast.Call(b, [], []), {})
            for b in (e.args[1] for e in registry.values if len(e.args) > 1)}


def _rows(top) -> list[dict]:
    """{} and each literal row of each parametrize decorator of a
    top-level definition, as a dict from argument name to value."""
    rows = [{}]
    for deco in getattr(top, "decorator_list", []):
        if getattr(getattr(deco, "func", None), "attr", "") == "parametrize":
            try:
                argnames = ast.literal_eval(deco.args[0]).split(",")
                values = ast.literal_eval(deco.args[1])
            except (ValueError, TypeError, SyntaxError, AttributeError):
                continue
            rows += [dict(zip(map(str.strip, argnames),
                              v if len(argnames) > 1 else [v])) for v in values]
    return rows


def registered_constructions(trees, registered) -> set[tuple[str, int, str]]:
    """(test module, line, enclosing top-level definition) of each call in
    the test modules of ``trees`` other than ``oracles.py`` whose key is in
    ``registered``, with its arguments as written or as a parametrize row
    of the enclosing test binds them."""
    return {(path.name, node.lineno, getattr(top, "name", ""))
            for path, tree in trees if path.name != "oracles.py"
            for top in tree.body for row in _rows(top)
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and _call_key(node, row) in registered}


def test_only_the_registry_builds_a_registered_instance():
    trees = [(path, ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted((ROOT / "tests").glob("*.py"))]
    registered = registered_constructors(
        next(tree for path, tree in trees if path.name == "oracles.py"))
    assert ("random_instance", ("11", "{0: 2, 1: 3, 2: 2}"), ()) in registered
    found = registered_constructions(trees, registered)
    stray = sorted(x for x in found if x[::2] not in GENERATOR_TESTS)
    assert not stray, (
        f"{stray} build a registered instance: read it with "
        "oracles.instance or oracles.fresh")
    assert {x[::2] for x in found} == set(GENERATOR_TESTS)
    assert all(reason.strip() for reason in GENERATOR_TESTS.values())


def test_the_registry_scan_finds_a_stray_construction():
    oracles = ast.parse(
        "REGISTRY = {'T1': Entry(EXACT, t1_instance),\n"
        "            'r7': Entry(EXACT, lambda: random_instance(7, {0: 2})),\n"
        "            'T1f': Entry(FLOAT, source='T1')}\n")
    registered = registered_constructors(oracles)
    stray = ast.parse(
        "def test_a():\n"
        "    return instances.random_instance(7, {0: 2})\n\n"
        "def test_b():\n"
        "    return to_float_instance(t1_instance()), t1_instance(tol=1)\n\n"
        "@pytest.mark.parametrize('seed, dims', [(7, {0: 2}), (5, {0: 2})])\n"
        "def test_c(seed, dims):\n"
        "    return random_instance(seed, dims), random_instance(7, {1: 2})\n")
    assert registered_constructions(
        [(ROOT / "tests" / "test_fake.py", stray),
         (ROOT / "tests" / "oracles.py", stray)], registered) == {
        ("test_fake.py", 2, "test_a"), ("test_fake.py", 5, "test_b"),
        ("test_fake.py", 9, "test_c")}
