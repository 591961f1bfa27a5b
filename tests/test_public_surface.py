"""The public surface: every exported name and every library entry point
that the README names imports and does what its name says, every
function of `src/glq` that no subcommand reaches, and every module-level
table that `src/glq` fills at run time, is listed with the reason it
stays, and every function that the benchmark tracer's per-layer metrics
are named after exists."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import pathlib

import glq
from glq.coeff import ONE, Q, RatFunc
from glq.coords import GqElement
from glq.graded import GradingContext
from glq.parser import (format_normal_form, parse_coords, parse_scalar,
                        parse_superspace, parse_uq)
from glq.superspace import normal_form
from glq.uq import UqExpression


def test_every_exported_name_resolves():
    assert len(set(glq.__all__)) == len(glq.__all__)
    for name in glq.__all__:
        assert getattr(glq, name) is not None, name


def test_readme_entry_points_parse_into_their_algebras():
    ctx = GradingContext(2, 1)
    assert parse_scalar("q + 1") == Q + ONE
    assert isinstance(parse_scalar("q^-2"), RatFunc)
    assert isinstance(parse_uq(ctx, "K[1]*E[1,2]"), UqExpression)
    assert isinstance(parse_coords(ctx, "t[1,2]*tb[2,1]"), GqElement)
    x, _ = normal_form(ctx, parse_superspace(ctx, "zb[2]*z[1]"))
    assert parse_superspace(ctx, format_normal_form(ctx, x)) == x


PACKAGE = pathlib.Path(glq.__file__).parent


def _modules():
    """The source files of glq and of its subpackages."""
    return sorted(PACKAGE.rglob("*.py"))


def _module_name(path):
    """The dotted name of a source file below glq: "coords",
    "reports.verify", and "" for glq's own __init__."""
    parts = path.relative_to(PACKAGE).with_suffix("").parts
    return ".".join(part for part in parts if part != "__init__")


def test_every_import_is_used():
    """Each name that a module of src/glq imports is used in that module,
    or, in the package's __init__, exported through glq.__all__."""
    unused = []
    for path in _modules():
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if path == PACKAGE / "__init__.py":
            used |= set(glq.__all__)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append("%s: %s" % (
                            path.relative_to(PACKAGE), name))
    assert unused == []


# Module-level tables filled at run time, each with the reason it is not
# a functools.cache.
MODULE_TABLES = {
    "coeff._Q_POWERS": ("tests/test_cli.py::"
                        "test_reports_mutate_no_shared_value lists every "
                        "shared q^e from it"),
}


def _is_empty_container(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "dict", "list")
            and not node.args and not node.keywords)


def test_every_module_table_is_listed_with_a_reason():
    """A value computed once per key is memoised with functools.cache, not
    in a module-level {}, [], set(), dict() or list() filled by hand."""
    tables = set()
    for path in _modules():
        for stmt in ast.parse(path.read_text()).body:
            if (isinstance(stmt, (ast.Assign, ast.AnnAssign))
                    and stmt.value is not None
                    and _is_empty_container(stmt.value)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                tables |= {"%s.%s" % (_module_name(path), n.id)
                           for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name)}
    assert sorted(tables) == sorted(MODULE_TABLES)


# ---------------------------------------------------------------------------
# Reachability: functions that no `glq` subcommand reaches.
# ---------------------------------------------------------------------------

ORACLE = "oracle: a test checks the code with it, stated a second way"
README = "library entry point that the README names"
BENCH = "the normal-form checker of bench/run.py's rewrite workload"
LABELS = ("paper check waiting for a report (ROADMAP item 5): the two "
          "label families of tensor powers and their duals")
EQUIVARIANCE = ("paper check waiting for a report (ROADMAP item 3): "
                "right-translation equivariance of the induced span")
COACTION = ("paper check waiting for a report (ROADMAP item 5): the "
            "co-action and the invariant subalgebra")
REWRITING = ("paper check waiting for a report (ROADMAP item 5): the "
             "rewriting system's identities and confluence")
GRADING = ("paper check waiting for a report (ROADMAP item 5): the "
           "circle grading of superspace")

TEST_USE = ("used by the tests: tests/test_coords.py checks the "
            "coordinate counit on pairings with it")

UNREACHED = {
    "graded.joint_kernel": ORACLE,
    "coords.pair_coproduct": ORACLE,
    "coords.counit": TEST_USE,
    "parser.parse_uq": README,
    "parser.parse_coords": README,
    "parser.parse_scalar": README,
    "superspace.is_normal": BENCH,
    "reps.hook_partitions": LABELS,
    "reps.in_first_family": LABELS,
    "reps.in_second_family": LABELS,
    "reps.dual_label_of": LABELS,
    "reps._power_summands": LABELS,
    "reps.Summand.dual_label": LABELS,
    "induction.equivariance_defects": EQUIVARIANCE,
    "induction.right_translation": EQUIVARIANCE,
    "coords.functional_witness": EQUIVARIANCE,
    "induction.coaction": COACTION,
    "induction.coaction_pair": COACTION,
    "induction.cp_basis": COACTION,
    "superspace.verify_identities": REWRITING,
    "superspace.sphere_relation_element": REWRITING,
    "superspace.redexes": REWRITING,
    "superspace.apply_rule": REWRITING,
    "superspace.gl1_weight": GRADING,
    "rmatrix.classical_limit_is_identity": ("paper check waiting for a "
                                            "report (ROADMAP item 5): the "
                                            "R-matrix is the identity at "
                                            "q = 1"),
}


def _mentions(node):
    """The bare names and the attribute names that a piece of code
    mentions."""
    bare, attrs = set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            bare.add(n.id)
        elif isinstance(n, ast.Attribute):
            attrs.add(n.attr)
    return bare, attrs


def _imported(path, node):
    """(bound name, source module, name there) for each name that an
    import of glq code binds in the module at ``path``."""
    package = ".".join(("glq",) + path.parent.relative_to(PACKAGE).parts)
    source = importlib.util.resolve_name(
        "." * node.level + (node.module or ""), package)
    if source != "glq" and not source.startswith("glq."):
        return []
    return [(alias.asname or alias.name, source[4:], alias.name)
            for alias in node.names]


def _unreached_functions():
    """The functions in src/glq that no subcommand reaches, each named
    module.function or module.Class.method.

    The walk starts from the functions of glq.cli, the module-level code
    of every module and the dunder functions and methods (which run on
    import, through an operator, or, for a module's __getattr__, on an
    attribute lookup).  A reached piece of code reaches, by a bare name,
    the function that its module defines or imports under that name
    (in a class body, first the method of that class), and by an
    attribute, every function and method of that name in any module.  So
    glq.cli's call of report(args) reaches the report function of every
    module of glq.reports.  A nested function is part of its parent and
    is reached with it."""
    bodies = {}     # key -> (module, FunctionDef)
    by_attr = {}    # function or method name -> keys
    defined = {}    # module -> {name: key} of its top-level functions
    imports = {}    # module -> {bound name: (source module, name there)}
    roots = set()
    code = []       # (module, class key prefix or "", module-level code)

    def define(key, module, node):
        bodies[key] = module, node
        by_attr.setdefault(node.name, []).append(key)
        if node.name.startswith("__") and node.name.endswith("__"):
            roots.add(key)

    for path in _modules():
        module = _module_name(path)
        tree = ast.parse(path.read_text())
        imports[module] = {
            name: (source, there) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for name, source, there in _imported(path, node)}
        defined[module] = {}
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                key = defined[module][stmt.name] = module + "." + stmt.name
                define(key, module, stmt)
                if module == "cli":
                    roots.add(key)
            elif isinstance(stmt, ast.ClassDef):
                prefix = "%s.%s." % (module, stmt.name)
                for part in stmt.body:
                    if isinstance(part, ast.FunctionDef):
                        define(prefix + part.name, module, part)
                    else:
                        code.append((module, prefix, part))
            else:
                code.append((module, "", stmt))

    def resolve(module, name):
        """The key of the function bound to ``name`` in ``module``."""
        if name in defined.get(module, {}):
            return defined[module][name]
        source = imports.get(module, {}).get(name)
        return resolve(*source) if source else None

    def reached_from(module, prefix, node):
        bare, attrs = _mentions(node)
        out = [key for name in attrs for key in by_attr.get(name, ())]
        for name in bare:
            if prefix and prefix + name in bodies:
                out.append(prefix + name)
            else:
                out.append(resolve(module, name))
        return [key for key in out if key is not None]

    queue = list(roots)
    for module, prefix, node in code:
        queue.extend(reached_from(module, prefix, node))
    reached = set()
    while queue:
        key = queue.pop()
        if key not in reached:
            reached.add(key)
            module, node = bodies[key]
            queue.extend(reached_from(module, "", node))
    return set(bodies) - reached


def test_every_unreached_function_is_listed_with_a_reason():
    unreached = _unreached_functions()
    assert sorted(unreached - set(UNREACHED)) == [], "unreached, not listed"
    assert sorted(set(UNREACHED) - unreached) == [], "listed, now reached"


# ---------------------------------------------------------------------------
# Tracer names: a renamed function would turn its per-layer metric to 0.
# ---------------------------------------------------------------------------

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

UNTRACED = {
    "coords.evaluate_word": ("gone since coords pairs words through "
                             "tables; the benchmark change of ROADMAP "
                             "item 2 drops the name"),
}


def _tracer_constant(name):
    """A literal module-level constant of bench/tracer.py, read without
    importing it."""
    for stmt in ast.parse(TRACER.read_text()).body:
        if (isinstance(stmt, ast.Assign)
                and [getattr(t, "id", None) for t in stmt.targets] == [name]):
            return ast.literal_eval(stmt.value)
    raise LookupError(name)


def _traceable(key):
    """Whether the tracer can wrap `layer.function`, a public function
    defined in glq.layer, or `layer.Class.method`, a method defined on
    the class and listed in the tracer's METHODS."""
    layer, *path = key.split(".")
    module = importlib.import_module("glq." + layer)
    if len(path) == 1:
        fn = vars(module).get(path[0])
        return (not path[0].startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == module.__name__)
    cls_name, name = path
    cls = vars(module).get(cls_name)
    listed = _tracer_constant("METHODS").get(layer, {}).get(cls_name, ())
    return (inspect.isclass(cls) and name in listed
            and inspect.isfunction(vars(cls).get(name)))


def test_every_tracer_name_resolves():
    unresolved = {k for k in _tracer_constant("REQUIRED")
                  if not _traceable(k)}
    assert sorted(unresolved - set(UNTRACED)) == [], "unresolved, not listed"
    assert sorted(set(UNTRACED) - unresolved) == [], "listed, now resolves"
