"""The public surface: every exported name and every library entry point
that the README names imports and does what its name says, every
function of `src/glq` that no subcommand reaches is listed with the
reason it stays, and every function that the benchmark tracer's
per-layer metrics are named after exists."""

from __future__ import annotations

import ast
import importlib
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

UNREACHED = {
    "joint_kernel": ORACLE,
    "pair_coproduct": ORACLE,
    "parse_uq": README,
    "parse_coords": README,
    "parse_scalar": README,
    "is_normal": BENCH,
    "hook_partitions": LABELS,
    "in_first_family": LABELS,
    "in_second_family": LABELS,
    "dual_label_of": LABELS,
    "dual_label": LABELS,
    "equivariance_defects": EQUIVARIANCE,
    "right_translation": EQUIVARIANCE,
    "functional_witness": EQUIVARIANCE,
    "coaction": COACTION,
    "coaction_pair": COACTION,
    "cp_basis": COACTION,
    "verify_identities": REWRITING,
    "sphere_relation_element": REWRITING,
    "redexes": REWRITING,
    "apply_rule": REWRITING,
    "gl1_weight": GRADING,
    "classical_limit_is_identity": ("paper check waiting for a report "
                                    "(ROADMAP item 5): the R-matrix is "
                                    "the identity at q = 1"),
}


def _names(node):
    """Every name and attribute name that a piece of code mentions."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _unreached_functions():
    """Names of the functions in src/glq that no subcommand reaches.

    The walk goes by name, over glq and its subpackages: it starts from
    the functions of glq.cli, the module-level code of every module and
    the dunder functions and methods (which run on import, through an
    operator, or, for a module's __getattr__, on an attribute lookup),
    and a reached body reaches every function, in any module, named like
    a name or attribute it mentions.  So glq.cli's call of report(args)
    reaches the report function of every module of glq.reports."""
    bodies = {}
    roots = set()
    for path in _modules():
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                bodies.setdefault(node.name, []).append(node)
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                if path == PACKAGE / "cli.py" or (
                        stmt.name.startswith("__")
                        and stmt.name.endswith("__")):
                    roots.add(stmt.name)
                continue
            parts = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
            for part in parts:
                if not isinstance(part, ast.FunctionDef):
                    roots |= _names(part)
                elif part.name.startswith("__") and part.name.endswith("__"):
                    roots.add(part.name)
    reached = set()
    queue = [name for name in roots if name in bodies]
    while queue:
        name = queue.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in bodies[name]:
            queue.extend(n for n in _names(node) if n in bodies)
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
