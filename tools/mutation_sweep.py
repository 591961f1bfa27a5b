"""Plant one defect at a time in a copy of the sources, and list the ones
that no test catches.

    python3 tools/mutation_sweep.py

Run it from anywhere; it finds the checkout from its own path and needs
only the standard library plus the test suite's own packages.

The one kind of defect so far is a parity flip: one expression ``x % 2``
of ``src/glq`` becomes ``(x + 1) % 2``.  Each mutant is triaged with
``tests/test_golden.py`` (the golden report bytes); a mutant that
survives it runs the Tier-1 suite, stopping at its first failure, less
the two tests that read the sites' own source text.

A site is named by module, function and expression, never by line, so
that the names outlive unrelated edits; an expression that occurs more
than once in one function carries its occurrence number.
``tools/mutation_ledger.json`` lists each site that survived a sweep,
either as ``equivalent`` (no test can kill it, with the reason) or as
``killed`` (by the named test, written after the sweep found it).  The
script exits 1 when a survivor is not listed as equivalent, or when a
site listed as killed survives, and 2 when the unmutated copy already
fails its tests.

The checkout is never changed: the sweep copies it into a temporary
directory and plants each mutant in the copy.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "glq"
LEDGER = Path(__file__).resolve().with_name("mutation_ledger.json")
KIND = "parity flip: x % 2 -> (x + 1) % 2"
# Left out of the copy: version control, caches and benchmark records.
IGNORED = (".git", "__pycache__", ".hypothesis", ".pytest_cache",
           ".bench_out", ".benchmarks", "BENCH_*.json")
TRIAGE = ["tests/test_golden.py"]
# The tests that read the sites' source text: a mutant changes that text
# by construction, so they would kill every mutant of a ledger site.
SOURCE_READERS = (
    "tests/test_mutants.py::test_every_ledger_site_still_exists",
    "tests/test_mutants.py::test_sweep_plants_the_flip_at_its_site",
)
TIER1 = ["--continue-on-collection-errors"] + [
    arg for test in SOURCE_READERS for arg in ("--deselect", test)]


class _Finder(ast.NodeVisitor):
    """The parity expressions ``x % 2`` of one module, each with the
    qualified name of the function that holds it."""

    def __init__(self):
        self.scope = []
        self.found = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_BinOp(self, node):
        if (isinstance(node.op, ast.Mod)
                and isinstance(node.right, ast.Constant)
                and node.right.value == 2):
            self.found.append((".".join(self.scope) or "<module>", node))
        self.generic_visit(node)


def sites(root=ROOT):
    """Every parity site under root/src/glq, as dicts with the module,
    function, expression and occurrence that name it, and the byte span
    of the operand x that a flip wraps."""
    out = []
    for path in sorted((root / PACKAGE).rglob("*.py")):
        module = ".".join(path.relative_to(root / PACKAGE).with_suffix("")
                          .parts)
        source = path.read_text()
        finder = _Finder()
        finder.visit(ast.parse(source))
        starts = [0]
        for line in source.encode().splitlines(keepends=True):
            starts.append(starts[-1] + len(line))
        seen = {}
        for function, node in finder.found:
            expression = " ".join(
                ast.get_source_segment(source, node).split())
            key = function, expression
            seen[key] = seen.get(key, 0) + 1
            left = node.left
            out.append({
                "module": module, "function": function,
                "expression": expression, "occurrence": seen[key],
                "path": path.relative_to(root),
                "span": (starts[left.lineno - 1] + left.col_offset,
                         starts[left.end_lineno - 1] + left.end_col_offset),
            })
    return out


def site_name(site):
    name = "%s.%s: %s" % (site["module"], site["function"],
                          site["expression"])
    return name if site["occurrence"] == 1 else "%s [%d]" % (
        name, site["occurrence"])


def flipped(source, span):
    """The source with the operand at the byte span wrapped as (x + 1)."""
    data = source.encode()
    a, b = span
    return (data[:a] + b"(" + data[a:b] + b" + 1)" + data[b:]).decode()


def _pytest(workdir, args):
    """True when the suite passes on the copy."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        + args, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return result.returncode == 0


def sweep(targets, workdir):
    """{site name: "golden" | "tier1" | "survived"} for the given sites,
    each planted alone in the copy at workdir."""
    outcome = {}
    for site in targets:
        path = workdir / site["path"]
        original = path.read_text()
        path.write_text(flipped(original, site["span"]))
        started = time.perf_counter()
        try:
            if not _pytest(workdir, TRIAGE):
                outcome[site_name(site)] = "golden"
            elif not _pytest(workdir, TIER1):
                outcome[site_name(site)] = "tier1"
            else:
                outcome[site_name(site)] = "survived"
        finally:
            path.write_text(original)
        print("%-9s %5.1fs  %s" % (outcome[site_name(site)],
                                   time.perf_counter() - started,
                                   site_name(site)), flush=True)
    return outcome


def ledger_names(ledger):
    """{site name: entry} of the ledger's survivors."""
    return {site_name(dict(entry, occurrence=entry.get("occurrence", 1))):
            entry for entry in ledger["survivors"]}


def verdict(outcome, ledger):
    """The problems of a sweep against the ledger: survivors that are not
    listed as equivalent, and sites listed as killed that survived."""
    listed = ledger_names(ledger)
    problems = []
    for name, result in sorted(outcome.items()):
        status = listed.get(name, {}).get("status")
        if result == "survived" and status != "equivalent":
            problems.append("survived, %s: %s" % (
                "listed as killed" if status else "not in the ledger", name))
    return problems


def main():
    tmp = tempfile.mkdtemp(prefix="glq-mutants-")
    workdir = Path(tmp) / "checkout"
    try:
        shutil.copytree(ROOT, workdir,
                        ignore=shutil.ignore_patterns(*IGNORED))
        # A suite that fails unmutated would count every mutant killed.
        if not (_pytest(workdir, TRIAGE) and _pytest(workdir, TIER1)):
            print("the unmutated copy fails its tests; nothing swept")
            return 2
        outcome = sweep(sites(), workdir)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    counts = {r: list(outcome.values()).count(r)
              for r in ("golden", "tier1", "survived")}
    print("%d sites (%s): %d killed by the golden jobs, %d by Tier-1, "
          "%d survived" % (len(outcome), KIND, counts["golden"],
                           counts["tier1"], counts["survived"]))
    problems = verdict(outcome, json.loads(LEDGER.read_text()))
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
