"""
Deterministic JSON reports from the command line
================================================

Every identity suite is also reachable through the ``glq`` console
command, which prints a versioned JSON report with one entry per check
and exits 1 when any suite fails.  Reports are byte-identical across
runs.  Bad input exits 2: invalid arguments are rejected before any
work with no report, and an expression that does not parse gets a
report naming the error and its position.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from glq.cli import main

def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()

# A full verification pass at (1|1): defining relations in four modules,
# the Hopf axioms, star/unitarity, and the squared antipode.
code, text = run(["verify", "--m", "1", "--n", "1"])
report = json.loads(text)
print("glq verify --m 1 --n 1  ->  exit", code)
for suite in report["suites"]:
    names = ", ".join(c["name"] for c in suite["checks"][:3])
    more = "" if len(suite["checks"]) <= 3 else ", ..."
    print("  suite %-10s ok=%s  (%s%s)" % (suite["name"], suite["ok"],
                                           names, more))

# Reports are deterministic: run it again, compare bytes.
print("byte-identical rerun:", run(["verify", "--m", "1", "--n", "1"])[1]
      == text)

# Decomposition reports list each summand with its highest weight.
code, text = run(["decompose", "--word", "E", "--power", "2",
                  "--m", "2", "--n", "1"])
summands = json.loads(text)["suites"][0]["summands"]
print("tensor-square summands at (2|1):", summands)

# Normal forms from the expression parser, ready to paste back in.
code, text = run(["normalform", "zb[1]*z[1]"])
print("normalform zb[1]*z[1]  ->",
      json.loads(text)["suites"][0]["normal_form"])

# An expression that does not parse is bad input: exit 2, and the
# report names the error and its position.
code, text = run(["normalform", "zb[1"])
err = json.loads(text)["error"]
print("parse error exit %d: %s at position %d"
      % (code, err["message"], err["position"]))

# Bad arguments never reach the checks: the parser exits 2.
usage = io.StringIO()
try:
    with redirect_stderr(usage):
        run(["decompose", "--word", "E", "--power", "0"])
except SystemExit as exc:
    print("decompose --power 0  ->  exit %d: %s"
          % (exc.code, usage.getvalue().strip().splitlines()[-1]))
