"""Run one `glq` CLI job with per-layer spans around the calls into each
glq module.

Usage: python3 bench/tracer.py <glq arguments...>

The report goes to stdout exactly as `glq` prints it and the exit code
is `glq`'s.  The trace is written as the last line of stderr, after the
marker in ``MARKER``.  Nothing inside glq is edited: the public functions
of each module, and a few named methods, are replaced by timing wrappers
from here, and every module-level alias of a wrapped function is rebound
too (``reps`` holds ``graded.nullspace``, ``cli`` holds
``superspace.normal_form``, ...).  Spans are aggregated in memory per
(caller, callee) pair, so the log stays bounded however many calls a job
makes.
"""

import importlib
import inspect
import json
import sys
import time
import traceback

MARKER = "GLQ-BENCH-TRACE "

LAYERS = ("coeff", "graded", "reps", "coords", "rmatrix", "superspace",
          "uq", "induction", "parser")

# Methods traced besides the public module-level functions.  Q(q)
# arithmetic is the bulk of all calls; `coeff` calls are counted and
# timed, and their time is taken off the caller's self time, but they
# get no caller/callee edge.
METHODS = {
    "coeff": {"RatFunc": ("__init__", "__add__", "__sub__", "__rsub__",
                          "__mul__", "__truediv__", "__neg__", "inverse",
                          "scale")},
    "graded": {"Echelon": ("add",), "GradedMap": ("compose", "apply")},
    "reps": {"Representation": ("evaluate_word", "evaluate_expr")},
}

# Helpers called only from inside their own layer, millions of times per
# job.  Their time stays in the caller's self time; wrapping them would
# only add overhead.
INTERNAL = {
    "coords": ("letter_parity",),
    "graded": ("vec_sub_scaled", "vec_scale", "tensor_index",
               "tensor_unindex"),
    "superspace": ("space_letter_parity",),
}

# Functions the per-layer metrics are named after.  One that is missing on
# some commit is listed as untraced and its metrics read 0.
REQUIRED = (
    "coeff.RatFunc.__init__", "graded.Echelon.add", "graded.GradedMap.compose",
    "graded.nullspace", "graded.solve", "reps.Representation.evaluate_word",
    "reps.decompose", "reps.submodule_rep", "coords.evaluate_word",
    "coords.evaluate", "rmatrix.check_rtt", "rmatrix.check_intertwiner",
    "rmatrix.check_braid", "superspace.normal_form", "uq.coproduct",
    "uq.antipode", "induction.build_induced", "induction.frobenius_dims",
    "parser.parse_superspace", "parser.format_normal_form",
)


class Tracer:
    """Aggregated spans: per function, per layer and per caller edge."""

    def __init__(self):
        self.clock = time.perf_counter
        # Each frame is [time covered by child spans, function key].
        self.stack = [[0.0, "cli"]]
        # key -> [calls, inclusive s (outermost calls), self s, depth]
        self.funcs = {}
        self.layer_busy = dict.fromkeys(LAYERS, 0.0)
        self.layer_depth = dict.fromkeys(LAYERS, 0)
        self.errors = dict.fromkeys(LAYERS + ("cli",), 0)
        self.edges = {}
        self.counts = {"ratfunc_new": 0, "monomial_den": 0,
                       "prereduced": 0, "echelon_grew": 0,
                       "rewrite_steps": 0, "evaluate_word_repeat": 0}
        self.seen_words = set()
        # The modules seen_words keys by id(), held so that no id is
        # reused by a later module within the job.
        self.word_modules = {}
        self.untraced = []

    def wrap(self, layer, key, fn, before=None, after=None, edges=True):
        rec = self.funcs.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self.stack
        clock = self.clock
        busy = self.layer_busy
        depth = self.layer_depth
        errors = self.errors
        edge_log = self.edges

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0.0, key]
            parent = stack[-1]
            stack.append(frame)
            rec[3] += 1
            depth[layer] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                if depth[layer] == 1:
                    errors[layer] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                parent[0] += dt
                rec[0] += 1
                rec[2] += dt - frame[0]
                rec[3] -= 1
                if not rec[3]:
                    rec[1] += dt
                depth[layer] -= 1
                if not depth[layer]:
                    busy[layer] += dt
                if edges:
                    e = (parent[1], key)
                    agg = edge_log.get(e)
                    if agg is None:
                        edge_log[e] = [1, dt]
                    else:
                        agg[0] += 1
                        agg[1] += dt
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- counters measured at the boundary --------------------------------

    def _ratfunc_new(self, args, kwargs):
        # monomial_den counts only constructions that reach the reduction
        # code: pre-reduced ones never look at their denominator.
        c = self.counts
        c["ratfunc_new"] += 1
        if kwargs.get("_reduced") or (len(args) > 3 and args[3]):
            c["prereduced"] += 1
        elif len(args) > 2 and len(getattr(args[2], "coeffs", ())) == 1:
            c["monomial_den"] += 1

    def _echelon_add(self, args, out):
        if out:
            self.counts["echelon_grew"] += 1

    def _normal_form(self, args, out):
        self.counts["rewrite_steps"] += out[1]

    def _evaluate_word(self, args, kwargs):
        self.word_modules[id(args[0])] = args[0]
        k = (id(args[0]), tuple(args[1]))
        if k in self.seen_words:
            self.counts["evaluate_word_repeat"] += 1
        else:
            self.seen_words.add(k)

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module("glq." + layer)
            except ModuleNotFoundError:
                pass
        every = list(modules.values()) + [
            importlib.import_module("glq"), importlib.import_module("glq.cli")]
        hooks = {
            "coeff.RatFunc.__init__": (self._ratfunc_new, None),
            "graded.Echelon.add": (None, self._echelon_add),
            "superspace.normal_form": (None, self._normal_form),
            "reps.Representation.evaluate_word": (self._evaluate_word, None),
        }
        wrapped = set()
        for layer, mod in modules.items():
            skip = INTERNAL.get(layer, ())
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or name in skip
                        or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                key = "%s.%s" % (layer, name)
                before, after = hooks.get(key, (None, None))
                new = self.wrap(layer, key, obj, before, after,
                                edges=layer != "coeff")
                for other in every:
                    for alias, value in list(vars(other).items()):
                        if value is obj:
                            setattr(other, alias, new)
                wrapped.add(key)
            for cls_name, names in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for name in names:
                    key = "%s.%s.%s" % (layer, cls_name, name)
                    fn = vars(cls).get(name) if cls is not None else None
                    if not inspect.isfunction(fn):
                        continue
                    before, after = hooks.get(key, (None, None))
                    new = self.wrap(layer, key, fn, before, after,
                                    edges=layer != "coeff")
                    for alias, value in list(vars(cls).items()):
                        if value is fn:
                            setattr(cls, alias, new)
                    wrapped.add(key)
        self.untraced = [k for k in REQUIRED if k not in wrapped]

    def result(self, exit_code):
        return {
            "exit_code": exit_code,
            "covered_s": self.stack[0][0],
            "funcs": {k: v[:3] for k, v in self.funcs.items() if v[0]},
            "layer_busy_s": self.layer_busy,
            "errors": self.errors,
            "counts": self.counts,
            "edges": [[a, b, n, t] for (a, b), (n, t) in self.edges.items()],
            "untraced": self.untraced,
        }


def main(argv):
    tracer = Tracer()
    tracer.install()
    from glq.cli import main as glq_main

    code = 1
    try:
        code = glq_main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
        code = code if isinstance(code, int) else 1
    except Exception:
        tracer.errors["cli"] += 1
        traceback.print_exc()
    sys.stdout.flush()
    sys.stderr.write("\n" + MARKER + json.dumps(tracer.result(code)) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
