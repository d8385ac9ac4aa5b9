"""A tracing shim that times calls into the public functions of `knotzeta`.

`Tracer.install` rebinds the listed functions, in every `knotzeta.*` module
namespace that holds them, to wrappers that record one span per call;
`uninstall` puts the originals back.  Nothing in the package changes, and an
untraced run never loads a wrapper.

A span records its name, wall start and end (`perf_counter_ns`), its thread,
its parent and its thread CPU time.  The parent is found on a per-thread
stack, because the worker threads of `verify`'s pool do not inherit
`contextvars`.  Self time is the span's thread CPU time minus that of its
children: CPU time, so that a pool thread waiting for the interpreter lock,
or the main thread waiting for the pool, is not counted as busy.  Spans stay
in memory until `dump` writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# module -> {public function: span name}; a layer's span name starts with the
# module name, so every function of a module is charged to its own layer
SPANS = {
    "knot_model": {
        "parse_diagram": "knot_model.parse",
        **dict.fromkeys(("cut", "cable", "compose_tangles", "connected_sum",
                         "close_tangle", "split_union"), "knot_model.transform"),
    },
    "arc_graph": {
        "build_arc_graph": "arc_graph.build",
        **dict.fromkeys(("weight_matrix", "laplacian", "tangle_matrix",
                         "tangle_determinant"), "arc_graph.matrix"),
    },
    "laurent": {
        "det": "laurent.det",
        "det_cofactor": "laurent.det",
        "rational_det": "laurent.rational",
        "rational_solve": "laurent.rational",
        "canonicalize": "laurent.canonicalize",
    },
    "arborescence": {
        "enumerate_arborescences": "arborescence.enumerate",
        **dict.fromkeys(("tree_polynomial", "matrix_tree_check",
                         "random_matrix_tree_check", "determinant_via_trees"),
                        "arborescence.other"),
    },
    "alexander": {
        "fox_derivative": "alexander.fox",
        "alexander_matrix": "alexander.fox",
        **dict.fromkeys(("alexander_minor", "alexander_polynomial",
                         "knot_determinant"), "alexander.polynomial"),
        **dict.fromkeys(("fox_equals_arcgraph_check", "multiplicativity_check",
                         "split_check"), "alexander.checks"),
    },
    "zeta": {
        "prime_cycles": "zeta.primes",
        "zeta_partial_product": "zeta.euler",
        "closed_walks": "zeta.closed_walks",
        "spectral_estimate": "zeta.spectral",
        **dict.fromkeys(("trace_identity_check", "determinant_formula_check",
                         "total_strand_weight", "path_sum_check",
                         "composition_check", "cabling_check"), "zeta.checks"),
    },
    "twisted": {
        "twisted_alexander_polynomial": "twisted.poly",
        "fox_colorings": "twisted.colorings",
        **dict.fromkeys(("verify_representation", "twisted_block_identity_check",
                         "twisted_row_identity_check", "twisted_trace_check",
                         "trivial_reduction_check", "column_independence_check"),
                        "twisted.checks"),
        **dict.fromkeys(("dihedral_rep", "twisted_alexander_matrix",
                         "twisted_weight_graph"), "twisted.other"),
    },
    "cli": {
        **dict.fromkeys(("main", "cmd_alexander", "cmd_det", "cmd_tree_poly",
                         "cmd_zeta", "cmd_twisted", "cmd_verify",
                         "resolve_diagram", "load_corpus", "emit"), "cli"),
        # one span per verify job, the unit the pool schedules
        **dict.fromkeys(("_check_matrix_tree", "_check_matrix_tree_random",
                         "_check_triple", "_check_zeta", "_check_path_sum",
                         "_check_composition", "_check_cable",
                         "_check_twisted_trivial", "_twisted_dihedral_reports"),
                        "cli.check"),
    },
}

# (module, class) -> {method: span name}
METHOD_SPANS = {
    ("laurent", "RingMatrix"): {"__matmul__": "laurent.matmul",
                                "power": "laurent.matmul"},
}

# span names whose self time is charged to the named layer metric
SELF_TIME_GROUPS = {"cli.check": "cli"}


def _coeff_bits(poly):
    bits = 0
    for v in poly.coeffs.values():
        if isinstance(v, int):
            bits = max(bits, v.bit_length())
        else:
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return bits


def _observers(counters, maxima):
    """Per-function callbacks (args, result) that update the size counters."""
    def bump(key, amount=1):
        counters[key] += amount

    def det_seen(args, result):
        bump("laurent.det.calls")
        bump("laurent.det.dim_sum", args[0].rows)
        maxima["laurent.det.dim_max"] = max(maxima["laurent.det.dim_max"], args[0].rows)
        maxima["laurent.det.coeff_bits_max"] = max(
            maxima["laurent.det.coeff_bits_max"], _coeff_bits(result))

    def euler_seen(args, result):
        if not isinstance(result, float):
            bits = result.numerator.bit_length() + result.denominator.bit_length()
            maxima["zeta.euler.bits"] = max(maxima["zeta.euler.bits"], bits)

    def arcs_out(args, result):
        bump("knot_model.transform.arcs_out",
             len(result.arcs) if hasattr(result, "cut_pairs") else result.n_arcs)

    return {
        ("laurent", "det"): det_seen,
        ("laurent", "det_cofactor"): lambda a, r: bump("laurent.det.cofactor_calls"),
        ("zeta", "zeta_partial_product"): euler_seen,
        ("zeta", "prime_cycles"): lambda a, r: bump("zeta.primes.count", len(r)),
        ("zeta", "closed_walks"): lambda a, r: bump("zeta.closed_walks.count", len(r)),
        ("zeta", "spectral_estimate"): lambda a, r: bump("zeta.spectral.calls"),
        ("zeta", "determinant_formula_check"):
            lambda a, r: bump("zeta.determinant_formula_checks"),
        ("arborescence", "enumerate_arborescences"): lambda a, r: (
            bump("arborescence.enumerate.calls"), bump("arborescence.trees", len(r))),
        ("arc_graph", "build_arc_graph"):
            lambda a, r: bump("arc_graph.build.vertices", len(r.vertices)),
        **{("knot_model", name): arcs_out
           for name, span in SPANS["knot_model"].items()
           if span == "knot_model.transform"},
    }


class Tracer:
    """Spans and counters for calls into `knotzeta`, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore = []
        self.missing = []  # listed functions the package no longer has

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, observe):
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter_ns
        cpu_clock = time.thread_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            frame = [next(ids), 0]  # span id, CPU time of children
            stack.append(frame)
            start, cpu_start = clock(), cpu_clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = cpu_clock() - cpu_start
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[1] += cpu
                spans.append((frame[0], name, start, end,
                              parent[0] if parent else None,
                              threading.get_ident(), cpu, cpu - frame[1]))
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self):
        """Rebind every listed function in every loaded `knotzeta.*` namespace.

        A listed function or module the package no longer has is skipped and
        named in `missing`.
        """
        observers = _observers(self.counters, self.maxima)
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "knotzeta" or n.startswith("knotzeta.")]
        for module_name, functions in SPANS.items():
            module = sys.modules.get(f"knotzeta.{module_name}")
            for fn_name, span in functions.items():
                original = getattr(module, fn_name, None)
                if original is None:
                    self.missing.append(f"{module_name}.{fn_name}")
                    continue
                traced = self._wrap(original, span,
                                    observers.get((module_name, fn_name)))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, traced)
                            self._restore.append((ns, attr, original))
        for (module_name, cls_name), methods in METHOD_SPANS.items():
            cls = getattr(sys.modules.get(f"knotzeta.{module_name}"), cls_name, None)
            for meth, span in methods.items():
                original = vars(cls).get(meth) if cls else None
                if original is None:
                    self.missing.append(f"{module_name}.{cls_name}.{meth}")
                    continue
                setattr(cls, meth, self._wrap(original, span, None))
                self._restore.append((cls, meth, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- aggregation ----------------------------------------------------------

    def self_seconds(self):
        """Self CPU seconds per layer name."""
        out = defaultdict(float)
        for span in self.spans:
            out[SELF_TIME_GROUPS.get(span[1], span[1])] += span[7] / 1e9
        return out

    def wall_seconds(self, name):
        """Summed wall duration of the spans with this name."""
        return sum(s[3] - s[2] for s in self.spans if s[1] == name) / 1e9

    def dump(self, path):
        """Write one JSON array per span: id, name, start_ns, end_ns, parent,
        thread, cpu_ns, self_cpu_ns."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")
