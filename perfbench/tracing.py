"""Per-layer tracing from outside the library.

A layer is one module of the ``turancover`` package.  ``Tracer.install``
wraps the public functions listed in ``TRACED`` with timing wrappers, on the
module or class that defines them and on every package module that imported
the name, so ``cli.ex_via_cover`` and ``diagonal.product`` are timed too.
``Tracer.remove`` puts every original back.

Each call records a span (name, start, end, parent) in memory.  A layer's
self time is the time of its spans minus the time of their child spans, so
the layers' self times add up to the traced pass.  The run is
single-threaded, so no span ever waits on another.
"""

from __future__ import annotations

import functools
import sys
import time
from math import comb

from workloads import turan_number

# layer -> (owner, attribute) pairs; an owner is a module or a "module.Class"
TRACED = {
    "cli": [("cli", "main")],
    "polycore": [
        ("polycore.Polynomial", "__mul__"),
        ("polycore.Polynomial", "identify"),
        ("polycore.Polynomial", "derivative"),
        ("polycore", "product"),
        ("polycore", "vandermonde"),
    ],
    "diagonal": [
        ("diagonal", name)
        for name in (
            "missing_triple_product", "in_identification_ideal", "in_differentiated_ideal",
            "counterexample_polynomial", "generator_degree_bound", "verify_counterexample",
            "random_partite_3graph", "check_partite_generators",
        )
    ],
    "hypergraph": [
        ("hypergraph", name)
        for name in (
            "enumerate_forbidden_copies", "brute_force_ex", "brute_force_gen_ex",
            "core_family_free", "count_copies", "turan_count", "builtin_spec",
        )
    ],
    "monomial": [("monomial", "min_hitting_set"), ("monomial", "minimal_supports")],
    "dictionary": [
        ("dictionary", name)
        for name in ("make_instance", "ex_via_cover", "alpha_target", "gen_ex_via_cover")
    ],
    "codegree_star": [
        ("codegree_star", name)
        for name in (
            "star_initial_degree", "verify_collapse", "core_family_turan_number",
            "in_star_ideal", "balanced_partition_monomial",
        )
    ],
    "squarezero": [
        ("squarezero.SquareZeroQuotient", "hilbert"),
        ("squarezero.SquareZeroQuotient", "lambda_dim"),
        ("squarezero.SquareZeroQuotient", "parallel_classes"),
        ("squarezero.SquareZeroQuotient", "clone"),
        ("squarezero", "symmetrize"),
        ("squarezero", "terminal_class_sizes"),
    ],
}

LAYERS = list(TRACED)


def _resolve(owner: str):
    module, _, cls = owner.partition(".")
    obj = sys.modules[f"turancover.{module}"]
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans of one traced pass, plus the patches that record them."""

    def __init__(self):
        # [name, layer, start, end, parent index, counted argument, counted result]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        spans, stack = self.spans, self._stack
        count_arg, count_result = COUNTED.get(name), RESULT_COUNTED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, 0.0, 0.0, stack[-1] if stack else -1, count_arg(args) if count_arg else 0, 0])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][2], spans[idx][3] = start, end
            if count_result:
                spans[idx][6] = count_result(result)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def install(self) -> None:
        """Wrap every traced function of the currently imported package."""
        package = [m for k, m in sys.modules.items() if k.startswith("turancover.")]
        for layer, entries in TRACED.items():
            for owner, attr in entries:
                target = _resolve(owner)
                original = target.__dict__[attr]
                name = f"{layer}.{attr}"
                wrapper = self._wrap(original, name, layer)
                self._patch(target, attr, wrapper)
                if "." in owner:
                    continue
                for module in package:
                    if module is not target and module.__dict__.get(attr) is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # -- reduction -----------------------------------------------------

    def layer_metrics(self, ops, scale: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced pass, as name -> (value, unit).
        Times are multiplied by ``scale``, the pass's factor to reference speed."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, layer, start, end, parent, *_ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = {layer: 0.0 for layer in LAYERS}
        total = {}  # name -> [outermost time, calls]
        for i, (name, layer, start, end, parent, *_) in enumerate(spans):
            self_s[layer] += (end - start) - child[i]
            t = total.setdefault(name, [0.0, 0])
            t[1] += 1
            # time a name only at its outermost span, so recursion is not double counted
            p, nested = parent, False
            while p >= 0:
                if spans[p][0] == name:
                    nested = True
                    break
                p = spans[p][4]
            if not nested:
                t[0] += end - start

        def time_of(name):
            return total.get(name, [0.0, 0])[0]

        def calls(name):
            return total.get(name, [0.0, 0])[1]

        def arg_sum(name):
            return sum(s[5] for s in spans if s[0] == name)

        def result_sum(name):
            return sum(s[6] for s in spans if s[0] == name)

        sampled = calls("diagonal.random_partite_3graph")
        checked = calls("diagonal.missing_triple_product")
        alpha_ops = sum(1 for op in ops if op.asks_alpha)
        certify = calls("codegree_star.star_initial_degree")
        m = {
            "polycore.mul_s": (time_of("polycore.__mul__"), "s"),
            "polycore.mul_calls": (calls("polycore.__mul__"), "count"),
            "polycore.identify_s": (time_of("polycore.identify"), "s"),
            "polycore.identify_calls": (calls("polycore.identify"), "count"),
            "polycore.derivative_s": (time_of("polycore.derivative"), "s"),
            "polycore.derivative_calls": (calls("polycore.derivative"), "count"),
            "polycore.terms_out": (
                sum(result_sum(f"polycore.{f}") for f in ("__mul__", "identify", "derivative")),
                "count",
            ),
            "diagonal.graphs_sampled": (sampled, "count"),
            "diagonal.graphs_checked": (checked, "count"),
            "diagonal.distinct_ratio": (checked / sampled if sampled else 0.0, "ratio"),
            "hypergraph.enumerate_s": (time_of("hypergraph.enumerate_forbidden_copies"), "s"),
            "hypergraph.copies_enumerated": (result_sum("hypergraph.enumerate_forbidden_copies"), "count"),
            "hypergraph.oracle_s": (time_of("hypergraph.brute_force_ex") + time_of("hypergraph.brute_force_gen_ex"), "s"),
            "hypergraph.oracle_calls": (calls("hypergraph.brute_force_ex") + calls("hypergraph.brute_force_gen_ex"), "count"),
            "hypergraph.witness_check_s": (time_of("hypergraph.core_family_free") + time_of("hypergraph.count_copies"), "s"),
            "monomial.hitting_set_s": (time_of("monomial.min_hitting_set"), "s"),
            "monomial.hitting_set_calls": (calls("monomial.min_hitting_set"), "count"),
            "monomial.copies_in": (arg_sum("monomial.min_hitting_set"), "count"),
            "dictionary.alpha_target_s": (time_of("dictionary.alpha_target"), "s"),
            "dictionary.alpha_target_calls": (calls("dictionary.alpha_target"), "count"),
            "codegree_star.certify_s": (time_of("codegree_star.star_initial_degree"), "s"),
            "codegree_star.certify_calls": (certify, "count"),
            "codegree_star.alpha_ops": (alpha_ops, "count"),
            "codegree_star.certify_per_op": (certify / alpha_ops if alpha_ops else 0.0, "ratio"),
            "codegree_star.supports_scanned": (arg_sum("codegree_star.star_initial_degree"), "count"),
            "codegree_star.collapse_s": (time_of("codegree_star.verify_collapse"), "s"),
            "codegree_star.collapse_supports": (arg_sum("codegree_star.verify_collapse"), "count"),
            "squarezero.hilbert_s": (time_of("squarezero.hilbert"), "s"),
            "squarezero.hilbert_calls": (calls("squarezero.hilbert"), "count"),
            "squarezero.standard_monomials": (result_sum("squarezero.hilbert"), "count"),
            "squarezero.clone_s": (time_of("squarezero.clone"), "s"),
            "squarezero.clone_calls": (calls("squarezero.clone"), "count"),
            "squarezero.symmetrize_self_s": (
                sum((s[3] - s[2]) - child[i] for i, s in enumerate(spans) if s[0] == "squarezero.symmetrize"),
                "s",
            ),
            "cli.self_ms": (self_s["cli"] * 1000.0, "ms"),
        }
        for layer in LAYERS:
            if layer != "cli":
                m[f"{layer}.self_s"] = (self_s[layer], "s")
        return {name: (value * scale if unit in ("s", "ms") else value, unit) for name, (value, unit) in m.items()}


def _star_scan(args) -> int:
    """Supports the certification scan visits: C(C(n,r), lb-1), computed
    from the parameters (0 in the vacuous range or when lb = 0)."""
    p = args[0]
    if p.n < p.ell:
        return 0
    nvars = comb(p.n, p.r)
    lb = nvars - turan_number(p.n, p.ell - 1, p.r)
    return comb(nvars, lb - 1) if lb > 0 else 0


# span name -> function of the positional arguments, summed per metric
COUNTED = {
    "monomial.min_hitting_set": lambda args: len(args[0]),
    "codegree_star.star_initial_degree": _star_scan,
    "codegree_star.verify_collapse": lambda args: 1 << comb(args[0].n, args[0].r),
}
# span name -> function of the return value, summed per metric
RESULT_COUNTED = {
    "polycore.__mul__": len,
    "polycore.identify": len,
    "polycore.derivative": len,
    "hypergraph.enumerate_forbidden_copies": len,
    "squarezero.hilbert": lambda value: value,
}
