"""Traced runs: spans around the public functions of each aperylef module.

The tracer wraps each function in TRACED and rebinds the wrapper under every
name that refers to the function in any aperylef module (so ``rank_info`` in
``lefschetz`` and ``cli`` and ``create_semigroup`` in ``cli`` are traced
too); methods are wrapped on their class.  A span is [name, start_ns,
end_ns, parent].  Spans stay in memory until the run ends.

A span's self time is its duration minus the time covered by its child
spans.  Every per-layer figure is a total over the traced passes divided by
their number, so it describes one pass over the workload's inputs.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

# (span name, module, attribute); "Class.method" wraps a method.
TRACED = [
    ("semigroup.create", "aperylef.semigroup", "create_semigroup"),
    ("semigroup.apery_table", "aperylef.semigroup", "NumericalSemigroup.apery_table"),
    ("semigroup.beta_gamma", "aperylef.semigroup", "compute_beta_gamma"),
    ("algebra.build", "aperylef.algebra", "build_algebra"),
    ("algebra.build", "aperylef.algebra", "box_algebra"),
    ("algebra.build", "aperylef.algebra", "build_gamma_algebra"),
    ("algebra.mult_matrix", "aperylef.algebra", "multiplication_matrix"),
    ("algebra.colon", "aperylef.algebra", "colon_by_power"),
    ("algebra.ideal", "aperylef.algebra", "ci_tilde_ideal"),
    ("algebra.ideal", "aperylef.algebra", "codim3_defining_ideal"),
    ("linalg.rank", "aperylef.linalg", "rank_info"),
    ("linalg.specialize", "aperylef.linalg", "Matrix.specialize"),
    ("inverse_system.dual_view", "aperylef.inverse_system", "dual_algebra_view"),
    ("inverse_system.hessian", "aperylef.inverse_system", "hessian"),
    ("inverse_system.hessian", "aperylef.inverse_system", "mixed_hessian"),
    ("inverse_system.pairing_matrix", "aperylef.inverse_system", "DualAlgebraView.pairing_matrix"),
    ("inverse_system.dual_generator", "aperylef.inverse_system", "dual_socle_generator"),
    ("lefschetz.wlp_ranks", "aperylef.lefschetz", "wlp_by_ranks"),
    ("lefschetz.slp_ranks", "aperylef.lefschetz", "slp_by_ranks"),
    ("lefschetz.wlp_hessian", "aperylef.lefschetz", "wlp_by_hessian"),
    ("lefschetz.slp_hessian", "aperylef.lefschetz", "slp_by_hessian"),
    ("lefschetz.quotient", "aperylef.lefschetz", "quotient_condition_ci"),
    ("lefschetz.quotient", "aperylef.lefschetz", "quotient_condition_codim3"),
    ("lefschetz.quotient", "aperylef.lefschetz", "transfer_wlp"),
    ("lefschetz.conjecture", "aperylef.lefschetz", "conjecture_check"),
    ("lefschetz.witness", "aperylef.lefschetz", "_draw_witness"),
    ("lefschetz.witness", "aperylef.lefschetz", "_hessian_witness"),
    ("cli.analyze", "aperylef.cli", "analyze_record"),
    ("cli.from_dual", "aperylef.cli", "from_dual_record"),
    ("cli.sweep", "aperylef.cli", "sweep"),
]
RECORD_SPANS = ("cli.analyze", "cli.from_dual")

# Per-layer metric name -> unit, in the order they are reported.
PER_LAYER = {}
for _layer in ("semigroup.create", "semigroup.apery_table", "semigroup.beta_gamma"):
    PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER[f"{_layer}.busy_s"] = "s"
PER_LAYER["cli.sweep.filter_busy_s"] = "s"
PER_LAYER["cli.sweep.accept_ratio"] = "ratio"
for _path in ("symbolic", "exact", "probe"):
    PER_LAYER[f"linalg.rank.{_path}.calls"] = "count"
    PER_LAYER[f"linalg.rank.{_path}.busy_s"] = "s"
PER_LAYER["linalg.rank.cells"] = "count"
PER_LAYER["linalg.specialize.calls"] = "count"
PER_LAYER["linalg.specialize.busy_s"] = "s"
PER_LAYER["algebra.mult_matrix.calls"] = "count"
PER_LAYER["algebra.mult_matrix.busy_s"] = "s"
PER_LAYER["algebra.mult_matrix.dup_ratio"] = "ratio"
for _layer in ("build", "colon", "ideal"):
    PER_LAYER[f"algebra.{_layer}.busy_s"] = "s"
for _layer in ("dual_view", "hessian", "pairing_matrix", "dual_generator"):
    PER_LAYER[f"inverse_system.{_layer}.calls"] = "count"
    PER_LAYER[f"inverse_system.{_layer}.busy_s"] = "s"
for _layer in ("wlp_ranks", "slp_ranks", "wlp_hessian", "slp_hessian", "quotient", "conjecture"):
    PER_LAYER[f"lefschetz.{_layer}.calls"] = "count"
    PER_LAYER[f"lefschetz.{_layer}.self_s"] = "s"
PER_LAYER["lefschetz.wlp_ranks.calls_per_record"] = "count"
PER_LAYER["lefschetz.witness.busy_s"] = "s"
PER_LAYER["lefschetz.witness.draws_per_holds"] = "count"
PER_LAYER["cli.analyze.self_s"] = "s"
for _layer in ("semigroup", "algebra", "linalg", "linalg.rank.symbolic", "inverse_system", "lefschetz", "cli"):
    PER_LAYER[f"share.{_layer}"] = "ratio"
PER_LAYER["trace.overhead_ratio"] = "ratio"


def _aperylef_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "aperylef" or name.startswith("aperylef."))]


class Tracer:
    """Installs span-recording wrappers; uninstall() restores the originals."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.cells = 0
        self.draws = 0
        self.minimal_candidates = 0
        self.mult_keys: list[tuple] = []
        self._record = -1
        self._draw_probe = None
        self._undo: list[tuple] = []
        self.missing: list[str] = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        is_record = name in RECORD_SPANS

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            outer = self._record
            if is_record:
                self._record = idx
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                self._record = outer
            if after is not None:
                after(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _after_rank(self, span, args, kwargs, result):
        matrix = args[0] if args else kwargs["matrix"]
        self.cells += matrix.nrows * matrix.ncols
        if result[1]:
            span[0] = "linalg.rank.probe"
        elif matrix.is_symbolic():
            span[0] = "linalg.rank.symbolic"
        else:
            span[0] = "linalg.rank.exact"

    def _after_create(self, span, args, kwargs, result):
        """A sweep candidate outside any record counts as enumerated when it
        is already its own minimal generating tuple."""
        gens = args[0] if args else kwargs["gens"]
        if self._record < 0 and tuple(result.generators) == tuple(gens):
            self.minimal_candidates += 1

    def _after_specialize(self, span, args, kwargs, result):
        if args[0] is self._draw_probe:
            self.draws += 1

    def _mult_after(self, signature):
        def after(span, args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            alg = a["alg"]
            self.mult_keys.append((self._record, alg.kind, alg.hilbert(), a["d"], a["power"]))
        return after

    def _witness(self, fn):
        """The first matrix a witness search checks is specialized once per
        draw that reaches the rank test; counting those counts the draws."""
        wrapped = self._wrap("lefschetz.witness", fn)

        def traced(*args, **kwargs):
            checks = args[1] if len(args) > 1 else None
            self._draw_probe = checks[0][0] if checks else None
            try:
                return wrapped(*args, **kwargs)
            finally:
                self._draw_probe = None

        return traced

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        """Wrap everything in TRACED.  A function the program no longer has
        is listed in self.missing and its figures stay zero."""
        modules = _aperylef_modules()
        afters = {
            "semigroup.create": self._after_create,
            "linalg.rank": self._after_rank,
            "linalg.specialize": self._after_specialize,
        }
        self.missing = []
        for name, module_name, attr in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if name == "lefschetz.witness":
                wrapper = self._witness(original)
            elif name == "algebra.mult_matrix":
                wrapper = self._wrap(name, original, self._mult_after(inspect.signature(original)))
            else:
                wrapper = self._wrap(name, original, afters.get(name))
            owners = [owner] if isinstance(owner, type) else modules
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)
                        self._undo.append((target, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def layer_metrics(self, passes: int, traced_wall_s: float) -> dict:
        """Per-layer figures per traced pass (without trace.overhead_ratio)."""
        spans = self.spans
        n = len(spans)
        child = [0] * n
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        busy = defaultdict(int)  # self time in ns, by span name
        under_analyze = [False] * n
        under_lefschetz = [False] * n
        under_sweep = [False] * n
        filter_ns = witness_ns = accepted = 0
        for i, (name, start, end, parent) in enumerate(spans):
            own = end - start - child[i]
            calls[name] += 1
            busy[name] += own
            if parent >= 0:
                pname = spans[parent][0]
                under_analyze[i] = under_analyze[parent] or pname == "cli.analyze"
                under_lefschetz[i] = under_lefschetz[parent] or pname.startswith("lefschetz.")
                under_sweep[i] = under_sweep[parent] or pname == "cli.sweep"
            if name.startswith("semigroup.") and not under_analyze[i]:
                filter_ns += own
            if name == "cli.analyze" and under_sweep[i]:
                accepted += 1
            if under_lefschetz[i] and name in ("linalg.rank.exact", "linalg.specialize"):
                witness_ns += own
        records = sum(calls[r] for r in RECORD_SPANS)
        seen = set()
        dups = 0
        for key in self.mult_keys:
            dups += key in seen
            seen.add(key)

        def per_pass(x):
            return x / passes

        m = {}
        for layer in ("semigroup.create", "semigroup.apery_table", "semigroup.beta_gamma"):
            m[f"{layer}.calls"] = per_pass(calls[layer])
            m[f"{layer}.busy_s"] = per_pass(busy[layer]) / 1e9
        m["cli.sweep.filter_busy_s"] = per_pass(filter_ns) / 1e9
        m["cli.sweep.accept_ratio"] = (
            accepted / self.minimal_candidates if self.minimal_candidates else 0.0
        )
        for path in ("symbolic", "exact", "probe"):
            m[f"linalg.rank.{path}.calls"] = per_pass(calls[f"linalg.rank.{path}"])
            m[f"linalg.rank.{path}.busy_s"] = per_pass(busy[f"linalg.rank.{path}"]) / 1e9
        m["linalg.rank.cells"] = per_pass(self.cells)
        m["linalg.specialize.calls"] = per_pass(calls["linalg.specialize"])
        m["linalg.specialize.busy_s"] = per_pass(busy["linalg.specialize"]) / 1e9
        m["algebra.mult_matrix.calls"] = per_pass(calls["algebra.mult_matrix"])
        m["algebra.mult_matrix.busy_s"] = per_pass(busy["algebra.mult_matrix"]) / 1e9
        m["algebra.mult_matrix.dup_ratio"] = dups / len(self.mult_keys) if self.mult_keys else 0.0
        for layer in ("build", "colon", "ideal"):
            m[f"algebra.{layer}.busy_s"] = per_pass(busy[f"algebra.{layer}"]) / 1e9
        for layer in ("dual_view", "hessian", "pairing_matrix", "dual_generator"):
            m[f"inverse_system.{layer}.calls"] = per_pass(calls[f"inverse_system.{layer}"])
            m[f"inverse_system.{layer}.busy_s"] = per_pass(busy[f"inverse_system.{layer}"]) / 1e9
        for layer in ("wlp_ranks", "slp_ranks", "wlp_hessian", "slp_hessian", "quotient", "conjecture"):
            m[f"lefschetz.{layer}.calls"] = per_pass(calls[f"lefschetz.{layer}"])
            m[f"lefschetz.{layer}.self_s"] = per_pass(busy[f"lefschetz.{layer}"]) / 1e9
        m["lefschetz.wlp_ranks.calls_per_record"] = (
            calls["lefschetz.wlp_ranks"] / records if records else 0.0
        )
        m["lefschetz.witness.busy_s"] = per_pass(witness_ns) / 1e9
        m["lefschetz.witness.draws_per_holds"] = (
            self.draws / calls["lefschetz.witness"] if calls["lefschetz.witness"] else 0.0
        )
        m["cli.analyze.self_s"] = per_pass(busy["cli.analyze"]) / 1e9
        wall_ns = traced_wall_s * 1e9
        for layer in ("semigroup", "algebra", "linalg", "inverse_system", "lefschetz", "cli"):
            own = sum(v for k, v in busy.items() if k.startswith(layer + "."))
            m[f"share.{layer}"] = own / wall_ns if wall_ns else 0.0
        m["share.linalg.rank.symbolic"] = busy["linalg.rank.symbolic"] / wall_ns if wall_ns else 0.0
        return m

    def write_spans(self, path) -> None:
        """One JSON line per span: id, parent, record, name, start and end in
        ns from the first span.  record is the enclosing record span, or -1."""
        spans = self.spans
        t0 = spans[0][1] if spans else 0
        record = [-1] * len(spans)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(spans):
                if name in RECORD_SPANS:
                    record[i] = i
                elif parent >= 0:
                    record[i] = record[parent]
                fh.write(json.dumps([i, parent, record[i], name, start - t0, end - t0]) + "\n")
