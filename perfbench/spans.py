"""Layer spans recorded from outside the program, by wrapping attributes.

Each layer is a set of public functions, named by the module attribute
or class attribute through which the pipeline calls them. ``Tracer``
swaps each attribute for a wrapper that times the call with
``perf_counter_ns`` and counts it. Spans nest: a layer's self time is
its span minus the spans of the layers called inside it, so the self
times of all layers plus ``other`` add up to the traced wall time.

Wrappers stay at per-proposal granularity or coarser; nothing inside
the SAT solver's propagation loop or the emulator's per-instruction
steps is wrapped, which keeps the tracing overhead small enough that
the layer shares still describe the untraced run.
"""

from __future__ import annotations

import importlib
import time

#: layer name -> (module, attribute path) of every function it wraps.
#: A path "Class.method" wraps the method on the class.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "search.propose": (("repro.search.moves", "MoveGenerator.propose"),),
    "emulator.lower": (("repro.cost.function", "compile_program"),),
    "cost.evaluate": (("repro.cost.function", "CostFunction.evaluate"),),
    "verifier.validate": (("repro.verifier.validator",
                           "Validator.validate"),),
    "smt.blast": (("repro.smt.tseitin", "BitBlaster.assert_true"),),
    "smt.sat": (("repro.smt.sat", "Solver.solve"),),
    "testgen.generate": (
        ("repro.testgen.generator", "TestcaseGenerator.generate"),
        ("repro.testgen.generator",
         "TestcaseGenerator.from_counterexample")),
    "engine.job": (("repro.engine.worker", "run_chain_job"),),
    "engine.encode": (("repro.engine.worker", "result_to_json"),),
    "engine.decode": (("repro.engine.sweep", "result_from_json"),),
    "engine.journal": (
        ("repro.engine.checkpoint", "CheckpointStore.record"),
        ("repro.engine.checkpoint", "CheckpointStore.record_grant"),
        ("repro.engine.checkpoint", "CheckpointStore.record_recovery"),
        ("repro.engine.checkpoint", "CheckpointStore.completed"),
        ("repro.engine.events", "EventLog.emit"),
        ("repro.telemetry.journal", "MetricsLog.record_chain"),
        ("repro.telemetry.journal", "MetricsLog.record_campaign"),
        ("repro.telemetry.journal", "MetricsLog.record_minimize")),
    "engine.aggregate": (("repro.engine.aggregator", "final_ranking"),
                         ("repro.engine.aggregator", "best_signature")),
}

#: Layers whose individual span durations are kept (for percentiles).
KEEP_SPANS = ("engine.job",)


def _owner(module_name: str, path: str) -> tuple[object, str]:
    """The object holding the attribute, and the attribute's name."""
    owner: object = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


class Patches:
    """Attribute replacements that can all be undone at once."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, module_name: str, path: str, wrap) -> None:
        owner, name = _owner(module_name, path)
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, wrap(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Tracer:
    """Per-layer self time, call counts and (for some layers) spans."""

    def __init__(self) -> None:
        self.self_ns = {layer: 0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.spans_ns: dict[str, list[int]] = {layer: []
                                               for layer in KEEP_SPANS}
        # open spans: [layer, nanoseconds spent in child spans]
        self._stack: list[list] = []

    def _wrapper(self, layer: str, fn):
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        kept = self.spans_ns.get(layer)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                # re-entry into the same layer (best_signature calls
                # final_ranking) stays inside the outer span
                return fn(*args, **kwargs)
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                self_ns[layer] += span - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += span
                if kept is not None:
                    kept.append(span)

        traced.__wrapped__ = fn
        return traced

    def install(self, patches: Patches) -> None:
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                patches.replace(module_name, path,
                                lambda fn, layer=layer:
                                self._wrapper(layer, fn))

    def to_json(self, pace: float = 1.0) -> dict:
        """Times divided by ``pace`` (see ``pace.py``), and counts."""
        return {"self_ns": {k: v / pace for k, v in self.self_ns.items()},
                "calls": dict(self.calls),
                "spans_ns": {k: [ns / pace for ns in v]
                             for k, v in self.spans_ns.items()}}


class WorkCounters:
    """Validator work, counted in traced and untraced runs alike.

    Wraps only ``Validator.validate`` (a handful of calls per chain),
    so it costs nothing measurable; the numbers feed the determinism
    check and the verifier/SMT per-layer ratios.
    """

    def __init__(self) -> None:
        self.queries = 0
        self.equivalent = 0
        self.sat_calls = 0
        self.cnf_vars = 0
        self.cnf_clauses = 0

    def install(self, patches: Patches) -> None:
        def wrap(fn):
            def counted(*args, **kwargs):
                outcome = fn(*args, **kwargs)
                self.queries += 1
                self.equivalent += bool(outcome.equivalent)
                if outcome.num_vars:
                    # validate skips the solver when the miter folds
                    # to a constant, and then reports an empty CNF
                    self.sat_calls += 1
                    self.cnf_vars += outcome.num_vars
                    self.cnf_clauses += outcome.num_clauses
                return outcome
            counted.__wrapped__ = fn
            return counted
        patches.replace("repro.verifier.validator", "Validator.validate",
                        wrap)

    def to_json(self) -> dict:
        return dict(vars(self))
