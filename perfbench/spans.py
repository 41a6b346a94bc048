"""Per-layer spans and counts, recorded from outside the library.

``Tracer.install`` wraps every public function of each sparsecut module and
rebinds the wrapper wherever a module holds the original, for example
``sparsecut.algorithms.verify_certificate`` as well as
``sparsecut.oracles.verify_certificate``. ``Graph.__init__`` is wrapped as
the ``graph.Graph`` constructor. No file of the library changes, and
``uninstall`` puts every original back.

Spans are folded into running sums as they close, so memory stays flat
however long a run is:

- ``<layer>.<function>.busy_s``: time inside outermost calls of the function;
- ``<layer>.<function>.calls``: every call, nested ones included;
- ``<layer>.busy_s``: time inside spans of the layer that no other span of
  the same layer encloses;
- ``<layer>.self_s``: span time minus the time covered by child spans.

Nesting is tracked per thread. The CLI's corpus workers therefore open
spans with no parent on their own thread, and the ``cli.main`` span that
waits for them keeps that wait in its self time.
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import defaultdict

LAYERS = ("generators", "graph", "oracles", "algorithms", "certificates", "io", "cli")

ALGORITHM_METHODS = (
    "theorem1_cutset",
    "theorem2_cutset",
    "theorem3_dichotomy",
    "theorem4_independent_cutset",
    "theorem5_certify",
    "prop2_cutset",
    "degenerate_sparse_cutset",
)


class Tracer:
    def __init__(self, budget_error: type[BaseException]):
        self.sums: defaultdict[str, float] = defaultdict(float)
        self.answer_scope = False
        self._budget_error = budget_error
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _thread_state(self):
        """This thread's open-span stack and per-key open counts."""
        local = self._local
        try:
            return local.stack, local.opened
        except AttributeError:
            local.stack, local.opened = [], defaultdict(int)
            return local.stack, local.opened

    # ------------------------------------------------------------ installing

    def install(self, package) -> None:
        modules = [getattr(package, layer) for layer in LAYERS]
        holders = [package, *modules]
        for layer, module in zip(LAYERS, modules):
            for name, func in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(func)
                    or func.__module__ != module.__name__
                ):
                    continue
                wrapped = self._wrap(layer, name, func)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is func:
                            self._set(holder, attr, wrapped)
        graph_cls = package.graph.Graph
        self._set(graph_cls, "__init__", self._wrap("graph", "Graph", graph_cls.__init__))

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)

    def _set(self, holder, attr: str, value) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    # -------------------------------------------------------------- spans

    def _wrap(self, layer: str, name: str, func):
        key = f"{layer}.{name}"
        sums, lock, state = self.sums, self._lock, self._thread_state
        clock = time.perf_counter
        on_close = self._on_close

        def traced(*args, **kwargs):
            stack, opened = state()
            outer_fn = not opened[key]
            outer_layer = not opened[layer]
            opened[key] += 1
            opened[layer] += 1
            frame = [0.0]
            stack.append(frame)
            result = error = None
            t0 = clock()
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                opened[key] -= 1
                opened[layer] -= 1
                if stack:
                    stack[-1][0] += dt
                with lock:
                    sums[key + ".calls"] += 1
                    if outer_fn:
                        sums[key + ".busy_s"] += dt
                    if outer_layer:
                        sums[layer + ".busy_s"] += dt
                        on_close(layer, name, args, result, error)
                    sums[layer + ".self_s"] += dt - frame[0]

        traced.__wrapped__ = func
        return traced

    def _on_close(self, layer, name, args, result, error) -> None:
        """Counts taken where an outermost span of a layer closes; the
        caller holds the lock."""
        sums = self.sums
        if layer == "io":
            if name.startswith("parse_") and args:
                sums["io.bytes_read"] += len(args[0])
            elif name.startswith("emit_") and result is not None:
                sums["io.bytes_written"] += len(result)
        elif layer == "oracles":
            if isinstance(error, self._budget_error):
                sums["oracles.budget_exhausted"] += 1
        elif layer == "algorithms" and name in ALGORITHM_METHODS:
            sums["algorithms.method_calls"] += 1
            if error is None:
                sums["algorithms.answers"] += 1
        if self.answer_scope and name == "verify_certificate":
            sums["oracles.verify_in_answers"] += 1


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    setup: dict, loop: dict, cycles: int, overhead: float, regular_yield: float
) -> dict:
    """Per-layer values for one set-up plus one cycle of the operation list.

    ``setup`` and ``loop`` are raw sums from the traced set-up and from all
    traced cycles; loop sums are divided by the cycle count. The verifier
    and answer ratios are taken over the loop alone, where every operation
    runs with its answer scope set. ``regular_yield`` is the share of
    random_regular seeds the set-up kept (simple and connected).
    """
    keys = set(setup) | set(loop)
    one = {k: setup.get(k, 0.0) + loop.get(k, 0.0) / cycles for k in keys}
    out = {}
    for name, unit in PER_LAYER:
        if unit == "ratio":
            continue
        out[name] = {"value": one.get(name, 0.0), "unit": unit}
    ratios = {
        "generators.random_regular.yield": regular_yield,
        "oracles.verify_per_answer": _ratio(
            loop.get("oracles.verify_in_answers", 0.0), loop.get("algorithms.answers", 0.0)
        ),
        "algorithms.answer_ratio": _ratio(
            loop.get("algorithms.answers", 0.0), loop.get("algorithms.method_calls", 0.0)
        ),
        "trace.throughput_ratio": overhead,
    }
    for name, value in ratios.items():
        out[name] = {"value": value, "unit": "ratio"}
    return {name: out[name] for name, _ in PER_LAYER}


PER_LAYER: tuple[tuple[str, str], ...] = (
    ("generators.busy_s", "s"),
    ("generators.random_regular.busy_s", "s"),
    ("generators.random_regular.calls", "count"),
    ("generators.random_regular.yield", "ratio"),
    ("generators.clique_chain.busy_s", "s"),
    ("graph.busy_s", "s"),
    ("graph.Graph.busy_s", "s"),
    ("graph.Graph.calls", "count"),
    ("graph.components.busy_s", "s"),
    ("graph.components.calls", "count"),
    ("graph.induced_stats.busy_s", "s"),
    ("graph.induced_stats.calls", "count"),
    ("graph.induced_edge_count.busy_s", "s"),
    ("oracles.busy_s", "s"),
    ("oracles.self_s", "s"),
    ("oracles.vertex_connectivity.busy_s", "s"),
    ("oracles.vertex_connectivity.calls", "count"),
    ("oracles.enumerate_min_cutsets.busy_s", "s"),
    ("oracles.find_independent_cutset.busy_s", "s"),
    ("oracles.find_constrained_cutset.busy_s", "s"),
    ("oracles.find_krr.busy_s", "s"),
    ("oracles.recognize_squared_cycle.busy_s", "s"),
    ("oracles.budget_exhausted", "count"),
    ("oracles.verify_certificate.busy_s", "s"),
    ("oracles.verify_certificate.calls", "count"),
    ("oracles.verify_per_answer", "ratio"),
    ("algorithms.busy_s", "s"),
    ("algorithms.self_s", "s"),
    *((f"algorithms.{m}.busy_s", "s") for m in ALGORITHM_METHODS),
    ("algorithms.answer_ratio", "ratio"),
    ("certificates.busy_s", "s"),
    ("io.busy_s", "s"),
    ("io.parse_edge_list.busy_s", "s"),
    ("io.parse_graph6.busy_s", "s"),
    ("io.emit_edge_list.busy_s", "s"),
    ("io.emit_graph6.busy_s", "s"),
    ("io.graph_digest.busy_s", "s"),
    ("io.bytes_read", "bytes"),
    ("io.bytes_written", "bytes"),
    ("cli.main.busy_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("trace.throughput_ratio", "ratio"),
)
