"""Spans and counters around the library's layers, installed from outside.

`Tracer.install` replaces every name binding of a traced function in every
loaded `bddseq` module, so `from .bdd import node_count` in `search` is
traced as well as `bdd.node_count`, and replaces traced methods on their
classes. `uninstall` puts the originals back. A span records its name, start,
end and parent; a layer's self time is the duration of its spans minus the
part covered by their direct children. Hot recursive entry points get a
counter instead of a span.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# traced target -> span name
SPANS = {
    "bdd.generate_label_report": "bdd.label",
    "bdd.ga_reorder": "bdd.ga",
    "bdd.transfer": "bdd.transfer",
    "bdd.brute_force_optimal_order": "bdd.exact",
    "bdd.sift_reorder": "bdd.sift",
    "bdd.BddManager.swap_adjacent_levels": "bdd.swap",
    "bdd.node_count": "bdd.node_count",
    "bdd.build_from_netlist": "bdd.build",
    "search.greedy_decode": "search.decode",
    "search.diverse_beam_search": "search.decode",
    "search.select_best_order": "search.rerank",
    "model.encode": "model.encode",
    "model.sample_loss_terms": "model.forward",
    "model.train": "model.train",
    "autodiff.Tensor.backward": "autodiff.backward",
    "autodiff.Adam.step": "autodiff.adam",
    "graph.blif2graph": "graph.featurize",
    "blif.parse_blif": "blif.parse",
    "blif.bound_fanin": "blif.bound_fanin",
    "synth.synthesize": "synth.synthesize",
    "synth.verify_synthesis": "synth.verify",
    "cli.predict_order": "cli.predict",
    "cli.synthesize_circuit": "cli.synth",
}
# traced target -> counter name
COUNTERS = {
    "bdd.BddManager.apply": "bdd.apply.calls",
    "bdd.shannon_count": "bdd.exact.orders",
    "model.decoder_advance": "search.decoder_steps",
    "autodiff.Tensor.__init__": "autodiff.tensors",
}


def _resolve(target: str):
    """(owner, attribute, original) for 'module.function' or 'module.Class.method'."""
    parts = target.split(".")
    owner = importlib.import_module("bddseq." + parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, tag]
        self.counts: dict[str, int] = defaultdict(int)
        self.peak_nodes = 0
        self.missing: set[str] = set()  # targets the library no longer has
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, tag=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tag(args, kwargs) if tag else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def _counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- per-target extras ---------------------------------------------------

    def _mode(self, args, kwargs):
        """Decoding mode of the enclosing `predict_order`; greedy otherwise."""
        for idx in reversed(self._stack):
            if self.spans[idx][0] == "cli.predict":
                return self.spans[idx][4]
        return "efficiency"

    def _peak(self, mgr) -> None:
        self.peak_nodes = max(self.peak_nodes, len(mgr.nodes))

    def _add(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def _extras(self, name: str):
        """(tag, after) hooks for one span name."""
        if name == "cli.predict":
            return (lambda a, kw: kw.get("mode", a[2] if len(a) > 2 else None)), None
        if name == "search.decode":
            return self._mode, None
        if name == "search.rerank":
            return None, lambda a, out: self._add("search.rerank.candidates", len(a[0]))
        if name in ("bdd.build", "bdd.transfer"):
            return None, lambda a, out: self._peak(out[0])
        if name == "bdd.swap":
            return None, lambda a, out: self._peak(a[0])
        if name == "synth.synthesize":
            return None, lambda a, out: self._add("synth.gates", len(out.gates))
        return None, None

    # -- install / uninstall -------------------------------------------------

    def install(self, item_fn):
        """Wrap every target and return `item_fn` wrapped in a `bench.item` span."""
        modules = [m for k, m in sys.modules.items() if k.startswith("bddseq.")]
        targets = [(t, n, True) for t, n in SPANS.items()]
        targets += [(t, n, False) for t, n in COUNTERS.items()]
        for target, name, is_span in targets:
            try:
                owner, attr, orig = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.add(target)
                continue
            if is_span:
                wrapper = self._span(name, orig, *self._extras(name))
            else:
                wrapper = self._counter(name, orig)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, binding, wrapper)
        return self._span("bench.item", item_fn)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name (per mode for `search.decode`)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, tag) in enumerate(self.spans):
            key = f"{name}.s.{tag}" if name == "search.decode" else f"{name}.s"
            out[key] += end - start - child[i]
        return out

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        out.update(self.self_times())
        for name, *_ in self.spans:
            out[f"{name}.calls"] += 1
        out.update(self.counts)
        out["bdd.peak_nodes"] = self.peak_nodes
        return out
