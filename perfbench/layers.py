"""Per-layer trace of one compile pass.

zxpoly's modules bind each other's functions with `from`-imports, so a
function is wrapped under every name it is looked up by: wrapping only
`parity.steiner_gauss` would miss the calls made from `synth` and
`circuit`. Coarse boundaries (one instance, simplify, synthesize,
lower_regions, the check) are recorded as spans with parent ids. Hot
boundaries (hundreds of thousands of calls) only add to per-name totals:
calls, inclusive and self seconds, and the distinct (architecture, key)
pairs seen, from which `repeat_ratio` = 1 - distinct / calls. Those keys
are taken from the arguments at the public boundary, never from zxpoly's
private caches.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

SG_CALLERS = ("cost", "seed", "lower")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.calls: Counter[str] = Counter()
        self.seconds: Counter[str] = Counter()  # inclusive
        self.self_seconds: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.keys: defaultdict[str, set] = defaultdict(set)
        self._stack: list[list] = []  # open frames: [name, start, child seconds, span id]
        self._arch_index: dict[int, int] = {}
        self._archs: list = []  # keeps traced Architectures alive so their ids stay unique

    def _arch(self, arch) -> int:
        index = self._arch_index.get(id(arch))
        if index is None:
            index = self._arch_index[id(arch)] = len(self._archs)
            self._archs.append(arch)
        return index

    def _enter(self, name: str, span_id: int | None = None) -> None:
        self._stack.append([name, time.perf_counter(), 0.0, span_id])

    def _exit(self) -> tuple[str, float, float, int | None]:
        end = time.perf_counter()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.seconds[name] += duration
        self.self_seconds[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        return name, start, end, span_id

    @contextmanager
    def span(self, name: str):
        parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "parent": parent, "name": name})
        self._enter(name, span_id)
        try:
            yield
        finally:
            _, start, end, _ = self._exit()
            self.spans[span_id].update(start=start, end=end)

    def _timed(self, name: str, fn, key=None, after=None):
        def wrapper(*args):
            if key is not None:
                self.keys[name].add(key(*args))
            self._enter(name)
            try:
                result = fn(*args)
            finally:
                self._exit()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _counted(self, name: str, fn, after=None):
        def wrapper(*args):
            self.calls[name] += 1
            result = fn(*args)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    @contextmanager
    def patched(self, z: SimpleNamespace):
        """Wrap zxpoly's layer boundaries for the duration of the block."""
        originals = []

        def patch(owner, attr, replacement) -> None:
            originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

        def map_key(m, arch):
            return self._arch(arch), m.rows

        steiner_gauss = z.parity.steiner_gauss  # the original, before any patch below

        def steiner(caller: str):
            name = f"parity.steiner_gauss.{caller}"

            def after(args, result):
                if args[0].is_identity():
                    self.counts["parity.steiner_gauss.identity"] += 1
                if caller == "lower":
                    self.counts["circuit.parity_cx"] += len(result)
            return self._timed(name, steiner_gauss, map_key, after)

        def gadget_cx(args, circuit):
            self.counts["circuit.gadget_cx"] += z.circuit.cnot_count(circuit)

        tree = self._timed(
            "arch.terminal_tree",
            z.arch.Architecture.terminal_tree,
            lambda arch, terms, allowed: (self._arch(arch), frozenset(terms), allowed),
        )

        def terminal_tree(arch, terminals, allowed=None):
            return tree(arch, tuple(terminals), allowed)

        try:
            patch(z.synth, "regroup", self._timed("synth.regroup", z.synth.regroup))
            patch(z.synth, "cnot_cost", self._timed("parity.cnot_cost", z.synth.cnot_cost, map_key))
            patch(z.synth, "steiner_gauss", steiner("seed"))
            patch(z.synth, "effect_zx", self._counted("synth.candidates", z.synth.effect_zx))
            patch(z.synth, "propagate_cnot_poly",
                  self._counted("synth.accepted", z.synth.propagate_cnot_poly))
            patch(z.parity, "steiner_gauss", steiner("cost"))
            patch(z.circuit, "steiner_gauss", steiner("lower"))
            patch(z.circuit, "steiner_gadget_circuit",
                  self._counted("circuit.steiner_gadget_circuit", z.circuit.steiner_gadget_circuit,
                                gadget_cx))
            patch(z.arch.Architecture, "terminal_tree", terminal_tree)
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def metrics(self, compile_s: float, overhead_pct: float,
                gadgets_in: int, gadgets_out: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced pass, as name -> (value, unit).

        `compile_s` is the traced pass's compile time, the base of every
        share; `overhead_pct` is that time against the untraced pass's.
        """
        def repeat_ratio(names) -> float:
            calls = sum(self.calls[n] for n in names)
            distinct = len(set().union(*(self.keys[n] for n in names)))
            return (calls - distinct) / calls if calls else 0.0

        def share(seconds: float) -> float:
            return 100.0 * seconds / compile_s

        sg = [f"parity.steiner_gauss.{c}" for c in SG_CALLERS]
        cost = self.seconds["parity.cnot_cost"]
        seed_s, lower_s = self.seconds[sg[1]], self.seconds[sg[2]]
        parity_s = cost + seed_s + lower_s  # the cost caller runs inside cnot_cost
        candidates = self.calls["synth.candidates"]
        out = {
            "parity.s": (parity_s, "s"),
            "parity.share_pct": (share(parity_s), "%"),
            "parity.cnot_cost.share_pct": (share(cost), "%"),
            "parity.cnot_cost.calls": (self.calls["parity.cnot_cost"], "count"),
            "parity.cnot_cost.repeat_ratio": (repeat_ratio(["parity.cnot_cost"]), "ratio"),
            "parity.steiner_gauss.s": (sum(self.seconds[n] for n in sg), "s"),
            "parity.steiner_gauss.calls": (sum(self.calls[n] for n in sg), "count"),
            "parity.steiner_gauss.repeat_ratio": (repeat_ratio(sg), "ratio"),
            "parity.steiner_gauss.identity_calls":
                (self.counts["parity.steiner_gauss.identity"], "count"),
        }
        for name in sg:
            out[f"{name}.share_pct"] = (share(self.seconds[name]), "%")
            out[f"{name}.calls"] = (self.calls[name], "count")
        out.update({
            "synth.self_s": (self.self_seconds["synthesize"], "s"),
            "synth.regroup.s": (self.seconds["synth.regroup"], "s"),
            "synth.candidates": (candidates, "count"),
            "synth.accept_ratio":
                (self.calls["synth.accepted"] / candidates if candidates else 0.0, "ratio"),
            "circuit.lower.self_s": (self.self_seconds["lower_regions"], "s"),
            "circuit.parity_cx": (self.counts["circuit.parity_cx"], "count"),
            "circuit.gadget_cx": (self.counts["circuit.gadget_cx"], "count"),
            "arch.terminal_tree.s": (self.seconds["arch.terminal_tree"], "s"),
            "arch.terminal_tree.calls": (self.calls["arch.terminal_tree"], "count"),
            "arch.terminal_tree.repeat_ratio": (repeat_ratio(["arch.terminal_tree"]), "ratio"),
            "arch.build_s": (self.seconds["arch.build"], "s"),
            "simplify.s": (self.seconds["simplify"], "s"),
            "simplify.gadget_ratio": (gadgets_out / gadgets_in, "ratio"),
            "sim.verify_s": (self.seconds["sim.verify"], "s"),
            "trace.overhead_pct": (overhead_pct, "%"),
        })
        return out
