"""Span tracing of the program's layers, applied from outside.

Each public function is wrapped at every name a caller binds it to: the
modules import names directly (`from .heavyhash import generate_matrix`),
so wrapping only the defining module would miss most calls.  A span records
its name, start, end, parent span and thread; spans stay in memory and are
written out when the run ends.  Self time is a span's duration minus the
part of it that its child spans cover (children may overlap when they run
on worker threads).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field

# importlib, not `from opow import ...`: the package re-exports the function
# `heavyhash` under the name of its module.
chain, cli, configio, econ, heavyhash, netsim, photonic, pow = (
    importlib.import_module(f"opow.{name}") for name in
    ("chain", "cli", "configio", "econ", "heavyhash", "netsim", "photonic", "pow"))


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    thread: int = 0
    attrs: dict = field(default_factory=dict)


class _CountingWriter:
    """File proxy that counts the characters written through it."""

    def __init__(self, fp):
        self._fp = fp
        self.written = 0

    def write(self, text):
        self.written += len(text)
        return self._fp.write(text)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[Span] = []
        self._restore: list[tuple] = []
        self._op_cache_keys: frozenset = frozenset()
        self.active = False  # spans are only recorded inside benchmark ops

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        elif self._main_stack:
            # Worker threads (sharded mine, attack Monte Carlo) inherit the
            # span that was open on the main thread when they were started.
            parent = self._main_stack[-1].sid
        else:
            parent = None
        span = Span(next(self._ids), parent, name, time.perf_counter(),
                    thread=threading.get_ident())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + n

    def begin_op(self, name: str) -> Span:
        """Root span around one benchmark operation."""
        self._op_cache_keys = frozenset(photonic._SYNTH_CACHE)
        return self.open(name)

    # -- wrapping ----------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for mod in [m for k, m in sys.modules.items()
                    if k == "opow" or k.startswith("opow.")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def wrap(self, original, name: str, after=None):
        """Replace `original` everywhere it is bound with a span wrapper.

        `after(span, args, kwargs, result)` may attach attributes."""
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result
        self._rebind(original, wrapper)
        return wrapper

    def wrap_method(self, cls, attr: str, name: str, after=None) -> None:
        original = getattr(cls, attr)
        wrapper = self.wrap(original, name, after)
        setattr(cls, attr, wrapper)
        self._restore.append((cls, attr, original))

    def install(self) -> None:
        self.wrap(heavyhash.heavyhash_many, "heavyhash.many",
                  lambda s, a, k, r: s.attrs.update(n=len(r)))
        self.wrap(heavyhash.generate_matrix, "heavyhash.generate_matrix")
        self.wrap(heavyhash.heavyhash, "heavyhash.heavyhash")
        self.wrap(pow.mine, "pow.mine")
        self.wrap(pow.scheduled_target, "pow.scheduled_target")
        self.wrap_method(chain.ChainIndex, "add_block", "chain.add_block",
                         self._after_add_block)
        self._wrap_ancestors()
        self.wrap(chain.block_from_bytes, "chain.block_from_bytes")
        self.wrap(chain.import_chain, "chain.import_chain")
        self.wrap(netsim.attack_monte_carlo, "netsim.attack_monte_carlo")
        self.wrap(netsim.attack_success_rate, "netsim.attack_success_rate",
                  lambda s, a, k, r: s.attrs.update(n=r.runs))
        self.wrap(netsim.run_scenario, "netsim.run_scenario",
                  lambda s, a, k, r: s.attrs.update(n=r.stats["blocks_created"]))
        self.wrap(photonic.synthesis_for, "photonic.synthesis_for",
                  self._after_synthesis_for)
        self.wrap(photonic.svd_synthesize, "photonic.svd_synthesize")
        self.wrap(photonic.clements_decompose, "photonic.clements_decompose")
        self.wrap(photonic.synthesis_residual, "photonic.synthesis_residual")
        self.wrap(photonic.fidelity_sweep, "photonic.fidelity_sweep")
        self.wrap(photonic.analog_weighting_batch, "photonic.analog_batch",
                  self._after_analog_batch)
        self.wrap(photonic.propagate, "photonic.propagate")
        self.wrap(econ.resilience_curve, "econ.resilience_curve")
        self.wrap(configio.load_config, "configio.load_config")
        self._wrap_write_records()
        self.wrap(cli.main, "cli.main")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _after_add_block(self, span, args, kwargs, report) -> None:
        span.attrs["verdict"] = report.verdict.value
        if report.verdict is chain.Verdict.ORPHAN:
            self.count("chain.orphans_pooled")
        self.count("chain.orphans_accepted", len(report.accepted_orphans))
        if report.reorg_depth > 0:
            self.count("chain.reorgs")
            with self._lock:
                self.counters["chain.reorg_depth_max"] = max(
                    self.counters.get("chain.reorg_depth_max", 0),
                    report.reorg_depth)

    def _wrap_ancestors(self) -> None:
        original = chain.ChainIndex.ancestors

        @functools.wraps(original)
        def ancestors(*args, **kwargs):
            for entry in original(*args, **kwargs):
                if self.active:
                    self.count("chain.ancestors.entries")
                yield entry
        chain.ChainIndex.ancestors = ancestors
        self._restore.append((chain.ChainIndex, "ancestors", original))

    def _after_synthesis_for(self, span, args, kwargs, synth) -> None:
        # A hit on a key cached before the current op means a timed op was
        # served by the module-level synthesis cache.
        for key, value in photonic._SYNTH_CACHE.items():
            if value is synth:
                if key in self._op_cache_keys:
                    self.count("photonic.synthesis_cache_hits")
                return

    def _after_analog_batch(self, span, args, kwargs, result) -> None:
        noise = kwargs.get("noise", args[2] if len(args) > 2 else None)
        noisy = noise is not None and (noise.phase_sigma > 0
                                       or noise.detector_sigma > 0)
        span.attrs["noisy"] = noisy
        span.attrs["n"] = len(result[0])

    def _wrap_write_records(self) -> None:
        original = configio.write_records

        def after(span, args, kwargs, result):
            span.attrs["n"] = args[0].written

        inner = self.wrap(original, "configio.write_records", after)

        @functools.wraps(original)
        def write_records(fp, records):
            return inner(_CountingWriter(fp), records)
        self._rebind(inner, write_records)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for s in self.spans:
                fp.write(json.dumps({"id": s.sid, "parent": s.parent,
                                     "name": s.name, "start": s.start,
                                     "end": s.end, "thread": s.thread,
                                     **s.attrs}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end - s.start) - covered
    return out
