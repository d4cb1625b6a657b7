"""Outside-in instrumentation of the ``repro`` layers.

Nothing here edits the simulator.  :class:`Tracer` replaces the public
entry points of each layer (class methods, and module functions in every
``repro`` module that imported them) with timing wrappers before any
machine is built, and :meth:`Tracer.uninstall` puts the originals back.
:class:`Census` hooks ``GPUSystem.__init__`` so the statistics counters
of every machine a pass builds can be summed once the machine is gone.

A span opens when a call enters a layer from outside it; a call from a
layer into itself runs unwrapped, so ``<layer>.calls`` counts entries
into the layer.  A span's self time is its duration minus the spans it
encloses.  Work the fast core inlines never passes a wrapped boundary
and stays with its caller: L1 hits served through ``FastL1Cache._map``,
reads of ``BackingStore.visible`` and the persist-buffer pump callbacks
the engine runs are ``gpu`` self time.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import math
import re
import sys
import weakref
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, target, attributes).  A ``module:Class`` target wraps the
#: attributes on that class and on every subclass that redefines them;
#: a bare module target wraps module functions wherever they are bound.
LAYER_TARGETS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("gpu", "repro.gpu.engine:Engine", ("run",)),
    ("gpu", "repro.gpu.device:GPU", ("launch", "sync")),
    ("apps", "repro.apps.base:App", ("setup", "run", "recover", "check")),
    (
        "memory.l1",
        "repro.memory.cache:L1Cache",
        (
            "lookup", "victim_for", "fill", "drop_line", "dirty_pm_lines",
            "invalidate_clean_pm", "invalidate_pm", "invalidate_all",
        ),
    ),
    (
        "memory.subsystem",
        "repro.memory.subsystem:MemorySubsystem",
        ("fetch_line", "write_volatile", "persist_line", "crash_image",
         "wpq_occupancy"),
    ),
    ("memory.devices", "repro.memory.devices:BandwidthChannel", ("transfer",)),
    (
        "memory.devices",
        "repro.memory.devices:NVMController",
        ("read", "write", "occupancy"),
    ),
    (
        "memory.backing",
        "repro.memory.backing:BackingStore",
        ("read", "write", "read_many", "persist", "durable_read",
         "crash_image", "load_pm_image", "pm_words"),
    ),
    (
        "persistency",
        "repro.persistency.base:PersistencyModel",
        ("init_sm", "pm_store", "ofence", "dfence", "pacq", "prel",
         "threadfence", "evict_dirty_pm", "begin_drain", "drained",
         "finish_drain", "flush_line", "publish_flag"),
    ),
    (
        "system",
        "repro.system:GPUSystem",
        ("__init__", "malloc", "pm_create", "pm_open", "host_write",
         "host_write_words", "host_fill", "read_word", "read_words",
         "durable_words"),
    ),
    ("crash", "repro.system:GPUSystem", ("crash", "reboot")),
    (
        "crash",
        "repro.crash.harness:CrashHarness",
        ("baseline", "crash_at", "crash_at_fraction", "sweep",
         "persist_boundaries", "crash_at_every_persist",
         "recovery_cycles_at_worst_case"),
    ),
    ("crash", "repro.memory.subsystem:PersistLog", ("image_at",)),
    ("formal", "repro.formal.bridge", ("simulate_program", "simulate_litmus")),
    (
        "formal",
        "repro.formal.crash_states",
        ("allowed_crash_images", "allowed_final_images"),
    ),
    (
        "formal",
        "repro.formal.relations",
        ("build_po", "build_vmo", "build_pmo", "durable_prefix_required"),
    ),
    ("formal", "repro.formal.events", ("all_reads_from",)),
    (
        "check",
        "repro.check.oracle",
        ("check_program", "check_observation", "allowed_unconstrained"),
    ),
    ("check", "repro.check.enumerator", ("observe",)),
    ("check", "repro.check.shrink", ("shrink_program",)),
    ("check", "repro.check.runner", ("run_check_batch",)),
    ("serve", "repro.serve.app:ServeKVS", ("serve_batch",)),
    ("serve", "repro.serve.workload", ("plan_workload",)),
    ("serve", "repro.serve.runner", ("run_serve_scenario",)),
    ("exec", "repro.exec.executor:Executor", ("submit", "run")),
    (
        "exec",
        "repro.exec.jobs:ScenarioJob",
        ("key", "to_json", "from_json", "execute"),
    ),
    (
        "metrics",
        "repro.metrics.registry:MetricsRegistry",
        ("inc", "gauge", "observe", "histogram"),
    ),
)

#: Layer names in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in LAYER_TARGETS))

#: Modules whose import registers every class the targets expand to
#: (the SBRP mutants subclass the persistency model, ServeKVS the App).
_EXTRA_IMPORTS = ("repro.check.mutants", "repro.gpu.batchstep",
                  "repro.gpu.fastcore", "repro.serve.app")

#: Span records kept per run for the written trace; totals are exact
#: past the cap.
SPAN_CAP = 100_000


def _subclasses(cls: type) -> List[type]:
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def _resolve(target: str) -> Tuple[Any, Optional[type]]:
    module_name, _, class_name = target.partition(":")
    module = importlib.import_module(module_name)
    return module, getattr(module, class_name) if class_name else None


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def wrap_method(self, cls: type, name: str, wrap: Callable) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, staticmethod):
            new: Any = staticmethod(wrap(raw.__func__))
        elif isinstance(raw, property):
            new = property(wrap(raw.fget), raw.fset, raw.fdel, raw.__doc__)
        else:
            new = wrap(raw)
        self.set(cls, name, new)

    def wrap_function(self, module: Any, name: str, wrap: Callable) -> None:
        """Rebind a module function in every ``repro`` module holding it."""
        original = getattr(module, name)
        wrapped = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrapped)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _import_all() -> None:
    for _, target, _ in LAYER_TARGETS:
        _resolve(target)
    for name in _EXTRA_IMPORTS:
        importlib.import_module(name)


def _noop() -> None:
    pass


def _spin(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


class Tracer:
    """Span recorder over the layer boundaries of :data:`LAYER_TARGETS`.

    *delay* (layer -> seconds) busy-waits inside every span of that
    layer; the harness self-test uses it to prove attribution.
    """

    def __init__(self, delay: Optional[Dict[str, float]] = None) -> None:
        self.index = {name: i for i, name in enumerate(LAYERS)}
        self.calls = [0] * len(LAYERS)
        self.raw_self_s = [0.0] * len(LAYERS)
        #: Child spans opened directly under each layer's spans.
        self.children = [0] * len(LAYERS)
        #: Kernel generator steps (the ``apps`` layer's work count).
        self.steps = 0
        #: Total duration of top-level spans.
        self.covered_s = 0.0
        #: Time spans were interrupted by the speed probe (:meth:`exclude`).
        self.excluded_s = 0.0
        #: (span id, parent id or -1, layer index, start, end).
        self.spans: List[Tuple[int, int, int, float, float]] = []
        #: Parent self time one child span's wrapper costs, from
        #: :meth:`calibrate`; subtracted in :attr:`self_s`.
        self.leak_s = 0.0
        self._stack: List[List[Any]] = []
        self._next_id = 0
        self._delay = {self.index[k]: v for k, v in (delay or {}).items()}
        self._patches = _Patches()

    @property
    def self_s(self) -> List[float]:
        """Per-layer self time, less the wrapper cost of child spans."""
        return [
            raw - self.leak_s * n
            for raw, n in zip(self.raw_self_s, self.children)
        ]

    def exclude(self, seconds: float) -> None:
        """Keep *seconds* of foreign work out of the open span's self time."""
        if self._stack:
            self._stack[-1][1] += seconds
            self.excluded_s += seconds

    # ------------------------------------------------------------------
    def _wrapper(
        self, layer: int, steps: bool = False
    ) -> Callable[[Callable], Callable]:
        stack, calls, raw_self_s, children, spans = (
            self._stack, self.calls, self.raw_self_s, self.children,
            self.spans,
        )
        delay = self._delay.get(layer, 0.0)
        tracer = self

        def wrap(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args: Any, **kwargs: Any) -> Any:
                if steps:
                    tracer.steps += 1
                if stack and stack[-1][0] == layer:
                    return fn(*args, **kwargs)
                calls[layer] += 1
                # [layer, child time, span id, child count]
                frame = [layer, 0.0, tracer._next_id, 0]
                tracer._next_id += 1
                stack.append(frame)
                start = perf_counter()
                try:
                    if delay:
                        _spin(delay)
                    return fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    duration = end - start
                    raw_self_s[layer] += duration - frame[1]
                    children[layer] += frame[3]
                    if stack:
                        parent = stack[-1]
                        parent[1] += duration
                        parent[3] += 1
                        parent_id = parent[2]
                    else:
                        tracer.covered_s += duration
                        parent_id = -1
                    if len(spans) < SPAN_CAP:
                        spans.append((frame[2], parent_id, layer, start, end))

            return traced

        return wrap

    def calibrate(self, calls: int = 20_000, rounds: int = 7) -> float:
        """Measure :attr:`leak_s` on a scratch tracer: the self time a
        parent span gains per empty child span, beyond the bare loop."""
        leaks = []
        for _ in range(rounds):
            probe = Tracer()
            child = probe._wrapper(1)(_noop)

            def parent() -> None:
                for _ in range(calls):
                    child()

            probe._wrapper(0)(parent)()
            start = perf_counter()
            for _ in range(calls):
                _noop()
            bare = perf_counter() - start
            leaks.append((probe.raw_self_s[0] - bare) / calls)
        leaks.sort()
        self.leak_s = max(leaks[len(leaks) // 2], 0.0)
        return self.leak_s

    def _kernel_wrapper(self, launch: Callable) -> Callable:
        """``GPU.launch`` whose kernel yields through timed steps."""
        step = self._wrapper(self.index["apps"], steps=True)

        class Steps:
            __slots__ = ("send",)

            def __init__(self, gen: Any) -> None:
                self.send = step(gen.send)

        @functools.wraps(launch)
        def traced_launch(gpu: Any, kernel: Callable, *args: Any, **kwargs: Any):
            @functools.wraps(kernel)
            def stepped(*kargs: Any, **kkwargs: Any) -> Steps:
                return Steps(kernel(*kargs, **kkwargs))

            return launch(gpu, stepped, *args, **kwargs)

        return traced_launch

    def install(self) -> "Tracer":
        _import_all()
        for layer, target, names in LAYER_TARGETS:
            wrap = self._wrapper(self.index[layer])
            module, cls = _resolve(target)
            if cls is None:
                for name in names:
                    self._patches.wrap_function(module, name, wrap)
                continue
            for sub in _subclasses(cls):
                for name in names:
                    if name not in sub.__dict__:
                        continue
                    if sub.__name__ == "GPU" and name == "launch":
                        self._patches.set(
                            sub, name, self._kernel_wrapper(sub.__dict__[name])
                        )
                    self._patches.wrap_method(sub, name, wrap)
        return self

    def uninstall(self) -> None:
        self._patches.undo()

    # ------------------------------------------------------------------
    def write_spans(self, path: Path, t0: float) -> None:
        """Chrome trace-event JSON (loads in Perfetto / chrome://tracing)."""
        events = [
            {
                "name": LAYERS[layer],
                "ph": "X",
                "pid": 0,
                "tid": 0,
                "ts": round((start - t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": span_id, "parent": parent_id},
            }
            for span_id, parent_id, layer, start, end in self.spans
        ]
        path.write_text(
            json.dumps({"traceEvents": events, "spanCap": SPAN_CAP}),
            encoding="utf-8",
        )


def _exact_add(partials: List[float], x: float) -> None:
    """Add *x* to a Shewchuk partial-sum list (order-independent total)."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


_INSTANCE = re.compile(r"^(gddr|nvm|sm)\d+\.")


def census_key(name: str) -> str:
    """Counter name with per-instance numbering folded (``nvm1.x`` ->
    ``nvm.x``; both PCIe directions -> ``pcie``)."""
    name = _INSTANCE.sub(r"\1.", name)
    return "pcie." + name.split(".", 1)[1] if name.startswith("pcie_") else name


class Census:
    """Sums the statistics counters of every machine built.

    Each machine's counters fold in when its ``StatsRegistry`` is
    collected (or at :meth:`collect`), through exact partial sums, so the
    totals do not depend on garbage-collection order and repeat
    bit-for-bit between traced and untraced passes.
    """

    def __init__(self) -> None:
        self._partials: Dict[str, List[float]] = {}
        self._pending: List[weakref.finalize] = []
        self._patches = _Patches()

    def _fold(self, counters: Dict[str, float]) -> None:
        for name, value in counters.items():
            _exact_add(self._partials.setdefault(census_key(name), []), value)

    def install(self) -> "Census":
        from repro.system import GPUSystem

        census = self

        def wrap(init: Callable) -> Callable:
            @functools.wraps(init)
            def counted_init(system: Any, *args: Any, **kwargs: Any) -> None:
                init(system, *args, **kwargs)
                census._pending.append(
                    weakref.finalize(
                        system.stats, census._fold, system.stats._counters
                    )
                )

            return counted_init

        self._patches.wrap_method(GPUSystem, "__init__", wrap)
        return self

    def uninstall(self) -> None:
        self._patches.undo()

    def collect(self) -> Dict[str, float]:
        """Totals since the last collect; folds machines still alive."""
        gc.collect()
        for pending in self._pending:
            pending()
        self._pending.clear()
        totals = {k: math.fsum(v) for k, v in sorted(self._partials.items())}
        self._partials.clear()
        return totals
