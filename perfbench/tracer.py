"""Outside-in tracer: times repro's layers without touching ``src/``.

Each :class:`Hook` names a public function or method by module and
attribute.  :meth:`Tracer.install` replaces it with a wrapper that
records a span; a function imported by name into other modules
(``from repro.exocore import oracle_schedule``) is replaced at every
such lookup site too.  :meth:`Tracer.uninstall` restores the originals.

A span's self time is its duration minus the durations of the wrapped
calls nested in it on the same thread.  Observers (work counters and
stream fingerprints) run after a span has closed, and the time they
take is charged to neither the span nor its ancestors; it is summed
in :attr:`Tracer.excluded_s` so callers can take it off the wall time.

A hook whose target no longer exists is reported in
:attr:`Tracer.absent` instead of failing the run, and an observer that
no longer understands its call's arguments is reported in
:attr:`Tracer.observer_errors`.
"""

import functools
import hashlib
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict


class Hook:
    """One wrapped callable.

    *name* is ``"func"``, ``"Class.method"`` or ``"*Class.method"``;
    the star form wraps the method on *Class* and on every subclass
    that defines its own.  *rebind* replaces a function at every module
    that imported it by name; without it only *module*'s attribute is
    replaced (the lookup site a layer is defined by).
    """

    def __init__(self, layer, module, name, observe=None, rebind=True):
        self.layer = layer
        self.module = module
        self.name = name
        self.observe = observe
        self.rebind = rebind

    @property
    def label(self):
        return f"{self.module}.{self.name.lstrip('*')}"


class Tracer:
    def __init__(self, hooks=(), clock=time.perf_counter):
        self.hooks = tuple(hooks)
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed = []
        self.absent = []
        self.reset()

    def reset(self):
        """Forget all recorded spans and counts (hooks stay)."""
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.digests = defaultdict(set)
        self.observer_errors = {}
        self.spans = []
        self.excluded_s = 0.0
        self.op = None
        self._next_id = 0

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer, fn, args, kwargs, observe=None):
        """Run ``fn(*args, **kwargs)`` as one span of *layer*."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        frame = [span_id, 0.0]          # id, seconds of nested spans
        stack.append(frame)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            with self._lock:
                self.self_s[layer] += duration - frame[1]
                self.calls[layer] += 1
                self.spans.append((self.op, span_id,
                                   parent[0] if parent else None,
                                   layer, start, end))
            if parent is not None:
                parent[1] += duration
        if observe is not None:
            began = self.clock()
            try:
                observe(self, args, kwargs, result)
            except (TypeError, AttributeError, IndexError, KeyError,
                    ValueError) as exc:
                self.observer_errors.setdefault(
                    layer, f"{type(exc).__name__}: {exc}")
            spent = self.clock() - began
            with self._lock:
                self.excluded_s += spent
            if parent is not None:
                parent[1] += spent
        return result

    def count(self, name, amount=1):
        with self._lock:
            self.counts[name] += amount

    def add_digest(self, name, digest):
        with self._lock:
            self.digests[name].add(digest)

    # -- installing ------------------------------------------------------------

    def _wrapper(self, hook, fn):
        tracer = self
        if inspect.iscoroutinefunction(fn):
            # Coroutines interleave on one thread, so they cannot take
            # part in the nesting stack: count calls only.
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                tracer.count(hook.layer)
                return await fn(*args, **kwargs)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(hook.layer, fn, args, kwargs, hook.observe)
        return wrapper

    def _patch(self, owner, attr, replacement):
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every hook target; missing targets go to ``absent``."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for hook in self.hooks:
            try:
                module = importlib.import_module(hook.module)
            except ImportError:
                self.absent.append(hook.label)
                continue
            if "." in hook.name:
                installed = self._install_method(hook, module)
            else:
                installed = self._install_function(hook, module)
            if not installed:
                self.absent.append(hook.label)

    def _install_function(self, hook, module):
        original = module.__dict__.get(hook.name)
        if not callable(original):
            return False
        wrapper = self._wrapper(hook, original)
        if not hook.rebind:
            self._patch(module, hook.name, wrapper)
            return True
        sites = [module] + [m for m in _repro_modules() if m is not module]
        for mod in sites:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)
        return True

    def _install_method(self, hook, module):
        class_name, method = hook.name.lstrip("*").split(".", 1)
        base = module.__dict__.get(class_name)
        if not isinstance(base, type):
            return False
        classes = [base]
        if hook.name.startswith("*"):
            classes += _subclasses(base)
        installed = False
        for cls in classes:
            raw = cls.__dict__.get(method)
            if raw is None:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrapper(hook, raw.__func__))
            elif callable(raw):
                wrapped = self._wrapper(hook, raw)
            else:
                continue
            self._patch(cls, method, wrapped)
            installed = True
        return installed

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _subclasses(base):
    found = []
    pending = list(base.__subclasses__())
    while pending:
        cls = pending.pop()
        if cls not in found:
            found.append(cls)
            pending.extend(cls.__subclasses__())
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


# -- stream fingerprints -----------------------------------------------------

_FIELDS = {}


def _inst_fields(inst):
    cls = type(inst)
    fields = _FIELDS.get(cls)
    if fields is None:
        slots = getattr(cls, "__slots__", None)
        names = slots if slots is not None else sorted(vars(inst))
        # The static instruction is identified by its uid ("PC").
        fields = _FIELDS[cls] = tuple(n for n in names if n != "static")
    return fields


def stream_digest(stream):
    """Content digest of a DynInst stream (equal streams, equal digest)."""
    digest = hashlib.blake2b(digest_size=16)
    fields = None
    for inst in stream:
        if fields is None:
            fields = _inst_fields(inst)
        values = tuple(getattr(inst, name, None) for name in fields)
        digest.update(repr((getattr(inst, "uid", None), values)).encode())
    return digest.digest()


def _stream_arg(args, kwargs):
    return kwargs["stream"] if "stream" in kwargs else args[1]


def observe_interpret(tracer, args, kwargs, result):
    tracer.count("sim.insts_interpreted", len(result))


def observe_construct(tracer, args, kwargs, result):
    tracer.count("tdg.constructs")
    program = kwargs["program"] if "program" in kwargs else args[0]
    tracer.add_digest("tdg.programs", program.name)


def observe_transform(tracer, args, kwargs, result):
    tracer.count("accel.insts_transformed", len(result))
    tracer.count("accel.transforms")
    tracer.add_digest("accel.transform", stream_digest(result))


def observe_lower(tracer, args, kwargs, result):
    stream = kwargs["stream"] if "stream" in kwargs else args[0]
    if not isinstance(stream, (list, tuple)):
        return              # already lowered: passed through, no work
    tracer.count("tdg.insts_lowered", len(stream))
    tracer.count("tdg.lowerings")
    tracer.add_digest("tdg.lower", stream_digest(stream))


def observe_time(tracer, args, kwargs, result):
    tracer.count("tdg.engine_runs")
    tracer.count("tdg.insts_timed", len(_stream_arg(args, kwargs)))


def observe_price(tracer, args, kwargs, result):
    stream = _stream_arg(args, kwargs)
    tracer.count("energy.insts_priced", len(stream))
    tracer.count("energy.pricings")
    tracer.add_digest("energy.price", stream_digest(stream))


def observe_schedule(tracer, args, kwargs, result):
    tracer.count("exocore.schedules")


def observe_cache_load(tracer, args, kwargs, result):
    tracer.count("dse.cache_loads")
    if result is not None:
        tracer.count("dse.cache_hits")


#: Every wrapped public call, by layer.
HOOKS = (
    Hook("sim.interpret", "repro.sim.interpreter", "Interpreter.run",
         observe_interpret),
    Hook("tdg.construct", "repro.tdg.constructor", "construct_tdg",
         observe_construct),
    # Program building happens in the workload's construct_tdg method
    # around the function above; both belong to TDG construction.
    Hook("tdg.construct", "repro.workloads.base", "Workload.construct_tdg"),
    Hook("analysis", "repro.accel.base", "AnalysisContext.__init__"),
    Hook("analysis", "repro.accel.base", "AnalysisContext.dep_info"),
    Hook("analysis", "repro.accel.base", "AnalysisContext.slice_info"),
    Hook("analysis", "repro.accel.base", "AnalysisContext.spans_of"),
    Hook("accel.candidates", "repro.accel.base", "*BSAModel.find_candidates"),
    Hook("accel.transform", "repro.accel.base",
         "*BSAModel.transform_interval", observe_transform),
    Hook("tdg.lower", "repro.tdg.fastpath", "lower_stream", observe_lower),
    Hook("tdg.time", "repro.tdg.fastpath", "FastTimingEngine.run",
         observe_time),
    Hook("tdg.time", "repro.tdg.engine", "TimingEngine.run", observe_time),
    Hook("energy.price", "repro.energy.mcpat", "EnergyModel.evaluate",
         observe_price),
    Hook("exocore.schedule", "repro.exocore.schedule", "oracle_schedule",
         observe_schedule),
    Hook("exocore.schedule", "repro.exocore.schedule", "amdahl_schedule",
         observe_schedule),
    Hook("exocore.schedule", "repro.analysis.regions", "attribute_baseline"),
    Hook("dse.cache_load", "repro.dse.cache", "LocalDirBackend.load",
         observe_cache_load),
    Hook("dse.cache_store", "repro.dse.cache", "LocalDirBackend.store"),
    Hook("dse.codec", "repro.dse.sweep", "record_to_json"),
    Hook("dse.codec", "repro.dse.sweep", "record_from_json"),
    Hook("dse.codec", "repro.dse.persist", "dumps_sweep"),
    Hook("explore.surrogate", "repro.explore.surrogate",
         "SurrogateEnsemble.fit"),
    Hook("explore.surrogate", "repro.explore.surrogate",
         "SurrogateEnsemble.predict"),
    Hook("explore.surrogate", "repro.explore.surrogate",
         "SurrogateEnsemble.novelty"),
    Hook("explore.acquire", "repro.explore.acquire", "select_batch"),
    Hook("explore.acquire", "repro.explore.space", "DesignSpace.sample"),
    Hook("explore.acquire", "repro.explore.space",
         "DesignSpace.sample_stratified"),
    # Only the explorer's exact evaluations: run_sweep where the
    # explorer looks it up, not where the sweep workloads call it.
    Hook("explore.exact", "repro.explore.evaluate", "run_sweep",
         rebind=False),
    Hook("service.pool_evals", "repro.service.workers",
         "EvaluationPool.evaluate"),
)

#: Layers with self time, in pipeline order.
TIME_LAYERS = (
    "sim.interpret", "tdg.construct", "analysis", "accel.candidates",
    "accel.transform", "tdg.lower", "tdg.time", "energy.price",
    "exocore.schedule", "dse.cache_load", "dse.cache_store", "dse.codec",
    "explore.surrogate", "explore.acquire", "explore.exact",
)
