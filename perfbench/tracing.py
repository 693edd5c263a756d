"""Span tracing for the traced benchmark run, recorded from outside ``src/``.

Every span is a ``(name, start, end, parent)`` record kept in flat
``array`` columns (26 bytes a span, so a million heap operations stay
small) and written to disk once, when the run ends.  Spans are opened by
wrappers this module installs around the simulator's public entry points:

- class-level wrappers (``EventQueue``, the engines' ``run``,
  ``StreamingMetrics.record``, ``ResilienceRuntime``, ``ResultCache``, the
  fluid fits and ``BatchTimeFit.time_at``, the runner's job executor, and the
  placement / failure-resolution functions the simulators call), installed
  by :func:`installed` for one run and removed afterwards;
- per-object wrappers the workloads pass in: :class:`TracedProvider` for the
  simulators' service-time providers, a traced :class:`PolicyBundle`, and
  :class:`TracedController`.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, Iterator

import numpy as np

from repro.analysis.streaming import StreamingMetrics
from repro.cluster import fluid, simulator
from repro.cluster.control import ClusterController
from repro.cluster.engine import (
    AbstractServiceTimeProvider,
    ColocatedEngine,
    EventQueue,
    PhaseSplitEngine,
)
from repro.cluster.policies import PolicyBundle, get_policy_bundle
from repro.cluster.resilience import ResilienceRuntime
from repro.exec import runner
from repro.exec.cache import MISS, ResultCache

_ABSENT = object()

#: Every event kind the two engines schedule (one per-layer counter each).
EVENT_KINDS = (
    "arrival", "retry", "prefill_done", "decode_iter", "decode_admit", "iter",
    "admit", "failure", "recovered", "controller", "spawn_ready",
)

_RESILIENCE_HOOKS = (
    "admit", "sweep_queue", "shed", "on_retry_fired", "resume_request",
    "on_failure_hit", "on_complete",
)


class NullTracer:
    """The untraced run: every hook hands its argument back unchanged."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield

    def provider(self, provider):
        return provider

    def policies(self, name: str):
        return name

    def controller(self, controller):
        return controller

    def trace_iter(self, requests):
        return requests

    def count(self, name: str, n: int = 1) -> None:
        pass


class Tracer(NullTracer):
    """In-memory span recorder plus named counters."""

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self.names: list = []
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Dict[str, int] = defaultdict(int)
        self.providers: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.finish(index)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a ``name`` span."""
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(index)

        return traced

    # --- per-object wrappers ----------------------------------------------

    def provider(self, provider):
        traced = TracedProvider(provider, self)
        self.providers.append(traced)
        return traced

    def policies(self, name: str) -> PolicyBundle:
        bundle = get_policy_bundle(name)
        return PolicyBundle(
            name=bundle.name,
            routing=_TracedPolicy(bundle.routing, self, {"order": "policies.route"}),
            prefill=_TracedPolicy(bundle.prefill, self, {"select": "policies.batch"}),
            admission=_TracedAdmission(bundle.admission, self),
            requeue=_TracedPolicy(
                bundle.requeue, self,
                {"requeue": "policies.requeue", "requeue_all": "policies.requeue"},
            ),
        )

    def controller(self, controller):
        return TracedController(controller, self)

    def trace_iter(self, requests) -> Iterator:
        """A lazy trace whose every pull is a ``traces.gen`` span."""
        nid = self.name_id("traces.gen")
        iterator = iter(requests)
        while True:
            index = self.begin(nid)
            try:
                request = next(iterator, None)
            finally:
                self.finish(index)
            if request is None:
                return
            self.counts["traces.requests"] += 1
            yield request

    # --- results ----------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64)
        duration = end - start
        covered = np.zeros(n)
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        own = duration - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=duration, minlength=k)
        selft = np.bincount(names, weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(selft[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Dump every span (names, starts, ends, parents) to one ``.npz``."""
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


class TracedProvider(AbstractServiceTimeProvider):
    """Times every service-time query a simulator makes of one provider."""

    def __init__(self, inner: AbstractServiceTimeProvider, tracer: Tracer) -> None:
        self.inner = inner
        self._prefill = tracer.wrap("provider.prefill", inner.prefill_time)
        self._decode = tracer.wrap("provider.decode", inner.decode_time)
        self._mixed = tracer.wrap("provider.mixed", inner.mixed_time)

    def set_frequency(self, scalar: float) -> None:
        self.inner.set_frequency(scalar)

    @property
    def frequency(self) -> float:
        return self.inner.frequency

    def prefill_time(self, batch: int, prompt_len: int, instance: int = 0) -> float:
        return self._prefill(batch, prompt_len, instance)

    def decode_time(self, batch: int, context_len: int, instance: int = 0) -> float:
        return self._decode(batch, context_len, instance)

    def mixed_time(
        self, decode_batch: int, context_len: int, chunk: int, prompt_len: int,
        instance: int = 0,
    ) -> float:
        return self._mixed(decode_batch, context_len, chunk, prompt_len, instance)

    def cache_info(self) -> Dict[str, int]:
        return self.inner.cache_info()


class _TracedPolicy:
    """Wraps the named methods of one policy object in spans.

    Engines ``copy.copy`` routing policies so that stateful ones (round
    robin) keep one cursor per pool; the copy must copy the wrapped policy
    too, or the pools would share a cursor and the run would change.
    """

    def __init__(self, inner, tracer: Tracer, methods: Dict[str, str]) -> None:
        self.inner = inner
        self.name = inner.name
        self._tracer = tracer
        self._methods = methods
        for method, span in methods.items():
            setattr(self, method, tracer.wrap(span, getattr(inner, method)))

    def __copy__(self):
        return type(self)(copy.copy(self.inner), self._tracer, self._methods)


class _TracedAdmission(_TracedPolicy):
    """Admission spans plus offered/admitted counts (the admit ratio)."""

    def __init__(self, inner, tracer: Tracer, methods=None) -> None:
        super().__init__(inner, tracer, {"select": "policies.admit"})
        traced_select = self.select
        counts = tracer.counts

        def select(queue, slots, budget):
            counts["policies.offered"] += len(queue)
            admitted = traced_select(queue, slots, budget)
            counts["policies.admitted"] += len(admitted)
            return admitted

        self.select = select


class TracedController(ClusterController):
    """Delegates to a real controller and times each ``step``.

    The simulator deep-copies its controller once per run; the copy must
    share the tracer, not clone its span buffers.
    """

    def __init__(self, inner: ClusterController, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name
        self.epoch = inner.epoch
        self.warmup_s = inner.warmup_s
        self.min_instances = inner.min_instances
        self.max_instances = inner.max_instances
        self._step = tracer.wrap("control.step", inner.step)

    def step(self, obs):
        return self._step(obs)

    def __deepcopy__(self, memo):
        return TracedController(copy.deepcopy(self.inner, memo), self.tracer)


def _patch(target, attr: str, replacement, undo: list) -> None:
    undo.append((target, attr, vars(target).get(attr, _ABSENT)))
    setattr(target, attr, replacement)


@contextlib.contextmanager
def counting_pops():
    """Count event-heap pops (no spans) while the block runs."""
    counter = SimpleNamespace(pops=0)
    pop = EventQueue.pop

    def counted_pop(self):
        counter.pops += 1
        return pop(self)

    undo: list = []
    _patch(EventQueue, "pop", counted_pop, undo)
    try:
        yield counter
    finally:
        _unpatch(undo)


def _unpatch(undo: list) -> None:
    for target, attr, old in reversed(undo):
        if old is _ABSENT:
            delattr(target, attr)
        else:
            setattr(target, attr, old)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install the class-level wrappers for the duration of one traced run."""
    undo: list = []
    try:
        kinds = tracer.counts
        push_id, pop_id = tracer.name_id("engine.heap_push"), tracer.name_id("engine.heap_pop")
        begin, finish = tracer.begin, tracer.finish
        push, pop = EventQueue.push, EventQueue.pop

        # Spelled out rather than built with ``wrap``: these run once per
        # event, and skipping ``*args`` packing keeps the tracing overhead down.
        def traced_push(self, time, kind, payload=()):
            index = begin(push_id)
            try:
                push(self, time, kind, payload)
            finally:
                finish(index)

        def traced_pop(self):
            index = begin(pop_id)
            try:
                event = pop(self)
            finally:
                finish(index)
            kinds["engine.events." + event[1]] += 1
            return event

        _patch(EventQueue, "push", traced_push, undo)
        _patch(EventQueue, "pop", traced_pop, undo)
        for engine in (PhaseSplitEngine, ColocatedEngine):
            _patch(engine, "run", tracer.wrap("engine.run", engine.run), undo)
        _patch(StreamingMetrics, "record",
               tracer.wrap("streaming.record", StreamingMetrics.record), undo)
        for hook in _RESILIENCE_HOOKS:
            _patch(ResilienceRuntime, hook,
                   tracer.wrap(f"resilience.{hook}", getattr(ResilienceRuntime, hook)), undo)
        get = tracer.wrap("cache.get", ResultCache.get)

        def traced_get(self, key):
            value = get(self, key)
            if value is not MISS:
                kinds["cache.hits"] += 1
            return value

        _patch(ResultCache, "get", traced_get, undo)
        _patch(ResultCache, "put", tracer.wrap("cache.put", ResultCache.put), undo)
        for fit in ("fit_decode", "fit_prefill", "fit_mixed"):
            _patch(fluid, fit, tracer.wrap("fluid.fit", getattr(fluid, fit)), undo)
        for report in ("fluid_phase_split_report", "fluid_colocated_report"):
            _patch(fluid, report, tracer.wrap("fluid.report", getattr(fluid, report)), undo)
        _patch(fluid.BatchTimeFit, "time_at",
               tracer.wrap("fluid.time_at", fluid.BatchTimeFit.time_at), undo)
        _patch(runner, "_execute", tracer.wrap("runner.job", runner._execute), undo)
        _patch(simulator, "place", tracer.wrap("placement.place", simulator.place), undo)
        for fn in ("resolve_component_failures", "sample_failure_schedule"):
            _patch(simulator, fn, tracer.wrap("failures.schedule", getattr(simulator, fn)), undo)
        yield tracer
    finally:
        _unpatch(undo)
