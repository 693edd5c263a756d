"""Test-side invariant checker for the event engines' KV-pool path.

The engines keep their KV-pool state incrementally: integer occupancy and
context counters, one shared iteration log per instance, and ``due``
buckets that pop the sequences completing at each iteration count.
:func:`checking` re-derives all of it the slow way after every KV tick
and admit event, and fails the run at the first disagreement:

- occupancy (≤ KV capacity), committed slots (≤ the batch cap) and
  ``context_sum``, by rescanning the instance's resident work, and that
  a retired instance holds none;
- the ``due`` buckets, from each resident's admission count and output
  length;
- the ``iter_log``/``log_base`` bounds;
- that an instance with a pending iteration or admit event is marked
  ``running``, that no iteration starts before ``busy_until``, and that
  the clock never runs backwards;
- that each completion's ``mean_tbt`` equals, bit for bit, ``np.mean`` of
  a shadow per-sequence list of the latencies of every tick the sequence
  decoded through.

It is installed by a class-level patch of ``_EngineBase._on_iter``,
``_on_admit`` and ``_complete``, so the engines the simulators build (with
controllers, resilience and sampled failures) run under it unchanged::

    with checking() as checker:
        ServingSimulator(pools, config, controller="reactive").run(trace)
    assert checker.ticks > 0
"""

from __future__ import annotations

import contextlib
import weakref
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
import pytest

from repro.cluster.engine import ActiveSequence, DecodeState, _EngineBase


class _Run:
    """What the checker tracks for one engine."""

    def __init__(self) -> None:
        self.clock = 0.0
        # id(seq) -> (seq, latency of every tick it decoded through); the
        # tuple keeps ``seq`` alive, so its id is never reused meanwhile.
        self.latencies: Dict[int, Tuple[ActiveSequence, List[float]]] = {}
        # The tick in flight: its instance and the residents it advances.
        # Its latency is recorded lazily (see ``settle``).
        self.tick: Optional[Tuple[DecodeState, List[ActiveSequence]]] = None

    def advance(self, now: float) -> None:
        assert now >= self.clock, f"clock ran backwards: {now} after {self.clock}"
        self.clock = now

    def settle(self) -> None:
        """Credit the in-flight tick's latency to every sequence it advanced.

        Called at the first completion of the tick, before the engine may
        prune its log, or after the tick when nothing completed (no prune).
        """
        if self.tick is None:
            return
        inst, residents = self.tick
        self.tick = None
        latency = inst.iter_log[-1]
        for seq in residents:
            self.latencies.setdefault(id(seq), (seq, []))[1].append(latency)

    def generated(self, seq: ActiveSequence) -> int:
        entry = self.latencies.get(id(seq))
        return 0 if entry is None else len(entry[1])


class InvariantChecker:
    """Counts what it checked; see the module docstring for what it checks."""

    def __init__(self) -> None:
        self.ticks = 0
        self.admits = 0
        self.completions = 0
        self._runs: "weakref.WeakKeyDictionary[_EngineBase, _Run]" = (
            weakref.WeakKeyDictionary()
        )

    def _run(self, engine: _EngineBase) -> _Run:
        run = self._runs.get(engine)
        if run is None:
            run = self._runs[engine] = _Run()
        return run

    def wrap_iter(self, on_iter):
        def checked(engine, now, payload):
            run = self._run(engine)
            run.advance(now)
            inst = engine.kv_states[payload[0]]
            assert inst.running, f"t={now}: a pending iteration found its instance marked idle"
            busy_until, count = inst.busy_until, inst.iter_count
            run.tick = (inst, list(inst.active))
            on_iter(engine, now, payload)
            if inst.iter_count == count:
                run.tick = None
            else:
                assert inst.iter_count == count + 1
                assert now >= busy_until, (
                    f"iteration at {now} starts before the previous one ends at {busy_until}"
                )
                if run.tick is not None:
                    assert inst.busy_until == now + inst.iter_log[-1]
                run.settle()
                self.ticks += 1
            self.check(engine, run)

        return checked

    def wrap_admit(self, on_admit):
        def checked(engine, now, payload):
            run = self._run(engine)
            run.advance(now)
            assert engine.kv_states[payload[0]].running, (
                f"t={now}: a pending admit found its instance marked idle"
            )
            on_admit(engine, now, payload)
            self.admits += 1
            self.check(engine, run)

        return checked

    def wrap_complete(self, complete):
        def checked(engine, seq, finish, mean_tbt):
            run = self._run(engine)
            if run.tick is not None:
                inst = run.tick[0]
                assert finish == inst.busy_until == engine.now + inst.iter_log[-1]
            run.settle()
            entry = run.latencies.pop(id(seq), None)
            assert entry is not None, "a sequence completed without decoding a token"
            latencies = entry[1]
            assert len(latencies) == seq.request.output_tokens, (
                f"completed after {len(latencies)} of {seq.request.output_tokens} tokens"
            )
            expected = float(np.mean(latencies))
            assert mean_tbt == expected, f"mean TBT {mean_tbt!r} != rescan {expected!r}"
            complete(engine, seq, finish, mean_tbt)
            self.completions += 1

        return checked

    def check(self, engine: _EngineBase, run: _Run) -> None:
        """Re-derive every KV instance's incremental state by rescanning."""
        assert engine.now == run.clock
        resident = set()
        for idx, inst in enumerate(engine.kv_states):
            where = f"KV instance {idx} at t={engine.now}"
            work = [seq.request for seq in inst.active]
            work += [partial.request for partial in inst.backlog]
            if inst.current is not None:
                work.append(inst.current.request)
            occupied = sum(request.total_tokens for request in work)
            assert inst.occupied == occupied, f"{where}: occupied {inst.occupied} != {occupied}"
            assert occupied <= engine.kv_capacity, f"{where}: over KV capacity"
            assert inst.committed() <= engine.max_decode_batch, f"{where}: over batch cap"
            assert not (inst.retired and inst.has_work()), f"{where}: retired with work"
            assert len(inst.iter_log) == inst.iter_count - inst.log_base, where
            context = 0
            due = []
            for seq in inst.active:
                generated = run.generated(seq)
                output = seq.request.output_tokens
                assert inst.log_base <= seq.start_iter <= inst.iter_count, where
                assert generated == inst.iter_count - seq.start_iter, (
                    f"{where}: {generated} tokens decoded, "
                    f"{inst.iter_count - seq.start_iter} by iteration count"
                )
                assert generated < output, f"{where}: a finished sequence is still resident"
                context += seq.request.prompt_tokens + generated
                due.append((seq.start_iter + output, id(seq)))
                resident.add(id(seq))
            assert inst.context_sum == context, (
                f"{where}: context_sum {inst.context_sum} != {context}"
            )
            buckets = [(count, id(seq)) for count, seqs in inst.due.items() for seq in seqs]
            assert sorted(buckets) == sorted(due), f"{where}: due buckets disagree"
        # Evicted sequences never come back: drop their shadows.
        for key in [key for key in run.latencies if key not in resident]:
            del run.latencies[key]


@contextlib.contextmanager
def checking() -> Iterator[InvariantChecker]:
    """Run every engine built inside the block under the invariant checker."""
    checker = InvariantChecker()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_EngineBase, "_on_iter", checker.wrap_iter(_EngineBase._on_iter))
        patch.setattr(_EngineBase, "_on_admit", checker.wrap_admit(_EngineBase._on_admit))
        patch.setattr(_EngineBase, "_complete", checker.wrap_complete(_EngineBase._complete))
        yield checker
