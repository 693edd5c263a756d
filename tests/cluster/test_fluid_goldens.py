"""Bit-exact goldens for the fluid backend, both deployment shapes.

Each case runs one fluid simulation and compares its ``SimReport`` and every
``last_economics`` pool row with ``fluid_goldens.json`` as exact ``repr``
strings, so a refactor of the integrator that moves any float by one ulp
fails here.  The cases cover both shapes under index-order (``fcfs``) and
``least-loaded`` routing at light, saturated and KV-bound load, plus an
empty trace, a run cut by ``max_sim_time`` and a multi-bin rate ramp.

Regenerate the file only for an intended numerics change::

    PYTHONPATH=src python tests/cluster/test_fluid_goldens.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cluster.scheduler import ColocatedPool, InstanceSpec, PhasePools
from repro.cluster.simulator import SimConfig, simulator_for
from repro.hardware.gpu import H100
from repro.workloads.models import LLAMA3_8B
from repro.workloads.traces import TraceConfig, generate_trace, merge_traces

GOLDENS = Path(__file__).with_name("fluid_goldens.json")


def _deployment(shape: str, max_decode_batch: int = 64):
    spec = InstanceSpec(LLAMA3_8B, H100, 1)
    if shape == "phase-split":
        return PhasePools(
            prefill=spec, n_prefill=2, decode=spec, n_decode=3,
            max_prefill_batch=4, max_decode_batch=max_decode_batch,
        )
    return ColocatedPool(spec, 3, max_decode_batch=max_decode_batch, chunk_tokens=512)


def _trace(rate, duration, output_tokens=60, seed=0):
    return generate_trace(
        TraceConfig(
            rate=rate, duration=duration, output_tokens=output_tokens, output_spread=0.4,
        ),
        seed=seed,
    )


#: name -> (trace, max_decode_batch, max_sim_time)
LOADS = {
    "light": lambda: (_trace(2.0, 30.0), 64, 3600.0),
    "saturated": lambda: (_trace(250.0, 15.0, output_tokens=120, seed=1), 64, 3600.0),
    "kv-bound": lambda: (_trace(14.0, 30.0, output_tokens=400, seed=2), 4, 3600.0),
    "empty": lambda: ([], 64, 3600.0),
    "truncated": lambda: (_trace(30.0, 40.0, seed=3), 64, 8.0),
    "ramp": lambda: (
        merge_traces(
            _trace(3.0, 60.0, seed=4), _trace(12.0, 35.0, seed=5), _trace(40.0, 12.0, seed=6)
        ),
        64,
        3600.0,
    ),
}

CASES = [
    f"{shape}/{policy}/{load}"
    for shape in ("phase-split", "colocated")
    for policy in ("fcfs", "least-loaded")
    for load in LOADS
    if policy == "fcfs" or load in ("light", "saturated", "kv-bound")
]


def _run(case: str) -> dict:
    shape, policy, load = case.split("/")
    trace, max_decode_batch, horizon = LOADS[load]()
    deployment = _deployment(shape, max_decode_batch)
    sim = simulator_for(deployment)(
        deployment, SimConfig(backend="fluid", max_sim_time=horizon), policies=policy
    )
    report = sim.run(trace)
    econ = sim.last_economics
    return {
        "report": dict(zip(_names(report), dataclasses.astuple(report))),
        "economics": {"duration": econ.duration, "output_tokens": econ.output_tokens},
        "pools": [dict(zip(_names(p), dataclasses.astuple(p))) for p in econ.pools],
    }


def _names(obj) -> list:
    return [f.name for f in dataclasses.fields(obj)]


def _reprs(value):
    """Every leaf as its exact ``repr`` (NaN-safe, int/float distinct)."""
    if isinstance(value, dict):
        return {k: _reprs(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_reprs(v) for v in value]
    return repr(value)


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("case", CASES)
def test_fluid_golden(case, goldens):
    assert _reprs(_run(case)) == goldens[case]


def test_goldens_cover_every_case(goldens):
    assert sorted(goldens) == sorted(CASES)


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    GOLDENS.write_text(json.dumps({c: _reprs(_run(c)) for c in CASES}, indent=1) + "\n")
    print(f"wrote {len(CASES)} cases to {GOLDENS}")
