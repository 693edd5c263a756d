"""Placement: mapping simulator instances onto physical topology GPUs.

The serving simulators reason about *instances* (one tensor-parallel replica
= ``n_gpus`` GPUs); the :mod:`repro.network` package reasons about *GPU
indices* of a concrete topology.  This module is the bridge the paper's
co-design questions need: a :class:`Placement` assigns every instance of
every pool a concrete, disjoint set of GPU indices, so that

- the network-aware service-time provider can price each instance's
  collectives from its *actual* hop distances and link contention
  (:class:`repro.cluster.engine.NetworkAwareServiceTimeProvider`), and
- component-level failures (a link, a switch, a rack power domain) can be
  resolved back onto the instances they take down
  (:func:`repro.cluster.failures.resolve_component_failures`).

Four placers are registered by name:

- ``packed``    — consecutive GPU blocks: TP groups stay inside
  direct-connect groups / leaf domains (minimum hops, shared fate);
- ``scattered`` — maximal stride interleave: every TP group spans the whole
  cluster (maximum hops, minimum correlated blast radius);
- ``random``    — seeded shuffle then consecutive chunks;
- ``greedy``    — hop-minimizing: grow each group around a seed GPU by
  repeatedly adding the free GPU with the smallest total hop distance to
  the members chosen so far.

All placers are deterministic for a given (topology, shapes, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import SpecError
from ..network.topology import Topology

__all__ = [
    "PoolShape",
    "Placement",
    "PLACERS",
    "get_placer",
    "place",
    "placement_hop_stats",
]


@dataclass(frozen=True)
class PoolShape:
    """How many instances a pool needs and how many GPUs each spans."""

    name: str
    n_instances: int
    gpus_per_instance: int

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("pool name must be non-empty")
        if self.n_instances <= 0 or self.gpus_per_instance <= 0:
            raise SpecError("pool shape counts must be positive")

    @property
    def total_gpus(self) -> int:
        """GPUs the whole pool occupies."""
        return self.n_instances * self.gpus_per_instance


@dataclass(frozen=True)
class Placement:
    """An assignment of pool instances to physical GPU indices.

    ``assignments`` maps each pool name to a tuple of per-instance GPU
    groups; the dataclass is frozen/hashable so it can enter cache keys and
    :func:`repro.exec.seeding.derive_seed` label paths directly.

    >>> p = Placement(8, (("decode", ((0, 1), (2, 3))),))
    >>> p.gpus("decode", 1)
    (2, 3)
    >>> p.affected_instances([3])
    (('decode', 1),)
    """

    n_gpus: int
    assignments: Tuple[Tuple[str, Tuple[Tuple[int, ...], ...]], ...]
    placer: str = "packed"

    def __post_init__(self) -> None:
        if self.n_gpus <= 0:
            raise SpecError("n_gpus must be positive")
        seen: set = set()
        for pool, groups in self.assignments:
            if not groups:
                raise SpecError(f"pool '{pool}' has no instances")
            for group in groups:
                if not group:
                    raise SpecError(f"pool '{pool}' has an empty instance group")
                for gpu in group:
                    if not 0 <= gpu < self.n_gpus:
                        raise SpecError(
                            f"GPU index {gpu} out of range [0, {self.n_gpus}) in pool '{pool}'"
                        )
                    if gpu in seen:
                        raise SpecError(f"GPU {gpu} assigned to more than one instance")
                    seen.add(gpu)

    # --- lookups ---------------------------------------------------------------

    @property
    def pools(self) -> Tuple[str, ...]:
        """Pool names in declaration order."""
        return tuple(pool for pool, _ in self.assignments)

    def groups(self, pool: str) -> Tuple[Tuple[int, ...], ...]:
        """Per-instance GPU groups of one pool."""
        for name, groups in self.assignments:
            if name == pool:
                return groups
        raise SpecError(f"unknown pool '{pool}' (have {', '.join(self.pools)})")

    def gpus(self, pool: str, index: int) -> Tuple[int, ...]:
        """The GPU indices of one instance."""
        groups = self.groups(pool)
        if not 0 <= index < len(groups):
            raise SpecError(f"instance index {index} out of range for pool '{pool}'")
        return groups[index]

    @property
    def total_gpus_used(self) -> int:
        """GPUs claimed by any instance."""
        return sum(len(g) for _, groups in self.assignments for g in groups)

    def affected_instances(self, gpus: Iterable[int]) -> Tuple[Tuple[str, int], ...]:
        """The (pool, instance) pairs touching any of ``gpus`` — the blast
        radius resolution used by component-level failures."""
        hit = set(gpus)
        affected: List[Tuple[str, int]] = []
        for pool, groups in self.assignments:
            for index, group in enumerate(groups):
                if hit.intersection(group):
                    affected.append((pool, index))
        return tuple(affected)

    def describe(self) -> str:
        """One-line summary per pool."""
        lines = []
        for pool, groups in self.assignments:
            spans = ", ".join(f"[{g[0]}..{g[-1]}]" if len(g) > 1 else f"[{g[0]}]" for g in groups)
            lines.append(f"{pool}: {len(groups)} instances on {spans}")
        return "\n".join(lines)


def require_capacity(topology: Topology, shapes: Sequence[PoolShape]) -> int:
    needed = sum(shape.total_gpus for shape in shapes)
    if needed > topology.n_gpus:
        raise SpecError(
            f"placement needs {needed} GPUs but the topology has {topology.n_gpus}"
        )
    if not shapes:
        raise SpecError("placement needs at least one pool shape")
    return needed


def _chunk(order: Sequence[int], shapes: Sequence[PoolShape]) -> List[Tuple[str, Tuple[Tuple[int, ...], ...]]]:
    """Slice a GPU ordering into per-pool, per-instance groups."""
    assignments: List[Tuple[str, Tuple[Tuple[int, ...], ...]]] = []
    cursor = 0
    for shape in shapes:
        groups: List[Tuple[int, ...]] = []
        for _ in range(shape.n_instances):
            groups.append(tuple(order[cursor : cursor + shape.gpus_per_instance]))
            cursor += shape.gpus_per_instance
        assignments.append((shape.name, tuple(groups)))
    return assignments


def place_packed(topology: Topology, shapes: Sequence[PoolShape], seed: int = 0) -> Placement:
    """Consecutive blocks: instance k gets GPUs [k*w, (k+1)*w)."""
    require_capacity(topology, shapes)
    return Placement(topology.n_gpus, tuple(_chunk(range(topology.n_gpus), shapes)), "packed")


def place_scattered(topology: Topology, shapes: Sequence[PoolShape], seed: int = 0) -> Placement:
    """Maximal stride: instance j of J gets GPUs j, j+J, j+2J, ...

    Spreads every TP group across the whole cluster — the adversarial
    placement for hop counts and uplink contention, and the most favourable
    one for correlated blast radius.
    """
    require_capacity(topology, shapes)
    total_instances = sum(shape.n_instances for shape in shapes)
    widths = [shape.gpus_per_instance for shape in shapes for _ in range(shape.n_instances)]
    order: List[int] = []
    for j, width in enumerate(widths):
        order.extend(j + k * total_instances for k in range(width))
    if any(idx >= topology.n_gpus for idx in order):
        raise SpecError(
            "scattered placement needs n_instances * max(gpus_per_instance) "
            f"<= n_gpus ({total_instances} * {max(widths)} > {topology.n_gpus})"
        )
    return Placement(topology.n_gpus, tuple(_chunk(order, shapes)), "scattered")


def place_random(topology: Topology, shapes: Sequence[PoolShape], seed: int = 0) -> Placement:
    """Seeded shuffle of all GPU indices, then consecutive chunks."""
    require_capacity(topology, shapes)
    rng = np.random.default_rng(seed)
    order = [int(i) for i in rng.permutation(topology.n_gpus)]
    return Placement(topology.n_gpus, tuple(_chunk(order, shapes)), "random")


def place_greedy(topology: Topology, shapes: Sequence[PoolShape], seed: int = 0) -> Placement:
    """Hop-minimizing greedy: grow each group around the lowest free GPU.

    For each instance in declaration order: seed with the smallest free
    index, then repeatedly add the free GPU minimizing the summed hop count
    to the members already chosen (ties break on index).  O(instances *
    width * n_gpus) hop evaluations — fine at simulator scales.
    """
    require_capacity(topology, shapes)
    free = list(range(topology.n_gpus))
    assignments: List[Tuple[str, Tuple[Tuple[int, ...], ...]]] = []
    for shape in shapes:
        groups: List[Tuple[int, ...]] = []
        for _ in range(shape.n_instances):
            members = [free.pop(0)]
            while len(members) < shape.gpus_per_instance:
                best = min(
                    free,
                    key=lambda g: (sum(topology.hop_count(g, m) for m in members), g),
                )
                free.remove(best)
                members.append(best)
            groups.append(tuple(members))
        assignments.append((shape.name, tuple(groups)))
    return Placement(topology.n_gpus, tuple(assignments), "greedy")


PLACERS: Dict[str, Callable[..., Placement]] = {
    "packed": place_packed,
    "scattered": place_scattered,
    "random": place_random,
    "greedy": place_greedy,
}


def get_placer(name: str) -> Callable[..., Placement]:
    """Look a placer up by name.

    >>> get_placer("packed") is place_packed
    True
    """
    try:
        return PLACERS[name]
    except KeyError:
        raise SpecError(f"unknown placer '{name}' (have {', '.join(sorted(PLACERS))})") from None


def place(
    topology: Topology,
    shapes: Sequence[PoolShape],
    placer: str = "packed",
    seed: int = 0,
) -> Placement:
    """Place ``shapes`` onto ``topology`` with the named placer."""
    return get_placer(placer)(topology, shapes, seed=seed)


def placement_hop_stats(topology: Topology, placement: Placement) -> Dict[str, float]:
    """Mean and max intra-instance hop count over every placed group.

    The summary number the README/benchmarks report when contrasting
    packed vs scattered placements.
    """
    hops: List[int] = []
    worst = 0
    for _, groups in placement.assignments:
        for group in groups:
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    h = topology.hop_count(a, b)
                    hops.append(h)
                    worst = max(worst, h)
    return {
        "mean_hops": float(np.mean(hops)) if hops else 0.0,
        "max_hops": float(worst),
        "pairs": float(len(hops)),
    }
