"""Chunked Monte Carlo driver with schedule-independent results.

A run simulates one or more groups. A group is one station set: the
samplers of its metrics, given either built or as a zero-argument
builder that returns them. Every reducer belongs to one group, and
draws are keyed by (seed, iteration, metric) within their group, so a
group simulated alongside others draws exactly what it would draw
alone.

Iterations are cut into fixed blocks of CHUNK_ITERATIONS. Each reducer
folds its group's block results in block order. Because the block
boundaries and the fold order never depend on the worker count, every
reduction (including floating-point sums) follows the same arithmetic
tree and the output is bit-identical whether the run used one process
or twenty.

The work is a list of tasks (group, start, end), each a range of one
group's blocks. A task makes sure its process holds the group: a
one-slot cache that drops the previous group's samplers before it
builds the next. It runs the blocks of its range and folds them, and
the parent folds each group's range results in task order. A pool over
several groups gets one range per group, so each group is built by
the one worker that simulates it and only folded arrays come back.
Every other pass gets one range per block; a lone group over several
workers is built in this process before the fork and shared
copy-on-write.

Worker processes are always forked. Where the platform has no "fork"
start method, the run uses one worker and says so on stderr.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .sampling import DatasetSampler

__all__ = ["CHUNK_ITERATIONS", "Reducer", "run_simulation", "default_workers"]

# Fixed block size. Changing it changes float summation trees and
# therefore byte-level output; it is a constant, not a tuning knob.
CHUNK_ITERATIONS = 32

Samplers = Mapping[str, DatasetSampler]
Group = Union[Samplers, Callable[[], Samplers]]


class Reducer:
    """Per-iteration reduction of simulated counts.

    Subclasses set out_shape/dtype/mode and implement reduce(), which
    receives the iteration index and a dict of simulated count arrays
    keyed by metric tag ("turnout", "result") of the reducer's group.
    mode "stack" keeps one row per iteration; mode "sum" accumulates
    elementwise totals. reduce() must be pure and must not mutate
    shared state: the same instance runs concurrently in forked
    workers.
    """

    out_shape: tuple[int, ...] = ()
    dtype: np.dtype = np.dtype(np.int64)
    mode: str = "stack"
    group: int = 0  # index of the station-set group this reducer reads

    def reduce(
        self, iteration_index: int, counts: Mapping[str, np.ndarray]
    ) -> np.ndarray:
        raise NotImplementedError


# Worker payload, installed in the parent immediately before the pool
# forks so children inherit it without pickling.
_ACTIVE: dict | None = None

# The group this process holds, as (index, samplers). One slot: a
# process drops its group before it builds the next.
_HELD: tuple[int, dict[str, DatasetSampler]] | None = None


def _build(group: Group) -> dict[str, DatasetSampler]:
    samplers = dict(group() if callable(group) else group)
    if not samplers:
        raise ValueError("at least one sampler is required")
    if len({s.n_stations for s in samplers.values()}) != 1:
        raise ValueError("all samplers of a group must cover the same station set")
    return samplers


def _hold(g: int) -> dict[str, DatasetSampler]:
    global _HELD
    if _HELD is None or _HELD[0] != g:
        _HELD = None  # free the old group's tables before building the next
        _HELD = (g, _build(_ACTIVE["groups"][g]))
    return _HELD[1]


def _run_chunk(
    samplers: Samplers,
    reducers: Sequence[Reducer],
    master_seed: int,
    start: int,
    end: int,
) -> list[np.ndarray]:
    tags = sorted(samplers)
    stacks: list[list[np.ndarray] | None] = []
    sums: list[np.ndarray | None] = []
    for r in reducers:
        if r.mode == "sum":
            stacks.append(None)
            sums.append(np.zeros(r.out_shape, dtype=r.dtype))
        else:
            stacks.append([])
            sums.append(None)

    for it in range(start, end):
        counts = {tag: samplers[tag].draw(master_seed, it) for tag in tags}
        for j, r in enumerate(reducers):
            val = r.reduce(it, counts)
            if r.mode == "sum":
                sums[j] += val
            else:
                stacks[j].append(np.asarray(val, dtype=r.dtype))

    return [
        sums[j] if r.mode == "sum" else np.stack(stacks[j])
        for j, r in enumerate(reducers)
    ]


def _fold(reducers: Sequence[Reducer], parts: list[list[np.ndarray]]) -> list[np.ndarray]:
    """One array per reducer from its block results, in block order."""
    out = []
    for j, r in enumerate(reducers):
        blocks = [p[j] for p in parts]
        if r.mode == "sum":
            total = np.zeros(r.out_shape, dtype=r.dtype)
            for b in blocks:  # fold in block order: fixed summation tree
                total += b
            out.append(total)
        else:
            out.append(np.concatenate(blocks, axis=0))
    return out


def _task(task: tuple[int, int, int]) -> list[np.ndarray]:
    """Group g's blocks in [start, end), folded in block order."""
    g, start, end = task
    samplers = _hold(g)
    reducers = _ACTIVE["reducers"][g]
    seed = _ACTIVE["master_seed"]
    return _fold(reducers, [
        _run_chunk(samplers, reducers, seed, s, min(s + CHUNK_ITERATIONS, end))
        for s in range(start, end, CHUNK_ITERATIONS)
    ])


def default_workers() -> int:
    return os.cpu_count() or 1


def run_simulation(
    groups: Sequence[Group],
    reducers: Sequence[Reducer],
    iterations: int,
    master_seed: int,
    workers: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> list[np.ndarray]:
    """Run the null simulation and return one array per reducer.

    groups lists the station sets; each is a mapping of metric tag to
    sampler, or a zero-argument callable returning one (built where
    the schedule puts it, see the module docstring). reducers[j] reads
    groups[reducers[j].group]. Stack-mode reducers yield shape
    (iterations, *out_shape) with row i holding iteration i; sum-mode
    reducers yield shape out_shape. The result depends only on
    (groups, reducers, iterations, master_seed), never on workers.
    progress(done, total) counts iterations over all groups and ends
    at done == total == len(groups) * iterations.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if isinstance(groups, Mapping) or not groups:
        raise ValueError("groups must be a non-empty sequence of sampler groups")
    n_groups = len(groups)
    for r in reducers:
        if not 0 <= r.group < n_groups:
            raise ValueError(f"reducer group {r.group} is not one of {n_groups} groups")
    members = [[j for j, r in enumerate(reducers) if r.group == g] for g in range(n_groups)]
    by_group = [[reducers[j] for j in idx] for idx in members]

    n_blocks = -(-iterations // CHUNK_ITERATIONS)
    seed = int(master_seed)
    if workers is None:
        workers = default_workers()
    # several groups run as one range each, built in the worker that runs
    # it, so a worker beyond the group count would idle; only a lone
    # group is split into its blocks
    workers = max(1, min(int(workers), n_groups if n_groups > 1 else n_blocks))
    if workers > 1 and "fork" not in multiprocessing.get_all_start_methods():
        print(
            "note: the 'fork' start method is not available here; running with one worker",
            file=sys.stderr,
            flush=True,
        )
        workers = 1
    step = iterations if workers > 1 and n_groups > 1 else CHUNK_ITERATIONS
    tasks = [
        (g, s, min(s + step, iterations))
        for g in range(n_groups)
        for s in range(0, iterations, step)
    ]

    global _ACTIVE, _HELD
    _ACTIVE = {"groups": list(groups), "reducers": by_group, "master_seed": seed}
    pool = None
    total = n_groups * iterations
    done = 0
    folded: list[list[np.ndarray]] = []
    parts: list[list[np.ndarray]] = []
    try:
        if workers == 1:
            results = map(_task, tasks)
        else:
            # every simulation draws through scipy.special: load it once
            # here instead of once per forked worker
            import scipy.special  # noqa: F401

            if n_groups == 1:
                _hold(0)  # shared copy-on-write by the forked workers
            ctx = multiprocessing.get_context("fork")
            pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
            results = pool.map(_task, tasks)
        # results come in task order, so a group's ranges arrive in block
        # order. Refolding a lone range adds it to +0.0 zeros: the identity,
        # because a fold that starts at +0.0 can never hold -0.0.
        for (g, s, e), part in zip(tasks, results):
            parts.append(part)
            done += e - s
            if progress is not None:
                progress(done, total)
            if e == iterations:
                folded.append(_fold(by_group[g], parts))
                parts = []
    finally:
        if pool is not None:
            pool.shutdown()
        _ACTIVE = None
        _HELD = None

    out: list[np.ndarray | None] = [None] * len(reducers)
    for idx, arrays in zip(members, folded):
        for j, arr in zip(idx, arrays):
            out[j] = arr
    return out
