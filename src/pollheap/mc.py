"""Chunked Monte Carlo driver with schedule-independent results.

A run simulates one or more groups. A group is one station set: the
samplers of its metrics, given either built or as a zero-argument
builder that returns them. Every reducer belongs to one group, and
draws are keyed by (seed, iteration, metric) within their group, so a
group simulated alongside others draws exactly what it would draw
alone.

Iterations are cut into fixed blocks of CHUNK_ITERATIONS. Each reducer
folds its group's block results in block order, into a running total
as they arrive: a sum-mode reducer adds each block's total to one
array, a stack-mode reducer copies its rows into one preallocated
(iterations, *out_shape) array. Because the block boundaries and the
fold order never depend on the worker count, every reduction
(including floating-point sums) follows the same arithmetic tree and
the output is bit-identical whether the run used one process or
twenty.

The work is a list of tasks (group, start, end), each a range of one
group's blocks. A task makes sure its process holds the group: a
one-slot cache that drops the previous group's samplers before it
builds the next. It runs the blocks of its range and folds them, and
the parent folds each group's range results in task order. A pool over
several groups gets one range per group, so each group is built by
the one worker that simulates it. Every other pass gets one range per
block; a lone group over several workers is built in this process
before the fork and shared copy-on-write.

Once a reducer's fold is complete, Reducer.finish turns the folded
array into the reducer's result (the array itself unless a subclass
says otherwise). It runs where the fold completes: in the worker when
a pool over several groups gives it the group's whole range, so only
finished results come back, and in the parent otherwise.

Worker processes are always forked. Where the platform has no "fork"
start method, the run uses one worker and says so on stderr.
"""

from __future__ import annotations

import os
import sys
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
    receives the iteration index and a dict of simulated numerator
    arrays of the reducer's group, keyed by metric name (model.METRICS).
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

    def finish(self, folded: np.ndarray):
        """The reducer's result from its folded array; the array itself here.

        Runs once per run, in the process that completes the fold (see
        the module docstring), so like reduce() it must not depend on
        which process that is.
        """
        return folded


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


class _Fold:
    """Running fold of one group's reducers over iterations [start, end).

    A stack-mode array is allocated whole and filled row by row. A
    sum-mode total is the first block's own total, to which each later
    block's total is added in block order. Every block total starts at
    +0.0 zeros, so it never holds -0.0 and taking it as is equals
    adding it to zeros: a range folded from its blocks and a run folded
    from its ranges follow the same summation tree.
    """

    def __init__(self, reducers: Sequence[Reducer], start: int, end: int):
        self.reducers = reducers
        self.start = start
        self.arrays = [
            None if r.mode == "sum" else np.empty((end - start, *r.out_shape), r.dtype)
            for r in reducers
        ]

    def _sum(self, j: int, total: np.ndarray) -> None:
        if self.arrays[j] is None:
            self.arrays[j] = total
        else:
            self.arrays[j] += total

    def add(self, start: int, parts: Sequence[np.ndarray]) -> None:
        """Fold in the result of the range that begins at iteration start."""
        for j, (r, part) in enumerate(zip(self.reducers, parts)):
            if r.mode == "sum":
                self._sum(j, part)
            else:
                self.arrays[j][start - self.start : start - self.start + len(part)] = part

    def run_block(self, samplers: Samplers, master_seed: int, start: int, end: int) -> None:
        """Simulate the iterations [start, end) of one block and fold them in."""
        tags = sorted(samplers)
        totals = [np.zeros(r.out_shape, r.dtype) if r.mode == "sum" else None for r in self.reducers]
        for it in range(start, end):
            counts = {tag: samplers[tag].draw(master_seed, it) for tag in tags}
            for r, rows, total in zip(self.reducers, self.arrays, totals):
                val = r.reduce(it, counts)
                if total is None:
                    rows[it - self.start] = val
                else:
                    total += val
        for j, total in enumerate(totals):
            if total is not None:
                self._sum(j, total)

    def finish(self) -> list:
        return [r.finish(a) for r, a in zip(self.reducers, self.arrays)]


def _task(task: tuple[int, int, int]) -> list:
    """Group g's blocks in [start, end), folded in block order.

    A range that is the group's whole run comes back finished.
    """
    g, start, end = task
    samplers = _hold(g)
    fold = _Fold(_ACTIVE["reducers"][g], start, end)
    for s in range(start, end, CHUNK_ITERATIONS):
        fold.run_block(samplers, _ACTIVE["master_seed"], s, min(s + CHUNK_ITERATIONS, end))
    if end - start == _ACTIVE["iterations"]:
        return fold.finish()
    return fold.arrays


def default_workers() -> int:
    return os.cpu_count() or 1


def run_simulation(
    groups: Sequence[Group],
    reducers: Sequence[Reducer],
    iterations: int,
    master_seed: int,
    workers: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> list:
    """Run the null simulation and return one result per reducer.

    groups lists the station sets; each is a mapping of metric tag to
    sampler, or a zero-argument callable returning one (built where
    the schedule puts it, see the module docstring). reducers[j] reads
    groups[reducers[j].group]. Stack-mode reducers yield shape
    (iterations, *out_shape) with row i holding iteration i; sum-mode
    reducers yield shape out_shape; a reducer whose finish() is not the
    identity yields what finish returns. The result depends only on
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
    if workers > 1:
        # only a pool needs these, so a one-worker run never loads them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" not in multiprocessing.get_all_start_methods():
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
    _ACTIVE = {
        "groups": list(groups), "reducers": by_group, "master_seed": seed,
        "iterations": iterations,
    }
    pool = None
    total = n_groups * iterations
    done = 0
    out: list = [None] * len(reducers)
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
        # order and are folded as they come. Each is taken with next(): a
        # zip would keep the last one alive while the next task runs.
        fold = None
        for g, s, e in tasks:
            part = next(results)
            done += e - s
            if progress is not None:
                progress(done, total)
            if e - s == iterations:  # the task ran and finished the whole run
                finished = part
            else:
                if s == 0:
                    fold = _Fold(by_group[g], 0, iterations)
                fold.add(s, part)
                part = None
                if e < iterations:
                    continue
                finished, fold = fold.finish(), None
            for j, value in zip(members[g], finished):
                out[j] = value
    finally:
        if pool is not None:
            pool.shutdown()
        _ACTIVE = None
        _HELD = None
    return out
