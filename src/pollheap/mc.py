"""Chunked Monte Carlo driver with schedule-independent results.

A run simulates one or more groups. A group is one station set: the
samplers of its metrics, given either built or as a zero-argument
builder that returns them. Each group has one reducer, which turns
every iteration's draws into int64 counts, and draws are keyed by
(seed, iteration, metric) within their group, so a group simulated
alongside others draws exactly what it would draw alone.

The work is a list of tasks (group, start, end), each a range of one
group's iterations. A task makes sure its process holds the group: a
one-slot cache that drops the previous group's samplers before it
builds the next. It folds each iteration's counts into one array as
it is made: a stack-mode reducer copies its row into a preallocated
(iterations, *out_shape) array, a sum-mode reducer adds it to one
total. The parent folds each group's range results the same way, in
task order. Integer sums are exact in any order, so the output
depends neither on the worker count nor on the range size; a float
result is refused, not truncated.

A pool over several groups gets one range per group, so each group is
built by the one worker that simulates it. Every other pass gets one
range per CHUNK_ITERATIONS iterations; a lone group over several
workers is built in this process before the fork and shared
copy-on-write.

Once a group's fold is complete, Reducer.finish (if set) turns the
folded array into the reducer's result. It runs where the fold
completes: in the worker when a pool over several groups gives it the
group's whole range, so only finished results come back, and in the
parent otherwise.

Worker processes are always forked. Where the platform has no "fork"
start method, the run uses one worker and says so on stderr.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .model import check_seed
from .sampling import DatasetSampler

__all__ = ["CHUNK_ITERATIONS", "Reducer", "run_simulation", "default_workers"]

# Iterations per task when a group is split into ranges, and so the
# step of progress reports. The output does not depend on it.
CHUNK_ITERATIONS = 32

Samplers = Mapping[str, DatasetSampler]
Group = Union[Samplers, Callable[[], Samplers]]


@dataclass(frozen=True)
class Reducer:
    """Per-iteration reduction of one group's simulated counts.

    reduce(iteration_index, counts) receives a dict of the group's
    simulated numerator arrays keyed by metric name (model.METRICS) and
    returns int64 counts of shape out_shape. mode "stack" keeps one row
    per iteration; mode "sum" accumulates elementwise totals. finish,
    if given, maps the folded array to the reducer's result. Both run
    concurrently in forked workers, so they must be pure and must not
    depend on which process runs them.
    """

    reduce: Callable[[int, Mapping[str, np.ndarray]], np.ndarray]
    out_shape: tuple[int, ...]
    mode: str = "stack"
    finish: Callable[[np.ndarray], object] | None = None


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
    """Running int64 fold of one reducer over iterations [start, end)."""

    def __init__(self, reducer: Reducer, start: int, end: int):
        self.reducer = reducer
        self.start = start
        if reducer.mode == "sum":
            self.array = np.zeros(reducer.out_shape, np.int64)
        else:
            self.array = np.empty((end - start, *reducer.out_shape), np.int64)

    def add(self, start: int, end: int, part: np.ndarray) -> None:
        """Fold in iterations [start, end): their rows, or their sum."""
        if self.reducer.mode == "sum":
            self.array += part
        else:
            rows = self.array[start - self.start : end - self.start]
            np.copyto(rows, part, casting="same_kind")

    def finish(self):
        fin = self.reducer.finish
        return self.array if fin is None else fin(self.array)


def _task(task: tuple[int, int, int]):
    """Group g's iterations [start, end), folded as they are made.

    A range that is the group's whole run comes back finished.
    """
    g, start, end = task
    samplers = _hold(g)
    tags = sorted(samplers)
    reducer, seed = _ACTIVE["reducers"][g], _ACTIVE["master_seed"]
    fold = _Fold(reducer, start, end)
    for it in range(start, end):
        counts = {tag: samplers[tag].draw(seed, it) for tag in tags}
        fold.add(it, it + 1, reducer.reduce(it, counts))
    if end - start == _ACTIVE["iterations"]:
        return fold.finish()
    return fold.array


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
    """Run the null simulation and return one result per group.

    groups lists the station sets; each is a mapping of metric tag to
    sampler, or a zero-argument callable returning one (built where
    the schedule puts it, see the module docstring). reducers[g] reads
    groups[g]. A stack-mode reducer yields shape (iterations,
    *out_shape) with row i holding iteration i; a sum-mode reducer
    yields shape out_shape; a reducer with a finish yields what finish
    returns. The result depends only on (groups, reducers, iterations,
    master_seed), never on workers or CHUNK_ITERATIONS. master_seed
    must be in [0, 2**32). progress(done, total) counts iterations
    over all groups and ends at done == total == len(groups) *
    iterations.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if isinstance(groups, Mapping) or not groups:
        raise ValueError("groups must be a non-empty sequence of sampler groups")
    n_groups = len(groups)
    if len(reducers) != n_groups:
        raise ValueError(f"{len(reducers)} reducers for {n_groups} groups; one per group")
    seed = check_seed(master_seed)

    n_chunks = -(-iterations // CHUNK_ITERATIONS)
    if workers is None:
        workers = default_workers()
    # several groups run as one range each, built in the worker that runs
    # it, so a worker beyond the group count would idle; only a lone
    # group is split into chunks
    workers = max(1, min(int(workers), n_groups if n_groups > 1 else n_chunks))
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
        "groups": list(groups), "reducers": list(reducers), "master_seed": seed,
        "iterations": iterations,
    }
    pool = None
    total = n_groups * iterations
    done = 0
    out: list = [None] * n_groups
    try:
        if workers == 1:
            results = map(_task, tasks)
        else:
            if n_groups == 1:
                _hold(0)  # shared copy-on-write by the forked workers
            ctx = multiprocessing.get_context("fork")
            pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
            results = pool.map(_task, tasks)
        # results come in task order, so a group's ranges arrive in
        # order and are folded as they come. Each is taken with next(): a
        # zip would keep the last one alive while the next task runs.
        fold = None
        for g, s, e in tasks:
            part = next(results)
            done += e - s
            if progress is not None:
                progress(done, total)
            if e - s == iterations:  # the task ran and finished the whole run
                out[g] = part
                continue
            if s == 0:
                fold = _Fold(reducers[g], 0, iterations)
            fold.add(s, e, part)
            part = None
            if e == iterations:
                out[g], fold = fold.finish(), None
    finally:
        if pool is not None:
            pool.shutdown()
        _ACTIVE = None
        _HELD = None
    return out
