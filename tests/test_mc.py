"""The Monte Carlo driver: groups, schedules and worker-count invariance."""

import os

import numpy as np
import pytest

import pollheap.mc as mc
from pollheap.mc import CHUNK_ITERATIONS, Reducer, run_simulation
from pollheap.sampling import make_sampler

from helpers import random_counts


class _Draws(Reducer):
    """Stack mode: the simulated counts of one metric."""

    def __init__(self, metric, n, group):
        self.metric = metric
        self.out_shape = (n,)
        self.group = group

    def reduce(self, iteration_index, counts):
        return counts[self.metric]


class _Share(Reducer):
    """Sum mode in float64, so the fold order shows in the bits."""

    mode = "sum"
    dtype = np.dtype(np.float64)

    def __init__(self, metric, den, group):
        self.metric = metric
        self.den = den
        self.out_shape = den.shape
        self.group = group

    def reduce(self, iteration_index, counts):
        return counts[self.metric] / self.den / 3.0


def _station_sets():
    rng = np.random.default_rng(5)
    return [random_counts(rng, n) for n in (40, 25, 60)]


def _builder(counts, pid_log=None):
    v, g, b, l = counts

    def build():
        if pid_log is not None:
            with open(pid_log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
        return {
            "turnout": make_sampler(v, g, "binomial", "turnout"),
            "result": make_sampler(b, l, "binomial", "result"),
        }

    return build


def _reducers(sets):
    out = []
    for k, (v, g, b, l) in enumerate(sets):
        out += [_Draws("result", len(v), k), _Share("turnout", v, k)]
    return out


def _bits(arrays):
    return [a.tobytes() for a in arrays]


ITERATIONS = 3 * CHUNK_ITERATIONS + 5  # a short last block


def test_groups_draw_what_they_draw_alone():
    sets = _station_sets()
    together = run_simulation(
        [_builder(c) for c in sets], _reducers(sets), ITERATIONS, 8, workers=1
    )
    for k, c in enumerate(sets):
        alone = run_simulation(
            [_builder(c)], [_Draws("result", len(c[0]), 0), _Share("turnout", c[0], 0)],
            ITERATIONS, 8, workers=1,
        )
        assert _bits(together[2 * k : 2 * k + 2]) == _bits(alone)


@pytest.mark.parametrize("workers", [2, 3, 4, 8])
@pytest.mark.parametrize("n_groups", [1, 3])  # block tasks, group tasks
def test_every_schedule_gives_the_same_bits(n_groups, workers):
    sets = _station_sets()[:n_groups]
    reducers = _reducers(sets)
    ref = run_simulation([_builder(c) for c in sets], reducers, ITERATIONS, 8, workers=1)
    got = run_simulation([_builder(c) for c in sets], reducers, ITERATIONS, 8, workers=workers)
    assert _bits(got) == _bits(ref)
    built = [_builder(c)() for c in sets]  # groups may also be passed built
    assert _bits(run_simulation(built, reducers, ITERATIONS, 8, workers=workers)) == _bits(ref)


@pytest.mark.parametrize(
    "n_groups, workers, in_parent",
    [(3, 1, True), (3, 2, False), (3, 3, False), (3, 4, False), (3, 8, False),
     (2, 8, False), (1, 1, True), (1, 3, True)],
)
def test_tables_are_built_where_the_schedule_says(tmp_path, n_groups, workers, in_parent):
    sets = _station_sets()[:n_groups]
    log = tmp_path / "pids.txt"
    run_simulation(
        [_builder(c, log) for c in sets], _reducers(sets), ITERATIONS, 8, workers=workers
    )
    pids = [int(p) for p in log.read_text().split()]
    assert len(pids) == len(sets)  # every group built exactly once
    if in_parent:
        assert set(pids) == {os.getpid()}
    else:
        assert os.getpid() not in pids


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_progress_is_monotone_and_complete(workers):
    sets = _station_sets()
    seen = []
    run_simulation(
        [_builder(c) for c in sets], _reducers(sets), ITERATIONS, 8, workers=workers,
        progress=lambda done, total: seen.append((done, total)),
    )
    done = [d for d, _ in seen]
    assert done == sorted(done)
    assert {t for _, t in seen} == {len(sets) * ITERATIONS}
    assert done[-1] == len(sets) * ITERATIONS


def test_without_fork_runs_one_worker_and_says_so(monkeypatch, capsys):
    sets = _station_sets()
    reducers = _reducers(sets)
    ref = run_simulation([_builder(c) for c in sets], reducers, ITERATIONS, 8, workers=1)
    assert capsys.readouterr().err == ""

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(mc.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(mc, "ProcessPoolExecutor", no_pool)
    got = run_simulation([_builder(c) for c in sets], reducers, ITERATIONS, 8, workers=3)
    assert _bits(got) == _bits(ref)
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "one worker" in err


def test_bad_groups_rejected():
    sets = _station_sets()
    with pytest.raises(ValueError):
        run_simulation([], [], 10, 1)
    with pytest.raises(ValueError):
        run_simulation(_builder(sets[0])(), [], 10, 1)  # a mapping, not a list of groups
    with pytest.raises(ValueError):
        run_simulation([_builder(sets[0])], [_Draws("result", 40, 1)], 10, 1)
    with pytest.raises(ValueError):
        run_simulation([_builder(sets[0])], [], 0, 1)
    mixed = {"turnout": _builder(sets[0])()["turnout"], "result": _builder(sets[1])()["result"]}
    with pytest.raises(ValueError):
        run_simulation([mixed], [], 10, 1, workers=1)
