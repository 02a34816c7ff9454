"""The Monte Carlo driver: groups, schedules and worker-count invariance."""

import concurrent.futures
import multiprocessing
import os
import tracemalloc
import weakref

import numpy as np
import pytest

import pollheap.mc as mc
from pollheap.mc import CHUNK_ITERATIONS, Reducer, run_simulation
from pollheap.sampling import make_sampler

from helpers import random_counts


def _draws(metric, n):
    """Stack mode: the simulated counts of one metric."""
    return Reducer(lambda it, counts: counts[metric], (n,))


def _share(metric, den, finish=None):
    """Sum mode: each station's draw weighted by its iteration."""
    return Reducer(lambda it, counts: counts[metric] * (it + 1) - den, den.shape, "sum", finish)


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
    """One reducer per group, alternating stack and sum."""
    return [
        _draws("result", len(v)) if k % 2 == 0 else _share("turnout", v)
        for k, (v, g, b, l) in enumerate(sets)
    ]


def _bits(arrays):
    return [a.tobytes() for a in arrays]


ITERATIONS = 3 * CHUNK_ITERATIONS + 5  # a short last block


def test_groups_draw_what_they_draw_alone():
    sets = _station_sets()
    reducers = _reducers(sets)
    together = run_simulation([_builder(c) for c in sets], reducers, ITERATIONS, 8, workers=1)
    for k, c in enumerate(sets):
        alone = run_simulation([_builder(c)], [reducers[k]], ITERATIONS, 8, workers=1)
        assert _bits(together[k : k + 1]) == _bits(alone)


@pytest.mark.parametrize("workers", [2, 3, 4, 8])
@pytest.mark.parametrize(
    "n_groups, iterations",  # block tasks, group tasks; then less than one block
    [(1, ITERATIONS), (3, ITERATIONS), (1, 5), (3, 5)],
    ids=["1", "3", "1-5iter", "3-5iter"],
)
def test_every_schedule_gives_the_same_bits(n_groups, iterations, workers):
    sets = _station_sets()[:n_groups]
    reducers = _reducers(sets)
    ref = run_simulation([_builder(c) for c in sets], reducers, iterations, 8, workers=1)
    got = run_simulation([_builder(c) for c in sets], reducers, iterations, 8, workers=workers)
    assert _bits(got) == _bits(ref)
    built = [_builder(c)() for c in sets]  # groups may also be passed built
    assert _bits(run_simulation(built, reducers, iterations, 8, workers=workers)) == _bits(ref)


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


def _pid_finish(pid_log):
    """Records the pid that finishes it, and returns the folded sum doubled."""

    def finish(folded):
        with open(pid_log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return ("finished", folded * 2)

    return finish


@pytest.mark.parametrize(
    "n_groups, workers, in_parent",
    [(3, 1, True), (3, 2, False), (3, 3, False), (3, 4, False), (3, 8, False),
     (2, 8, False), (1, 1, True), (1, 3, True)],
)
def test_finish_runs_where_the_schedule_says(tmp_path, n_groups, workers, in_parent):
    sets = _station_sets()[:n_groups]
    log = tmp_path / "pids.txt"
    reducers = [_share("turnout", c[0], _pid_finish(log)) for c in sets]
    got = run_simulation(
        [_builder(c) for c in sets], reducers, ITERATIONS, 8, workers=workers
    )
    plain = run_simulation(
        [_builder(c) for c in sets], [_share("turnout", c[0]) for c in sets],
        ITERATIONS, 8, workers=1,
    )
    assert [tag for tag, _ in got] == ["finished"] * n_groups
    assert _bits(a for _, a in got) == _bits(a * 2 for a in plain)
    pids = [int(p) for p in log.read_text().split()]
    assert len(pids) == n_groups  # every reducer finished exactly once
    if in_parent:
        assert set(pids) == {os.getpid()}
    else:
        assert os.getpid() not in pids


def test_failing_finish_in_a_worker_raises_and_clears_the_state():
    sets = _station_sets()

    def broken(folded):
        raise RuntimeError("finish failed")

    reducers = [_share("turnout", sets[0][0]), _share("turnout", sets[1][0], broken),
                _share("turnout", sets[2][0])]
    with pytest.raises(RuntimeError, match="finish failed"):
        run_simulation([_builder(c) for c in sets], reducers, ITERATIONS, 8, workers=2)
    assert mc._ACTIVE is None
    assert mc._HELD is None


def test_one_worker_folds_blocks_as_they_arrive():
    # 24 blocks of a 2 MB sum: keeping every block result until the last
    # would hold 48 MB. A running fold holds four at most: the run's
    # total, the current block's total, and the last reduce() result
    # while the next one is made
    (v, g, b, l), = _station_sets()[:1]
    size = 250_000
    reducer = Reducer(
        lambda it, counts: np.full(size, counts["turnout"].sum(), np.int64), (size,), "sum"
    )
    samplers = {"turnout": make_sampler(v, g, "binomial", "turnout")}
    out_bytes = reducer.out_shape[0] * 8
    tracemalloc.start()
    try:
        (total,) = run_simulation([samplers], [reducer], 24 * CHUNK_ITERATIONS, 8, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total.shape == reducer.out_shape
    assert peak < 5 * out_bytes, peak / out_bytes


def test_one_worker_holds_one_group_at_a_time():
    sets = _station_sets()
    finalizers = []

    def builder(counts):
        def build():
            assert not any(f.alive for f in finalizers), "an earlier group is still alive"
            samplers = _builder(counts)()
            finalizers.extend(weakref.finalize(s, lambda: None) for s in samplers.values())
            return samplers

        return build

    run_simulation([builder(c) for c in sets], _reducers(sets), ITERATIONS, 8, workers=1)
    assert len(finalizers) == 2 * len(sets)
    assert not any(f.alive for f in finalizers)


def test_failing_builder_in_a_worker_raises_and_clears_the_state():
    sets = _station_sets()

    def broken():
        raise RuntimeError("builder failed")

    groups = [_builder(sets[0]), broken, _builder(sets[2])]
    with pytest.raises(RuntimeError, match="builder failed"):
        run_simulation(groups, _reducers(sets), ITERATIONS, 8, workers=2)
    assert mc._ACTIVE is None
    assert getattr(mc, "_HELD", None) is None


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

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
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
    draws = _draws("result", 40)
    with pytest.raises(ValueError, match="one per group"):
        run_simulation([_builder(sets[0])], [draws, draws], 10, 1)
    with pytest.raises(ValueError, match="one per group"):
        run_simulation([_builder(sets[0]), _builder(sets[0])], [draws], 10, 1)
    with pytest.raises(ValueError):
        run_simulation([_builder(sets[0])], [draws], 0, 1)
    mixed = {"turnout": _builder(sets[0])()["turnout"], "result": _builder(sets[1])()["result"]}
    with pytest.raises(ValueError, match="same station set"):
        run_simulation([mixed], [draws], 10, 1, workers=1)


def test_seed_outside_one_word_rejected():
    # SeedSequence would split 2**32 + 5 into the words (5, 1), the key
    # of seed 5's iteration 1
    (v, g, b, l), = _station_sets()[:1]
    group, reducer = _builder((v, g, b, l)), _draws("result", len(v))
    for seed in (-1, 2**32, 2**32 + 5):
        with pytest.raises(ValueError, match="seed"):
            run_simulation([group], [reducer], 10, seed, workers=1)
    (top,) = run_simulation([group], [reducer], 2, 2**32 - 1, workers=1)
    assert top.shape == (2, len(v))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", ["stack", "sum"])
def test_float_rows_are_refused_not_truncated(mode, workers):
    (counts,) = _station_sets()[:1]
    halves = Reducer(lambda it, c: c["turnout"] / 2.0, (len(counts[0]),), mode)
    with pytest.raises(TypeError, match="float64"):
        run_simulation([_builder(counts)], [halves], ITERATIONS, 8, workers=workers)
    assert mc._ACTIVE is None
    assert mc._HELD is None


def test_output_does_not_depend_on_the_chunk_size(monkeypatch):
    # integer folds are exact in any order, so neither the range size
    # nor the worker count shows in the bits
    sets = _station_sets()
    v = sets[0][0]
    runs = [
        (groups, reducers, iterations)
        for iterations in (5, 101)
        for groups, reducers in [
            (sets[:1], [_draws("result", len(v))]),
            (sets[:1], [_share("turnout", v)]),
            (sets, _reducers(sets)),  # stack, sum, stack
        ]
    ]

    def bits(run, workers):
        groups, reducers, iterations = run
        return _bits(run_simulation(
            [_builder(c) for c in groups], reducers, iterations, 8, workers=workers
        ))

    ref = [bits(run, 1) for run in runs]
    for chunk in (1, 7, 32, 1000):
        monkeypatch.setattr(mc, "CHUNK_ITERATIONS", chunk)
        for workers in (1, 2, 3):
            assert [bits(run, workers) for run in runs] == ref, (chunk, workers)
