"""The four benchmark workloads: inputs made from a seed, and CLI sessions.

Each workload is a closed loop: one client process runs the session's
``pollheap`` invocations one after another, each waiting for the
previous one to exit.  Simulation workers never exceed the host's two
cores.  Inputs are written by ``pollheap simulate`` (and, for the
``es`` export, converted by this file) before any timing starts.

Station counts are scaled so that every run, with its repeated sessions
and set-up probes, fits the benchmark's time budget; the per-station
costs they exercise are the country-scale ones (see README.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 1
ITERATIONS = 100  # the CLI's minimum for every Monte Carlo command
INVALID_ROWS = 24  # malformed rows written into the es export

# stations per input: (full, smoke)
_STATIONS = {
    "analyze_binomial": (20_000, 300),
    "analyze_betabinom": (10_000, 300),
    "localize": (4_000, 300),
    "ingest_report": (30_000, 300),
}

ES_HEADER = ("mesa_id", "provincia", "censo", "votos_nulos", "votos_blanco",
             "votos_validos", "votos_lider")

Run = Callable[[list[str]], None]  # runs one CLI invocation in the work dir


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[Run, Path, int], None]  # (run, work dir, seed)
    session: Callable[[int], list[list[str]]]  # seed -> argv of each invocation
    mc_iterations: int  # sum of --iterations over the session's MC invocations
    checks: Callable[[list[dict]], list[str]] = lambda summaries: []


def _simulate(run: Run, work: Path, dest: str, stations: int, seed: int, *fraud: str) -> None:
    """pollheap simulate into a scratch directory, then move the TSV to dest."""
    run(["simulate", "--out", "gen", "--stations", str(stations), "--regions", "8",
         "--seed", str(seed), *fraud])
    target = work / dest
    target.parent.mkdir(parents=True, exist_ok=True)
    (work / "gen" / "election.tsv").replace(target)


_ROUNDING = ("--fraud-mechanism", "integer_rounding", "--fraud-fraction", "0.02")
_FORMATS = ("--format", "csv,json,svg")


def _write_es_export(src: Path, dest: Path, seed: int) -> None:
    """Rewrite a canonical TSV in the es profile, with INVALID_ROWS malformed rows.

    given = nulos + blanco + validos and cast = blanco + validos, so the
    es loader's derived sums give back the canonical counts.  Malformed
    rows cycle through a non-integer count, a short row, an empty station
    id and a duplicate station id; each replaces one data row.
    """
    lines = src.read_text(encoding="utf-8").splitlines()[1:]
    rows = []
    for line in lines:
        sid, region, _, registered, given, cast, leader = line.split("\t")
        g, c, lead = int(given), int(cast), int(leader)
        blank = (c - lead) // 7
        rows.append([sid, region, registered, str(g - c), str(blank), str(c - blank), leader])
    bad = sorted(random.Random(seed).sample(range(1, len(rows)), INVALID_ROWS))
    for i, r in enumerate(bad):
        kind = i % 4
        if kind == 0:
            rows[r][2] = rows[r][2] + "x"
        elif kind == 1:
            rows[r] = rows[r][:4]
        elif kind == 2:
            rows[r][0] = ""
        else:
            rows[r][0] = rows[0][0]
    out = ["\t".join(ES_HEADER)] + ["\t".join(r) for r in rows]
    dest.write_text("\n".join(out) + "\n", encoding="utf-8")


def _prepare_country(run, work, seed, stations):
    _simulate(run, work, "data/country.tsv", stations, seed, *_ROUNDING)


def _analyze_binomial(seed):
    return [["analyze", "--input", "data/country.tsv", "--out", "out/analyze",
             "--iterations", str(ITERATIONS), "--seed", str(seed),
             "--window", "0.05,0.1,0.2,0.5", "--workers", "1", *_FORMATS]]


def _analyze_betabinom(seed):
    return [["analyze", "--input", "data/country.tsv", "--out", "out/analyze",
             "--iterations", str(ITERATIONS), "--seed", str(seed),
             "--model", "beta-binomial", "--workers", "1", *_FORMATS]]


_LOCAL_INPUTS = ["data/clean.tsv", "data/taint_a.tsv", "data/taint_b.tsv"]


def _prepare_localize(run, work, seed, stations):
    _simulate(run, work, "data/clean.tsv", stations, seed)
    taint = ("--fraud-mechanism", "integer_rounding", "--fraud-fraction", "0.05")
    _simulate(run, work, "data/taint_a.tsv", stations, seed + 1, *taint,
              "--fraud-regions", "R01,R02")
    _simulate(run, work, "data/taint_b.tsv", stations, seed + 2, *taint,
              "--fraud-regions", "R05")


def _localize(seed):
    mc = ["--iterations", str(ITERATIONS), "--seed", str(seed), "--workers", "2", *_FORMATS]
    return [
        ["histogram", "--input", *_LOCAL_INPUTS, "--out", "out/histogram", *mc],
        ["spectrum", "--input", "data/taint_a.tsv", "--out", "out/spectrum", *mc],
        ["regions", "--input", *_LOCAL_INPUTS, "--out", "out/regions",
         "--exclude-top", "2", *mc],
    ]


def _prepare_ingest(run, work, seed, stations):
    _simulate(run, work, "data/base.tsv", stations, seed)
    _simulate(run, work, "gen/es_source.tsv", stations, seed + 2, *_ROUNDING)
    _write_es_export(work / "gen" / "es_source.tsv", work / "data" / "export_es.tsv", seed)


def _ingest_report(seed, stations):
    fresh = "out/fresh/election.tsv"
    return [
        ["simulate", "--out", "out/fresh", "--stations", str(stations), "--regions", "8",
         "--seed", str(seed + 1), *_ROUNDING],
        ["validate", "--input", fresh, "data/base.tsv", "--out", "out/validate"],
        ["validate", "--profile", "es", "--input", "data/export_es.tsv",
         "--out", "out/validate_es"],
        ["fingerprint", "--profile", "es", "--input", "data/export_es.tsv",
         "--out", "out/fingerprint", *_FORMATS],
        ["histogram", "--input", fresh, "data/base.tsv", "--iterations", "0", "--average",
         "--out", "out/histogram", *_FORMATS],
    ]


def _ingest_checks(summaries):
    invalid = summaries[2]["results"][0]["invalid"]
    if invalid != INVALID_ROWS:
        return [f"validate --profile es reported {invalid} invalid rows, wrote {INVALID_ROWS}"]
    return []


def workloads(smoke: bool = False) -> dict[str, Workload]:
    """Workload name -> definition, at full or smoke-test station counts."""

    def n(name):
        return _STATIONS[name][1 if smoke else 0]

    n_ingest = n("ingest_report")
    return {
        w.name: w
        for w in (
            Workload(
                "analyze_binomial",
                lambda run, work, seed: _prepare_country(run, work, seed, n("analyze_binomial")),
                _analyze_binomial,
                ITERATIONS,
            ),
            Workload(
                "analyze_betabinom",
                lambda run, work, seed: _prepare_country(run, work, seed, n("analyze_betabinom")),
                _analyze_betabinom,
                ITERATIONS,
            ),
            Workload(
                "localize",
                lambda run, work, seed: _prepare_localize(run, work, seed, n("localize")),
                _localize,
                3 * ITERATIONS,
            ),
            Workload(
                "ingest_report",
                lambda run, work, seed: _prepare_ingest(run, work, seed, n_ingest),
                lambda seed: _ingest_report(seed, n_ingest),
                0,
                _ingest_checks,
            ),
        )
    }
