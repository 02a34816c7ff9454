"""End-to-end acceptance checks for the anomaly engine.

Each test prints one verdict line of the form

    criterion N: PASS (detail)

before asserting, so `pytest -s tests/test_acceptance.py` reads as a
checklist. Every Monte Carlo draw is deterministically seeded, so a
passing run is reproducible bit for bit. The two heaviest checks (fraud
power and throughput) share one module-scoped simulation. Expect a few
minutes of wall time for the whole module on a single core.

Several runtime budgets below are stated for an 8-core desktop machine;
this module measures them on however many cores the host provides and
holds the same wall-clock bound, which is a stricter reading whenever
fewer cores are available.
"""

import contextlib
import io
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from pollheap.anomaly import (
    StatisticDef,
    WindowSpec,
    empirical_statistic,
    run_null,
    run_nulls,
    window_sweep,
)
from pollheap.cli import main as cli_main
from pollheap.histograms import WeightedHistogram, build_histogram
from pollheap.ingest import load_dataset, write_canonical_tsv
from pollheap.model import FilterPolicy, apply_filters
from pollheap.regions import fingerprint, region_peaks, restrict_regions
from pollheap.sampling import make_sampler
from pollheap.spectral import amplitude_spectrum
from pollheap.synth import (
    FraudSpec,
    GeneratorConfig,
    LogNormalSize,
    generate,
    inject_fraud,
)

import oracles


def _verdict(num, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def fraud_run():
    """One fraud-injected 1e5-station election with its full null run.

    Shared by the power check and the throughput check so the 1000
    iteration simulation over both metrics happens exactly once.
    """
    cfg = GeneratorConfig(n_stations=100_000, n_regions=8)
    clean = generate(cfg, seed=491).dataset
    tainted, log = inject_fraud(clean, FraudSpec("integer_rounding", 0.02), seed=492)
    assert log.requested == 2000
    defs = [
        (StatisticDef(), WindowSpec()),
        (StatisticDef(), WindowSpec(center_kind="half_integer")),
    ]
    start = time.perf_counter()
    reports = run_nulls(tainted, defs, "binomial", 1000, master_seed=493)
    elapsed = time.perf_counter() - start
    return tainted, reports, elapsed


def _simulated_pmf_counts(n, g, model, master_seed, stations=100_000, iterations=10):
    """Outcome tallies from stations*iterations draws of one station.

    The engine's per-station streams are position-independent, so a
    batch of identical stations is just a cheap way to vectorize many
    independent draws of the same count distribution.
    """
    den = np.full(stations, n, dtype=np.int64)
    num = np.full(stations, g, dtype=np.int64)
    sampler = make_sampler(den, num, model, "turnout")
    counts = np.zeros(n + 1, dtype=np.int64)
    for it in range(iterations):
        counts += np.bincount(sampler.draw(master_seed, it), minlength=n + 1)
    return counts


def test_criterion_01_sampler_matches_exact_pmfs():
    # station (n=15, g=9) has posterior Beta(10, 7); cluster size 3 on
    # n=14 splits into Binom(4, p) blocs plus a Binom(2, p) remainder
    cases = [
        ("binomial", 12, 5, oracles.binom_pmf(12, Fraction(5, 12))),
        ("beta_binomial", 15, 9, oracles.beta_binom_pmf(15, 10, 7)),
        ("clustered:3", 14, 8, oracles.clustered_pmf(14, 3, Fraction(8, 14))),
    ]
    start = time.perf_counter()
    worst = 0.0
    impossible_ok = True
    for i, (model, n, g, pmf) in enumerate(cases):
        counts = _simulated_pmf_counts(n, g, model, master_seed=11_000 + i)
        total = int(counts.sum())
        assert total == 1_000_000
        for k, p in enumerate(pmf):
            if p == 0:
                impossible_ok &= counts[k] == 0
                continue
            expected = float(p) * total
            se = math.sqrt(float(p) * (1.0 - float(p)) * total)
            worst = max(worst, abs(counts[k] - expected) / se)
    elapsed = time.perf_counter() - start
    ok = worst <= 3.0 and impossible_ok and elapsed < 60.0
    _verdict(1, ok, f"3 models x 1e6 draws, worst outcome deviation "
                    f"{worst:.2f} SE, {elapsed:.1f}s")
    assert ok


def test_criterion_02_gaussian_turnout_moments():
    stations, iterations = 100_000, 10
    den = np.full(stations, 1000, dtype=np.int64)
    num = np.full(stations, 600, dtype=np.int64)
    sampler = make_sampler(den, num, "binomial", "turnout")
    total = 0.0
    total_sq = 0.0
    for it in range(iterations):
        pct = sampler.draw(21_000, it) * 0.1  # 100 / V with V=1000
        total += pct.sum()
        total_sq += (pct * pct).sum()
    n_draws = stations * iterations
    mean = total / n_draws
    var = total_sq / n_draws - mean * mean
    ok = abs(mean - 60.0) <= 0.02 and abs(var - 2.4) <= 0.1
    _verdict(2, ok, f"1e6 turnout draws at V=1000, G=600: "
                    f"mean {mean:.4f} (60 +/- 0.02), var {var:.4f} (2.4 +/- 0.1)")
    assert ok


def test_criterion_03_expected_window_fraction():
    # stations large enough that the percentage grid is much finer than
    # the window, so each metric lands inside with chance ~2 * 0.05 / 1
    cfg = GeneratorConfig(
        n_stations=10_000,
        size=LogNormalSize(median=2400, sigma=0.07, low=2000, high=3000),
    )
    dataset = generate(cfg, seed=31).dataset
    q = empirical_statistic(dataset, StatisticDef(), WindowSpec())
    ratio = q / len(dataset)
    ok = 0.17 <= ratio <= 0.21
    _verdict(3, ok, f"q/n = {ratio:.4f} on 1e4 large stations at half width 0.05")
    assert ok


def test_criterion_04_null_calibration():
    runs, iterations = 50, 500
    start = time.perf_counter()
    inside = 0
    ranks = np.empty(runs)
    for j in range(runs):
        dataset = generate(GeneratorConfig(n_stations=5000), seed=41_000 + j).dataset
        report = run_null(
            dataset, StatisticDef(), WindowSpec(), "binomial",
            iterations, master_seed=42_000 + j,
        )
        low, high = report.percentile_interval
        inside += int(low <= report.empirical <= high)
        s = report.mc_samples
        # mid-rank handles ties between the empirical value and the
        # discrete MC samples; under the null it is uniform up to 1/(2R)
        ranks[j] = (
            np.count_nonzero(s < report.empirical)
            + 0.5 * np.count_nonzero(s == report.empirical)
        ) / s.size
    elapsed = time.perf_counter() - start
    ks_p = float(scipy.stats.kstest(ranks, "uniform").pvalue)
    ok = inside >= 47 and ks_p >= 0.01 and elapsed < 900.0
    _verdict(4, ok, f"box coverage {inside}/{runs}, rank KS p = {ks_p:.3f}, "
                    f"{elapsed:.0f}s")
    assert ok


def test_criterion_05_fraud_power_with_clean_control(fraud_run):
    _, (integer_report, half_report), _ = fraud_run
    max_mc = int(integer_report.mc_samples.max())
    above_all = integer_report.empirical > max_mc
    ok = (
        above_all
        and integer_report.p_is_bound
        and integer_report.p_value_bound <= 0.001
        and abs(half_report.z_score) <= 3.0
    )
    _verdict(5, ok, f"q = {integer_report.empirical:.0f} vs MC max {max_mc}, "
                    f"p {integer_report.p_value_text()}, "
                    f"half-integer control z = {half_report.z_score:+.2f}")
    assert ok


def test_criterion_06_window_sweep_ordering(fraud_run):
    tainted, _, _ = fraud_run
    widths = [Fraction(1, 20), Fraction(3, 20), Fraction(3, 10), Fraction(1, 2)]
    reports = window_sweep(
        tainted, StatisticDef(), "binomial", 200, master_seed=61, half_widths=widths
    )
    z = [r.z_score for r in reports]
    ok = z[0] > z[1] > z[2] and z[3] == 0.0
    _verdict(6, ok, "z by half width " + ", ".join(
        f"{float(w)}: {v:+.2f}" for w, v in zip(widths, z)))
    assert ok


def test_criterion_07_spectral_identities():
    rng = np.random.default_rng(71)
    worst = 0.0
    for values in (rng.normal(size=1001), rng.normal(size=1001) * (rng.random(1001) < 0.05)):
        # the spectrum's 1000 samples drop the 100% bin and are normalized by 1000
        reference = np.abs(np.asarray(oracles.dft_direct(values[:1000])))[:501] / 1000
        hist = WeightedHistogram("turnout", Fraction(1, 10), values)
        worst = max(worst, float(np.max(np.abs(amplitude_spectrum(hist).amplitudes - reference))))
    dft_ok = worst < 1e-9

    def comb_amplitudes(step):
        weights = np.zeros(1001)
        weights[::step] = 1.0
        hist = WeightedHistogram("turnout", Fraction(1, 10), weights)
        return amplitude_spectrum(hist).amplitudes

    # integer comb: harmonic family at 1, 2, .. cycles per percent
    amps = comb_amplitudes(10)
    family = np.arange(100, 501, 100)
    floor = np.delete(amps[1:], family - 1).max()
    one_ok = (
        abs(amps[100] - 0.1) < 1e-12
        and abs(amps[200] - 0.1) < 1e-12
        and floor < 1e-12
    )
    # 5 percent comb: family at 0.2 cycles per percent and multiples
    amps5 = comb_amplitudes(50)
    family5 = np.arange(20, 501, 20)
    floor5 = np.delete(amps5[1:], family5 - 1).max()
    five_ok = abs(amps5[20] - 0.02) < 1e-12 and floor5 < 1e-12

    ok = dft_ok and one_ok and five_ok
    _verdict(7, ok, f"amplitude spectrum vs direct DFT oracle {worst:.1e}, integer comb "
                    f"harmonics at 1 and 2 per percent, 5%-comb family at 0.2 per percent")
    assert ok


def test_criterion_08_partition_additivity(null_multiregion):
    dataset = null_multiregion
    codes = sorted(set(dataset.region_codes))
    assert len(codes) == 10

    whole = fingerprint(dataset)
    parts = [fingerprint(restrict_regions(dataset, [c])) for c in codes]
    cells_ok = np.array_equal(
        sum(p.cells for p in parts), whole.cells
    ) and sum(p.n_stations for p in parts) == whole.n_stations

    hist_ok = True
    for metric in ("turnout", "result"):
        total = build_histogram(dataset, metric).weights
        split = sum(
            build_histogram(restrict_regions(dataset, [c]), metric).weights
            for c in codes
        )
        # weights are integer voter counts carried in float64, far below
        # 2**53, so the sums must match without tolerance
        hist_ok &= np.array_equal(split, total)

    ok = cells_ok and hist_ok
    _verdict(8, ok, f"fingerprint and both histograms rebuilt cell-exactly "
                    f"from {len(codes)} region slices")
    assert ok


# year -> (q inside the 99% box, q above every MC sample)
_NATIONAL_EXPECTATIONS = {
    2000: ("inside", None),
    2003: ("inside", None),
    2004: ("above", None),
    2007: ("above", None),
    2008: ("above", (1700.0, 2300.0)),  # anomaly size window
    2011: ("above", None),
    2012: ("above", None),
}


def _find_national_files():
    roots = [
        Path(__file__).resolve().parents[1],
        Path(__file__).resolve().parents[1] / "data",
        Path("/root/data"),
    ]
    found = {}
    for year in _NATIONAL_EXPECTATIONS:
        for root in roots:
            if not root.is_dir():
                continue
            for pattern in (f"*ru*{year}*.tsv", f"*ru*{year}*.csv"):
                hits = sorted(root.glob(pattern))
                if hits:
                    found[year] = hits[0]
                    break
            if year in found:
                break
    return found


def test_criterion_09_national_datasets():
    found = _find_national_files()
    if not found:
        print("criterion 9: SKIP (national polling station datasets not "
              "present; criteria 1-8 constitute acceptance)")
        pytest.skip("national datasets not present")

    # desk-scale substitute documented for this check: 1e3 iterations
    # instead of the 1e4 used for the reference numbers, with the wider
    # percentile error that implies
    policy = FilterPolicy()
    failures = []
    loaded = {}
    for year, path in sorted(found.items()):
        dataset, _ = load_dataset(path, "canonical", label=str(year))
        dataset = apply_filters(dataset, policy)
        loaded[year] = dataset
        report = run_null(
            dataset, StatisticDef(), WindowSpec(), "binomial", 1000,
            master_seed=90_000 + year,
        )
        side, size_window = _NATIONAL_EXPECTATIONS[year]
        low, high = report.percentile_interval
        if side == "inside" and not (low <= report.empirical <= high):
            failures.append(f"{year}: q outside the box")
        if side == "above" and report.empirical <= report.mc_samples.max():
            failures.append(f"{year}: q not above all samples")
        if size_window is not None:
            lo, hi = size_window
            if not (lo <= report.anomaly_size <= hi):
                failures.append(f"{year}: anomaly size {report.anomaly_size:.0f}")

    if 2011 in loaded:
        table = region_peaks({"2011": loaded[2011]}, "binomial", 100, master_seed=91_011)
        top2 = set(table.ranking[:2])
        if not top2 <= {"DA", "BA", "KEM"}:
            failures.append(f"top regions {sorted(top2)}")
        da = [r for r in table.rows_for("DA") if r.peak_amplitude is not None]
        if not da or not 87e3 * 0.85 <= da[0].peak_amplitude <= 87e3 * 1.15:
            failures.append("DA peak amplitude out of range")

    ok = not failures
    _verdict(9, ok, f"{len(found)} national files: " +
             ("all year-level expectations hold" if ok else "; ".join(failures)))
    assert ok


def test_criterion_10_throughput(fraud_run):
    tainted, _, elapsed = fraud_run
    ok = elapsed < 600.0
    _verdict(10, ok, f"1000 iterations x {len(tainted)} stations, both metrics: "
                     f"{elapsed:.0f}s")
    assert ok


def test_criterion_11_worker_determinism(tmp_path):
    dataset = generate(GeneratorConfig(n_stations=700, n_regions=3), seed=111).dataset
    defs = [
        (StatisticDef(), WindowSpec()),
        (StatisticDef(weighting="registered_voters"), WindowSpec(center_kind="half_integer")),
    ]
    payloads = []
    for workers in (1, 3):
        reports = run_nulls(
            dataset, defs, "binomial", 200, master_seed=112, workers=workers
        )
        payloads.append([(json.dumps(r.to_dict()), r.mc_samples.tolist()) for r in reports])
    library_ok = payloads[0] == payloads[1]

    data_path = tmp_path / "data.tsv"
    write_canonical_tsv(dataset, data_path)
    artifacts = ("analysis.json", "samples.csv", "analysis.svg")
    outputs = []
    for workers in (1, 3):
        out_dir = tmp_path / f"out{workers}"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli_main([
                "analyze", "--input", str(data_path), "--out", str(out_dir),
                "--iterations", "150", "--seed", "5",
                "--workers", str(workers), "--format", "csv,json,svg",
            ])
        assert rc == 0
        outputs.append({name: (out_dir / name).read_bytes() for name in artifacts})
    cli_ok = outputs[0] == outputs[1]

    ok = library_ok and cli_ok
    _verdict(11, ok, f"workers 1 vs 3: run_nulls JSON identical, "
                     f"{len(artifacts)} analyze artifacts byte-identical")
    assert ok
