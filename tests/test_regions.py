"""Regional decomposition: peak tables, exclusion, 2D fingerprints."""

from fractions import Fraction

import numpy as np
import pytest

import pollheap.regions as regions_module
from pollheap.model import MAX_COUNT, METRICS
from pollheap.regions import (
    _candidate_list,
    exclude_regions,
    fingerprint,
    region_peaks,
    restrict_regions,
)
from pollheap.sampling import make_sampler

import oracles
from helpers import make_dataset, random_counts


class TestCandidates:
    def test_integer_mode_has_58_candidates(self):
        cands = _candidate_list("integer")
        assert len(cands) == 58
        percents = sorted({p for p, _ in cands})
        assert percents[0] == 70 and percents[-1] == 98
        assert len(percents) == 29

    def test_half_integer_mode_has_60_candidates(self):
        cands = _candidate_list("half_integer")
        assert len(cands) == 60
        percents = sorted({p for p, _ in cands})
        assert percents[0] == Fraction(141, 2) and percents[-1] == Fraction(199, 2)

    def test_ordering_percent_then_metric(self):
        cands = _candidate_list("integer")
        assert cands[0] == (Fraction(70), "turnout")
        assert cands[1] == (Fraction(70), "result")
        assert cands[-1] == (Fraction(98), "result")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            _candidate_list("thirds")


def planted_dataset():
    """Five quiet regions plus one region parked at exactly 75% turnout."""
    regions, v, g, b, l = [], [], [], [], []
    for r in range(5):
        for i in range(12):
            vv = 900 + 7 * i + r
            gg = int(vv * 0.55) + i  # mid-50s turnout, off-candidate
            bb = gg - 1
            ll = int(bb * 0.48) + 1
            regions.append(f"Q{r}")
            v.append(vv), g.append(gg), b.append(bb), l.append(ll)
    for i in range(30):
        regions.append("BAD")
        v.append(400), g.append(300), b.append(298), l.append(150)
    return make_dataset(v, g, b, l, regions=regions, label="planted")


class TestRegionPeaks:
    def test_planted_region_tops_ranking(self):
        ds = planted_dataset()
        table = region_peaks({"planted": ds}, "binomial", 100, 17)
        assert table.ranking[0] == "BAD"
        row = table.rows_for("BAD")[0]
        assert row.peak_metric == "turnout"
        assert row.peak_percent == 75.0
        # 30 stations x 400 voters sit in the bin; the MC mean keeps
        # only the binomial probability of re-hitting it
        assert row.peak_amplitude > 9000

    def test_absent_region_gets_none_row(self):
        ds = planted_dataset()
        quiet = exclude_regions(ds, ["BAD"])
        quiet = quiet.take(np.arange(len(quiet)), label="quiet")
        table = region_peaks(
            {"planted": ds, "quiet": quiet}, "binomial", 100, 17
        )
        missing = [r for r in table.rows_for("BAD") if r.dataset_label == "quiet"]
        assert len(missing) == 1
        assert missing[0].peak_amplitude is None
        assert missing[0].peak_metric is None
        present = [r for r in table.rows_for("BAD") if r.dataset_label == "planted"]
        assert present[0].peak_amplitude is not None

    def test_rows_cover_every_region_dataset_pair(self):
        ds = planted_dataset()
        table = region_peaks({"a": ds, "b": ds}, "binomial", 100, 3)
        assert len(table.rows) == 12  # 6 regions x 2 datasets
        assert len(table.ranking) == 6

    def test_iterations_floor(self):
        with pytest.raises(ValueError):
            region_peaks({"x": planted_dataset()}, "binomial", 0, 1)
        with pytest.raises(ValueError):
            region_peaks({}, "binomial", 100, 1)

    def test_iterations_times_largest_region_total_must_fit_int64(self, monkeypatch):
        # a bin sums a region's registered counts once per iteration, so
        # I * (largest region total) must fit int64; checked before any draw
        big = make_dataset([MAX_COUNT, MAX_COUNT, 7], [MAX_COUNT // 2, 3, 5],
                           [MAX_COUNT // 2, 3, 5], [9, 1, 2], regions=["A", "A", "B"])
        datasets = {"planted": planted_dataset(), "big": big}
        limit = (2**63 - 1) // (2 * MAX_COUNT)

        class Reached(Exception):
            pass

        def simulate(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(regions_module, "run_simulation", simulate)
        with pytest.raises(Reached):
            region_peaks(datasets, "binomial", limit, 1)
        with pytest.raises(ValueError, match="int64"):
            region_peaks(datasets, "binomial", limit + 1, 1)

    def test_worker_count_does_not_change_table(self):
        ds = planted_dataset()
        a = region_peaks({"planted": ds}, "binomial", 96, 5, workers=1)
        b = region_peaks({"planted": ds}, "binomial", 96, 5, workers=3)
        assert a == b

    @pytest.mark.parametrize("model", ["binomial", "clustered:3"])
    @pytest.mark.parametrize("center_kind", ["integer", "half_integer"])
    def test_matches_the_brute_force_table(self, model, center_kind):
        rng = np.random.default_rng(23)
        datasets = {}
        for label, codes in (("a", "PQRS"), ("b", "PQS")):  # R is absent from b
            v, g, b, l = random_counts(rng, 60, max_registered=400)
            # half the stations near 70-99% turnout, so candidate cells fill
            g[:30] = rng.binomial(v[:30], rng.uniform(0.7, 0.99, size=30))
            b[:30] = np.minimum(b[:30], g[:30])
            l[:30] = np.minimum(l[:30], b[:30])
            regions = [codes[i % len(codes)] for i in range(60)]
            datasets[label] = make_dataset(v, g, b, l, regions=regions, label=label)
        iterations, seed = 100, 8
        table = region_peaks(datasets, model, iterations, seed, center_kind=center_kind)

        inputs = {}
        for label, ds in datasets.items():
            sides = [ds.metric(m) for m in METRICS]
            samplers = [make_sampler(den, num, model, m) for m, (num, den) in zip(METRICS, sides)]
            draws = [[s.draw(seed, i) for s in samplers] for i in range(iterations)]
            inputs[label] = (list(ds.region_codes), ds.registered, sides, draws)
        rows, ranking = oracles.region_peak_table(inputs, center_kind)

        def exact(row):
            amp = row[2]
            return row[:2] + (None if amp is None else amp.hex(),) + row[3:]

        got = [
            (r.region_code, r.dataset_label, r.peak_amplitude, r.peak_metric, r.peak_percent)
            for r in table.rows
        ]
        assert [exact(r) for r in got] == [exact(r) for r in rows]
        assert list(table.ranking) == ranking
        assert sum(r[2] is None for r in rows) == 1


class TestExcludeRestrict:
    def test_partition_identity(self, null_multiregion):
        codes = sorted(set(null_multiregion.region_codes))[:3]
        kept = exclude_regions(null_multiregion, codes)
        only = restrict_regions(null_multiregion, codes)
        assert len(kept) + len(only) == len(null_multiregion)
        assert set(only.region_codes) == set(codes)
        assert set(kept.region_codes).isdisjoint(codes)
        merged = sorted(kept.station_ids) + sorted(only.station_ids)
        assert sorted(merged) == sorted(null_multiregion.station_ids)

    def test_unknown_code_warns_not_raises(self, null_multiregion):
        with pytest.warns(UserWarning, match="NOPE"):
            out = exclude_regions(null_multiregion, ["NOPE"])
        assert len(out) == len(null_multiregion)
        with pytest.warns(UserWarning):
            only = restrict_regions(null_multiregion, ["NOPE"])
        assert len(only) == 0

    def test_empty_exclusion_is_identity(self, null_multiregion):
        out = exclude_regions(null_multiregion, [])
        assert len(out) == len(null_multiregion)


class TestFingerprint:
    def test_axis_convention(self):
        ds = make_dataset([1000], [700], [500], [250])
        fp = fingerprint(ds)
        assert fp.cells.shape == (201, 201)
        # turnout 70% -> axis-0 bin 140, result 50% -> axis-1 bin 100
        assert fp.cells[140, 100] == 1000
        assert fp.cells.sum() == 1000
        assert fp.bin_width == Fraction(1, 2)
        assert fp.bin_centers[140] == pytest.approx(70.0)

    def test_half_percent_bin_edges(self):
        # 70.25% is the lower edge of the 70.5 bin
        ds = make_dataset([4000], [2810], [2000], [1000])
        fp = fingerprint(ds)
        assert fp.cells[141, 100] == 4000

    def test_undefined_result_stations_dropped(self):
        ds = make_dataset([1000, 800], [700, 0], [500, 0], [250, 0])
        fp = fingerprint(ds)
        assert fp.n_stations == 1
        assert fp.cells.sum() == 1000

    def test_additivity_over_partition(self):
        rng = np.random.default_rng(23)
        v, g, b, l = random_counts(rng, 60)
        whole = fingerprint(make_dataset(v, g, b, l))
        first = fingerprint(make_dataset(v[:25], g[:25], b[:25], l[:25]))
        rest = fingerprint(make_dataset(v[25:], g[25:], b[25:], l[25:]))
        assert np.array_equal(whole.cells, first.cells + rest.cells)

    def test_correlation_pins(self):
        # result percent equal to turnout percent at every station
        up = make_dataset(
            [1000, 1000, 1000], [400, 600, 800], [400, 600, 800], [160, 360, 640]
        )
        assert fingerprint(up).correlation == pytest.approx(1.0)
        down = make_dataset(
            [1000, 1000, 1000], [400, 600, 800], [400, 600, 800], [240, 240, 160]
        )
        assert fingerprint(down).correlation == pytest.approx(-1.0)

    def test_correlation_degenerate_cases(self):
        single = make_dataset([1000], [700], [500], [250])
        assert fingerprint(single).correlation is None
        flat = make_dataset([1000, 1000], [700, 700], [500, 500], [250, 250])
        assert fingerprint(flat).correlation is None

    def test_weighted_correlation_differs(self):
        ds = make_dataset(
            [1000, 2000, 500], [400, 1200, 400], [400, 1200, 400], [160, 720, 100]
        )
        plain = fingerprint(ds)
        weighted = fingerprint(ds, weighted_correlation=True)
        assert plain.correlation is not None
        assert weighted.correlation is not None
        assert plain.correlation != weighted.correlation
        assert weighted.weighted and not plain.weighted

    def test_null_data_correlation_is_small(self, null_2k):
        fp = fingerprint(null_2k)
        assert fp.n_stations == len(null_2k)
        assert abs(fp.correlation) < 0.1
