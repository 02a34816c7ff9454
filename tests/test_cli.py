"""End-to-end command line runs, in process."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given as hgiven
from hypothesis import settings
from hypothesis import strategies as st

import pollheap
import pollheap.anomaly as anomaly
import pollheap.cli as cli
import pollheap.histograms as histograms
import pollheap.regions as regions
import pollheap.sampling as sampling
from helpers import make_dataset
from pollheap.cli import _cell, main
from pollheap.ingest import load_dataset, row_writer, write_canonical_tsv
from pollheap.model import apply_filters


def quiet_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue()


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    summary = json.loads(captured.out) if captured.out.strip() else None
    return rc, summary, captured.err


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """Two 400-station elections: a clean one and one with rounding fraud."""
    d = tmp_path_factory.mktemp("cli_data")
    rc, _ = quiet_main(
        ["simulate", "--out", str(d / "clean"), "--stations", "400",
         "--regions", "4", "--seed", "11"]
    )
    assert rc == 0
    rc, _ = quiet_main(
        ["simulate", "--out", str(d / "fraud"), "--stations", "400",
         "--regions", "4", "--seed", "11",
         "--fraud-mechanism", "integer_rounding", "--fraud-fraction", "0.25"]
    )
    assert rc == 0
    # distinct basenames so multi-input commands get distinct labels
    shutil.copy(d / "clean" / "election.tsv", d / "clean.tsv")
    shutil.copy(d / "fraud" / "election.tsv", d / "fraud.tsv")
    return d


class TestSimulate:
    def test_artifacts(self, data_dir):
        tsv = (data_dir / "clean" / "election.tsv").read_text().splitlines()
        assert len(tsv) == 401  # canonical header plus one row per station
        assert tsv[0].split("\t")[0] == "station_id"
        first = tsv[1].split("\t")
        assert len(first) == 7
        assert first[0].startswith("S")
        log = json.loads((data_dir / "clean" / "injection_log.json").read_text())
        assert log["run"]["command"] == "simulate"
        assert log["run"]["stations"] == 400
        assert "digest" in log["run"]
        assert log["modified"] == 0

    def test_fraud_log(self, data_dir):
        log = json.loads((data_dir / "fraud" / "injection_log.json").read_text())
        assert log["requested"] == 100
        assert log["modified"] > 0
        assert log["modified"] + len(log["skipped"]) >= log["requested"]
        rec = log["records"][0]
        assert {"station_id", "metric", "target_percent"} <= set(rec)

    def test_fraud_flags_recorded_in_config(self, data_dir):
        log = json.loads((data_dir / "fraud" / "injection_log.json").read_text())
        assert log["run"]["fraud_mechanism"] == "integer_rounding"
        assert log["run"]["fraud_fraction"] == 0.25


class TestSimulateArguments:
    def test_fraud_fraction_checked_before_generating(self, tmp_path, capsys, monkeypatch):
        def generate(*args, **kwargs):
            raise AssertionError("generate ran before the arguments were checked")

        monkeypatch.setattr(cli, "generate", generate)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--out", str(out), "--stations", "2000000",
                  "--fraud-mechanism", "integer_rounding", "--fraud-fraction", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--fraud-fraction" in err and "affected_fraction must lie in [0, 1]" in err
        assert not out.exists()


    def test_fraud_spec_checked_before_generating(self, tmp_path, capsys, monkeypatch):
        def generate(*args, **kwargs):
            raise AssertionError("generate ran before the fraud spec was checked")

        monkeypatch.setattr(cli, "generate", generate)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--out", str(out), "--stations", "2000000",
                  "--fraud-mechanism", "integer_rounding", "--fraud-fraction", "0.1",
                  "--fraud-window", "0.7"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--fraud-window" in err and "window_half_width must lie in (0, 0.5]" in err
        assert not out.exists()

    def test_fraud_fraction_needs_a_mechanism(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc, _, err = run(
            capsys, ["simulate", "--out", str(out), "--stations", "20", "--fraud-fraction", "0.5"]
        )
        assert rc == 2
        assert "--fraud-fraction needs --fraud-mechanism" in err
        assert not out.exists()
        # the default fraction without a mechanism is still a clean run
        rc, summary, _ = run(
            capsys,
            ["simulate", "--out", str(out), "--stations", "20", "--fraud-fraction", "0"],
        )
        assert rc == 0 and summary["modified"] == 0


class TestValidate:
    def test_utf8_byte_order_mark_is_ignored(self, data_dir, tmp_path, capsys):
        text = (data_dir / "clean.tsv").read_text(encoding="utf-8")
        bom = tmp_path / "bom.tsv"
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        rc, summary, err = run(
            capsys, ["validate", "--input", str(bom), "--out", str(tmp_path / "out")]
        )
        assert rc == 0, err
        entry = summary["results"][0]
        assert entry["parsed"] == 400 and entry["stations"] == 400
        with_bom, _ = load_dataset(str(bom), "canonical")
        plain, _ = load_dataset(str(data_dir / "clean.tsv"), "canonical")
        assert with_bom.station_ids == plain.station_ids
        assert np.array_equal(with_bom.registered, plain.registered)

    def test_parse_summary(self, data_dir, tmp_path, capsys):
        rc, summary, _ = run(
            capsys,
            ["validate", "--input", str(data_dir / "clean.tsv"), "--out", str(tmp_path)],
        )
        assert rc == 0
        entry = summary["results"][0]
        assert entry["parsed"] == 400
        assert entry["stations"] == 400
        assert entry["errors"] == []
        assert (tmp_path / "validation.json").exists()

    def test_reference_discrepancies(self, tmp_path, capsys):
        tsv = tmp_path / "tiny.tsv"
        tsv.write_text(
            "station_id\tregion_code\tconstituency_id\tregistered\tgiven\tcast\tleader\n"
            "S1\tA\tC1\t1000\t700\t690\t400\n"
            "S2\tA\tC1\t800\t500\t495\t300\n"
        )
        ref = tmp_path / "ref.json"
        ref.write_text(json.dumps({"A": {"given": 1201, "leader": 700}}))
        rc, summary, _ = run(
            capsys,
            ["validate", "--input", str(tsv), "--reference", str(ref),
             "--out", str(tmp_path)],
        )
        assert rc == 0
        disc = summary["results"][0]["discrepancies"]
        assert {"region_code": "A", "field": "given", "expected": 1201, "actual": 1200} in disc
        assert all(d["field"] != "leader" for d in disc)

    @pytest.mark.parametrize(
        "text",
        [
            '{"R00": {"registered": null}}',
            "[1, 2]",
            '{"R00": 5}',
            '{"R00": {"given": 1.5}}',
            '{"R00": {"given": "12"}}',
            '{"R00": {"given": true}}',
            '{"R00": {"gvien": 12}}',
            '{"R00": {"cast": -1}}',
            "{not json",
        ],
    )
    def test_malformed_reference_is_a_usage_error(self, data_dir, tmp_path, capsys, text):
        ref = tmp_path / "ref.json"
        ref.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        rc, summary, err = run(
            capsys,
            ["validate", "--input", str(data_dir / "clean.tsv"), "--reference", str(ref),
             "--out", str(out)],
        )
        assert rc == 2
        assert summary is None
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert not out.exists()

    def test_oversized_count_is_one_invalid_row(self, tmp_path, capsys):
        # int64 cannot hold the first count; the second fits int64 but
        # not the exact products analyze forms
        tsv = tmp_path / "big.tsv"
        tsv.write_text(
            "station_id\tregion_code\tconstituency_id\tregistered\tgiven\tcast\tleader\n"
            "S1\tA\tC1\t1000\t700\t690\t400\n"
            "S2\tA\tC1\t99999999999999999999\t500\t495\t300\n"
            f"S3\tA\tC1\t{2**63 - 1}\t500\t495\t300\n"
        )
        rc, summary, _ = run(capsys, ["validate", "--input", str(tsv), "--out", str(tmp_path)])
        assert rc == 0
        entry = summary["results"][0]
        assert entry["parsed"] == 1
        assert entry["invalid"] == 2
        assert [e.split(":")[0] for e in entry["errors"]] == ["line 3", "line 4"]


class TestAnalyze:
    def test_detects_planted_fraud(self, data_dir, tmp_path, capsys):
        rc, summary, err = run(
            capsys,
            ["analyze", "--input", str(data_dir / "fraud.tsv"),
             "--out", str(tmp_path), "--iterations", "150", "--seed", "3",
             "--format", "csv,json"],
        )
        assert rc == 0
        assert summary["command"] == "analyze"
        assert summary["stations"] > 350
        assert summary["main"]["z_score"] > 3.0
        assert "progress analyze" in err

        doc = json.loads((tmp_path / "analysis.json").read_text())
        reports = doc["reports"]
        assert set(reports) == {
            "main", "turnout_only", "result_only", "voter_weighted",
            "zero_excluded", "half_integer",
        }
        # the half-integer control must stay quiet under integer fraud
        assert reports["half_integer"]["z_score"] < 2.0
        assert reports["main"]["p_value"].startswith("<")

    def test_samples_csv_layout(self, data_dir, tmp_path, capsys):
        rc, _, _ = run(
            capsys,
            ["analyze", "--input", str(data_dir / "clean.tsv"),
             "--out", str(tmp_path), "--iterations", "100", "--seed", "3",
             "--format", "csv"],
        )
        assert rc == 0
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1].startswith("# digest: ")
        assert lines[2] == "iteration,main,turnout_only,result_only,voter_weighted,zero_excluded,half_integer"
        assert len(lines) == 3 + 100
        cfg = json.loads(lines[0][len("# config: "):])
        assert cfg["command"] == "analyze"
        for excluded_key in ("workers", "out", "format"):
            assert excluded_key not in cfg

    def test_worker_count_gives_identical_bytes(self, data_dir, tmp_path, capsys):
        outs = []
        for workers, sub in (("1", "w1"), ("3", "w3")):
            rc, _, _ = run(
                capsys,
                ["analyze", "--input", str(data_dir / "fraud.tsv"),
                 "--out", str(tmp_path / sub), "--iterations", "128",
                 "--seed", "9", "--workers", workers,
                 "--format", "csv,json,svg"],
            )
            assert rc == 0
            outs.append(tmp_path / sub)
        for name in ("analysis.json", "samples.csv", "analysis.svg"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_window_sweep_artifact(self, data_dir, tmp_path, capsys):
        rc, _, _ = run(
            capsys,
            ["analyze", "--input", str(data_dir / "fraud.tsv"),
             "--out", str(tmp_path), "--iterations", "100", "--seed", "4",
             "--window", "0.05,0.25", "--format", "csv"],
        )
        assert rc == 0
        lines = (tmp_path / "window_sweep.csv").read_text().splitlines()
        assert lines[2].split(",")[0] == "half_width"
        assert len(lines) == 3 + 2
        assert lines[3].split(",")[0] == "1/20"
        assert lines[4].split(",")[0] == "1/4"

    def test_window_sweep_shares_one_simulation(self, data_dir, tmp_path, capsys, monkeypatch):
        calls = []
        real = anomaly.run_simulation

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(anomaly, "run_simulation", counting)
        path = data_dir / "fraud.tsv"
        rc, _, _ = run(
            capsys,
            ["analyze", "--input", str(path), "--out", str(tmp_path),
             "--iterations", "100", "--seed", "4", "--window", "0.05,0.25",
             "--workers", "1", "--format", "csv"],
        )
        assert rc == 0
        assert len(calls) == 1

        dataset = apply_filters(load_dataset(str(path), "canonical", label="fraud")[0])
        alone = anomaly.window_sweep(
            dataset, anomaly.StatisticDef(), "binomial", 100, 4,
            half_widths=["0.05", "0.25"], workers=1,
        )
        rows = (tmp_path / "window_sweep.csv").read_text().splitlines()[3:]
        assert rows == [
            ",".join(_cell(v) for v in (
                rep.window.half_width, rep.empirical, rep.mc_mean, rep.mc_sd,
                rep.z_score, rep.p_value_text(),
            ))
            for rep in alone
        ]


class TestHistogram:
    def test_single_input_plain(self, data_dir, tmp_path, capsys):
        rc, summary, _ = run(
            capsys,
            ["histogram", "--input", str(data_dir / "clean.tsv"),
             "--out", str(tmp_path), "--metric", "turnout", "--format", "csv"],
        )
        assert rc == 0
        lines = (tmp_path / "hist_turnout.csv").read_text().splitlines()
        assert lines[2] == "bin_center,weight"
        assert len(lines) == 3 + 1001
        assert summary["metrics"]["turnout"][0]["total_weight"] > 0

    def test_envelope_columns(self, data_dir, tmp_path, capsys):
        rc, _, _ = run(
            capsys,
            ["histogram", "--input", str(data_dir / "clean.tsv"),
             "--out", str(tmp_path), "--metric", "turnout",
             "--iterations", "100", "--seed", "2", "--format", "csv"],
        )
        assert rc == 0
        lines = (tmp_path / "hist_turnout.csv").read_text().splitlines()
        assert lines[2] == "bin_center,weight,mc_mean,low,high"

    def test_average_and_peak_shape(self, data_dir, tmp_path, capsys):
        rc, _, _ = run(
            capsys,
            ["histogram", "--input", str(data_dir / "clean.tsv"),
             str(data_dir / "fraud.tsv"), "--out", str(tmp_path),
             "--metric", "turnout", "--average", "--iterations", "100",
             "--seed", "2", "--format", "csv"],
        )
        assert rc == 0
        avg = (tmp_path / "hist_turnout_avg.csv").read_text().splitlines()
        assert avg[2] == "bin_center,average_weight,mc_mean"
        shape = (tmp_path / "peak_shape_turnout.csv").read_text().splitlines()
        assert shape[2] == "offset,mean_excess"
        assert len(shape) == 3 + 11  # offsets -0.5 ... 0.5 at 0.1 steps


class TestSpectrum:
    def test_artifacts(self, data_dir, tmp_path, capsys):
        rc, summary, _ = run(
            capsys,
            ["spectrum", "--input", str(data_dir / "fraud.tsv"),
             "--out", str(tmp_path), "--metric", "turnout",
             "--iterations", "100", "--seed", "6", "--format", "csv"],
        )
        assert rc == 0
        spec = (tmp_path / "spectrum_turnout.csv").read_text().splitlines()
        assert spec[2] == "frequency,amplitude"
        assert len(spec) == 3 + 501
        gram = (tmp_path / "spectrogram_turnout.csv").read_text().splitlines()
        assert len(gram) == 3 + 851
        assert len(gram[2].split(",")) == 1 + 151
        harm = (tmp_path / "harmonic_turnout.csv").read_text().splitlines()
        assert harm[2] == "center,ratio"
        assert "final_window_value" in summary["metrics"]["turnout"]

    def test_empty_top_window_is_null_in_strict_json(self, tmp_path, capsys):
        # turnout near 55% and leader share near 40% leave the window
        # centred on 92.5% without simulated mass, so its ratio is NaN
        rng = np.random.default_rng(4)
        registered = rng.integers(800, 1200, size=3000)
        given = rng.binomial(registered, 0.55)
        leader = rng.binomial(given, 0.4)
        write_canonical_tsv(
            make_dataset(registered, given, given, leader), tmp_path / "flat.tsv"
        )
        rc = main(["spectrum", "--input", str(tmp_path / "flat.tsv"),
                   "--out", str(tmp_path / "out"), "--iterations", "100"])
        assert rc == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        summary = json.loads(capsys.readouterr().out, parse_constant=reject)
        for metric in ("turnout", "result"):
            assert summary["metrics"][metric]["final_window_value"] is None


class TestRegions:
    def test_ranking_and_exclusion(self, data_dir, tmp_path, capsys):
        rc, summary, _ = run(
            capsys,
            ["regions", "--input", str(data_dir / "clean.tsv"),
             str(data_dir / "fraud.tsv"), "--out", str(tmp_path),
             "--iterations", "100", "--seed", "8", "--exclude-top", "1",
             "--format", "csv,json"],
        )
        assert rc == 0
        assert len(summary["ranking"]) == 4
        assert summary["excluded"] == [summary["ranking"][0]]
        peaks = (tmp_path / "region_peaks.csv").read_text().splitlines()
        assert len(peaks) == 3 + 8  # 4 regions x 2 datasets
        assert (tmp_path / "region_ranking.json").exists()
        excl = (tmp_path / "excluded_regions.txt").read_text().splitlines()
        assert excl == [summary["ranking"][0]]
        assert (tmp_path / "hist_turnout_excluded.csv").exists()
        assert (tmp_path / "hist_result_excluded.csv").exists()

    def test_duplicate_labels_rejected(self, data_dir, tmp_path, capsys):
        rc, _, err = run(
            capsys,
            ["regions", "--input", str(data_dir / "clean.tsv"),
             str(data_dir / "clean.tsv"), "--out", str(tmp_path),
             "--iterations", "100"],
        )
        assert rc == 1
        assert "distinct" in err

    def test_duplicate_labels_rejected_before_loading(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        def load_dataset(*args, **kwargs):
            raise AssertionError("loaded an input before checking the names")

        monkeypatch.setattr(cli, "load_dataset", load_dataset)
        rc, _, err = run(
            capsys,
            ["regions", "--input", str(data_dir / "clean" / "election.tsv"),
             str(data_dir / "fraud" / "election.tsv"), "--out", str(tmp_path),
             "--iterations", "100"],
        )
        assert rc == 1
        assert "distinct" in err


class TestFingerprint:
    def test_artifacts(self, data_dir, tmp_path, capsys):
        rc, summary, _ = run(
            capsys,
            ["fingerprint", "--input", str(data_dir / "clean.tsv"),
             "--out", str(tmp_path), "--format", "csv,json,svg"],
        )
        assert rc == 0
        assert isinstance(summary["correlation"], float)
        doc = json.loads((tmp_path / "fingerprint.json").read_text())
        assert doc["stations"] == summary["stations"]
        assert doc["bin_width"] == "1/2"
        grid = (tmp_path / "fingerprint.csv").read_text().splitlines()
        assert len(grid) == 3 + 201
        svg = (tmp_path / "fingerprint.svg").read_text()
        assert "correlation" in svg

    def test_svg_escapes_markup_in_input_names(self, data_dir, tmp_path, capsys):
        src = tmp_path / "a&b<c>.tsv"
        shutil.copy(data_dir / "clean.tsv", src)
        rc, _, _ = run(
            capsys,
            ["fingerprint", "--input", str(src), "--out", str(tmp_path / "out"),
             "--format", "svg"],
        )
        assert rc == 0
        doc = minidom.parse(str(tmp_path / "out" / "fingerprint.svg"))
        desc = doc.getElementsByTagName("desc")[0].firstChild.data
        assert "a&b<c>.tsv" in desc


class TestExitCodes:
    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        rc, _, err = run(
            capsys,
            ["analyze", "--input", str(tmp_path / "absent.tsv"), "--out", str(tmp_path)],
        )
        assert rc == 1
        assert err.startswith("error:") or "error:" in err

    def test_schema_error_is_usage_error(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("foo\tbar\n1\t2\n")
        rc, _, err = run(
            capsys,
            ["validate", "--input", str(bad), "--profile", "es", "--out", str(tmp_path)],
        )
        assert rc == 2
        assert "error:" in err

    def test_repeated_mapped_column_is_usage_error(self, tmp_path, capsys):
        header = "station_id\tregion_code\tconstituency_id\tregistered\tgiven\tcast\tleader"
        tsv = tmp_path / "twice.tsv"
        tsv.write_text(f"{header}\tgiven\nS1\tA\tC1\t1000\t700\t690\t400\t9\n")
        out = tmp_path / "out"
        rc, summary, err = run(capsys, ["validate", "--input", str(tsv), "--out", str(out)])
        assert rc == 2
        assert summary is None
        assert "'given'" in err and "repeats" in err
        assert not out.exists()

    def test_argparse_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", "x.tsv", "--window", "0.7"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("window", ["0.0000001", "0.05,0.0000001"])
    def test_over_precise_window_is_a_usage_error(self, capsys, window):
        # WindowSpec's precision bound is checked at parse time, before
        # any input is read, like its range
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", "x.tsv", "--window", window])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--window" in err and "precision" in err

    @pytest.mark.parametrize("command", ["analyze", "histogram", "spectrum", "regions"])
    @pytest.mark.parametrize("workers", ["0", "-4", "two"])
    def test_workers_must_be_a_positive_integer(self, capsys, command, workers):
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", "x.tsv", "--workers", workers])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "histogram", "spectrum", "regions", "simulate"])
    @pytest.mark.parametrize("seed", ["-1", "-5", "4294967296", "4294967301"])
    def test_seed_must_be_non_negative(self, capsys, command, seed):
        # a usage error named by argparse before any input is read, not
        # numpy's seeding error at exit 1; a seed of 2**32 or more would
        # reuse a smaller seed's streams
        first = ["--stations", "10"] if command == "simulate" else ["--input", "x.tsv"]
        flags = ["--seed", "--fraud-seed"] if command == "simulate" else ["--seed"]
        for flag in flags:
            with pytest.raises(SystemExit) as exc:
                main([command, *first, flag, seed])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err

    def test_default_fraud_seed_must_fit_in_one_word(self, tmp_path, capsys):
        top = ["simulate", "--out", str(tmp_path), "--stations", "10", "--seed", "4294967295"]
        fraud = ["--fraud-mechanism", "integer_rounding", "--fraud-fraction", "0.5"]
        assert main([*top, *fraud]) == 2
        assert "--fraud-seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert main([*top, *fraud, "--fraud-seed", "4294967295"]) == 0
        assert main(top) == 0  # no fraud, no fraud seed

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "--stations", "0"], "--stations"),
            (["simulate", "--stations", "10", "--regions", "0"], "--regions"),
            (["regions", "--input", "x.tsv", "--exclude-top", "-1"], "--exclude-top"),
            *(([command, "--input", "x.tsv", "--iterations", "50"], "--iterations")
              for command in ("analyze", "histogram", "spectrum", "regions")),
            # 0 skips only histogram's envelopes
            (["histogram", "--input", "x.tsv", "--iterations", "-1"], "--iterations"),
            (["spectrum", "--input", "x.tsv", "--iterations", "0"], "--iterations"),
        ],
    )
    def test_count_flags_out_of_range_are_usage_errors(self, tmp_path, capsys, argv, flag):
        # refused at parse time: nothing is read or written
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fraud, flag",
        [
            (["--fraud-mechanism", "integer_rounding", "--fraud-fraction", "nan"],
             "--fraud-fraction"),
            (["--fraud-fraction", "5"], "--fraud-fraction"),
            (["--fraud-window", "0.7"], "--fraud-window"),
            (["--fraud-window", "0"], "--fraud-window"),
        ],
    )
    def test_fraud_numbers_out_of_range_are_usage_errors(self, tmp_path, capsys, fraud, flag):
        # FraudSpec's own ranges, checked at parse time with or without a
        # mechanism (TestSimulateArguments has one out-of-range number of
        # each kind with one): nothing is generated or written
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--stations", "10", *fraud, "--out", str(out)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "pollheap" in capsys.readouterr().out

    def test_failed_run_writes_no_artifacts(self, data_dir, tmp_path, capsys):
        out = tmp_path / "nothing"
        rc, _, err = run(
            capsys,
            ["analyze", "--input", str(data_dir / "clean.tsv"), "--out", str(out),
             "--min-registered", "100000"],
        )
        assert rc == 1
        assert "no stations left" in err
        assert not (out / "analysis.json").exists()
        assert not (out / "samples.csv").exists()

    def test_overprecise_max_percent_is_rejected(self, tmp_path, capsys):
        # finer than 1e-6 the exact filter products would wrap in int64;
        # refused at parse time, before the absent input is read
        out = tmp_path / "nothing"
        for command in ("analyze", "histogram", "spectrum", "regions", "fingerprint"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--input", str(tmp_path / "absent.tsv"), "--out", str(out),
                      "--max-percent", "98.99999999999999"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "--max-percent" in err and "max_percentage precision" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, blocked", [("simulate", "injection_log.json"), ("analyze", "samples.csv")]
    )
    def test_failed_write_leaves_no_artifacts(self, data_dir, tmp_path, capsys, command, blocked):
        # a directory in the way of a later artifact fails the run after
        # the earlier artifacts were written
        argv = {
            "simulate": ["simulate", "--stations", "50"],
            "analyze": ["analyze", "--input", str(data_dir / "clean.tsv"), "--iterations", "100"],
        }[command]
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        rc, _, err = run(capsys, argv + ["--out", str(out)])
        assert rc == 1
        assert "error:" in err
        assert os.listdir(out) == [blocked]

    def test_failing_csv_rows_leave_no_artifacts(self, data_dir, tmp_path, capsys, monkeypatch):
        # the peak-shape rows are made while their CSV is written, after
        # hist_turnout_avg.csv is staged
        staged = []
        real_stage = cli._stage

        def spying_stage(path, *args):
            staged.append(path.name)
            return real_stage(path, *args)

        def failing_rows(*args):
            yield [0.0, 1.0]
            raise ValueError("peak shape failed")

        monkeypatch.setattr(cli, "_stage", spying_stage)
        monkeypatch.setattr(cli, "_peak_shape_rows", failing_rows)
        out = tmp_path / "out"
        rc, _, err = run(
            capsys,
            ["histogram", "--input", str(data_dir / "clean.tsv"), str(data_dir / "fraud.tsv"),
             "--average", "--iterations", "100", "--out", str(out)],
        )
        assert rc == 1
        assert "peak shape failed" in err
        assert staged == ["hist_turnout_avg.csv", "peak_shape_turnout.csv"]
        assert list(out.rglob("*")) == []

    def test_duplicate_artifact_names_rejected(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        rc, _, err = run(
            capsys,
            ["histogram", "--input", str(data_dir / "clean" / "election.tsv"),
             str(data_dir / "fraud" / "election.tsv"), "--out", str(out),
             "--metric", "turnout"],
        )
        assert rc == 1
        assert "hist_turnout_election.csv" in err
        assert not out.exists()

    def test_duplicate_names_rejected_before_simulating(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        def run_simulation(*args, **kwargs):
            raise AssertionError("simulated before the artifact names were checked")

        monkeypatch.setattr(histograms, "run_simulation", run_simulation)
        out = tmp_path / "out"
        rc, _, err = run(
            capsys,
            ["histogram", "--input", str(data_dir / "clean" / "election.tsv"),
             str(data_dir / "fraud" / "election.tsv"), "--out", str(out),
             "--iterations", "100"],
        )
        assert rc == 1
        assert "hist_turnout_election.csv" in err and "progress" not in err
        assert not out.exists()

    @pytest.mark.parametrize("bins", ["0.3", "0", "0.0001"])
    def test_bad_bin_width_is_a_usage_error(self, tmp_path, capsys, bins):
        # the bin grid is checked at parse time, before any input is read
        with pytest.raises(SystemExit) as exc:
            main(["histogram", "--input", str(tmp_path / "absent.tsv"), "--bins", bins])
        assert exc.value.code == 2
        assert "--bins" in capsys.readouterr().err

    def test_odd_grid_average_rejected_before_simulating(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        # peak_shape needs an even number of bins per percent
        def run_simulation(*args, **kwargs):
            raise AssertionError("simulated before the bin grid was checked")

        monkeypatch.setattr(histograms, "run_simulation", run_simulation)
        out = tmp_path / "out"
        rc, _, err = run(
            capsys,
            ["histogram", "--input", str(data_dir / "clean.tsv"), str(data_dir / "fraud.tsv"),
             "--average", "--iterations", "100", "--bins", "1", "--out", str(out)],
        )
        assert rc == 2
        assert "--bins" in err and "progress" not in err
        assert not out.exists()

    def test_odd_grid_average_without_csv_still_runs(self, data_dir, tmp_path, capsys):
        # no peak_shape CSV is written, so no grid rule applies
        rc, _, _ = run(
            capsys,
            ["histogram", "--input", str(data_dir / "clean.tsv"), str(data_dir / "fraud.tsv"),
             "--metric", "turnout", "--average", "--iterations", "100", "--bins", "1",
             "--format", "json,svg", "--out", str(tmp_path)],
        )
        assert rc == 0
        assert os.listdir(tmp_path) == ["hist_turnout_avg.svg"]

    def test_average_input_count_checked_before_loading(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        def load_dataset(*args, **kwargs):
            raise AssertionError("loaded an input before counting them")

        monkeypatch.setattr(cli, "load_dataset", load_dataset)
        rc, _, err = run(
            capsys,
            ["histogram", "--input", str(data_dir / "clean.tsv"),
             "--out", str(tmp_path), "--average"],
        )
        assert rc == 2
        assert "at least two inputs" in err

    @pytest.mark.parametrize("command", ["analyze", "histogram", "spectrum", "regions",
                                         "fingerprint"])
    @pytest.mark.parametrize("counts, metric", [
        ("1000\t1200\t1190\t400", "turnout"),
        ("1000\t700\t690\t900", "result"),
        ("0\t5\t0\t0", "turnout"),
    ], ids=["given_over_registered", "leader_over_cast", "given_of_none_registered"])
    def test_no_filter_refuses_a_percentage_above_100(self, tmp_path, capsys, command,
                                                      counts, metric):
        # the filters drop such a station; without them it once ended four
        # commands in an IndexError on a histogram bin past 100%
        header = "station_id\tregion_code\tconstituency_id\tregistered\tgiven\tcast\tleader"
        tsv = tmp_path / "over.tsv"
        tsv.write_text(f"{header}\nS1\tA\tC1\t1000\t700\t690\t400\nS2\tA\tC1\t{counts}\n")
        out = tmp_path / "out"
        rc, summary, err = run(capsys, [command, "--input", str(tsv), "--no-filter",
                                        "--out", str(out)])
        assert rc == 1 and summary is None
        assert err.startswith("error:") and "Traceback" not in err
        assert "over.tsv" in err and "'S2'" in err and metric in err
        assert not out.exists()

    @pytest.mark.parametrize("formats", [",", " , ,"])
    def test_empty_format_list_is_a_usage_error(self, data_dir, tmp_path, capsys, formats):
        # it once fell back to csv,json and wrote both
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["fingerprint", "--input", str(data_dir / "clean.tsv"),
                  "--out", str(out), "--format", formats])
        assert exc.value.code == 2
        assert "empty format list" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_has_no_format_flag(self, data_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--input", str(data_dir / "clean.tsv"),
                  "--out", str(tmp_path), "--format", "csv"])
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def three_inputs(data_dir, tmp_path_factory):
    """clean.tsv, fraud.tsv and a third 300-station election."""
    d = tmp_path_factory.mktemp("third")
    rc, _ = quiet_main(
        ["simulate", "--out", str(d), "--stations", "300", "--regions", "4", "--seed", "12",
         "--fraud-mechanism", "integer_rounding", "--fraud-fraction", "0.1"]
    )
    assert rc == 0
    shutil.copy(d / "election.tsv", d / "third.tsv")
    return [str(data_dir / "clean.tsv"), str(data_dir / "fraud.tsv"), str(d / "third.tsv")]


_MC = ["--iterations", "100", "--seed", "4", "--format", "csv,json,svg"]

# (command argv without --out, number of station-set groups it simulates)
_SIMULATING = {
    "histogram": (lambda inputs: ["histogram", "--input", *inputs, *_MC], 6),
    "histogram_jitter": (lambda inputs: ["histogram", "--input", *inputs, "--jitter", *_MC], 6),
    "spectrum": (lambda inputs: ["spectrum", "--input", inputs[1], *_MC], 2),
    "regions": (lambda inputs: ["regions", "--input", *inputs, "--exclude-top", "1", *_MC], 3),
}


def _outputs(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


class TestWorkerCounts:
    @pytest.mark.parametrize("name", sorted(_SIMULATING))
    def test_artifacts_do_not_depend_on_workers(self, three_inputs, tmp_path, name):
        argv, _ = _SIMULATING[name]
        seen = {}
        for workers in (1, 2, 3, 8):
            out = tmp_path / f"w{workers}"
            rc, stdout = quiet_main(argv(three_inputs) + ["--out", str(out), "--workers", str(workers)])
            assert rc == 0
            summary = json.loads(stdout)
            summary.pop("artifacts")
            seen[workers] = (summary, _outputs(out))
        assert len(seen[1][1]) > 3
        for workers in (2, 3, 8):
            assert seen[workers] == seen[1], workers

    @pytest.mark.parametrize("name", sorted(_SIMULATING))
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_one_simulation_with_tables_built_by_its_workers(
        self, three_inputs, tmp_path, monkeypatch, name, workers
    ):
        argv, n_groups = _SIMULATING[name]
        calls = []
        pid_log = tmp_path / "pids.txt"
        for module in (anomaly, histograms, regions):
            real_run = module.run_simulation
            real_make = module.make_sampler

            def counting(*args, _real=real_run, **kwargs):
                calls.append(1)
                return _real(*args, **kwargs)

            def logging_make(*args, _real=real_make, **kwargs):
                with open(pid_log, "a", encoding="utf-8") as fh:
                    fh.write(f"{os.getpid()}\n")
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, "run_simulation", counting)
            monkeypatch.setattr(module, "make_sampler", logging_make)
        rc, _ = quiet_main(argv(three_inputs) + ["--out", str(tmp_path / "out"),
                                                 "--workers", str(workers)])
        assert rc == 0
        assert len(calls) == 1
        pids = [int(p) for p in pid_log.read_text().split()]
        builds_per_group = 2 if name == "regions" else 1
        assert len(pids) == n_groups * builds_per_group
        if workers == 1:
            assert set(pids) == {os.getpid()}
        else:  # several groups: every table is built in a worker
            assert os.getpid() not in pids


def test_commands_that_do_not_simulate_never_import_scipy(data_dir, tmp_path):
    # nor the pool's modules, which only a run with several workers loads
    src_dir = Path(pollheap.__file__).resolve().parent.parent
    clean = str(data_dir / "clean.tsv")
    script = f"""
import sys
import pollheap.cli
unloaded = ("scipy", "multiprocessing", "concurrent.futures")
assert not set(unloaded) & set(sys.modules), "import"
for argv in (
    ["simulate", "--out", {str(tmp_path / "sim")!r}, "--stations", "50"],
    ["validate", "--input", {clean!r}, "--out", {str(tmp_path / "val")!r}],
    ["fingerprint", "--input", {clean!r}, "--out", {str(tmp_path / "fp")!r}, "--format", "svg"],
    ["histogram", "--input", {clean!r}, "--out", {str(tmp_path / "hist")!r}, "--iterations", "0"],
):
    assert pollheap.cli.main(argv) == 0, argv
    assert not set(unloaded) & set(sys.modules), argv[0]
"""
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def _traced_spans(argv: list[str], trace_dir: Path) -> list[dict]:
    """Spans of one CLI run under perfbench/tracing.py, from every process."""
    src_dir = Path(pollheap.__file__).resolve().parent.parent
    trace_dir.mkdir()
    script = f"""
import sys
sys.path.insert(0, {str(src_dir.parent / "perfbench")!r})
import tracing
tracer, traced_main = tracing.install({str(trace_dir)!r}, "contract")
try:
    rc = traced_main({argv!r})
finally:
    tracer.flush()
sys.exit(rc)
"""
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for f in sorted(trace_dir.glob("*.jsonl"))
            for line in f.read_text().splitlines()]


def test_traced_run_keeps_the_benchmark_trace_contract(data_dir, tmp_path):
    # perfbench/tracing.py wraps pollheap names where callers look them
    # up; a traced multi-group pass must still show as one mc.run span
    # whose tables are built, and spectrograms computed, in the workers
    mc = ["--iterations", "100", "--seed", "4", "--workers", "2"]
    spans = _traced_spans(
        ["histogram", "--input", str(data_dir / "clean.tsv"), str(data_dir / "fraud.tsv"),
         "--out", str(tmp_path / "out"), *mc],
        tmp_path / "trace",
    )
    parent = {s["pid"] for s in spans if s["name"] == "cli.main"}
    builds = [s for s in spans if s["name"] == "sampling.build"]
    assert len(parent) == 1
    assert [s["name"] for s in spans].count("mc.run") == 1
    assert len(builds) == 4  # two inputs, two metrics each
    assert parent.isdisjoint(s["pid"] for s in builds)

    spans = _traced_spans(
        ["spectrum", "--input", str(data_dir / "fraud.tsv"), "--out", str(tmp_path / "spec"),
         *mc],
        tmp_path / "trace_spectrum",
    )
    parent = {s["pid"] for s in spans if s["name"] == "cli.main"}
    grams = [s for s in spans if s["name"] == "spectral.spectrogram"]
    assert len(parent) == 1
    assert [s["name"] for s in spans].count("mc.run") == 1
    assert len(grams) == 2  # turnout and result
    assert parent.isdisjoint(s["pid"] for s in grams)


@pytest.mark.parametrize("model", ["binomial", "clustered:3"])
def test_traced_analyze_keeps_the_table_size_contract(data_dir, tmp_path, model):
    # sampling.table_mb counts the tables built in a process before its
    # mc.run: analyze builds every sampler in the parent, ahead of its
    # one simulation pass
    sys.path.insert(0, str(Path(pollheap.__file__).resolve().parents[2] / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.pop(0)
    spans = _traced_spans(
        ["analyze", "--input", str(data_dir / "fraud.tsv"), "--out", str(tmp_path / "out"),
         "--iterations", "100", "--seed", "4", "--workers", "1", "--model", model],
        tmp_path / "trace",
    )
    parent = {s["pid"] for s in spans if s["name"] == "cli.main"}
    (run,) = [s for s in spans if s["name"] == "mc.run"]
    builds = [s for s in spans if s["name"] == "sampling.build"]
    assert len(builds) == 2  # turnout and result
    assert {s["pid"] for s in builds} == parent == {run["pid"]}
    assert all(s["end_ns"] <= run["start_ns"] for s in builds)
    assert tracing.layer_metrics(spans)["sampling.table_mb"] > 0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _golden_steps():
    """(output directory, argv) for every step of the golden session."""
    mc = ["--iterations", "100", "--workers", "1"]
    steps = [
        ("sim_clean", ["simulate", "--stations", "300", "--regions", "3", "--seed", "5"]),
        ("sim_fraud", ["simulate", "--stations", "300", "--regions", "3", "--seed", "5",
                       "--fraud-mechanism", "integer_rounding", "--fraud-fraction", "0.3",
                       "--fraud-seed", "9"]),
        ("validate", ["validate", "--input", "in/clean.tsv", "in/fraud.tsv",
                      "--reference", "in/ref.json"]),
    ]
    for tag, fmt in (("all", ["--format", "csv,json,svg"]), ("default", [])):
        steps += [
            (f"{tag}/analyze", ["analyze", "--input", "in/fraud.tsv", "--seed", "3",
                                "--window", "0.05,0.2"] + mc + fmt),
            (f"{tag}/histogram", ["histogram", "--input", "in/clean.tsv", "in/fraud.tsv",
                                  "--metric", "turnout", "--seed", "2", "--jitter"] + mc + fmt),
            (f"{tag}/histogram_avg", ["histogram", "--input", "in/clean.tsv", "in/fraud.tsv",
                                      "--average", "--seed", "2"] + mc + fmt),
            (f"{tag}/spectrum", ["spectrum", "--input", "in/fraud.tsv", "--metric", "turnout",
                                 "--seed", "6"] + mc + fmt),
            (f"{tag}/regions", ["regions", "--input", "in/clean.tsv", "in/fraud.tsv",
                                "--seed", "8"] + mc + fmt),
            (f"{tag}/regions_top", ["regions", "--input", "in/clean.tsv", "in/fraud.tsv",
                                    "--seed", "8", "--exclude-top", "1"] + mc + fmt),
            (f"{tag}/fingerprint", ["fingerprint", "--input", "in/fraud.tsv", "--weighted"] + fmt),
        ]
    return steps


# SHA-256 of every file and stdout summary of the golden session
GOLDEN = {
    "all/analyze/analysis.json":
        "8703f82a9dcd621fa4d35fc0ee0d107b292fa006b3d60c11bfc06cabb140f673",
    "all/analyze/analysis.svg":
        "689dd1cb15a8a5b33fd6a5e8d955dad63dee3d95908f6700aaacc00f135b919d",
    "all/analyze/samples.csv":
        "86482f8f3ac18a5cd95f148478c383fb137e9b99b1a8936f105aa2f4c82030bb",
    "all/analyze/stdout":
        "74b739393e06ffd66192e68f76b9e2bb641187488ea8711a475b704121449516",
    "all/analyze/window_sweep.csv":
        "519a21317799ec04f926e8cb531f0036abcb4b4ec95f92c9e58b8ce13d9172d2",
    "all/fingerprint/fingerprint.csv":
        "0388b177c2af0bcd7988bfce3009069f5bbae628f3c237de2525d84657446703",
    "all/fingerprint/fingerprint.json":
        "580fbf16163ae0b96d4931e3c954fecf1943108bded05245dd419d546d1bc38a",
    "all/fingerprint/fingerprint.svg":
        "c40456022197370f44032bcab9e1304cf0021b983cbd5d42af5df2d4a57a813a",
    "all/fingerprint/stdout":
        "802bfd1b5bcd8f7801c2443b1e0b5dfd3b64ed49714e720d7308907a35d7f666",
    "all/histogram/hist_turnout_clean.csv":
        "82bfe1d6e01f569c35b7d281a151f2d58a2420a89f29a4a4923fc76c71b5893c",
    "all/histogram/hist_turnout_clean.svg":
        "8b977cd7070374524e5184a118f9bc4197db0cf57be23658e8cfdd571905bd38",
    "all/histogram/hist_turnout_fraud.csv":
        "5037a55b13b681f7e3004ce71e518732b3865a0598f6f9ed5222da919da7785e",
    "all/histogram/hist_turnout_fraud.svg":
        "086076a7a7ba6410ad5134aa62a350743f37e3d169e56c5898b253b699155cb8",
    "all/histogram/stdout":
        "4dbff9dcf5c256c43b18199813ef42966e6a69b5431dfc4b85a1aedf5a174ca1",
    "all/histogram_avg/hist_result_avg.csv":
        "e634983390e697a1dd9d348c42e4e65e1b546057ee189f26dde0548977baca73",
    "all/histogram_avg/hist_result_avg.svg":
        "9574968560d392dcb358bb69b035e5b17bc6bd6731c657e148e87ec56af3d464",
    "all/histogram_avg/hist_turnout_avg.csv":
        "136aeb2c87e6a97e52d8a2bbb81c92748ee253392578ba487417692333837971",
    "all/histogram_avg/hist_turnout_avg.svg":
        "59a0f4ae74c3a514945e39ab52d738e7d9b110204591a640c6d36a3746cc67c9",
    "all/histogram_avg/peak_shape_result.csv":
        "4701329897ca28baeac303a5a49269a71a192d328b95144930927d53b34c5c09",
    "all/histogram_avg/peak_shape_turnout.csv":
        "8ed756a518aaf399d023090a83b95fa0e58192e1ed24f7906a0bf37c9f863a17",
    "all/histogram_avg/stdout":
        "f894f0a4e2536952fd51cce8ad59e186421f2a8261bf378eebba895545eb0c64",
    "all/regions/region_peaks.csv":
        "80e8bd4dfe2f019e6f5845725e5ac530e255e83dfc85cc93fac32bf172251336",
    "all/regions/region_ranking.json":
        "19e61eb451c9742a1c349d213648a835b636f0ce91e6c74e0de5436cca698ea4",
    "all/regions/stdout":
        "acbf958d03b855235daba120d66e8eae58ef0a1ef29318c1a5a95ecd1c09922a",
    "all/regions_top/excluded_regions.txt":
        "3e73e9f82ca499c50ca52dd0888938aa80e10d6af853e710902a0a3211f464bd",
    "all/regions_top/hist_result_excluded.csv":
        "598e0bdac7b6f0f7e8d74df0e1424e3996c0e64852c4b7f74e68b880dd33dad7",
    "all/regions_top/hist_result_excluded.svg":
        "4addfb150fdcf21001172ee510708d54c049626c1de0269f95bec1db978fe12b",
    "all/regions_top/hist_turnout_excluded.csv":
        "12a9bbfd914b1e93fe3864904c92085735588f4f555c7dbc04e2fd45950ad540",
    "all/regions_top/hist_turnout_excluded.svg":
        "1beade74192e493d3d99b494ce1144aa3256fc8337404c7bfa80f60e73a3d37c",
    "all/regions_top/region_peaks.csv":
        "173e8e5b1cd91220fe03e25bb10df4627bd85c05d4d72af92330755d65fdb89e",
    "all/regions_top/region_ranking.json":
        "21c1adab2660cddccda6016bb8e3c4079114fcf9887c612456997bf040c24218",
    "all/regions_top/stdout":
        "795ede6c9d1d83231a6bb8d6f224583939d152e21ca5e49f07eefd8c1cc8dbe1",
    "all/spectrum/harmonic_turnout.csv":
        "b5f6c8b024a0090ab7687d61e49548e67e13c41ecc8e4bc969d964146735c879",
    "all/spectrum/spectrogram_turnout.csv":
        "892ac2609ca4099f8acb66ddba46a4f1e4f432f840e80590927b51e3fe24df28",
    "all/spectrum/spectrogram_turnout.svg":
        "2de49bf6b608d49bbc73842c6a8723ddf4167f280aeb72bab1905bc604dcd616",
    "all/spectrum/spectrum_turnout.csv":
        "7f2f4f89f33f2d0b0cd1abee7a9f855947572c8f826367b70bc3c8dadf7b6314",
    "all/spectrum/spectrum_turnout.svg":
        "05b9a078fceaa0c7a49f43fffa516fa68e01f31e69fef79acec1d2cb6a7e9e05",
    "all/spectrum/stdout":
        "2d1b278bb983df73d10d533210a0544a99106a24913aacc53b9b8d81b8d40617",
    "default/analyze/analysis.json":
        "8703f82a9dcd621fa4d35fc0ee0d107b292fa006b3d60c11bfc06cabb140f673",
    "default/analyze/samples.csv":
        "86482f8f3ac18a5cd95f148478c383fb137e9b99b1a8936f105aa2f4c82030bb",
    "default/analyze/stdout":
        "bc1446be576c520a49798dc8fa190f3b165a680af71fff8078ed9f393bf63cfa",
    "default/analyze/window_sweep.csv":
        "519a21317799ec04f926e8cb531f0036abcb4b4ec95f92c9e58b8ce13d9172d2",
    "default/fingerprint/fingerprint.csv":
        "0388b177c2af0bcd7988bfce3009069f5bbae628f3c237de2525d84657446703",
    "default/fingerprint/fingerprint.json":
        "580fbf16163ae0b96d4931e3c954fecf1943108bded05245dd419d546d1bc38a",
    "default/fingerprint/stdout":
        "18c2a386010e149cfd244ea13aa65fa96923e57a53953c3c20b44e61ac850031",
    "default/histogram/hist_turnout_clean.csv":
        "82bfe1d6e01f569c35b7d281a151f2d58a2420a89f29a4a4923fc76c71b5893c",
    "default/histogram/hist_turnout_fraud.csv":
        "5037a55b13b681f7e3004ce71e518732b3865a0598f6f9ed5222da919da7785e",
    "default/histogram/stdout":
        "2b66f323d9819fd498badb2531ef6bd5c7362effb41602f5c5e8761bb2fc957f",
    "default/histogram_avg/hist_result_avg.csv":
        "e634983390e697a1dd9d348c42e4e65e1b546057ee189f26dde0548977baca73",
    "default/histogram_avg/hist_turnout_avg.csv":
        "136aeb2c87e6a97e52d8a2bbb81c92748ee253392578ba487417692333837971",
    "default/histogram_avg/peak_shape_result.csv":
        "4701329897ca28baeac303a5a49269a71a192d328b95144930927d53b34c5c09",
    "default/histogram_avg/peak_shape_turnout.csv":
        "8ed756a518aaf399d023090a83b95fa0e58192e1ed24f7906a0bf37c9f863a17",
    "default/histogram_avg/stdout":
        "f09368a3242c4dd0bb7dd914b181ae5d446649e96bb57e0bbcdfb3ac48523be9",
    "default/regions/region_peaks.csv":
        "80e8bd4dfe2f019e6f5845725e5ac530e255e83dfc85cc93fac32bf172251336",
    "default/regions/region_ranking.json":
        "19e61eb451c9742a1c349d213648a835b636f0ce91e6c74e0de5436cca698ea4",
    "default/regions/stdout":
        "c4d1c53fb82bf16d6a0b20e57540e5fda5e4fddc9eda0936aad362f92b012645",
    "default/regions_top/excluded_regions.txt":
        "3e73e9f82ca499c50ca52dd0888938aa80e10d6af853e710902a0a3211f464bd",
    "default/regions_top/hist_result_excluded.csv":
        "598e0bdac7b6f0f7e8d74df0e1424e3996c0e64852c4b7f74e68b880dd33dad7",
    "default/regions_top/hist_turnout_excluded.csv":
        "12a9bbfd914b1e93fe3864904c92085735588f4f555c7dbc04e2fd45950ad540",
    "default/regions_top/region_peaks.csv":
        "173e8e5b1cd91220fe03e25bb10df4627bd85c05d4d72af92330755d65fdb89e",
    "default/regions_top/region_ranking.json":
        "21c1adab2660cddccda6016bb8e3c4079114fcf9887c612456997bf040c24218",
    "default/regions_top/stdout":
        "fbe1719ed67ed17ae289a2c74042fd051f758a05b4f59c7eddd3914a3d224a5b",
    "default/spectrum/harmonic_turnout.csv":
        "b5f6c8b024a0090ab7687d61e49548e67e13c41ecc8e4bc969d964146735c879",
    "default/spectrum/spectrogram_turnout.csv":
        "892ac2609ca4099f8acb66ddba46a4f1e4f432f840e80590927b51e3fe24df28",
    "default/spectrum/spectrum_turnout.csv":
        "7f2f4f89f33f2d0b0cd1abee7a9f855947572c8f826367b70bc3c8dadf7b6314",
    "default/spectrum/stdout":
        "a74797ee5dbb858d459612660ebbda4274deb7a2b45429bac37e26b6d32eef56",
    "sim_clean/election.tsv":
        "3303c259f1351f3b2cacf92d029d47a5afcbca67034c786b84ea350a5d42f54a",
    "sim_clean/injection_log.json":
        "680bb65fd8af031778be05cfdc51788b9657480f952eca46d3b77f0b27f17ab2",
    "sim_clean/stdout":
        "c9a1d5cacd090fa54f8cde26236a64f73ce6b752c36ee9b247bd7054b6945aa6",
    "sim_fraud/election.tsv":
        "7a341a3bfa032c90eeae36a463f4e7ae100ced00071a53f9bf4c63fe2e345e8f",
    "sim_fraud/injection_log.json":
        "feccc311f604db62ef1a4791cda3ae5ee03772fe451fe9217f4b54f39070410e",
    "sim_fraud/stdout":
        "5af9fd0f204846c4dd017643c5a134d5c28eba023398f34b9c51b931a3ac632e",
    "validate/stdout":
        "672fbd5829b5e9c0ef108ccbc394e565d78612af7e57f5c7abcf990caa556cf3",
    "validate/validation.json":
        "8d4f46cfd0247cb98031592200bd1fb714004e0169e41debb344e78ea5df1bdc",
}


def test_golden_session_is_byte_stable(tmp_path, monkeypatch):
    """Every artifact and summary of a fixed session keeps its exact bytes."""
    monkeypatch.chdir(tmp_path)
    got = {}
    for out, argv in _golden_steps():
        rc, stdout = quiet_main(argv + ["--out", out])
        assert rc == 0, out
        got[f"{out}/stdout"] = _sha(stdout.encode("utf-8"))
        if out == "sim_fraud":
            os.mkdir("in")
            shutil.copy("sim_clean/election.tsv", "in/clean.tsv")
            shutil.copy("sim_fraud/election.tsv", "in/fraud.tsv")
            with open("in/ref.json", "w", encoding="utf-8") as fh:
                json.dump({"R00": {"registered": 1, "given": 2}, "R09": {"cast": 3}}, fh)
    for path in sorted(tmp_path.rglob("*")):
        if path.is_file() and path.parts[len(tmp_path.parts)] != "in":
            got[path.relative_to(tmp_path).as_posix()] = _sha(path.read_bytes())
    assert got == GOLDEN


def test_golden_session_keeps_its_bytes_when_every_draw_leaves_the_band(tmp_path, monkeypatch):
    """A 0-sigma band sends almost every table draw through the
    settlement on its full row; the session's bytes must not move."""
    settle = sampling._QuantileTable._settle
    settled = []

    def spy(self, t, u, cols):
        settled.append(t.size)
        return settle(self, t, u, cols)

    monkeypatch.setattr(sampling, "_BAND_SIGMAS", 0.0)
    monkeypatch.setattr(sampling._QuantileTable, "_settle", spy)
    test_golden_session_is_byte_stable(tmp_path, monkeypatch)
    assert sum(settled) > 100 * 300


def test_awkward_names_keep_every_artifact_parseable(tmp_path):
    """Region codes and an input name holding CSV, XML, comment and
    line-break characters: every CSV row keeps the header's width, every
    SVG and JSON file parses."""
    codes = ("Palmas, Las", 'Quote "Q"', "Île<&>", "#hash", "Carriage\rReturn")
    inputs = []
    for seed, name in ((11, "in,put.tsv"), (12, "other.tsv")):
        rc, _ = quiet_main(["simulate", "--out", str(tmp_path / name[:2]), "--stations", "400",
                            "--regions", "5", "--seed", str(seed)])
        assert rc == 0
        ds, _ = load_dataset(str(tmp_path / name[:2] / "election.tsv"), "canonical")
        recoded = tuple(codes[int(c[1:])] for c in ds.region_codes)
        write_canonical_tsv(dataclasses.replace(ds, region_codes=recoded), tmp_path / name)
        inputs.append(str(tmp_path / name))
    mc = ["--iterations", "100", "--workers", "1"]
    runs = {
        "analyze": ["analyze", "--input", inputs[0], *mc],
        "histogram": ["histogram", "--input", *inputs, *mc],
        "average": ["histogram", "--input", *inputs, "--average", *mc],
        "spectrum": ["spectrum", "--input", inputs[0], *mc],
        "regions": ["regions", "--input", *inputs, "--exclude-top", "1", *mc],
        "fingerprint": ["fingerprint", "--input", inputs[0]],
    }

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    for out, argv in runs.items():
        rc, _ = quiet_main(argv + ["--format", "csv,json,svg", "--out", str(tmp_path / out)])
        assert rc == 0, out
        for path in (tmp_path / out).iterdir():
            with open(path, encoding="utf-8", newline="") as fh:
                text = fh.read()
            if path.suffix == ".csv":
                config, digest, body = text.split("\n", 2)
                assert config.startswith("# config: ") and digest.startswith("# digest: ")
                header, *rows = csv.reader(io.StringIO(body, newline=""))
                assert rows and {len(row) for row in rows} == {len(header)}, path.name
            elif path.suffix == ".svg":
                minidom.parseString(text)
            elif path.suffix == ".json":
                json.loads(text, parse_constant=reject)
    with open(tmp_path / "regions" / "region_peaks.csv", encoding="utf-8", newline="") as fh:
        table = list(csv.DictReader(line for line in fh if not line.startswith("# ")))
    assert {row["region_code"] for row in table} == set(codes)
    assert {row["dataset"] for row in table} == {"in,put", "other"}


_CSV_TEXT = st.text(st.sampled_from(list('a1. ,"\r\n\t')), max_size=4)


@settings(max_examples=150, deadline=None)
@hgiven(
    header=st.lists(_CSV_TEXT, max_size=4),
    rows=st.lists(
        st.lists(_CSV_TEXT | st.floats() | st.integers() | st.none(), max_size=4)
        | st.sampled_from([[""], [None], [], ["\r"], ["a\rb", 1.5]]),
        max_size=6,
    ),
)
def test_csv_rows_keep_the_row_writers_bytes(header, rows):
    # rows joined directly and rows sent through row_writer: commas,
    # quotes, CR, LF, a lone CR, empty cells, a row of one empty cell
    fast = io.StringIO(newline="")
    cli._write_csv(fast, {"k": 1}, "d", header, iter(rows))
    slow = io.StringIO(newline="")
    slow.write('# config: {"k": 1}\n# digest: d\n')
    out = row_writer(slow)
    out.writerow([_cell(v) for v in header])
    out.writerows([_cell(v) for v in row] for row in rows)
    assert fast.getvalue() == slow.getvalue()
