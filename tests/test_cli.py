"""End-to-end command line runs, in process."""

import contextlib
import io
import json
import shutil

import pytest

import pollheap.anomaly as anomaly
from pollheap.cli import _cell, main
from pollheap.ingest import load_dataset
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


class TestValidate:
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

    def test_average_needs_two_inputs(self, data_dir, tmp_path, capsys):
        rc, _, err = run(
            capsys,
            ["histogram", "--input", str(data_dir / "clean.tsv"),
             "--out", str(tmp_path), "--average"],
        )
        assert rc == 1
        assert "at least two inputs" in err

    def test_low_iterations_rejected(self, data_dir, tmp_path, capsys):
        rc, _, err = run(
            capsys,
            ["histogram", "--input", str(data_dir / "clean.tsv"),
             "--out", str(tmp_path), "--iterations", "50"],
        )
        assert rc == 1
        assert "iterations" in err


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

    def test_argparse_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", "x.tsv", "--window", "0.7"])
        assert exc.value.code == 2

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

    def test_overprecise_max_percent_is_rejected(self, data_dir, tmp_path, capsys):
        # finer than 1e-6 the exact filter products would wrap in int64
        out = tmp_path / "nothing"
        rc, _, err = run(
            capsys,
            ["analyze", "--input", str(data_dir / "clean.tsv"), "--out", str(out),
             "--iterations", "100", "--max-percent", "98.99999999999999"],
        )
        assert rc == 1
        assert "max_percentage precision" in err
        assert not out.exists() or not any(out.iterdir())
