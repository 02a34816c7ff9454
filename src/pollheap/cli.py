"""Command line interface.

Subcommands cover the full pipeline: schema validation, the
integer-window anomaly test with its control variants, binned
histograms with simulated envelopes, spectral analysis, per-region
peak attribution, 2-d fingerprints, and synthetic data generation.

Conventions shared by every subcommand:
  * machine-readable JSON summary on stdout, progress lines on stderr
  * exit 0 on success, 1 on runtime failure, 2 on usage/schema errors
  * a subcommand returns its summary and its artifacts' contents; one
    driver (_run) turns them into files, so every artifact is written
    the same way
  * every CSV, JSON and SVG artifact embeds the run configuration (every
    parsed argument except --out, --format and --workers) and a digest
    over the configuration plus the bytes of --input and --reference,
    making outputs self-describing
  * --format selects the CSV, JSON and SVG files of analyze, histogram,
    spectrum, regions and fingerprint; validate and simulate have no
    --format and write every file they make
  * artifacts are computed in memory, staged in --out under temporary
    names and moved into place only once all are written, so a failing
    run leaves no files
  * outputs are byte-identical for a given configuration regardless of
    --workers
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .anomaly import (
    DEFAULT_LEVELS,
    StatisticDef,
    WindowSpec,
    run_nulls,
    window_sweep,  # noqa: F401  not called here; perfbench/tracing.py patches cli.window_sweep
)
from .histograms import (
    WeightedHistogram,
    average_histograms,
    build_histogram,
    envelope_from_matrix,
    mc_histogram_matrices,
    mc_histograms,  # noqa: F401  not called here; perfbench/tracing.py patches cli.mc_histograms
    peak_shape,
)
from .ingest import PROFILES, SchemaError, load_dataset, verify_subtotals, write_canonical_tsv
from .model import FilterPolicy, apply_filters, as_fraction
from .regions import exclude_regions, fingerprint, region_peaks, restrict_regions
from .render import (
    render_box_plot,
    render_envelope_plot,
    render_heatmap,
    render_line_plot,
)
from .sampling import NullModel
from .spectral import amplitude_spectrum, harmonic_profile, spectrogram
from .synth import (
    MECHANISMS,
    METRIC_CHOICES,
    TARGET_SIDES,
    FraudSpec,
    GeneratorConfig,
    generate,
    inject_fraud,
)

_FORMATS = ("csv", "json", "svg")
_NOT_ECHOED = ("out", "format", "workers")

_ANALYZE_DEFS = (
    ("main", StatisticDef(), "integer"),
    ("turnout_only", StatisticDef(metric_scope="turnout_only"), "integer"),
    ("result_only", StatisticDef(metric_scope="result_only"), "integer"),
    ("voter_weighted", StatisticDef(weighting="registered_voters"), "integer"),
    ("zero_excluded", StatisticDef(zero_exclusion=True), "integer"),
    ("half_integer", StatisticDef(), "half_integer"),
)


class UsageError(ValueError):
    """Arguments that parse but do not make sense together (exit 2)."""


# ---------------------------------------------------------------------------
# argument parsing helpers


def _fraction_arg(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _window_arg(text: str) -> tuple[Fraction, ...]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("empty window list")
    widths = tuple(_fraction_arg(p) for p in parts)
    for w in widths:
        if not 0 < w <= Fraction(1, 2):
            raise argparse.ArgumentTypeError(f"half width {w} outside (0, 1/2]")
    return widths


def _levels_arg(text: str) -> tuple[Fraction, Fraction]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("levels must be two comma-separated percentiles")
    lo, hi = (_fraction_arg(p) for p in parts)
    if not 0 <= lo < hi <= 100:
        raise argparse.ArgumentTypeError("levels must satisfy 0 <= low < high <= 100")
    return lo, hi


def _model_arg(text: str) -> NullModel:
    try:
        return NullModel.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _codes_arg(text: str) -> tuple[str, ...]:
    codes = tuple(c.strip() for c in text.split(",") if c.strip())
    if not codes:
        raise argparse.ArgumentTypeError("empty region code list")
    return codes


def _format_arg(text: str) -> tuple[str, ...]:
    fmts = tuple(dict.fromkeys(f.strip() for f in text.split(",") if f.strip()))
    for f in fmts:
        if f not in _FORMATS:
            raise argparse.ArgumentTypeError(f"unknown format {f!r}")
    return fmts or ("csv", "json")


def _add_common(
    p: argparse.ArgumentParser, multi_input: bool = False, formats: bool = True
) -> None:
    if multi_input:
        p.add_argument("--input", required=True, nargs="+", help="input data files")
    else:
        p.add_argument("--input", required=True, help="input data file")
    p.add_argument("--profile", default="canonical", choices=sorted(PROFILES))
    p.add_argument("--out", default=".", help="output directory for artifacts")
    if formats:
        p.add_argument(
            "--format",
            type=_format_arg,
            default=("csv", "json"),
            help="comma-separated artifact formats: csv,json,svg",
        )


def _add_filters(p: argparse.ArgumentParser) -> None:
    p.add_argument("--min-registered", type=int, default=100)
    p.add_argument("--max-percent", type=_fraction_arg, default=Fraction(99))
    p.add_argument(
        "--keep-undefined-result",
        action="store_true",
        help="keep stations whose leader share has a zero denominator",
    )
    p.add_argument("--no-filter", action="store_true", help="skip station filtering")
    p.add_argument("--exclude-regions", type=_codes_arg, default=None)
    p.add_argument("--restrict-regions", type=_codes_arg, default=None)


def _add_mc(p: argparse.ArgumentParser, default_iterations: int) -> None:
    p.add_argument("--model", type=_model_arg, default=NullModel("binomial"))
    p.add_argument("--iterations", type=int, default=default_iterations)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="simulation worker processes (default: available parallelism)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pollheap",
        description="integer-percentage anomaly forensics for polling station data",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse inputs and check subtotals")
    _add_common(p, multi_input=True, formats=False)
    p.add_argument("--reference", default=None, help="JSON file of per-region reference totals")

    p = sub.add_parser("analyze", help="integer-window anomaly test with control variants")
    _add_common(p)
    _add_filters(p)
    _add_mc(p, default_iterations=1000)
    p.add_argument(
        "--window",
        type=_window_arg,
        default=(Fraction(1, 20),),
        help="half width of the window, e.g. 0.05; a comma list runs a sweep",
    )
    p.add_argument("--levels", type=_levels_arg, default=DEFAULT_LEVELS)

    p = sub.add_parser("histogram", help="binned metric histograms with simulated envelopes")
    _add_common(p, multi_input=True)
    _add_filters(p)
    _add_mc(p, default_iterations=0)
    p.add_argument("--metric", default="both", choices=("turnout", "result", "both"))
    p.add_argument("--bins", type=_fraction_arg, default=Fraction(1, 10), help="bin width in percent")
    p.add_argument("--jitter", action="store_true", help="de-heap by jittering numerators")
    p.add_argument("--include-hundred", action="store_true", help="keep exact-100%% stations")
    p.add_argument("--levels", type=_levels_arg, default=DEFAULT_LEVELS)
    p.add_argument(
        "--average",
        action="store_true",
        help="average histograms across the input files instead of per-file output",
    )

    p = sub.add_parser("spectrum", help="amplitude spectrum and sliding-window spectrogram")
    _add_common(p)
    _add_filters(p)
    _add_mc(p, default_iterations=200)
    p.add_argument("--metric", default="both", choices=("turnout", "result", "both"))

    p = sub.add_parser("regions", help="attribute window peaks to regions and rank them")
    _add_common(p, multi_input=True)
    _add_filters(p)
    _add_mc(p, default_iterations=200)
    p.add_argument("--centers", default="integer", choices=("integer", "half_integer"))
    p.add_argument(
        "--exclude-top",
        type=int,
        default=0,
        help="also emit averaged histograms with the top N ranked regions removed",
    )

    p = sub.add_parser("fingerprint", help="2-d turnout/result fingerprint")
    _add_common(p)
    _add_filters(p)
    p.add_argument("--weighted", action="store_true", help="weight correlation by registered voters")

    p = sub.add_parser("simulate", help="generate synthetic data, optionally with injected fraud")
    p.add_argument("--out", default=".", help="output directory for artifacts")
    p.add_argument("--stations", type=int, required=True)
    p.add_argument("--regions", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fraud-mechanism", default=None, choices=MECHANISMS)
    p.add_argument("--fraud-fraction", type=float, default=0.0)
    p.add_argument("--fraud-side", default="just_above", choices=TARGET_SIDES)
    p.add_argument("--fraud-metric", default="either", choices=METRIC_CHOICES)
    p.add_argument("--fraud-regions", type=_codes_arg, default=None)
    p.add_argument("--fraud-window", type=_fraction_arg, default=Fraction(1, 20))
    p.add_argument("--fraud-seed", type=int, default=None)
    return parser


# ---------------------------------------------------------------------------
# artifact plumbing


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _inputs(args: argparse.Namespace) -> list[str]:
    paths = getattr(args, "input", [])
    return paths if isinstance(paths, list) else [paths]


def _run_config(args: argparse.Namespace) -> dict:
    """Configuration echo: every parsed argument but _NOT_ECHOED.

    Worker count, output directory, and format selection are excluded
    on purpose: they change where and how results land, never what the
    numbers are.
    """
    cfg: dict = {"version": __version__}
    for name, value in vars(args).items():
        if name in _NOT_ECHOED:
            continue
        if name == "input":
            value = [Path(p).name for p in _inputs(args)]
        elif name == "model":
            value = value.describe()
        cfg[name] = _jsonable(value)
    return cfg


def _digest(cfg: dict, input_paths: list[str]) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(cfg, sort_keys=True).encode("utf-8"))
    for p in sorted(input_paths):
        h.update(hashlib.sha256(Path(p).read_bytes()).digest())
    return h.hexdigest()


def _cell(v) -> str:
    if type(v) is float:  # the bulk of every matrix CSV
        return repr(v)
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _csv_doc(cfg: dict, digest: str, header: list[str], rows) -> str:
    lines = [
        "# config: " + json.dumps(cfg, sort_keys=True),
        "# digest: " + digest,
        ",".join(header),
    ]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_doc(cfg: dict, digest: str, payload: dict) -> str:
    doc = {"run": dict(cfg, digest=digest)}
    doc.update(_jsonable(payload))
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _svg_meta(cfg: dict, digest: str) -> str:
    return "config " + json.dumps(cfg, sort_keys=True) + " digest " + digest


def _document(name: str, content, cfg: dict, digest: str):
    """What is written for one artifact, by its file type.

    A command gives .csv files as (header, rows), .json files as a
    payload dict, .svg files as a render function still to be called
    with meta=, .tsv files as a function writing to a path (returned as
    is), and other files as their text.
    """
    kind = Path(name).suffix
    if kind == ".csv":
        return _csv_doc(cfg, digest, *content)
    if kind == ".json":
        return _json_doc(cfg, digest, content)
    if kind == ".svg":
        return content(meta=_svg_meta(cfg, digest))
    return content


def _write(out: str, docs: list) -> list[str]:
    """Write all documents or none; returns their paths.

    Every file is staged in a temporary directory under out and moved
    into place only once all are written; on any error the staged files
    and those already moved are removed.
    """
    root = Path(out)
    root.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".staging-", dir=root))
    placed = []
    try:
        for name, doc in docs:
            if callable(doc):
                doc(stage / name)
            else:
                (stage / name).write_bytes(doc.encode("utf-8"))
        for name, _ in docs:
            os.replace(stage / name, root / name)
            placed.append(root / name)
    except BaseException:
        for path in placed:
            path.unlink(missing_ok=True)
        raise
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return [str(root / name) for name, _ in docs]


def _run(args: argparse.Namespace) -> dict:
    """Run one subcommand and write its artifacts; returns the summary.

    A subcommand returns its summary and an ordered list of (filename,
    content); everything that makes the contents self-describing and
    puts them on disk happens here.
    """
    summary, files = _COMMANDS[args.command](args)
    names = [name for name, _ in files]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"two artifacts would share a name: {', '.join(repeated)}")
    cfg = _run_config(args)
    reference = [args.reference] if getattr(args, "reference", None) else []
    digest = _digest(cfg, _inputs(args) + reference)
    skipped = set(_FORMATS) - set(getattr(args, "format", _FORMATS))
    docs = [
        (name, _document(name, content, cfg, digest))
        for name, content in files
        if Path(name).suffix[1:] not in skipped
    ]
    summary.update(command=args.command, digest=digest, artifacts=_write(args.out, docs))
    return summary


def _progress(label: str):
    def cb(done: int, total: int) -> None:
        print(f"progress {label} {done}/{total}", file=sys.stderr, flush=True)

    return cb


def _policy(args: argparse.Namespace) -> FilterPolicy | None:
    if args.no_filter:
        return None
    return FilterPolicy(
        min_registered=args.min_registered,
        max_percentage=args.max_percent,
        exclude_undefined_result=not args.keep_undefined_result,
    )


def _prepare(args: argparse.Namespace, path: str):
    """Load one input and apply filtering plus region selection."""
    dataset, report = load_dataset(path, args.profile, label=Path(path).stem)
    if not args.no_filter:
        dataset = apply_filters(dataset, _policy(args))
    if args.exclude_regions:
        dataset = exclude_regions(dataset, args.exclude_regions)
    if args.restrict_regions:
        dataset = restrict_regions(dataset, args.restrict_regions)
    if len(dataset) == 0:
        raise ValueError(f"no stations left after filtering: {path}")
    return dataset, report


# ---------------------------------------------------------------------------
# subcommands: each returns (summary, [(filename, content), ...])


def _cmd_validate(args: argparse.Namespace) -> tuple[dict, list]:
    reference = None
    if args.reference:
        with open(args.reference, "r", encoding="utf-8") as fh:
            reference = json.load(fh)

    results = []
    for path in args.input:
        dataset, report = load_dataset(path, args.profile, label=Path(path).stem)
        entry = {
            "input": Path(path).name,
            "stations": len(dataset),
            "parsed": report.parsed,
            "skipped": report.skipped,
            "invalid": report.invalid,
            "errors": list(report.errors[:20]),
        }
        if reference is not None:
            disc = verify_subtotals(dataset, reference)
            entry["discrepancies"] = [
                {
                    "region_code": d.region_code,
                    "field": d.field,
                    "expected": d.expected,
                    "actual": d.actual,
                }
                for d in disc
            ]
        results.append(entry)
    return {"results": results}, [("validation.json", {"results": results})]


def _cmd_analyze(args: argparse.Namespace) -> tuple[dict, list]:
    if args.iterations < 100:
        raise ValueError("analyze needs --iterations >= 100")
    dataset, _ = _prepare(args, args.input)

    named = [
        (name, stat, WindowSpec(center_kind=kind, half_width=args.window[0]))
        for name, stat, kind in _ANALYZE_DEFS
    ]
    # a --window list adds the sweep's definitions to the same draws;
    # each report depends only on its own definition, so the sweep rows
    # equal what window_sweep would compute
    sweep = []
    if len(args.window) > 1:
        sweep = [(StatisticDef(), WindowSpec("integer", hw)) for hw in args.window]
    reports = run_nulls(
        dataset,
        [(stat, window) for _, stat, window in named] + sweep,
        model=args.model,
        iterations=args.iterations,
        master_seed=args.seed,
        workers=args.workers,
        levels=args.levels,
        progress=_progress("analyze"),
    )
    by_name = {name: rep for (name, _, _), rep in zip(named, reports)}
    sweep_reports = reports[len(named):]

    names = list(by_name)
    files = [
        (
            "analysis.json",
            {
                "stations": len(dataset),
                "reports": {name: rep.to_dict() for name, rep in by_name.items()},
            },
        ),
        (
            "samples.csv",
            (
                ["iteration"] + names,
                [
                    [it] + [int(by_name[n].mc_samples[it]) for n in names]
                    for it in range(args.iterations)
                ],
            ),
        ),
    ]
    if sweep_reports:
        rows = [
            [
                rep.window.half_width,
                rep.empirical,
                rep.mc_mean,
                rep.mc_sd,
                rep.z_score,
                rep.p_value_text(),
            ]
            for rep in sweep_reports
        ]
        header = ["half_width", "empirical", "mc_mean", "mc_sd", "z_score", "p_value"]
        files.append(("window_sweep.csv", (header, rows)))
    entries = [
        {
            "label": name,
            "low": float(rep.percentile_interval[0]),
            "high": float(rep.percentile_interval[1]),
            "mean": rep.mc_mean,
            "empirical": float(rep.empirical),
        }
        for name, rep in by_name.items()
    ]
    files.append((
        "analysis.svg",
        partial(
            render_box_plot, entries, "stations in window vs simulated null",
            "window statistic",
        ),
    ))

    main = by_name["main"]
    summary = {
        "stations": len(dataset),
        "main": {
            "empirical": int(main.empirical),
            "mc_mean": main.mc_mean,
            "mc_sd": main.mc_sd,
            "z_score": main.z_score,
            "anomaly_size": main.anomaly_size,
            "p_value": main.p_value_text(),
        },
    }
    return summary, files


def _metrics(arg: str) -> tuple[str, ...]:
    return ("turnout", "result") if arg == "both" else (arg,)


def _peak_shape_rows(hists, means, metric: str, bin_width: Fraction):
    """Rows of peak_shape_<metric>.csv.

    A generator, so peak_shape runs only when the CSV is written.
    """
    mc_hists = [
        WeightedHistogram(metric=metric, bin_width=bin_width, weights=m) for m in means
    ]
    shape = peak_shape(hists, mc_hists)
    yield from zip(shape.offsets, shape.mean_excess)


def _cmd_histogram(args: argparse.Namespace) -> tuple[dict, list]:
    if args.iterations and args.iterations < 100:
        raise ValueError("envelopes need --iterations >= 100 (or 0 to skip)")
    suppress = not args.include_hundred

    loaded = [_prepare(args, path) for path in args.input]
    datasets = [d for d, _ in loaded]
    labels = [d.label for d in datasets]
    if args.average and len(datasets) < 2:
        raise ValueError("--average needs at least two inputs")

    metrics = _metrics(args.metric)
    # one simulation for every (metric, input), matrices in that order
    simulated = []
    if args.iterations:
        simulated = mc_histogram_matrices(
            [(ds, metric) for metric in metrics for ds in datasets],
            model=args.model, iterations=args.iterations, master_seed=args.seed,
            bin_width=args.bins, jitter=args.jitter, suppress_hundred=suppress,
            workers=args.workers, progress=_progress("histogram"),
        )

    files = []
    summary: dict = {"inputs": labels, "metrics": {}}
    for k, metric in enumerate(metrics):
        hists = [
            build_histogram(
                ds, metric, bin_width=args.bins, jitter=args.jitter,
                seed=args.seed, suppress_hundred=suppress,
            )
            for ds in datasets
        ]
        matrices = simulated[k * len(datasets) : (k + 1) * len(datasets)]

        if args.average:
            avg = average_histograms(hists)
            centers = avg.bin_centers
            emp = np.asarray(avg.weights, dtype=np.float64)
            header = ["bin_center", "average_weight"]
            cols = [emp]
            series = [("average empirical", centers, emp)]
            means = [m.mean(axis=0) for m in matrices]
            if means:
                mc_avg = np.zeros_like(means[0])
                for m in means:
                    mc_avg += m
                mc_avg /= len(means)
                header.append("mc_mean")
                cols.append(mc_avg)
                series.append(("average simulated mean", centers, mc_avg))
            rows = [[c] + [col[i] for col in cols] for i, c in enumerate(centers)]
            files.append((f"hist_{metric}_avg.csv", (header, rows)))
            if means:
                files.append((
                    f"peak_shape_{metric}.csv",
                    (["offset", "mean_excess"],
                     _peak_shape_rows(hists, means, metric, args.bins)),
                ))
            files.append((
                f"hist_{metric}_avg.svg",
                partial(
                    render_line_plot, series, f"{metric} histogram (averaged)",
                    "percent", "stations per bin",
                ),
            ))
            summary["metrics"][metric] = {"total_weight": float(avg.weights.sum())}
        else:
            per_metric = []
            for i, (hist, label) in enumerate(zip(hists, labels)):
                centers = hist.bin_centers
                stem = f"hist_{metric}_{label}" if len(labels) > 1 else f"hist_{metric}"
                title = f"{metric} histogram: {label}"
                header = ["bin_center", "weight"]
                rows = [[c, int(w)] for c, w in zip(centers, hist.weights)]
                if matrices:
                    env = envelope_from_matrix(matrices[i], metric, args.bins, args.levels)
                    header += ["mc_mean", "low", "high"]
                    for r, m, lo, hi in zip(rows, env.mean, env.low, env.high):
                        r += [m, int(lo), int(hi)]
                    svg = partial(
                        render_envelope_plot, centers, hist.weights.astype(float),
                        env.mean, env.low.astype(float), env.high.astype(float),
                        title, "percent", "stations per bin",
                    )
                else:
                    svg = partial(
                        render_line_plot,
                        [("empirical", centers, hist.weights.astype(float))],
                        title, "percent", "stations per bin",
                    )
                files += [(f"{stem}.csv", (header, rows)), (f"{stem}.svg", svg)]
                per_metric.append({"input": label, "total_weight": int(hist.weights.sum())})
            summary["metrics"][metric] = per_metric
    return summary, files


def _cmd_spectrum(args: argparse.Namespace) -> tuple[dict, list]:
    if args.iterations < 100:
        raise ValueError("spectrum needs --iterations >= 100 for the simulated baseline")
    dataset, _ = _prepare(args, args.input)

    metrics = _metrics(args.metric)
    matrices = mc_histogram_matrices(
        [(dataset, metric) for metric in metrics],
        model=args.model, iterations=args.iterations, master_seed=args.seed,
        workers=args.workers, progress=_progress("spectrum"),
    )

    files = []
    summary: dict = {"metrics": {}}
    for metric, matrix in zip(metrics, matrices):
        hist = build_histogram(dataset, metric)
        spec = amplitude_spectrum(hist)
        gram = spectrogram(hist, matrix)
        profile = harmonic_profile(gram, frequency=1.0)

        gram_header = ["center"] + [_cell(f) for f in gram.frequencies]
        # made a row at a time as the csv is written, so the matrix never
        # exists as Python floats all at once
        gram_rows = (row.tolist() for row in np.column_stack((gram.centers, gram.ratio)))
        files += [
            (
                f"spectrum_{metric}.csv",
                (["frequency", "amplitude"], list(zip(spec.frequencies, spec.amplitudes))),
            ),
            (f"spectrogram_{metric}.csv", (gram_header, gram_rows)),
            (
                f"harmonic_{metric}.csv",
                (["center", "ratio"], list(zip(profile.centers, profile.values))),
            ),
            (
                f"spectrum_{metric}.svg",
                partial(
                    render_line_plot, [("amplitude", spec.frequencies, spec.amplitudes)],
                    f"{metric} amplitude spectrum", "frequency (1/percent)", "amplitude",
                ),
            ),
            (
                f"spectrogram_{metric}.svg",
                partial(
                    render_heatmap,
                    gram.ratio,
                    (float(gram.centers[0]), float(gram.centers[-1])),
                    (float(gram.frequencies[0]), float(gram.frequencies[-1])),
                    f"{metric} spectrogram ratio", "window center (percent)",
                    "frequency (1/percent)", v_lo=0.0, v_hi=3.0,
                ),
            ),
        ]
        summary["metrics"][metric] = {
            "final_window_value": profile.final_window_value,
        }
    return summary, files


def _cmd_regions(args: argparse.Namespace) -> tuple[dict, list]:
    if args.iterations < 100:
        raise ValueError("regions needs --iterations >= 100")
    if args.exclude_top < 0:
        raise ValueError("--exclude-top must be >= 0")
    loaded = [_prepare(args, path) for path in args.input]
    datasets = {d.label: d for d, _ in loaded}
    if len(datasets) != len(loaded):
        raise ValueError("input files must have distinct names")

    table = region_peaks(
        datasets,
        model=args.model,
        iterations=args.iterations,
        master_seed=args.seed,
        center_kind=args.centers,
        workers=args.workers,
        progress=_progress("regions"),
    )

    rows = [
        [r.region_code, r.dataset_label, r.peak_amplitude, r.peak_metric, r.peak_percent]
        for r in table.rows
    ]
    files = [
        (
            "region_ranking.json",
            {"center_kind": table.center_kind, "ranking": list(table.ranking)},
        ),
        (
            "region_peaks.csv",
            (["region_code", "dataset", "peak_amplitude", "peak_metric", "peak_percent"], rows),
        ),
    ]

    excluded = list(table.ranking[: args.exclude_top])
    if excluded:
        files.append(("excluded_regions.txt", "\n".join(excluded) + "\n"))
        without = f"without_top_{len(excluded)}"
        for metric in ("turnout", "result"):
            full = [build_histogram(d, metric) for d in datasets.values()]
            reduced = [
                build_histogram(exclude_regions(d, excluded), metric)
                for d in datasets.values()
            ]
            centers = full[0].bin_centers
            avg_full = np.asarray(average_histograms(full).weights, dtype=np.float64)
            avg_reduced = np.asarray(average_histograms(reduced).weights, dtype=np.float64)
            rows = [[c, avg_full[i], avg_reduced[i]] for i, c in enumerate(centers)]
            files += [
                (
                    f"hist_{metric}_excluded.csv",
                    (["bin_center", "all_regions", without], rows),
                ),
                (
                    f"hist_{metric}_excluded.svg",
                    partial(
                        render_line_plot,
                        [
                            ("all regions", centers, avg_full),
                            (f"without top {len(excluded)}", centers, avg_reduced),
                        ],
                        f"{metric} histogram after excluding ranked regions",
                        "percent", "stations per bin",
                    ),
                ),
            ]
    return {"ranking": list(table.ranking), "excluded": excluded}, files


def _cmd_fingerprint(args: argparse.Namespace) -> tuple[dict, list]:
    dataset, _ = _prepare(args, args.input)
    fp = fingerprint(dataset, weighted_correlation=args.weighted)

    edges = [i * 0.5 for i in range(fp.cells.shape[0])]
    header = ["turnout_percent"] + [_cell(e) for e in edges]
    rows = [[edges[i]] + list(fp.cells[i]) for i in range(fp.cells.shape[0])]
    corr = "n/a" if fp.correlation is None else f"{fp.correlation:.3f}"
    files = [
        (
            "fingerprint.json",
            {
                "correlation": fp.correlation,
                "weighted": fp.weighted,
                "stations": fp.n_stations,
                "bin_width": fp.bin_width,
            },
        ),
        ("fingerprint.csv", (header, rows)),
        (
            "fingerprint.svg",
            partial(
                render_heatmap,
                fp.cells.astype(np.float64),
                (0.0, 100.0), (0.0, 100.0),
                "turnout vs leader result", "turnout (percent)",
                "leader result (percent)", log_scale=True,
                note=f"correlation {corr}",
            ),
        ),
    ]
    return {"correlation": fp.correlation, "stations": fp.n_stations}, files


def _cmd_simulate(args: argparse.Namespace) -> tuple[dict, list]:
    if args.stations < 1:
        raise ValueError("--stations must be >= 1")
    if args.fraud_mechanism is None:
        if args.fraud_fraction:
            raise UsageError("--fraud-fraction needs --fraud-mechanism")
    elif not 0 <= args.fraud_fraction <= 1:
        raise ValueError("--fraud-fraction must be in [0, 1]")
    config = GeneratorConfig(n_stations=args.stations, n_regions=args.regions)
    election = generate(config, seed=args.seed)
    dataset = election.dataset

    log_payload: dict = {"requested": 0, "modified": 0, "skipped": [], "records": []}
    if args.fraud_mechanism is not None:
        spec = FraudSpec(
            mechanism=args.fraud_mechanism,
            affected_fraction=args.fraud_fraction,
            target_side=args.fraud_side,
            region_concentration=(
                frozenset(args.fraud_regions) if args.fraud_regions else None
            ),
            metric_choice=args.fraud_metric,
            window_half_width=args.fraud_window,
        )
        fraud_seed = args.seed + 1 if args.fraud_seed is None else args.fraud_seed
        dataset, log = inject_fraud(dataset, spec, seed=fraud_seed)
        log_payload = {
            "requested": log.requested,
            "modified": log.modified,
            "skipped": [{"station_id": sid, "reason": why} for sid, why in log.skipped],
            "records": [
                {
                    "station_id": r.station_id,
                    "mechanism": r.mechanism,
                    "metric": r.metric,
                    "target_percent": r.target_percent,
                    "given_before": r.given_before,
                    "given_after": r.given_after,
                    "leader_before": r.leader_before,
                    "leader_after": r.leader_after,
                }
                for r in log.records
            ],
        }

    # the data file carries only the canonical header so it loads back
    # through the canonical profile; the run configuration lives in the
    # sidecar log instead of comment lines
    files = [
        ("election.tsv", partial(write_canonical_tsv, dataset)),
        ("injection_log.json", log_payload),
    ]
    summary = {
        "stations": len(dataset),
        "modified": log_payload["modified"],
        "skipped": len(log_payload["skipped"]),
    }
    return summary, files


_COMMANDS = {
    "validate": _cmd_validate,
    "analyze": _cmd_analyze,
    "histogram": _cmd_histogram,
    "spectrum": _cmd_spectrum,
    "regions": _cmd_regions,
    "fingerprint": _cmd_fingerprint,
    "simulate": _cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        summary = _run(args)
    except (SchemaError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(_jsonable(summary), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
