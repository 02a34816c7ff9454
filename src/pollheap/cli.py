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
  * artifacts are rendered and staged one at a time in --out under
    temporary names (a CSV a row at a time) and moved into place only
    once all are written, so a failing run leaves no files
  * outputs are byte-identical for a given configuration regardless of
    --workers
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import shutil
import sys
import tempfile
from dataclasses import asdict, replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .anomaly import (
    DEFAULT_LEVELS,
    MIN_ITERATIONS,
    StatisticDef,
    WindowSpec,
    run_nulls,
    window_sweep,  # noqa: F401  not called here; perfbench/tracing.py patches cli.window_sweep
)
from .histograms import (
    WeightedHistogram,
    _bins_per_percent,
    average_histograms,
    build_histogram,
    envelope_from_matrix,
    mc_histogram_matrices,
    mc_histograms,  # noqa: F401  not called here; perfbench/tracing.py patches cli.mc_histograms
    peak_shape,
)
from .ingest import (
    PROFILES,
    SchemaError,
    load_dataset,
    load_reference,
    row_writer,
    verify_subtotals,
    write_canonical_tsv,
)
from .model import (
    METRICS,
    SEED_LIMIT,
    ElectionDataset,
    FilterPolicy,
    apply_filters,
    as_fraction,
    check_seed,
)
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


def _checked(parse):
    """parse as an argparse type: the ValueError of its rule (or a 1/0
    fraction's ZeroDivisionError) is a usage error with its message."""

    def check(text: str):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return check


_model_arg = _checked(NullModel.parse)
_seed_arg = _checked(check_seed)


@_checked
def _max_percent_arg(text: str) -> Fraction:
    return FilterPolicy(max_percentage=as_fraction(text)).max_percentage


@_checked
def _fraud_fraction_arg(text: str) -> float:
    return FraudSpec(MECHANISMS[0], float(text)).affected_fraction


@_checked
def _fraud_window_arg(text: str) -> Fraction:
    return FraudSpec(MECHANISMS[0], 0.0, window_half_width=as_fraction(text)).window_half_width


@_checked
def _window_arg(text: str) -> tuple[Fraction, ...]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty window list")
    return tuple(WindowSpec(half_width=as_fraction(p)).half_width for p in parts)


@_checked
def _bins_arg(text: str) -> Fraction:
    width = as_fraction(text)
    _bins_per_percent(width)
    return width


@_checked
def _levels_arg(text: str) -> tuple[Fraction, Fraction]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 2:
        raise ValueError("levels must be two comma-separated percentiles")
    lo, hi = map(as_fraction, parts)
    if not 0 <= lo < hi <= 100:
        raise ValueError("levels must satisfy 0 <= low < high <= 100")
    return lo, hi


def _int_arg(minimum: int, also: int | None = None):
    """An argparse type: an int of at least minimum, or equal to also."""

    @_checked
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum and value != also:
            alt = "" if also is None else f" and is not {also}"
            raise ValueError(f"{value} is below {minimum}{alt}")
        return value

    return parse


def _codes_arg(text: str) -> tuple[str, ...]:
    codes = tuple(c.strip() for c in text.split(",") if c.strip())
    if not codes:
        raise argparse.ArgumentTypeError("empty region code list")
    return codes


def _format_arg(text: str) -> tuple[str, ...]:
    fmts = tuple(dict.fromkeys(f.strip() for f in text.split(",") if f.strip()))
    if not fmts:
        raise argparse.ArgumentTypeError("empty format list")
    for f in fmts:
        if f not in _FORMATS:
            raise argparse.ArgumentTypeError(f"unknown format {f!r}")
    return fmts


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
    p.add_argument("--max-percent", type=_max_percent_arg, default=Fraction(99))
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
    # histogram's default, 0, skips its envelopes
    iterations = _int_arg(MIN_ITERATIONS, also=None if default_iterations else 0)
    p.add_argument("--iterations", type=iterations, default=default_iterations)
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument(
        "--workers",
        type=_int_arg(1),
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
    p.add_argument("--metric", default="both", choices=(*METRICS, "both"))
    p.add_argument("--bins", type=_bins_arg, default=Fraction(1, 10), help="bin width in percent")
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
    p.add_argument("--metric", default="both", choices=(*METRICS, "both"))

    p = sub.add_parser("regions", help="attribute window peaks to regions and rank them")
    _add_common(p, multi_input=True)
    _add_filters(p)
    _add_mc(p, default_iterations=200)
    p.add_argument("--centers", default="integer", choices=("integer", "half_integer"))
    p.add_argument(
        "--exclude-top",
        type=_int_arg(0),
        default=0,
        help="also emit averaged histograms with the top N ranked regions removed",
    )

    p = sub.add_parser("fingerprint", help="2-d turnout/result fingerprint")
    _add_common(p)
    _add_filters(p)
    p.add_argument("--weighted", action="store_true", help="weight correlation by registered voters")

    p = sub.add_parser("simulate", help="generate synthetic data, optionally with injected fraud")
    p.add_argument("--out", default=".", help="output directory for artifacts")
    p.add_argument("--stations", type=_int_arg(1), required=True)
    p.add_argument("--regions", type=_int_arg(1), default=1)
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--fraud-mechanism", default=None, choices=MECHANISMS)
    p.add_argument("--fraud-fraction", type=_fraud_fraction_arg, default=0.0)
    p.add_argument("--fraud-side", default="just_above", choices=TARGET_SIDES)
    p.add_argument("--fraud-metric", default="either", choices=METRIC_CHOICES)
    p.add_argument("--fraud-regions", type=_codes_arg, default=None)
    p.add_argument("--fraud-window", type=_fraud_window_arg, default=Fraction(1, 20))
    p.add_argument("--fraud-seed", type=_seed_arg, default=None)
    return parser


# ---------------------------------------------------------------------------
# artifact plumbing


def _jsonable(value):
    """value as plain JSON data; a NaN or infinite float becomes None (null)."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value) if np.isfinite(value) else None
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


# a character that makes row_writer quote its cell, besides the comma
_QUOTED = re.compile('["\r\n]')


def _write_csv(fh, cfg: dict, digest: str, header: list[str], rows) -> None:
    """Two comment lines, then header and rows, minimally quoted.

    A row none of whose cells needs quoting (no comma, quote, CR or LF,
    and not one empty cell) is written as its cells joined by commas,
    the bytes row_writer gives it; every other row goes through
    row_writer.
    """
    fh.write("# config: " + json.dumps(cfg, sort_keys=True) + "\n# digest: " + digest + "\n")
    out = row_writer(fh)
    for row in itertools.chain([header], rows):
        cells = [_cell(v) for v in row]
        line = ",".join(cells)
        if line.count(",") == len(cells) - 1 and line and not _QUOTED.search(line):
            fh.write(line + "\n")
        else:
            out.writerow(cells)


def _json_doc(cfg: dict, digest: str, payload: dict) -> str:
    doc = {"run": dict(cfg, digest=digest)}
    doc.update(_jsonable(payload))
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _svg_meta(cfg: dict, digest: str) -> str:
    return "config " + json.dumps(cfg, sort_keys=True) + " digest " + digest


def _stage(path: Path, content, cfg: dict, digest: str) -> None:
    """Write one artifact to path, by its file type.

    A command gives .csv files as (header, rows), written a row at a
    time as rows yields them; .json files as a payload dict; .svg files
    as a render function still to be called with meta=; .tsv files as a
    function writing to a path; and other files as their text.
    """
    kind = path.suffix
    if kind == ".tsv":
        content(path)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if kind == ".csv":
            _write_csv(fh, cfg, digest, *content)
        elif kind == ".json":
            fh.write(_json_doc(cfg, digest, content))
        elif kind == ".svg":
            fh.write(content(meta=_svg_meta(cfg, digest)))
        else:
            fh.write(content)


def _write(out: str, files: list, cfg: dict, digest: str) -> list[str]:
    """Write all artifacts or none; returns their paths.

    The artifacts are rendered and staged one at a time in a temporary
    directory under out, and moved into place only once all are
    written; on any error the staged files and those already moved are
    removed.
    """
    root = Path(out)
    root.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".staging-", dir=root))
    names = [name for name, _ in files]
    placed = []
    try:
        for name, content in files:
            _stage(stage / name, content, cfg, digest)
        for name in names:
            os.replace(stage / name, root / name)
            placed.append(root / name)
    except BaseException:
        for path in placed:
            path.unlink(missing_ok=True)
        raise
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return [str(root / name) for name in names]


def _check_unique(names: list[str]) -> None:
    """Reject a run whose artifacts would share a file name."""
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"two artifacts would share a name: {', '.join(repeated)}")


def _run(args: argparse.Namespace) -> dict:
    """Run one subcommand and write its artifacts; returns the summary.

    A subcommand returns its summary and an ordered list of (filename,
    content); everything that makes the contents self-describing and
    puts them on disk happens here.
    """
    summary, files = _COMMANDS[args.command](args)
    _check_unique([name for name, _ in files])
    cfg = _run_config(args)
    reference = [args.reference] if getattr(args, "reference", None) else []
    digest = _digest(cfg, _inputs(args) + reference)
    skipped = set(_FORMATS) - set(getattr(args, "format", _FORMATS))
    kept = [(name, content) for name, content in files if Path(name).suffix[1:] not in skipped]
    summary.update(command=args.command, digest=digest, artifacts=_write(args.out, kept, cfg, digest))
    return summary


def _mc(args: argparse.Namespace) -> dict:
    """The Monte Carlo settings of args as keyword arguments; progress
    lines on stderr carry the command's name."""

    def progress(done: int, total: int) -> None:
        print(f"progress {args.command} {done}/{total}", file=sys.stderr, flush=True)

    return dict(
        model=args.model, iterations=args.iterations, master_seed=args.seed,
        workers=args.workers, progress=progress,
    )


def _prepare(args: argparse.Namespace, path: str) -> ElectionDataset:
    """One input, loaded and filtered as every command but validate needs it.

    The file is read with --profile and labelled by its stem, filtered
    by the station filters unless --no-filter is set, then cut by
    --exclude-regions and --restrict-regions; no station left is an
    error, and so is a station left with a percentage above 100 (only
    --no-filter can leave one), den = 0 with num > 0 included.
    """
    dataset, _ = load_dataset(path, args.profile)
    if not args.no_filter:
        dataset = apply_filters(dataset, FilterPolicy(
            min_registered=args.min_registered,
            max_percentage=args.max_percent,
            exclude_undefined_result=not args.keep_undefined_result,
        ))
    if args.exclude_regions:
        dataset = exclude_regions(dataset, args.exclude_regions)
    if args.restrict_regions:
        dataset = restrict_regions(dataset, args.restrict_regions)
    if len(dataset) == 0:
        raise ValueError(f"no stations left after filtering: {path}")
    for metric in METRICS:
        num, den = dataset.metric(metric)
        over = np.flatnonzero(num > den)
        if over.size:
            i = over[0]
            raise ValueError(
                f"{path}: station {dataset.station_ids[i]!r} has {metric} {num[i]} of "
                f"{den[i]}, above 100%"
            )
    return dataset


# ---------------------------------------------------------------------------
# subcommands: each returns (summary, [(filename, content), ...])


def _cmd_validate(args: argparse.Namespace) -> tuple[dict, list]:
    reference = load_reference(args.reference) if args.reference else None

    results = []
    for path in args.input:
        dataset, report = load_dataset(path, args.profile)
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
            entry["discrepancies"] = [asdict(d) for d in disc]
        results.append(entry)
    return {"results": results}, [("validation.json", {"results": results})]


def _cmd_analyze(args: argparse.Namespace) -> tuple[dict, list]:
    dataset = _prepare(args, args.input)

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
        levels=args.levels,
        **_mc(args),
    )
    by_name = {name: rep for (name, _, _), rep in zip(named, reports)}
    sweep_reports = reports[len(named):]

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
                ["iteration", *by_name],
                zip(range(args.iterations), *(rep.mc_samples for rep in by_name.values())),
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
    return METRICS if arg == "both" else (arg,)


def _peak_shape_rows(hists, mc_hists):
    """Rows of peak_shape_<metric>.csv.

    A generator, so peak_shape runs only when the CSV is written.
    """
    shape = peak_shape(hists, mc_hists)
    yield from zip(shape.offsets, shape.mean_excess)


def _hist_stem(metric: str, label: str, n_inputs: int) -> str:
    return f"hist_{metric}_{label}" if n_inputs > 1 else f"hist_{metric}"


def _averaged(stem: str, title: str, columns):
    """Averaged histograms as <stem>.csv and <stem>.svg.

    columns holds (CSV header, plot legend, histograms) per column; each
    column is the average_histograms mean of its histograms. Returns
    the means, the CSV (bin_center, then one column each) and the SVG
    (one line each), so a caller can place other files between the two.
    """
    means = [average_histograms(hists).weights for _, _, hists in columns]
    centers = columns[0][2][0].bin_centers
    header = ["bin_center", *(name for name, _, _ in columns)]
    series = [(legend, centers, mean) for (_, legend, _), mean in zip(columns, means)]
    return (
        means,
        (f"{stem}.csv", (header, zip(centers, *means))),
        (f"{stem}.svg", partial(render_line_plot, series, title, "percent", "stations per bin")),
    )


def _cmd_histogram(args: argparse.Namespace) -> tuple[dict, list]:
    suppress = not args.include_hundred

    if args.average and len(args.input) < 2:
        raise UsageError("--average needs at least two inputs")
    if (args.average and args.iterations and "csv" in args.format
            and _bins_per_percent(args.bins) % 2):
        raise UsageError("peak_shape CSVs need --bins to align half-percent window edges")
    datasets = [_prepare(args, path) for path in args.input]
    labels = [d.label for d in datasets]

    metrics = _metrics(args.metric)
    if not args.average:
        _check_unique([
            f"{_hist_stem(metric, label, len(labels))}.{ext}"
            for metric in metrics for label in labels for ext in ("csv", "svg")
        ])
    # one simulation for every (metric, input), in that order; each job's
    # matrix is reduced to its mean or envelope where it is simulated
    jobs = [(ds, metric) for metric in metrics for ds in datasets]
    simulated = []
    if args.iterations:
        simulated = mc_histogram_matrices(
            jobs, bin_width=args.bins, jitter=args.jitter, suppress_hundred=suppress,
            **_mc(args),
            finish=[
                partial(np.mean, axis=0) if args.average
                else partial(envelope_from_matrix, metric=metric, bin_width=args.bins,
                             levels=args.levels)
                for _, metric in jobs
            ],
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
        finished = simulated[k * len(datasets) : (k + 1) * len(datasets)]

        if args.average:
            columns = [("average_weight", "average empirical", hists)]
            mc_hists = [WeightedHistogram(metric, args.bins, mean) for mean in finished]
            if mc_hists:
                columns.append(("mc_mean", "average simulated mean", mc_hists))
            means, csv, svg = _averaged(
                f"hist_{metric}_avg", f"{metric} histogram (averaged)", columns
            )
            files.append(csv)
            if mc_hists:
                files.append((
                    f"peak_shape_{metric}.csv",
                    (["offset", "mean_excess"], _peak_shape_rows(hists, mc_hists)),
                ))
            files.append(svg)
            summary["metrics"][metric] = {"total_weight": float(means[0].sum())}
        else:
            per_metric = []
            for i, (hist, label) in enumerate(zip(hists, labels)):
                centers = hist.bin_centers
                stem = _hist_stem(metric, label, len(labels))
                title = f"{metric} histogram: {label}"
                header = ["bin_center", "weight"]
                columns = [hist.weights]
                if finished:
                    env = finished[i]
                    header += ["mc_mean", "low", "high"]
                    # low and high are integer-valued float64 from an int64 matrix
                    columns += [env.mean, env.low.astype(np.int64), env.high.astype(np.int64)]
                    svg = partial(
                        render_envelope_plot, centers, hist.weights.astype(float),
                        env.mean, env.low, env.high, title, "percent", "stations per bin",
                    )
                else:
                    svg = partial(
                        render_line_plot,
                        [("empirical", centers, hist.weights.astype(float))],
                        title, "percent", "stations per bin",
                    )
                files += [
                    (f"{stem}.csv", (header, zip(centers, *columns))),
                    (f"{stem}.svg", svg),
                ]
                per_metric.append({"input": label, "total_weight": int(hist.weights.sum())})
            summary["metrics"][metric] = per_metric
    return summary, files


def _matrix_csv(corner: str, row_labels, col_labels, grid: np.ndarray):
    """A matrix CSV's (header, rows): corner and col_labels across, then
    each grid row after its label from the row_labels array.

    The rows are made one at a time as the CSV is written, so the grid
    never exists as Python numbers all at once.
    """
    header = [corner, *map(_cell, col_labels)]
    return header, ([label, *row.tolist()] for label, row in zip(row_labels.tolist(), grid))


def _spectrogram_ratio(hist: WeightedHistogram, matrix: np.ndarray):
    """hist's spectrogram, less the raw and mc_mean grids nothing writes.

    Runs where its job's simulation completes, often a worker; it calls
    spectrogram through this module's global, the name
    perfbench/tracing.py wraps.
    """
    return replace(spectrogram(hist, matrix), raw=None, mc_mean=None)


def _cmd_spectrum(args: argparse.Namespace) -> tuple[dict, list]:
    dataset = _prepare(args, args.input)

    metrics = _metrics(args.metric)
    hists = [build_histogram(dataset, metric) for metric in metrics]
    grams = mc_histogram_matrices(
        [(dataset, metric) for metric in metrics],
        **_mc(args),
        finish=[partial(_spectrogram_ratio, hist) for hist in hists],
    )

    files = []
    summary: dict = {"metrics": {}}
    for metric, hist, gram in zip(metrics, hists, grams):
        spec = amplitude_spectrum(hist)
        profile = harmonic_profile(gram, frequency=1.0)

        files += [
            (
                f"spectrum_{metric}.csv",
                (["frequency", "amplitude"], zip(spec.frequencies, spec.amplitudes)),
            ),
            (
                f"spectrogram_{metric}.csv",
                _matrix_csv("center", gram.centers, gram.frequencies, gram.ratio),
            ),
            (
                f"harmonic_{metric}.csv",
                (["center", "ratio"], zip(profile.centers, profile.values)),
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
    # each input is labelled by its file stem, as _prepare loads it
    if len({Path(path).stem for path in args.input}) != len(args.input):
        raise ValueError("input files must have distinct names")
    datasets = {d.label: d for d in (_prepare(args, path) for path in args.input)}

    table = region_peaks(datasets, center_kind=args.centers, **_mc(args))

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
        kept = [exclude_regions(d, excluded) for d in datasets.values()]
        for metric in METRICS:
            _, csv, svg = _averaged(
                f"hist_{metric}_excluded",
                f"{metric} histogram after excluding ranked regions",
                [
                    ("all_regions", "all regions",
                     [build_histogram(d, metric) for d in datasets.values()]),
                    (f"without_top_{len(excluded)}", f"without top {len(excluded)}",
                     [build_histogram(d, metric) for d in kept]),
                ],
            )
            files += [csv, svg]
    return {"ranking": list(table.ranking), "excluded": excluded}, files


def _cmd_fingerprint(args: argparse.Namespace) -> tuple[dict, list]:
    dataset = _prepare(args, args.input)
    fp = fingerprint(dataset, weighted_correlation=args.weighted)

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
        (
            "fingerprint.csv",
            _matrix_csv("turnout_percent", fp.bin_centers, fp.bin_centers, fp.cells),
        ),
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
    spec = None  # checked in full before any station is generated
    if args.fraud_mechanism is None:
        if args.fraud_fraction:
            raise UsageError("--fraud-fraction needs --fraud-mechanism")
    else:
        if args.fraud_seed is None and args.seed + 1 >= SEED_LIMIT:
            raise UsageError("the default --fraud-seed, --seed + 1, is not below 2**32")
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
    config = GeneratorConfig(n_stations=args.stations, n_regions=args.regions)
    election = generate(config, seed=args.seed)
    dataset = election.dataset

    log_payload: dict = {"requested": 0, "modified": 0, "skipped": [], "records": []}
    if spec is not None:
        fraud_seed = args.seed + 1 if args.fraud_seed is None else args.fraud_seed
        dataset, log = inject_fraud(dataset, spec, seed=fraud_seed)
        log_payload = {
            "requested": log.requested,
            "modified": log.modified,
            "skipped": [{"station_id": sid, "reason": why} for sid, why in log.skipped],
            "records": [asdict(r) for r in log.records],
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
    print(json.dumps(_jsonable(summary), sort_keys=True, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
