"""In-memory spans around calls into pollheap's layers, and their analysis.

A traced CLI process installs wrappers around the public functions each
layer exposes, patched where the caller looks them up (the CLI imports
names into its own module, so ``pollheap.cli.<name>`` is patched; the
analysis modules call ``run_simulation`` and ``make_sampler`` through
their own module globals).  Reducers are proxied rather than patched, so
no private name of the package is touched.

Spans are kept in memory and written out once, when the process ends.
Forked simulation workers inherit the open span stack, so their spans
name the parent process's ``mc.run`` span as parent; each worker writes
its own file from a multiprocessing exit finalizer.

Each process writes ``<trace_dir>/<run_id>.<pid>.jsonl``.  A span
record in memory is ``[name, start_ns, end_ns, span_id, parent_id, attrs]``
with times from ``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux, so
comparable across the processes of one host).
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import time
from collections import defaultdict

import numpy as np

MB = float(2**20)


class Tracer:
    """Span recorder for one process of one CLI invocation."""

    def __init__(self, trace_dir: str, run_id: str):
        self.trace_dir = trace_dir
        self.run_id = run_id
        self.pid = os.getpid()
        self.counter = 0
        self.stack: list[str] = []
        self.spans: list[list] = []
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        # the child keeps the parent's open stack (its spans hang under
        # the parent's mc.run) but none of the parent's finished spans
        self.pid = os.getpid()
        self.counter = 0
        self.spans = []
        multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    def begin(self, name: str) -> list:
        sid = f"{self.pid}:{self.counter}"
        self.counter += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return [name, time.perf_counter_ns(), 0, sid, parent, {}]

    def end(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self.stack.pop()
        self.spans.append(rec)

    def wrap(self, name: str, fn, attrs=None):
        """fn timed as a span; attrs(result, args) adds counts after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if attrs is not None:
                rec[5].update(attrs(out, args))
            return out

        return traced

    def patch(self, module, attr: str, name: str, attrs=None) -> None:
        setattr(module, attr, self.wrap(name, getattr(module, attr), attrs))

    def flush(self) -> None:
        path = os.path.join(self.trace_dir, f"{self.run_id}.{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, sid, parent, attrs in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end, "id": sid,
                         "parent": parent, "run": self.run_id, "pid": self.pid,
                         "attrs": attrs}
                    )
                    + "\n"
                )
        self.spans = []


class _ReducerProxy:
    """Times reduce() of a Reducer; every other attribute is the reducer's own."""

    def __init__(self, inner, tracer: Tracer, name: str):
        self._inner = inner
        self._tracer = tracer
        self._name = name

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def reduce(self, iteration_index, counts):
        rec = self._tracer.begin(self._name)
        try:
            return self._inner.reduce(iteration_index, counts)
        finally:
            self._tracer.end(rec)


def _array_bytes(obj, skip: set[int], seen: set[int]) -> int:
    """nbytes of every numpy array reachable through object attributes."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return 0 if id(obj) in skip else int(obj.nbytes)
    if hasattr(obj, "__dict__"):
        return sum(_array_bytes(v, skip, seen) for v in vars(obj).values())
    return 0


def _table_bytes(sampler, args) -> dict:
    # inputs (den, num) are the caller's arrays, not table storage
    skip = {id(sampler.den), id(sampler.num)}
    return {"table_bytes": _array_bytes(sampler, skip, set())}


def install(trace_dir: str, run_id: str):
    """Patch pollheap's layers for tracing; returns (tracer, traced cli.main)."""
    from pollheap import anomaly, cli, histograms, regions, sampling

    tr = Tracer(trace_dir, run_id)

    def load_attrs(out, args):
        _, report = out
        return {"path": str(args[0]), "rows": report.parsed + report.skipped,
                "invalid": report.invalid}

    def filter_attrs(out, args):
        return {"dropped": len(args[0]) - len(out)}

    def svg_attrs(out, args):
        return {"bytes": len(out.encode("utf-8")) if isinstance(out, str) else len(out)}

    tr.patch(cli, "load_dataset", "ingest.load", load_attrs)
    tr.patch(cli, "write_canonical_tsv", "ingest.write_tsv")
    tr.patch(cli, "apply_filters", "model.filter", filter_attrs)
    tr.patch(cli, "generate", "synth.generate")
    tr.patch(cli, "inject_fraud", "synth.inject")
    for attr, name in (
        ("run_nulls", "anomaly.run_nulls"),
        ("window_sweep", "anomaly.window_sweep"),
        ("build_histogram", "histograms.build"),
        ("mc_histograms", "histograms.mc"),
        ("envelope_from_matrix", "histograms.envelope"),
        ("average_histograms", "histograms.average"),
        ("peak_shape", "histograms.peak_shape"),
        ("region_peaks", "regions.peaks"),
        ("exclude_regions", "regions.exclude"),
        ("fingerprint", "regions.fingerprint"),
        ("amplitude_spectrum", "spectral.spectrum"),
        ("spectrogram", "spectral.spectrogram"),
        ("harmonic_profile", "spectral.harmonic"),
    ):
        tr.patch(cli, attr, name)
    for attr in ("render_box_plot", "render_envelope_plot", "render_heatmap", "render_line_plot"):
        tr.patch(cli, attr, "render.svg", svg_attrs)

    tr.patch(sampling, "iteration_uniforms", "sampling.uniforms")
    tr.patch(sampling, "binom_quantile", "sampling.binom_quantile",
             lambda out, args: {"elements": int(np.size(out))})
    invert = sampling.DatasetSampler.draw_from_uniforms

    @functools.wraps(invert)
    def traced_invert(self, u):
        rec = tr.begin("sampling.invert")
        try:
            return invert(self, u)
        finally:
            tr.end(rec)
            rec[5].update(draws=int(self.n_stations), kind=self.model.kind)

    sampling.DatasetSampler.draw_from_uniforms = traced_invert

    for module in (anomaly, histograms, regions):
        layer = module.__name__.rsplit(".", 1)[1]
        tr.patch(module, "make_sampler", "sampling.build", _table_bytes)
        run = module.run_simulation

        def traced_run(samplers, reducers, iterations, *rest, _run=run, _layer=layer, **kw):
            proxies = [_ReducerProxy(r, tr, f"{_layer}.reduce") for r in reducers]
            rec = tr.begin("mc.run")
            try:
                return _run(samplers, proxies, iterations, *rest, **kw)
            finally:
                tr.end(rec)
                rec[5].update(iterations=int(iterations), layer=_layer)

        module.run_simulation = traced_run

    return tr, tr.wrap("cli.main", cli.main)


# ---------------------------------------------------------------------------
# analysis


def load_spans(paths) -> list[dict]:
    spans = []
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def self_times(spans: list[dict]) -> dict[str, int]:
    """Span id -> duration minus the part of it covered by its children (ns)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered, reach = 0, lo  # children may overlap: forked workers run in parallel
        for a, b in sorted((c["start_ns"], c["end_ns"]) for c in children[s["id"]]):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = hi - lo - covered
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced session (0 where a layer did not run)."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def dur(name):
        return sum(s["end_ns"] - s["start_ns"] for s in by_name[name]) / 1e9

    def per(total, count):
        return total / count if count else 0.0

    loads = by_name["ingest.load"]
    invalid_by_path = {}
    for s in sorted(loads, key=lambda s: s["start_ns"]):
        invalid_by_path.setdefault(s["attrs"]["path"], s["attrs"]["invalid"])

    runs = by_name["mc.run"]
    iters = defaultdict(int)
    for s in runs:
        iters[s["attrs"]["layer"]] += s["attrs"]["iterations"]

    # samplers are built right before the simulation that uses them and
    # dropped after it, so the tables alive at once are those built in a
    # process since its previous mc.run, counted at each mc.run
    table_peak = 0
    pending = defaultdict(int)  # (run, pid) -> bytes built since the last mc.run
    for s in sorted(by_name["sampling.build"] + runs, key=lambda s: s["start_ns"]):
        proc = (s["run"], s["pid"])
        if s["name"] == "sampling.build":
            pending[proc] += s["attrs"]["table_bytes"]
        else:
            table_peak = max(table_peak, pending.pop(proc, 0))

    # a binom_quantile call under a binomial or clustered draw that covers
    # fewer than all stations is the table lookup's exact fallback
    strays = 0
    direct = set()
    for s in by_name["sampling.binom_quantile"]:
        parent = by_id.get(s["parent"])
        if parent is None or parent["name"] != "sampling.invert":
            continue
        if parent["attrs"]["kind"] == "beta_binomial":
            continue
        if s["attrs"]["elements"] < parent["attrs"]["draws"]:
            strays += s["attrs"]["elements"]
        else:
            direct.add(parent["id"])
    inverts = by_name["sampling.invert"]
    draws = sum(s["attrs"]["draws"] for s in inverts)
    table_draws = sum(
        s["attrs"]["draws"] for s in inverts
        if s["attrs"]["kind"] != "beta_binomial" and s["id"] not in direct
    )

    n_iter = sum(iters.values())
    return {
        "ingest.load_s": dur("ingest.load"),
        "ingest.rows_per_s": per(sum(s["attrs"]["rows"] for s in loads), dur("ingest.load")),
        "ingest.rows_invalid": sum(invalid_by_path.values()),
        "ingest.write_tsv_s": dur("ingest.write_tsv"),
        "model.filter_s": dur("model.filter"),
        "model.stations_dropped": sum(s["attrs"]["dropped"] for s in by_name["model.filter"]),
        "synth.generate_s": dur("synth.generate"),
        "synth.inject_s": dur("synth.inject"),
        "sampling.build_s": dur("sampling.build"),
        "sampling.table_mb": table_peak / MB,
        "sampling.uniforms_ms": per(dur("sampling.uniforms") * 1e3, len(by_name["sampling.uniforms"])),
        "sampling.invert_ms": per(dur("sampling.invert") * 1e3, len(inverts)),
        "sampling.draws": draws,
        "sampling.stray_ratio": per(strays, table_draws),
        "mc.passes": len(runs),
        "mc.run_s": dur("mc.run"),
        "mc.overhead_ms_per_iter": per(sum(selfs[s["id"]] for s in runs) / 1e6, n_iter),
        "anomaly.reduce_ms": per(dur("anomaly.reduce") * 1e3, iters["anomaly"]),
        "histograms.reduce_ms": per(dur("histograms.reduce") * 1e3, iters["histograms"]),
        "histograms.envelope_s": dur("histograms.envelope"),
        "histograms.build_s": dur("histograms.build"),
        "regions.reduce_ms": per(dur("regions.reduce") * 1e3, iters["regions"]),
        "regions.fingerprint_s": dur("regions.fingerprint"),
        "spectral.spectrogram_s": dur("spectral.spectrogram"),
        "render.svg_s": dur("render.svg"),
        "render.svg_mb": sum(s["attrs"]["bytes"] for s in by_name["render.svg"]) / MB,
        "cli.self_s": sum(selfs[s["id"]] for s in by_name["cli.main"]) / 1e9,
    }


def self_time_per_iteration(spans: list[dict]) -> dict[str, float]:
    """Self time (ms) per simulated iteration of each span name under mc.run."""
    selfs = self_times(spans)
    n_iter = sum(s["attrs"]["iterations"] for s in spans if s["name"] == "mc.run")
    if not n_iter:
        return {}
    inside = {"mc.run", "sampling.uniforms", "sampling.invert", "sampling.binom_quantile",
              "anomaly.reduce", "histograms.reduce", "regions.reduce"}
    out = defaultdict(float)
    for s in spans:
        if s["name"] in inside:
            out[s["name"]] += selfs[s["id"]] / 1e6 / n_iter
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
