"""pollheap benchmark: CLI sessions timed end to end, and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record-manifest

Run from the root of a source checkout; the package is imported from
its ``src/`` directory.  Inputs are generated from ``--seed`` before any
timing.  With ``--trace 0`` the workload's session is repeated for
about ``--seconds`` (at least MIN_ROUNDS times; default: ``run_seconds``
of BENCHMARK.json), each session followed by at least one pass of
fresh-interpreter set-up probes, one per input-reading invocation, and
the end-to-end metrics are medians over those sessions and probes.  With
``--trace 1`` untraced and traced sessions alternate (TRACED_PAIRS of
each), and the per-layer metrics are medians over the traced ones.  Every invocation is checked: exit
code, artifacts present, and SHA-256 of every artifact and of the
stdout summary line against manifest.json (default seed) or against the
run's other sessions (any seed).

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Lines before it are a human-readable report and one
``record {...}`` line with the host and run record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import DEFAULT_SEED, workloads  # noqa: E402

MIN_ROUNDS = 3  # rounds (session + set-up probes) per untraced run, whatever --seconds says
# a round repeats its set-up probes until they took this share of its session's wall time,
# so a cheap set-up (mostly the import) gets more samples than an expensive one
PROBE_SHARE = 0.25
TRACED_PAIRS = 2  # (untraced, traced) session pairs per traced run
RUN_DEADLINE_S = 170.0  # a run must exit within 180 s
MANIFEST = HERE / "manifest.json"

LAYER_UNITS = {
    "ingest.load_s": "s", "ingest.rows_per_s": "rows/s", "ingest.rows_invalid": "count",
    "ingest.write_tsv_s": "s", "model.filter_s": "s", "model.stations_dropped": "count",
    "synth.generate_s": "s", "synth.inject_s": "s", "sampling.build_s": "s",
    "sampling.table_mb": "MB", "sampling.uniforms_ms": "ms/call",
    "sampling.invert_ms": "ms/call", "sampling.draws": "count",
    "sampling.stray_ratio": "ratio", "mc.passes": "count", "mc.run_s": "s",
    "mc.overhead_ms_per_iter": "ms/iter", "anomaly.reduce_ms": "ms/iter",
    "histograms.reduce_ms": "ms/iter", "histograms.envelope_s": "s",
    "histograms.build_s": "s", "regions.reduce_ms": "ms/iter",
    "regions.fingerprint_s": "s", "spectral.spectrogram_s": "s", "render.svg_s": "s",
    "render.svg_mb": "MB", "cli.self_s": "s", "cli.artifact_mb": "MB",
    "trace_overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (as opposed to a failed invocation)."""


@dataclass
class Invocation:
    argv: list[str]
    rc: int = 0
    rss_mb: float = 0.0
    summary: dict | None = None
    digests: dict = field(default_factory=dict)  # stdout sha + artifact path -> sha
    artifact_bytes: int = 0
    errors: list[str] = field(default_factory=list)


@dataclass
class Session:
    wall_s: float
    invocations: list[Invocation]


class Runner:
    """Launches CLI processes in one work directory, one at a time."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def spawn(self, args: list[str], log: str) -> tuple[int, float, Path]:
        """Run python3 with args; returns (exit code, peak RSS MB, stdout path)."""
        logs = self.work / "logs"
        logs.mkdir(exist_ok=True)
        out_path, err_path = logs / f"{log}.out", logs / f"{log}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, *args], cwd=self.work, env=self.env,
                                    stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        lock = threading.Lock()
        reaped = False

        def kill():
            with lock:
                if not reaped:
                    proc.kill()

        timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            with lock:
                reaped = True
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not Popen
        return proc.returncode, usage.ru_maxrss / 1024.0, out_path

    def cli(self, argv: list[str]) -> None:
        """One untimed CLI invocation that must succeed (input generation)."""
        rc, _, out = self.spawn([str(HERE / "launch.py"), "--", *argv], "prepare")
        if rc != 0:
            raise BenchError(f"pollheap {' '.join(argv)} exited {rc}: {_tail(out)}")


def _tail(path: Path) -> str:
    err = path.with_suffix(".err")
    text = err.read_text(errors="replace") if err.exists() else ""
    return " | ".join(text.strip().splitlines()[-3:])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_session(runner: Runner, argvs: list[list[str]], tag: str,
                trace_dir: Path | None = None) -> Session:
    """Run every invocation of a session; wall time from first launch to last exit."""
    shutil.rmtree(runner.work / "out", ignore_errors=True)
    invs = [Invocation(argv) for argv in argvs]
    outs = []
    t0 = time.perf_counter()
    for i, inv in enumerate(invs):
        opts = [] if trace_dir is None else ["--trace", str(trace_dir), str(i)]
        inv.rc, inv.rss_mb, out = runner.spawn(
            [str(HERE / "launch.py"), *opts, "--", *inv.argv], f"{tag}-{i}")
        outs.append(out)
    wall = time.perf_counter() - t0
    for inv, out in zip(invs, outs):
        if inv.rc != 0:
            inv.errors.append(f"exit {inv.rc}: {_tail(out)}")
            continue
        line = out.read_bytes().rstrip(b"\n").split(b"\n")[-1]
        inv.digests["stdout"] = _sha(line)
        try:
            inv.summary = json.loads(line)
        except ValueError:
            inv.errors.append("stdout summary is not JSON")
            continue
        for rel in inv.summary.get("artifacts", []):
            path = runner.work / rel
            if not path.is_file():
                inv.errors.append(f"missing artifact {rel}")
                continue
            data = path.read_bytes()
            inv.digests[rel] = _sha(data)
            inv.artifact_bytes += len(data)
    return Session(wall, invs)


def check_against(session: Session, reference: list[dict], what: str) -> None:
    """Mark invocations whose argv, stdout or artifact digests differ from reference."""
    if len(reference) != len(session.invocations):
        for inv in session.invocations:
            inv.errors.append(f"{what}: session shape differs")
        return
    for inv, ref in zip(session.invocations, reference):
        if inv.errors:
            continue
        if inv.argv != ref["argv"]:
            inv.errors.append(f"{what}: argv differs")
        elif inv.digests != ref["digests"]:
            bad = sorted(k for k in set(inv.digests) | set(ref["digests"])
                         if inv.digests.get(k) != ref["digests"].get(k))
            inv.errors.append(f"{what}: digest mismatch in {', '.join(bad)}")


def digest_record(session: Session) -> list[dict]:
    return [{"argv": inv.argv, "digests": inv.digests} for inv in session.invocations]


def run_checks(session: Session, wl) -> None:
    summaries = [inv.summary for inv in session.invocations]
    if all(s is not None for s in summaries):
        for msg in wl.checks(summaries):
            session.invocations[-1].errors.append(msg)


def probe_setup(runner: Runner, argvs: list[list[str]], tag: str) -> list[float]:
    """Set-up seconds of each input-reading invocation: one fresh-interpreter probe each."""
    out = []
    for i, argv in enumerate(argvs):
        if argv[0] == "simulate":
            continue
        rc, _, log = runner.spawn([str(HERE / "probe.py"), *argv], f"{tag}-{i}")
        if rc != 0:
            raise BenchError(f"set-up probe for {argv[0]} exited {rc}: {_tail(log)}")
        rec = json.loads(log.read_text().splitlines()[-1])
        if not Path(rec["pollheap_file"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"pollheap imported from {rec['pollheap_file']}, not this checkout")
        out.append(rec["setup_s"])
    return out


def cpu_jiffies() -> tuple[int, int] | None:
    """(steal, total) jiffies of the whole host from /proc/stat, or None."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    except OSError:
        return None
    ticks = [int(x) for x in fields[:8]]  # user nice system idle iowait irq softirq steal
    return ticks[7], sum(ticks)


def host_record() -> dict:
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    quota = read("/sys/fs/cgroup/cpu.max")
    if quota is None:
        q, p = read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"), read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        quota = None if q is None else f"{q} {p}"
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = read(idx / "level"), read(idx / "type"), read(idx / "size")
        if level and kind != "Instruction":
            caches[f"L{level}"] = size
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": quota,
        "caches_per_instance": caches,
        "python": sys.version.split()[0],
        **versions,
        "host_tuning": "none: no page-cache drop, no CPU pinning, no frequency control",
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(wl, runner: Runner, seed: int, seconds: float, reference) -> tuple[dict, list, dict]:
    """Untraced run: rounds of one session plus its set-up probes, for about `seconds`."""
    argvs = wl.session(seed)
    sessions, probes = [], []  # probes: one list of per-invocation set-up seconds per pass
    t_start = time.perf_counter()
    while len(sessions) < MIN_ROUNDS or (
        (time.perf_counter() - t_start) * (len(sessions) + 1) / len(sessions) <= seconds
    ):
        s = run_session(runner, argvs, f"s{len(sessions)}")
        run_checks(s, wl)
        if reference is not None:
            check_against(s, reference, "manifest")
        elif sessions:
            check_against(s, digest_record(sessions[0]), "repeat")
        sessions.append(s)
        t_probe = time.perf_counter()
        probes.append(probe_setup(runner, argvs, f"p{len(probes)}"))
        while time.perf_counter() - t_probe < PROBE_SHARE * s.wall_s:
            probes.append(probe_setup(runner, argvs, f"p{len(probes)}"))

    wall = statistics.median(s.wall_s for s in sessions)
    setup = sum(statistics.median(samples) for samples in zip(*probes))
    metrics = {
        "wall_s": _metric(wall, "s"),
        "setup_s": _metric(setup, "s"),
        "peak_rss_mb": _metric(max(i.rss_mb for s in sessions for i in s.invocations), "MB"),
    }
    record = {"session_wall_s": [s.wall_s for s in sessions],
              "setup_s_per_probe_pass": [sum(p) for p in probes]}
    if wl.mc_iterations:
        record["loop_ms_per_iter"] = (wall - setup) * 1e3 / wl.mc_iterations
    return metrics, sessions, record


def measure_traced(wl, runner: Runner, seed: int, reference, trace_out: Path):
    """Traced run: untraced and traced sessions of the same argv, in ABBA order."""
    argvs = wl.session(seed)
    plain, traced, metric_sets = [], [], []
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    trace_out.unlink(missing_ok=True)
    # plain, traced, traced, plain, ...: a steady drift of host speed cancels
    order = [(k, kind) for k in range(TRACED_PAIRS)
             for kind in (("plain", "traced") if k % 2 == 0 else ("traced", "plain"))]
    for k, kind in order:
        if kind == "plain":
            s = run_session(runner, argvs, f"plain{k}")
            run_checks(s, wl)
            if reference is not None:
                check_against(s, reference, "manifest")
            elif plain:
                check_against(s, digest_record(plain[0]), "repeat")
            plain.append(s)
            continue
        trace_dir = runner.work / f"trace{k}"
        trace_dir.mkdir()
        s = run_session(runner, argvs, f"traced{k}", trace_dir)
        run_checks(s, wl)
        check_against(s, digest_record(plain[0]), "traced vs untraced")
        traced.append(s)

        spans = tracing.load_spans(sorted(trace_dir.glob("*.jsonl")))
        with open(trace_out, "a", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps({**span, "session": k}) + "\n")
        values = tracing.layer_metrics(spans)
        values["cli.artifact_mb"] = sum(i.artifact_bytes for i in s.invocations) / tracing.MB
        metric_sets.append(values)

    plain_wall = statistics.median(s.wall_s for s in plain)
    traced_wall = statistics.median(s.wall_s for s in traced)
    values = {k: statistics.median(v[k] for v in metric_sets) for k in metric_sets[0]}
    values["trace_overhead_frac"] = traced_wall / plain_wall - 1.0
    metrics = {k: _metric(values[k], LAYER_UNITS[k]) for k in LAYER_UNITS}
    record = {
        "untraced_wall_s": [s.wall_s for s in plain],
        # untraced sessions' own range over their median: an overhead below it is unresolved
        "untraced_spread": (max(s.wall_s for s in plain) - min(s.wall_s for s in plain)) / plain_wall,
        "traced_wall_s": [s.wall_s for s in traced],
        "spans": len(spans),
        "trace_file": str(trace_out.relative_to(ROOT)),
        "self_ms_per_iteration": tracing.self_time_per_iteration(spans),
    }
    return metrics, plain + traced, record


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Prepare inputs, measure, check; returns the result object (last stdout line)."""
    wl = workloads(smoke)[name]
    work = ROOT / ".bench_out" / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, time.monotonic() + RUN_DEADLINE_S)
    reference = None
    if seed == DEFAULT_SEED and not smoke:
        manifest = json.loads(MANIFEST.read_text())
        reference = manifest["workloads"][name]
    try:
        t = time.perf_counter()
        wl.prepare(runner.cli, work, seed)
        prepare_s = time.perf_counter() - t
        jiffies = cpu_jiffies()
        if trace:
            out = ROOT / ".bench_out" / f"trace-{name}-seed{seed}.jsonl"
            metrics, sessions, record = measure_traced(wl, runner, seed, reference, out)
        else:
            metrics, sessions, record = measure(wl, runner, seed, seconds, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    invs = [inv for s in sessions for inv in s.invocations]
    failed = [inv for inv in invs if inv.errors]
    host = host_record()
    end = cpu_jiffies()
    if jiffies and end and end[1] > jiffies[1]:
        # share of the host's CPU time the hypervisor gave to others while measuring
        host["steal_frac_while_measuring"] = (end[0] - jiffies[0]) / (end[1] - jiffies[1])
    record.update(
        workload=name, seed=seed, trace=int(trace), smoke=smoke, prepare_s=prepare_s,
        checked_against="manifest" if reference is not None else "repeat sessions",
        invocations=len(invs), fail_ratio=len(failed) / len(invs),
        errors=[f"{' '.join(inv.argv[:1])}: {e}" for inv in failed for e in inv.errors][:20],
        host=host,
    )
    if trace:
        record["table_vs_l3"] = {
            "sampling_table_mb_computed_from_nbytes": metrics["sampling.table_mb"]["value"],
            "l3_per_instance": host["caches_per_instance"].get("L3"),
        }
    for key, m in metrics.items():
        print(f"{name:18s} {key:26s} {m['value']:14.6g} {m['unit']}")
    for key in ("loop_ms_per_iter", "fail_ratio"):
        if key in record:
            print(f"{name:18s} {key:26s} {record[key]:14.6g} (record)")
    for e in record["errors"]:
        print(f"FAILED {e}")
    print("record " + json.dumps(record, sort_keys=True))
    return {"correct": not failed, "attempted": len(invs), "failed": len(failed),
            "metrics": metrics}


def smoke() -> int:
    """All four workloads at a few hundred stations, untraced and traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in workloads(True):
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            res = run_workload(name, DEFAULT_SEED, 0.0, trace, smoke=True)
            got = res["metrics"]
            for m in declared:
                if m["name"] not in got:
                    problems.append(f"{name} trace={int(trace)}: {m['name']} missing")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{name}: {m['name']} unit {got[m['name']]['unit']}")
            extra = set(got) - {m["name"] for m in declared}
            if extra:
                problems.append(f"{name}: undeclared metrics {sorted(extra)}")
            if res["failed"] or not res["correct"]:
                problems.append(f"{name} trace={int(trace)}: fail_ratio "
                                f"{res['failed']}/{res['attempted']}")
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 1 if problems else 0


def record_manifest() -> int:
    """Write manifest.json: digests of one untraced session per workload at the default seed."""
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, wl in workloads().items():
        work = ROOT / ".bench_out" / f"manifest-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        runner = Runner(work, time.monotonic() + 600)
        try:
            wl.prepare(runner.cli, work, DEFAULT_SEED)
            s = run_session(runner, wl.session(DEFAULT_SEED), "m")
            run_checks(s, wl)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        errors = [e for inv in s.invocations for e in inv.errors]
        if errors:
            raise BenchError(f"{name}: {errors}")
        out["workloads"][name] = digest_record(s)
        print(f"{name}: {len(s.invocations)} invocations, "
              f"{sum(len(i.digests) for i in s.invocations)} digests")
    MANIFEST.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads()))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time of an untraced run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, both modes")
    ap.add_argument("--record-manifest", action="store_true",
                    help="rewrite manifest.json from the default seed")
    args = ap.parse_args()
    if not (ROOT / "src" / "pollheap" / "cli.py").is_file():
        print(f"error: no pollheap source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.record_manifest:
            return record_manifest()
        if args.workload is None:
            ap.error("--workload is required")
        seconds = args.seconds
        if seconds is None:
            seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
