"""Repeat benchmark runs over seeds, and compare result files.

    python3 perfbench/suite.py run --seeds 1-10 --out .bench_out/NEW.json \
        [--workloads a,b] [--trace 0|1] [--seconds S] [--against OLD.json]
    python3 perfbench/suite.py compare NEW.json [OLD.json]

``run`` calls run.py once per (seed, workload), seeds in the outer loop,
and stores every result and run record in one JSON file.  ``compare``
prints each metric with its unit per workload: run count, median and
quartiles, and the spread (interquartile range over the median).  With
an older file it adds the older median and the change, and flags a
metric BEYOND BOUND when its median got worse by more than the bound in
BENCHMARK.json, or UNRESOLVED when either side's spread is wider than
the bound and not every new run beats every old one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    runs = []
    for seed in _seeds(args.seeds):
        for name in names:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode} {proc.stderr.strip()[-300:]}")
                runs.append({"workload": name, "seed": seed, "trace": args.trace,
                             "exit": proc.returncode})
                continue
            result = json.loads(lines[-1])
            record = next((json.loads(line[7:]) for line in lines if line.startswith("record ")), {})
            runs.append({"workload": name, "seed": seed, "trace": args.trace, "exit": 0,
                         "result": result, "record": record})
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:4])
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
    host = next((r["record"].get("host") for r in runs if r.get("record")), None)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps({"host": host, "runs": runs}, indent=1) + "\n")
    print(f"wrote {args.out}")
    return compare(args.out, args.against)


def _values(doc: dict) -> dict[tuple[str, str], tuple[str, list[float]]]:
    """(workload, metric) -> (unit, values over runs)."""
    out: dict = {}
    for r in doc["runs"]:
        for name, m in r.get("result", {}).get("metrics", {}).items():
            out.setdefault((r["workload"], name), (m["unit"], []))[1].append(m["value"])
    return out


def _quartiles(vals: list[float]) -> tuple[float, float, float]:
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def _spread(vals: list[float]) -> float:
    q1, med, q3 = _quartiles(vals)
    return (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0


def compare(new_path: str, old_path: str | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    new = json.loads(Path(new_path).read_text())
    old = _values(json.loads(Path(old_path).read_text())) if old_path else {}
    failed = sum(r.get("result", {}).get("failed", 0) for r in new["runs"])
    attempted = sum(r.get("result", {}).get("attempted", 0) for r in new["runs"])
    broken = sum(1 for r in new["runs"] if r.get("exit"))
    print(f"runs {len(new['runs'])} (exited nonzero: {broken}); "
          f"invocations failed {failed}/{attempted}")
    flagged = 0
    workload = None
    for (wl, name), (unit, vals) in _values(new).items():
        if wl != workload:
            workload = wl
            print(f"\n== {wl}")
            print(f"{'metric':26s} {'unit':8s} {'n':>3s} {'median':>12s} {'q1':>12s} "
                  f"{'q3':>12s} {'spread':>8s}  {'old median':>12s} {'change':>8s}  flag")
        q1, med, q3 = _quartiles(vals)
        m = meta.get(name, {})
        bound = m.get("bound")
        line = (f"{name:26s} {unit:8s} {len(vals):3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                f"{_spread(vals):8.2%}")
        flag = ""
        if bound is not None and _spread(vals) > bound:
            flag = "UNRESOLVED"
        if (wl, name) in old:
            ovals = old[(wl, name)][1]
            omed = _quartiles(ovals)[1]
            change = med / omed - 1 if omed else float("nan")
            line += f"  {omed:12.6g} {change:+8.2%}"
            if bound is not None:
                sign = 1 if m["better"] == "lower" else -1
                worse = sign * change
                all_better = (max(vals) < min(ovals)) if sign > 0 else (min(vals) > max(ovals))
                if worse > bound:
                    flag = "BEYOND BOUND"
                elif max(_spread(vals), _spread(ovals)) > bound and not all_better:
                    flag = "UNRESOLVED"
        if flag:
            flagged += 1
        print(f"{line}  {flag}")
    print(f"\nflagged {flagged}")
    return 1 if flagged or failed or broken else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    r.add_argument("--out", required=True)
    r.add_argument("--workloads", default=None)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--seconds", type=float, default=None)
    r.add_argument("--against", default=None)
    c = sub.add_parser("compare")
    c.add_argument("new")
    c.add_argument("old", nargs="?")
    args = ap.parse_args()
    if args.cmd == "run":
        return run(args)
    return compare(args.new, args.old)


if __name__ == "__main__":
    sys.exit(main())
