"""Repeat the benchmark over seeds and summarise each end-to-end metric.

    python3 perfbench/repeat.py --workloads sweep_alpha,energy_audit,micro \
        --seeds 1-10 --write perfbench/history/BENCH_<n>.json

Runs ``run.py`` once per (workload, seed) with the BENCHMARK.json settings
and tracing off, then reports each metric's median, quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the quartile distance as
a share of the median, and whether that spread stays under a third of the
metric's bound.  ``--trace-seed`` adds one traced run per workload so the
written file carries the per-layer baseline too.
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
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    try:
        out = json.loads(last)
    except json.JSONDecodeError:
        out = {}
    out["exit_code"] = proc.returncode
    detail = HERE / "out" / f"result-{workload}-trace{trace}.json"
    if detail.is_file():
        out["detail"] = json.loads(detail.read_text())
    return out


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0,
            "n": len(values), "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--write", default=None, help="JSON file for the summary")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"benchmark": bench, "workloads": {}}
    ok = True
    for w in args.workloads.split(","):
        runs = [run_once(bench, w, s, 0) for s in _seeds(args.seeds)]
        bad = [r for r in runs if r.get("exit_code") != 0 or not r.get("correct")]
        ok &= not bad
        entry = {"runs": len(runs), "failed_runs": len(bad), "metrics": {}, "info": {}}
        infos = [r["detail"]["info"] for r in runs if "detail" in r]
        numeric = [k for k, v in (infos[0] if infos else {}).items() if isinstance(v, (int, float))]
        table = [
            (n, "metrics", [r["metrics"][n]["value"] for r in runs if n in r.get("metrics", {})])
            for n in bounds
        ]
        table += [(n, "info", [i[n] for i in infos]) for n in numeric]
        for name, kind, vals in table:
            if len(vals) < 2:
                continue
            s = spread(vals)
            line = (f"{w:13s} {kind:7s} {name:20s} median {s['median']:.5g}  q1 {s['q1']:.5g}"
                    f"  q3 {s['q3']:.5g}  iqr/median {s['iqr_share']:.4f}")
            if kind == "metrics":
                s["bound"] = bounds[name]
                s["within_third_of_bound"] = s["iqr_share"] < bounds[name] / 3.0
                line += f"  bound {bounds[name]}"
                line += "" if s["within_third_of_bound"] else "  (spread above bound/3)"
            entry[kind][name] = s
            print(line)
        if args.trace_seed is not None:
            t = run_once(bench, w, args.trace_seed, 1)
            ok &= t.get("exit_code") == 0
            entry["per_layer"] = {"seed": args.trace_seed, "metrics": t.get("metrics", {})}
            detail = HERE / "out" / f"result-{w}-trace1.json"
            if detail.is_file():
                d = json.loads(detail.read_text())
                entry["per_layer"].update(
                    {k: d.get(k) for k in ("per_step", "account", "env", "samples")}
                )
        env_file = HERE / "out" / f"result-{w}-trace0.json"
        if env_file.is_file():
            entry["env"] = json.loads(env_file.read_text()).get("env")
        summary["workloads"][w] = entry
        if bad:
            print(f"{w}: {len(bad)} run(s) failed or were not correct")
    if args.write:
        Path(args.write).parent.mkdir(parents=True, exist_ok=True)
        Path(args.write).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
