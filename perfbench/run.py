"""nspb benchmark: wall time to a verdict, with per-module layer timings.

    python3 perfbench/run.py --workload sweep_alpha --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes

Workloads: sweep_alpha, energy_audit, micro (see perfbench/README.md).
``--trace 0`` times whole verdict runs with tracing off and reports the
end-to-end metrics; ``--trace 1`` runs the workload untraced and then traced
and reports the per-layer metrics.  Each run repeats while another one is
predicted to end within ``--seconds``, always at least once; a sweep_alpha
verdict alone takes longer.  Every measurement runs in a fresh interpreter
with each BLAS/OpenMP thread pool capped at 1 before numpy loads.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  An operation is one expected verdict of one
run; it fails when the run raised, lost a sweep point, or the verdict differs
from its expected value.  The exit status is 0 only when nothing failed, and
2 when the checkout holds no nspb source to measure.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import catalog
from stats import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
WORKLOADS = tuple(catalog.EXPECTED)
HISTORY = HERE / "history"
SETUP_SAMPLES = 8
# setup_s is in seconds at a fixed reference speed: each sample's set-up
# seconds are scaled by REFERENCE_S / the reference kernel's CPU seconds in
# the same process.  On this repository's baseline machine the kernel takes
# about 2 ms; a slower hour stretches both and leaves the ratio.
REFERENCE_S = 2.0e-3
# No further run starts unless it is predicted to end this long after the
# invocation started: the benchmark's contract is to exit within 180 s.  The
# first run (or traced pair) always runs to its end; HANG_S only stops a hung
# worker.
DEADLINE_S = 170.0
HANG_S = 900.0

END_TO_END = (
    ("wall_rel", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, layer, statistic); statistics come from tracing.summarize
PER_LAYER = (
    ("flow.step.calls", "count", "flow.step", "calls"),
    ("flow.step.ms_p50", "ms", "flow.step", "ms_p50"),
    ("flow.step.ms_tail", "ms", "flow.step", "ms_tail"),
    ("flow.step.self_s", "s", "flow.step", "self_s"),
    ("flow.init.calls", "count", "flow.init", "calls"),
    ("flow.init.s", "s", "flow.init", "s"),
    ("elliptic.solve_mode.per_step", "calls/step", "elliptic.solve_mode", "per_step"),
    ("elliptic.solve_mode.s", "s", "elliptic.solve_mode", "s"),
    ("elliptic.biot_savart.calls", "count", "elliptic.biot_savart", "calls"),
    ("elliptic.biot_savart.s", "s", "elliptic.biot_savart", "s"),
    ("grid.transform.per_step", "calls/step", "grid.transform", "per_step"),
    ("grid.transform.s", "s", "grid.transform", "s"),
    ("grid.cheb_derivative.per_step", "calls/step", "grid.cheb_derivative", "per_step"),
    ("grid.cheb_derivative.s", "s", "grid.cheb_derivative", "s"),
    ("wallbc.step_boundary_ode.s", "s", "wallbc.step_boundary_ode", "s"),
    ("diagnostics.compute_record.calls", "count", "diagnostics.compute_record", "calls"),
    ("diagnostics.compute_record.ms_p50", "ms", "diagnostics.compute_record", "ms_p50"),
    ("diagnostics.compute_record.s", "s", "diagnostics.compute_record", "s"),
    ("diagnostics.write_records.bytes", "bytes", "diagnostics.write_records", "counted"),
    ("diagnostics.write_records.s", "s", "diagnostics.write_records", "s"),
    ("micro.sde_step.calls", "count", "micro.sde_step", "calls"),
    ("micro.sde_step.ms_p50", "ms", "micro.sde_step", "ms_p50"),
    ("micro.sde_step.ms_tail", "ms", "micro.sde_step", "ms_tail"),
    ("micro.sde_step.member_steps_per_s", "1/s", "micro.sde_step", "counted_per_s"),
    ("micro.kramers_stress.s", "s", "micro.kramers_stress", "s"),
    ("micro.closure_ode_step.s", "s", "micro.closure_ode_step", "s"),
    ("micro.equilibrium_ensemble.s", "s", "micro.equilibrium_ensemble", "s"),
    ("fplanck.solve.calls", "count", "fplanck.solve", "calls"),
    ("fplanck.solve.s", "s", "fplanck.solve", "s"),
    ("fplanck.solve.cell_updates_per_s", "1/s", "fplanck.solve", "counted_per_s"),
    ("experiments.execute.self_s", "s", None, "root_self_s"),
    ("proc.wall_s", "s", None, "wall_s"),
    ("proc.steps_per_s", "1/s", None, "steps_per_s"),
    ("proc.cpu_util", "ratio", None, "cpu_util"),
    ("proc.trace_overhead", "ratio", None, "trace_overhead"),
)


class MissingProgram(Exception):
    """The checkout holds no nspb source to measure."""


def thread_vars() -> tuple:
    """The thread variables nspb's --threads flag sets, read from the checkout."""
    cli_path = ROOT / "src" / "nspb" / "cli.py"
    needed = [cli_path, *(ROOT / c for c in catalog.CONFIGS.values())]
    missing = [p for p in needed if not p.is_file()]
    if missing:
        raise MissingProgram(f"no nspb source to measure: missing {', '.join(map(str, missing))}")
    # cli.py imports only the standard library at module level
    spec = importlib.util.spec_from_file_location("_nspb_cli", cli_path)
    cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli)
    return tuple(cli._THREAD_ENV_VARS)


class Runner:
    """Spawns worker processes for one workload, one at a time."""

    def __init__(self, workload: str, seed: int, smoke: bool, tvars: tuple):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.tvars = tvars
        self.outdir = OUT / (f"smoke-{workload}" if smoke else workload)
        self.env = dict(os.environ)
        self.env.update({v: "1" for v in tvars})
        src = str(ROOT / "src")
        rest = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + os.pathsep + rest if rest else src
        self.deadline = time.monotonic() + DEADLINE_S

    def spawn(self, mode: str, trace: int = 0, samples: int = 1) -> dict:
        cmd = [
            sys.executable, str(WORKER), "--root", str(ROOT), "--workload", self.workload,
            "--mode", mode, "--seed", str(self.seed), "--trace", str(trace),
            "--samples", str(samples), "--out", str(self.outdir),
            "--thread-vars", ",".join(self.tvars),
        ]
        if self.smoke:
            cmd.append("--smoke")
        try:
            # run() kills the worker on timeout or interrupt and waits for it to end
            proc = subprocess.run(
                cmd, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=HANG_S
            )
        except subprocess.TimeoutExpired:
            return {"error": f"worker ({mode}) hung for {HANG_S:.0f} s"}
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"worker ({mode}) exited {proc.returncode}"}
        return json.loads(lines[-1])

    def repeat(self, seconds: float, once):
        """Call once(), then again while the next call is predicted to end in time."""
        results = []
        t0 = time.monotonic()
        while True:
            tic = time.monotonic()
            results.append(once())
            now = time.monotonic()
            last = now - tic
            if now - t0 + last > seconds or now + 1.5 * last > self.deadline:
                return results


def gate(workload: str, smoke: bool, reps: list) -> tuple[int, int, list]:
    """(attempted, failed, messages) of the expected verdicts over all runs."""
    expected = catalog.expected(workload, smoke)
    attempted = failed = 0
    messages = []
    for i, rep in enumerate(reps):
        attempted += max(1, len(expected))
        bad = rep.get("error") or (
            "a sweep point failed" if rep.get("runtime_failures") else None
        ) or "; ".join(rep.get("reference", {}).get("errors", ()))
        if bad:
            failed += max(1, len(expected))
            messages.append(f"run {i}: FAILED {bad}")
            continue
        for name, want in expected.items():
            got = rep["checks"].get(name)
            if got is None or bool(got[0]) != want:
                failed += 1
                messages.append(f"run {i}: MISMATCH {name} got {got} expected {want}")
    return attempted, failed, messages


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def measure_end_to_end(runner: Runner, seconds: float) -> dict:
    # set-up samples bracket the timed runs, so one slow spell cannot hold them all
    half = SETUP_SAMPLES // 2
    before = runner.spawn("setup", samples=half)
    reps = runner.repeat(seconds, lambda: runner.spawn("run"))
    after = runner.spawn("setup", samples=SETUP_SAMPLES - half)
    setups = [
        s for b in (before, after) for s in b.get("samples", [{"error": b.get("error")}] * half)
    ]
    ok = [r for r in reps if not r.get("error")]
    setup_ok = [s for s in setups if "setup_s" in s]
    attempted, failed, messages = gate(runner.workload, runner.smoke, reps)
    failed += len(setups) - len(setup_ok)
    attempted += len(setups)
    ref_ms = [x for r in ok for x in r["reference"]["reference_cpu_ms"]]
    metrics = {
        "wall_rel": _median([r["reference"]["wall_rel"] for r in ok]),
        "setup_s": REFERENCE_S * _median([s["setup_s"] / s["reference_s"] for s in setup_ok]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok]),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END},
        "samples": {"runs": len(ok), "setup_s": len(setup_ok), "reference": len(ref_ms)},
        "info": {
            "wall_s": _median([r["wall_s"] for r in ok]),
            "steps_per_s": _median([r["steps"] / r["wall_s"] for r in ok]),
            "calibration_s": _median([r["reference"]["calibration_s"] for r in ok]),
            "reference_cpu_ms_p50": percentile(ref_ms, 50),
            "reference_wall_ms_p50": percentile(
                [x for r in ok for x in r["reference"]["reference_wall_ms"]], 50
            ),
            "setup_raw_s": _median([s["setup_s"] for s in setup_ok]),
            "setup_samples_s": [s["setup_s"] for s in setup_ok],
            "setup_reference_ms": [s["reference_s"] * 1e3 for s in setup_ok],
        },
        "runs": [_brief(r) for r in reps],
        "env": ok[0]["env"] if ok else None,
    }


def _layer_values(tr: dict, untraced: dict, traced: dict) -> dict:
    layers = tr["layers"]
    proc = {
        "root_self_s": layers.get("experiments.execute", {}).get("self_s", 0.0),
        "wall_s": untraced["wall_s"],
        "steps_per_s": untraced["steps"] / untraced["wall_s"],
        "cpu_util": untraced["cpu_s"] / untraced["wall_s"],
        "trace_overhead": traced["wall_s"] / untraced["wall_s"] - 1.0,
    }
    out = {}
    for metric, _, layer, stat in PER_LAYER:
        entry = layers.get(layer, {})
        if layer is None:
            out[metric] = proc[stat]
        elif stat == "per_step":
            out[metric] = tr["per_step"].get(layer, {}).get("mean", 0.0)
        elif stat == "counted_per_s":
            out[metric] = entry["counted"] / entry["s"] if entry.get("s") else 0.0
        else:
            out[metric] = entry.get(stat, 0.0)
    return out


def measure_layers(runner: Runner, seconds: float) -> dict:
    def pair():
        return runner.spawn("run"), runner.spawn("run", trace=1)

    pairs = runner.repeat(seconds, pair)
    reps = [r for p in pairs for r in p]
    attempted, failed, messages = gate(runner.workload, runner.smoke, reps)
    good = [(u, t) for u, t in pairs if not u.get("error") and not t.get("error")]
    per_pair = [_layer_values(t["trace"], u, t) for u, t in good]
    per_step = [t["trace"]["per_step"] for _, t in good]
    repeat_ok = all(t["trace"]["counts_repeat"] for _, t in good) and all(
        p == per_step[0] for p in per_step
    )
    if not repeat_ok:
        failed += 1
        messages.append(f"per-step call counts differ between steps or runs: {per_step}")
    attempted += 1
    baseline = None if runner.smoke or not per_step else baseline_per_step(runner.workload)
    if baseline is not None:
        baseline["match"] = baseline["per_step"] == per_step[0]
        messages.append(
            f"per-step call counts {'match' if baseline['match'] else 'DIFFER from'} "
            f"{baseline['file']}: {baseline['per_step']}"
        )
    account = [
        {
            "untraced_wall_s": u["wall_s"],
            "traced_wall_s": t["wall_s"],
            "self_sum_s": t["trace"]["self_sum_s"],
            "self_by_layer_s": {k: v["self_s"] for k, v in t["trace"]["layers"].items()},
            "tail_percentile": {k: v["tail_percentile"] for k, v in t["trace"]["layers"].items()},
            "calls": {k: v["calls"] for k, v in t["trace"]["layers"].items()},
            "spans": t["trace"]["spans"],
        }
        for u, t in good
    ]
    return {
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "metrics": {
            m: {"value": _median([p[m] for p in per_pair]), "unit": unit}
            for m, unit, _, _ in PER_LAYER
        },
        "samples": {"pairs": len(good)},
        "per_step": per_step[0] if per_step else {},
        "per_step_baseline": baseline,
        "account": account,
        "runs": [_brief(r) for r in reps],
        "env": good[0][0]["env"] if good else None,
    }


def baseline_per_step(workload: str):
    """Per-step call counts in the latest committed history/BENCH_<n>.json, if any."""
    files = sorted(
        HISTORY.glob("BENCH_*.json"),
        key=lambda p: int(re.sub(r"\D", "", p.stem) or 0),
    )
    for path in reversed(files):
        entry = json.loads(path.read_text()).get("workloads", {}).get(workload, {})
        counts = entry.get("per_layer", {}).get("per_step")
        if counts:
            return {"file": str(path.relative_to(ROOT)), "per_step": counts}
    return None


def _brief(rep: dict) -> dict:
    return {k: rep.get(k) for k in ("wall_s", "cpu_s", "peak_rss_mb", "steps", "checks", "error")}


def report(workload: str, trace: int, res: dict) -> None:
    print(f"== {workload} (trace {trace})")
    if res.get("env"):
        print("env " + json.dumps(res["env"], sort_keys=True))
    for i, r in enumerate(res["runs"]):
        if r.get("error"):
            print(f"run {i}: error {r['error']}")
            continue
        verdicts = " ".join(
            f"{'PASS' if v[0] else 'FAIL'}:{k}" for k, v in sorted((r.get("checks") or {}).items())
        )
        print(f"run {i}: wall {r['wall_s']:.3f} s, {r['steps']} steps, {verdicts}")
    for m in res["messages"]:
        print(m)
    print(f"samples {json.dumps(res['samples'])}")
    for a in res.get("account", ()):
        ratio = a["self_sum_s"] / a["untraced_wall_s"] - 1.0
        print(
            f"account: self times of {a['spans']} spans sum to {a['self_sum_s']:.3f} s "
            f"(traced wall {a['traced_wall_s']:.3f} s); untraced wall "
            f"{a['untraced_wall_s']:.3f} s, so sum/untraced - 1 = {ratio:+.4f}"
        )
        by_layer = sorted(a["self_by_layer_s"].items(), key=lambda kv: -kv[1])
        print("self s by layer " + json.dumps({k: round(v, 4) for k, v in by_layer if v}))
        print("tail percentiles " + json.dumps(
            {k: v for k, v in a["tail_percentile"].items() if v is not None}, sort_keys=True
        ))
    for name, value in res.get("info", {}).items():
        print(f"info {name} {json.dumps(value)}")
    for name, m in res["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")


def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool, tvars) -> dict:
    runner = Runner(workload, seed, smoke, tvars)
    res = (measure_layers if trace else measure_end_to_end)(runner, seconds)
    res.update({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace})
    OUT.mkdir(exist_ok=True)
    tag = "smoke-" if smoke else ""
    (OUT / f"result-{tag}{workload}-trace{trace}.json").write_text(json.dumps(res, indent=1))
    report(workload, trace, res)
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="16x17 grid, 1e3 members, a few steps")
    args = ap.parse_args(argv)
    # a terminated benchmark kills its running worker and waits for it (subprocess.run)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        tvars = thread_vars()
    except MissingProgram as exc:
        print(exc, file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [
            (w, measure(w, args.seed, args.seconds, t, args.smoke, tvars))
            for w in WORKLOADS
            for t in (0, 1)
        ]
        metrics = {f"{w}/{k}": v for w, res in runs for k, v in res["metrics"].items()}
    else:
        runs = [(args.workload, measure(
            args.workload, args.seed, args.seconds, args.trace, args.smoke, tvars
        ))]
        metrics = runs[0][1]["metrics"]
    attempted = sum(r["attempted"] for _, r in runs)
    failed = sum(r["failed"] for _, r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
