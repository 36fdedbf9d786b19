"""Smoke test of the benchmark harness at toy size (16x17 grid, 1e3 members).

    python3 -m pytest perfbench/tests -q

It keeps the harness from rotting; it is not part of the repository's
tier-1 suite and asserts no timing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import catalog  # noqa: E402


def _bench(*args, cwd=ROOT, timeout=600):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="module")
def smoke_all():
    proc = _bench("--workload", "all", "--smoke", "--seconds", "8", "--seed", "7")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (m, u) for m, u, _, _ in run.PER_LAYER
    ]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_every_metric_is_printed_for_every_workload(smoke_all):
    assert smoke_all["correct"] and smoke_all["failed"] == 0
    assert smoke_all["attempted"] >= 1
    names = dict(run.END_TO_END) | {m: u for m, u, _, _ in run.PER_LAYER}
    for w in run.WORKLOADS:
        for name, unit in names.items():
            assert smoke_all["metrics"][f"{w}/{name}"]["unit"] == unit
        for name in ("wall_rel", "setup_s", "peak_rss_mb", "proc.wall_s"):
            assert smoke_all["metrics"][f"{w}/{name}"]["value"] > 0


@pytest.mark.parametrize("workload", ["sweep_alpha", "energy_audit"])
def test_traced_flow_counts_repeat_and_self_times_cover_the_run(smoke_all, workload):
    res = json.loads((run.OUT / f"result-smoke-{workload}-trace1.json").read_text())
    # more than one traced run, so the per-step counts were compared between runs
    assert res["samples"]["pairs"] >= 2
    assert res["failed"] == 0
    for layer in ("elliptic.solve_mode", "grid.transform", "grid.cheb_derivative"):
        counts = res["per_step"][layer]
        assert counts["min"] == counts["max"] > 0
    for a in res["account"]:
        assert a["self_sum_s"] == pytest.approx(a["traced_wall_s"], rel=0.05)
    assert smoke_all["metrics"][f"{workload}/flow.step.calls"]["value"] > 0
    assert smoke_all["metrics"][f"{workload}/micro.sde_step.calls"]["value"] == 0


def test_traced_micro_reaches_micro_and_fplanck_only(smoke_all):
    m = smoke_all["metrics"]
    assert m["micro/micro.sde_step.calls"]["value"] > 0
    assert m["micro/fplanck.solve.calls"]["value"] == 2
    assert m["micro/fplanck.solve.cell_updates_per_s"]["value"] > 0
    assert m["micro/experiments.execute.self_s"]["value"] > 0
    assert m["micro/flow.step.calls"]["value"] == 0


def test_calibrator_reference_runs_while_the_main_thread_waits():
    import tracing

    cal = tracing.Calibrator()
    cal.start()
    t0 = time.perf_counter()
    # a child process stands in for a pool: the parent only waits on it
    subprocess.run([sys.executable, "-c", "import time; time.sleep(1.0)"], check=True)
    t1 = time.perf_counter()
    cal.stop()
    ref = cal.summary(t0, t1)
    assert not ref["errors"]
    # start and stop take one sample each; the timer adds one per EVERY_S
    assert len(ref["reference_cpu_ms"]) >= 2 + int(0.8 / tracing.Calibrator.EVERY_S)
    assert ref["wall_rel"] > 0
    assert ref["calibration_s"] < 0.5 * (t1 - t0)


def test_workers_count_their_children(tmp_path):
    import worker

    before = worker._rusage()
    subprocess.run([sys.executable, "-c", "sum(range(3_000_000))"], check=True)
    after = worker._rusage()
    assert after["cpu_s"] > before["cpu_s"]


def test_gate_counts_a_hidden_closure_defect_as_failed():
    checks = {name: [want, None] for name, want in catalog.EXPECTED["micro"].items()}
    assert run.gate("micro", False, [{"checks": checks}])[1] == 0
    checks["closure_tracks_sigma_tn_constant"] = [True, 0.5]
    attempted, failed, _ = run.gate("micro", False, [{"checks": checks}])
    assert (attempted, failed) == (len(checks), 1)
    assert run.gate("micro", False, [{"error": "boom"}])[1] == len(checks)


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = _bench("--workload", "micro", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
