"""One benchmark measurement in a fresh interpreter.

run.py starts this script with every BLAS/OpenMP thread variable already set
to 1 in the environment, so the cap holds before numpy loads.  The last line
of standard output is one JSON object.

    --mode setup   time importing nspb (numpy and scipy already loaded) and
                   building the workload's first state, --samples times, each
                   in a child forked before nspb is imported
    --mode run     run the workload to its verdicts; --trace 0 runs the
                   reference kernel on a timer alongside (tracing.Calibrator),
                   --trace 1 records spans instead
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def _check_source(root: Path) -> None:
    """Refuse to measure an nspb imported from anywhere but this checkout."""
    import nspb

    src = (root / "src").resolve()
    if src not in Path(nspb.__file__).resolve().parents:
        raise SystemExit(f"nspb was imported from {nspb.__file__}, not from {src}")


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by library file name."""
    import ctypes

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")) if libdir.is_dir() else ():
            handle = ctypes.CDLL(str(lib))
            for sym in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[lib.name] = fn()
                    break
    return out


def environment(thread_vars) -> dict:
    import numpy
    import scipy

    def blas_version(pkg):
        deps = pkg.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy),
        "scipy_blas": blas_version(scipy),
        "thread_cap": {v: os.environ.get(v) for v in thread_vars},
        "blas_threads_reported": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _setup_sample(root: Path, args) -> dict:
    """Time importing nspb and building the first state, in a forked child.

    numpy and scipy load in this process before the fork: their ~0.4 s is
    outside nspb's control and was the noisiest part of the set-up time.
    Each child starts with them loaded and with no nspb module, as a fresh
    interpreter that imported them would.
    """
    import numpy  # noqa: F401
    import scipy.fft  # noqa: F401
    import scipy.linalg  # noqa: F401

    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        status = 1
        try:
            t0 = time.perf_counter()
            import workloads

            workloads.setup(root, args.workload, args.smoke)
            setup_s = time.perf_counter() - t0
            _check_source(root)
            import tracing

            out = {"setup_s": setup_s, "reference_s": tracing.reference_seconds()}
            os.write(write_end, json.dumps(out).encode())
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return {"error": f"set-up child exited with status {status}"}
    return json.loads(data)


def _rusage() -> dict:
    """CPU seconds and peak RSS of this process and of its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "cpu_s": me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime,
        # ru_maxrss is in KiB; for children it is the largest single child
        "peak_rss_mb": max(me.ru_maxrss, kids.ru_maxrss) / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--samples", type=int, default=1, help="set-up samples (--mode setup)")
    ap.add_argument("--out")
    ap.add_argument("--thread-vars", default="")
    args = ap.parse_args(argv)
    root = Path(args.root)

    if args.mode == "setup":
        print(json.dumps({"samples": [_setup_sample(root, args) for _ in range(args.samples)]}))
        return 0

    import workloads

    _check_source(root)
    import tracing

    tracer = calibrator = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, extra_modules=[workloads])
    else:
        calibrator = tracing.Calibrator()
        calibrator.start()

    outdir = Path(args.out)
    error = None
    ru0 = _rusage()
    t0 = time.perf_counter()
    try:
        result = workloads.run(root, args.workload, outdir, args.seed, args.smoke)
    except Exception as exc:  # reported as a failed run, never as a result
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
        result = {"checks": {}, "steps": 0, "runtime_failures": 1}
    t1 = time.perf_counter()
    ru1 = _rusage()
    wall_s = t1 - t0
    cpu_s = ru1["cpu_s"] - ru0["cpu_s"]

    out = {"error": error, **result}
    if calibrator is not None:
        calibrator.stop()
        ref = calibrator.summary(t0, t1)
        out["reference"] = ref
        # the kernel's own time is not the program's
        wall_s -= ref["calibration_s"]
        cpu_s -= ref["calibration_cpu_s"]
    if tracer is not None:
        out["trace"] = tracing.summarize(tracer)
        tracer.save(outdir / "spans.npz")
    out.update({
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": ru1["peak_rss_mb"],
        "env": environment([v for v in args.thread_vars.split(",") if v]),
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
