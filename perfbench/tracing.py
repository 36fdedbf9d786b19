"""Span tracing around nspb's public functions, installed from outside the package.

Nothing under ``src/nspb`` knows about tracing: ``install`` replaces every
binding of each target in the loaded ``nspb`` modules (class attributes for
methods; for functions every module-level name bound to the original, which
covers from-imports such as ``nspb.experiments.compute_record`` and
``cheb_derivative_coeffs`` inside ``flow``, ``elliptic``, ``diagnostics`` and
``grid``).

A span is (name, start, end, parent).  Spans live in flat arrays in memory
while the workload runs (a 64x65 sweep records about 850k of them) and are
summarised and written out only after the timed region ends.

Untraced runs are measured against ``ReferenceKernel`` instead, which
``Calibrator`` times alongside them.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import signal
import sys
import time
from array import array

import numpy as np

from stats import percentile, tail

STEP_LAYER = "flow.step"
# layers whose calls are also reported per solver step
PER_STEP_LAYERS = ("elliptic.solve_mode", "grid.transform", "grid.cheb_derivative")


def _members_stepped(args, kwargs, result) -> int:
    return result.n_members


def _file_bytes(args, kwargs, result) -> int:
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


def _fp_cell_updates(fn):
    sig = inspect.signature(fn)

    def count(args, kwargs, result) -> int:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        grid, t_end, dt = a["fpgrid"], a["t_end"], a["dt"]
        if dt is None:  # the step the solver picks, by the solver's own rule
            from nspb.fplanck import stable_dt

            slip = a["u_slip"]
            slip = slip if callable(slip) else (lambda t, c=float(slip): c)
            u_bound = max(abs(slip(s)) for s in np.linspace(0.0, max(t_end, 1e-12), 64))
            dt = stable_dt(grid, a["potential"], a["phys"], u_max=u_bound)
        n_steps = max(1, int(math.ceil(t_end / dt - 1e-12))) if t_end > 0 else 0
        return grid.n_t * grid.n_n * n_steps

    return count


# (layer, module, class or None, attribute, counter factory or None)
TARGETS = (
    ("experiments.execute", "nspb.experiments", None, "execute", None),
    ("flow.init", "nspb.flow", "ChannelFlowSolver", "__init__", None),
    ("flow.step", "nspb.flow", "ChannelFlowSolver", "step", None),
    ("elliptic.solve_mode", "nspb.elliptic", "TauSolver", "solve_mode", None),
    ("elliptic.biot_savart", "nspb.elliptic", None, "biot_savart", None),
    ("grid.transform", "nspb.grid", "ChannelGrid", "spec_to_phys", None),
    ("grid.transform", "nspb.grid", "ChannelGrid", "phys_to_spec", None),
    ("grid.cheb_derivative", "nspb.grid", None, "cheb_derivative_coeffs", None),
    ("wallbc.step_boundary_ode", "nspb.wallbc", None, "step_boundary_ode", None),
    ("diagnostics.compute_record", "nspb.diagnostics", None, "compute_record", None),
    ("diagnostics.write_records", "nspb.diagnostics", None, "write_records",
     lambda fn: _file_bytes),
    ("micro.equilibrium_ensemble", "nspb.micro", None, "equilibrium_ensemble", None),
    ("micro.sde_step", "nspb.micro", None, "sde_step", lambda fn: _members_stepped),
    ("micro.kramers_stress", "nspb.micro", None, "kramers_stress", None),
    ("micro.closure_ode_step", "nspb.micro", None, "closure_ode_step", None),
    ("fplanck.solve", "nspb.fplanck", None, "fokker_planck_solve", _fp_cell_updates),
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.layers: list[str] = []
        self.counted: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def wrap(self, layer: str, fn, counter=None):
        """Return fn recording one span per call, and counted units if asked."""
        lid = self._layer_id(layer)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        counted = self.counted
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(lid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counted[layer] = counted.get(layer, 0) + counter(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self._name, dtype=np.intc).astype(np.int64),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, layers=np.array(self.layers), **self.arrays())


def _patch(modname: str, clsname, attr: str, make, extra_modules=()) -> None:
    """Replace a method on its class, or every module-level binding of a function."""
    import importlib

    mod = importlib.import_module(modname)
    if clsname is not None:
        owner = getattr(mod, clsname)
        setattr(owner, attr, make(owner.__dict__[attr]))
        return
    orig = getattr(mod, attr)
    wrapped = make(orig)
    modules = [m for n, m in list(sys.modules.items()) if n == "nspb" or n.startswith("nspb.")]
    for m in modules + list(extra_modules):
        for key, value in list(vars(m).items()):
            if value is orig:
                setattr(m, key, wrapped)


def install(tracer: Tracer, extra_modules=()) -> None:
    """Route every binding of each target through tracer spans."""
    for layer, modname, clsname, attr, factory in TARGETS:
        _patch(
            modname, clsname, attr,
            lambda fn, layer=layer, factory=factory: tracer.wrap(
                layer, fn, factory(fn) if factory else None
            ),
            extra_modules,
        )


class ReferenceKernel:
    """Fixed work in the steps' own mix, timed to track how fast the core runs now.

    Small LU solves, a Python-level recurrence over a short vector, small
    real FFTs and DCTs, Philox normal draws and a pass over a 4e4-element
    array: the dispatch-bound and array-bound work that nspb's steps are made
    of, about 1-2 ms of it.  Nothing here calls nspb, so a change to nspb
    cannot change this kernel's time.
    """

    def __init__(self, n: int = 33, repeats: int = 12):
        import scipy.fft
        import scipy.linalg

        rng = np.random.default_rng(20190419)
        self._lu_solve = scipy.linalg.lu_solve
        self._dct = scipy.fft.dct
        self._lu = scipy.linalg.lu_factor(rng.standard_normal((n, n)) + n * np.eye(n))
        self._v = rng.standard_normal(n)
        self._field = rng.standard_normal((n, 32))
        self._big = rng.standard_normal((20000, 2))
        self._repeats = repeats

    def seconds(self) -> float:
        t0 = time.perf_counter()
        x = self._v
        n = len(x)
        for _ in range(self._repeats):
            x = self._lu_solve(self._lu, x) * 0.5 + self._v
            b = np.zeros_like(x)
            for k in range(n - 2, 0, -1):
                b[k - 1] = b[k + 1] + 2.0 * k * x[k]
            x = x + 1e-3 * b
        for _ in range(3):
            f = np.fft.rfft(self._field, axis=1)
            g = self._dct(f.real, type=1, axis=0) + self._dct(f.imag, type=1, axis=0)
            x = x + 1e-6 * g[:, 0]
        z = np.random.Generator(np.random.Philox(key=[7, 7])).standard_normal(self._big.shape)
        float(np.abs(self._big * 1.0001 + z + x[0]).sum())
        return time.perf_counter() - t0


def reference_seconds(passes: int = 5) -> float:
    """Median CPU seconds of the reference kernel in this process, caches warm."""
    kernel = ReferenceKernel()
    kernel.seconds()
    samples = []
    for _ in range(passes):
        c0 = time.thread_time()
        kernel.seconds()
        samples.append(time.thread_time() - c0)
    return float(np.median(samples))


class Calibrator:
    """The reference kernel, run on a wall-clock timer through an untraced run.

    A SIGALRM every EVERY_S seconds runs the kernel in the main thread,
    between two bytecodes of whatever the workload is doing, also while it
    waits on a child process or a pool (those waits are interruptible).  The
    first pass refills the caches the workload took over; the second is the
    sample.  Its CPU time, not its wall time, is the reference: the slow
    spells of a shared machine show in CPU time too, while processes of the
    workload's own that compete for the cores deschedule the kernel without
    making it look slower.

    ``wall_rel`` is the run's time in reference units: the work between two
    kernel runs divided by the rolling median of the kernel times around
    it, summed over the run.  A change that makes the run 20% cheaper lowers
    it by 20%, wherever in the run the time went.
    """

    EVERY_S = 0.2
    SMOOTH = 5  # kernel runs in the rolling median

    def __init__(self):
        self._kernel = ReferenceKernel()
        self._kernel.seconds()  # first-call costs stay out of the samples
        self.starts = array("d")
        self.walls = array("d")
        self.cpus = array("d")
        self.spent_cpu = array("d")  # both passes
        self.errors: list[str] = []
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        w0 = time.thread_time()
        try:
            self._kernel.seconds()
            c0 = time.thread_time()
            self._kernel.seconds()
            c1 = time.thread_time()
        except Exception as exc:  # never raise into the interrupted workload
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return
        self.cpus.append(c1 - c0)
        self.spent_cpu.append(c1 - w0)
        self.starts.append(t0)
        self.walls.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def summary(self, t0: float, t1: float) -> dict:
        """Reference figures of the run that went from t0 to t1 (perf_counter)."""
        starts = np.frombuffer(self.starts, dtype=np.float64)
        walls = np.frombuffer(self.walls, dtype=np.float64)
        cpus = np.frombuffer(self.cpus, dtype=np.float64)
        half = self.SMOOTH // 2
        padded = np.r_[np.repeat(cpus[:1], half), cpus, np.repeat(cpus[-1:], half)]
        window = np.lib.stride_tricks.sliding_window_view(padded, self.SMOOTH)
        smooth = np.median(window, axis=1)
        work = starts[1:] - (starts[:-1] + walls[:-1])
        ref = 0.5 * (smooth[:-1] + smooth[1:])
        inside = (starts >= t0) & (starts <= t1)
        return {
            "wall_rel": float(np.sum(work / ref)),
            "calibration_s": float(walls[inside].sum()),
            "calibration_cpu_s": float(np.frombuffer(self.spent_cpu)[inside].sum()),
            "reference_cpu_ms": (cpus * 1e3).tolist(),
            "reference_wall_ms": (walls * 1e3).tolist(),
            "errors": list(self.errors),
        }


def summarize(tracer: Tracer) -> dict:
    """Per-layer calls, inclusive and self seconds, per-step counts."""
    a = tracer.arrays()
    name, parent = a["name"], a["parent"]
    dur = a["end"] - a["start"]
    n = len(dur)
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_sum

    layers = {}
    for lid, layer in enumerate(tracer.layers):
        sel = name == lid
        ms = (dur[sel] * 1e3).tolist()
        p_tail, ms_tail = tail(ms)
        layers[layer] = {
            "calls": int(sel.sum()),
            "s": float(dur[sel].sum()),
            "self_s": float(self_time[sel].sum()),
            "ms_p50": percentile(ms, 50),
            "ms_tail": ms_tail,
            "tail_percentile": p_tail,
            "counted": int(tracer.counted.get(layer, 0)),
        }

    per_step = {}
    if STEP_LAYER in tracer.layers:
        is_step = name == tracer.layers.index(STEP_LAYER)
        step_of = _nearest_ancestor(parent, is_step)
        steps = np.flatnonzero(is_step)
        for layer in PER_STEP_LAYERS:
            inside = (name == tracer.layers.index(layer)) & (step_of >= 0)
            counts = np.bincount(step_of[inside], minlength=n)[steps]
            per_step[layer] = {
                "min": int(counts.min()) if len(counts) else 0,
                "max": int(counts.max()) if len(counts) else 0,
                "mean": float(counts.mean()) if len(counts) else 0.0,
            }
    return {
        "spans": n,
        "layers": layers,
        "per_step": per_step,
        "counts_repeat": all(c["min"] == c["max"] for c in per_step.values()),
        "self_sum_s": float(self_time.sum()),
    }


def _nearest_ancestor(parent: np.ndarray, mark: np.ndarray) -> np.ndarray:
    """Index of each span's nearest marked ancestor-or-self, -1 if none."""
    idx = np.arange(len(parent))
    found = np.where(mark, idx, -1)
    up = np.where(mark, -1, parent)
    while True:
        pending = np.flatnonzero(up >= 0)
        if len(pending) == 0:
            return found
        cand = up[pending]
        hit = mark[cand]
        found[pending[hit]] = cand[hit]
        up[pending[hit]] = -1
        up[pending[~hit]] = parent[cand[~hit]]
