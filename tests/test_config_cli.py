import json
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nspb
from nspb.checkpoint import run_record
from nspb.cli import _THREAD_ENV_VARS, main
from nspb.config import _SCHEMA, KIND_KEYS, KINDS, ConfigError, load_config, parse_config
from nspb.flow import forcing_name

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TINY = (
    "re = 50\n"
    "wi = 1\n"
    "tau = 20\n"
    "alpha = 1\n"
    "nx = 16\n"
    "ny = 17\n"
    "dt = 2e-3\n"
    "t_end = 0.02\n"
    "checkpoint_every = 5\n"
    "record_every = 2\n"
)


# ---- config parsing ----


def test_empty_config_is_default_single_run():
    plan = parse_config("")
    assert plan.kind == "single_run"
    assert plan.sim.Re == 250.0
    assert plan.solver.mode == "navier_stokes"
    echo = plan.echo()
    # kind and every key a single run reads are echoed with their resolved values
    keys = ["kind", "re", "wi", "tau", "alpha", "kappa", "nx", "ny", "lx", "dt", "t_end",
            "cfl_max", "forcing_amplitude", "checkpoint_every", "record_every"]
    assert list(echo) == keys + ["output_dir", "seed"]
    assert echo["kind"] == "single_run"
    assert echo["re"] == 250.0


def test_comments_and_whitespace():
    plan = parse_config("# header\n  re = 300   # trailing\n\n   \nwi=2\n")
    assert plan.sim.Re == 300.0
    assert plan.sim.Wi == 2.0


def test_wall_admissibility_rejected():
    with pytest.raises(ConfigError, match="alpha > 4"):
        parse_config("alpha = 2\nkappa = 1\n")


def test_sweep_alpha_checks_the_alphas_it_sweeps():
    # the unread default alpha = 10 would not admit kappa = 3; the swept ones do
    plan = parse_config("kind = sweep_alpha\nkappa = 3\nsweep_values = 100,1000\n")
    assert plan.sweep_values == (100.0, 1000.0)
    assert plan.sim.alpha == 100.0  # the plan carries the first swept alpha


def test_echo_follows_the_plan():
    plan = parse_config("")
    moved = replace(plan, nx=16, ny=17, solver=replace(plan.solver, t_end=0.01))
    echo = moved.echo()
    assert list(echo) == list(plan.echo())
    assert (echo["nx"], echo["ny"], echo["t_end"]) == (16, 17, 0.01)


# a distinct admissible value for every key some kind reads
_EVERY_KEY = {
    "re": "300", "wi": "2", "tau": "3", "alpha": "5", "kappa": "0.5", "nx": "16", "ny": "17",
    "lx": "6", "dt": "0.01", "t_end": "0.5", "cfl_max": "0.4", "forcing_amplitude": "0.004",
    "checkpoint_every": "7", "record_every": "3", "sweep_values": "5,50",
}


@pytest.mark.parametrize("kind", KINDS)
def test_echo_reads_each_key_as_written(kind):
    keys = KIND_KEYS[kind]
    echo = parse_config("".join(f"{k} = {_EVERY_KEY[k]}\n" for k in keys), force_kind=kind).echo()
    written = {key: _SCHEMA[key][0](_EVERY_KEY[key]) for key in keys}
    assert echo == {"kind": kind, **written, "output_dir": "runs", "seed": 0}


def test_three_point_sweep_plan():
    plan = parse_config("kind = sweep_re\nsweep_values = 250,500,1000\n")
    assert plan.kind == "sweep_re"
    assert plan.sweep_values == (250.0, 500.0, 1000.0)


def test_kind_defaults_and_overrides():
    plan = parse_config("kind = sweep_re\n")
    assert plan.solver.t_end == 2.0
    assert plan.solver.dt == 2e-2
    assert plan.sweep_values == (250.0, 500.0, 1000.0, 2000.0, 4000.0)
    plan = parse_config("kind = sweep_re\nt_end = 0.5\n")
    assert plan.solver.t_end == 0.5  # explicit keys beat kind defaults
    plan = parse_config("kind = energy_audit\n")
    assert (plan.sim.Re, plan.nx, plan.ny) == (20.0, 32, 33)


@pytest.mark.parametrize(
    "text, message",
    [
        ("bogus_key = 1\n", r"line 1: unknown key"),
        ("re = 100\nscaling_mode = vary_V\n", r"line 2: unknown key 'scaling_mode'"),
        ("re = 100\nre = 200\n", r"line 2: duplicate key"),
        ("just words\n", r"line 1: expected key=value"),
        ("re = fast\n", r"line 1: bad value for 're'"),
        ("stokes_einstein = maybe\n", r"line 1: unknown key 'stokes_einstein'"),
        ("kind = warp_drive\n", r"kind must be one of"),
        ("kind = sweep_re\nsweep_values =\n", r"bad value for 'sweep_values'"),
        ("kind = sweep_re\nsweep_values = 100,-5\n", r"sweep_values must be positive"),
        ("kind = sweep_re\nsweep_values = 10, nan, 1000\n", r"sweep_values must be .* finite"),
        ("forcing_amplitude = nan\n", r"forcing_amplitude must be finite"),
        ("forcing_amplitude = inf\n", r"forcing_amplitude must be finite"),
        ("kind = sweep_re\nforcing_amplitude = -0.004\n", r"forcing_amplitude must be >= 0"),
        ("kind = sweep_alpha\nforcing_amplitude = -0.004\n", r"forcing_amplitude must be >= 0"),
        ("kind = energy_audit\nt_end = 0\n", r"t_end must be positive"),
        ("kind = energy_audit\nnx = 16\nny = 17\nt_end = 0.003\n", r"not a whole number"),
        ("dt = 1e-3\nt_end = 0.0015\n", r"t_end = 0.0015 is not a whole number"),
        ("kind = sweep_alpha\nt_end = 0.50025\n", r"not a whole number of steps"),
        # each swept alpha must admit kappa, the first as well as a later one
        ("kind = sweep_alpha\nkappa = 2\nsweep_values = 5,100\n", r"got alpha=5.0, kappa=2.0"),
        ("kind = sweep_alpha\nkappa = 2\nsweep_values = 100,5\n", r"got alpha=5.0, kappa=2.0"),
        ("kind = inviscid_limit\ndt = 0.3\n", r"dt = 0.3"),
        ("kind = micro_verify\ndt = 0.3\n", r"line 2: key 'dt' is not read by kind=micro_verify"),
        (
            "kind = sweep_re\nnx = 16\nny = 17\ndt = 3e-4\nt_end = 0.0006\n",
            r"forced phase span = 0.5 is not a whole number of steps of dt = 0.0003",
        ),
        ("dt = -1\n", r"dt must be positive"),
        # t_end / dt overflows to inf: no whole number of steps, not a crash
        ("dt = 1e-320\n", r"t_end = 1.0 is not a whole number of steps of dt = 1e-320"),
        ("dt = 1e-300\nt_end = 1e10\n", r"t_end = 10000000000.0 is not a whole number"),
        ("cfl_max = 1.5\n", r"cfl_max"),
        ("mode = magic\n", r"mode"),
    ],
)
def test_config_errors_carry_context(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


@pytest.mark.parametrize(
    "dt, error",
    [
        ("2e-2", "the inviscid sample spacing = 0.05 is not a whole number of steps of dt = 0.02"),
        ("0.1", "the inviscid sample spacing = 0.05 is not a whole number of steps of dt = 0.1"),
        ("1e-2", None),
    ],
)
def test_inviscid_dt_must_divide_the_sample_spacing(tmp_path, dt, error):
    # both failing steps divide t_end = 0.5, so only the sample spacing catches
    # them: 2e-2 would sample every 0.04 and 0.1 every step, against 0.05
    text = f"kind = inviscid_limit\nnx = 16\nny = 17\ndt = {dt}\n"
    if error is None:
        assert parse_config(text).solver.dt == float(dt)
        return
    with pytest.raises(ConfigError, match=error):
        parse_config(text)
    out = tmp_path / "o"
    assert main(["inviscid-limit", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
    assert not (out / "inviscid_errors.csv").exists()


def test_t_end_whole_steps_allows_roundoff():
    assert parse_config("dt = 0.1\nt_end = 0.3\n").solver.t_end == 0.3  # 0.3/0.1 = 2.99...


@pytest.mark.parametrize("kind", KINDS)
def test_each_kind_rejects_the_keys_it_does_not_read(kind):
    outside = [key for key in _SCHEMA if key != "kind" and key not in KIND_KEYS[kind]]
    for key in outside:
        with pytest.raises(ConfigError, match=rf"^line 2: key '{key}' is not read by kind={kind}$"):
            parse_config(f"kind = {kind}\n{key} = 1\n")
        # a subcommand's kind rejects it too
        with pytest.raises(ConfigError, match=rf"^line 1: key '{key}' is not read by kind={kind}$"):
            parse_config(f"{key} = 1\n", force_kind=kind)
    # the drivers choose the mode, the amplitude sets the forcing, the bead drag is unit
    for key in ("mode", "forcing", "stokes_einstein"):
        with pytest.raises(ConfigError, match=rf"^line 2: unknown key '{key}'$"):
            parse_config(f"kind = {kind}\n{key} = x\n")


def test_kind_key_sets():
    flow = {"re", "wi", "tau", "alpha", "kappa", "nx", "ny", "lx", "dt", "t_end", "cfl_max"}
    expected = {
        "single_run": flow | {"forcing_amplitude", "checkpoint_every", "record_every"},
        "sweep_re": flow | {"forcing_amplitude", "record_every", "sweep_values"},
        "sweep_alpha": flow - {"alpha"} | {"forcing_amplitude", "record_every", "sweep_values"},
        "inviscid_limit": flow | {"sweep_values"},
        "energy_audit": flow,
        "micro_verify": set(),
    }
    assert {kind: set(keys) for kind, keys in KIND_KEYS.items()} == expected
    assert sum(len(keys) for keys in KIND_KEYS.values()) == 64
    assert len(_SCHEMA) == 16


def test_every_shipped_config_loads():
    paths = sorted(CONFIGS.glob("*.cfg"))
    assert sorted(p.stem for p in paths) == sorted(KINDS)
    for path in paths:
        assert load_config(path).kind == path.stem


def test_forcing_follows_the_amplitude():
    # the forcing is forcing_name of the amplitude, so the run record, which
    # a restart checks, stores the amplitude alone
    for amplitude, forcing in ((0.004, "steady_pressure_gradient"), (0.0, "zero")):
        plan = parse_config(f"forcing_amplitude = {amplitude}\n")
        run = run_record(plan.grid(), plan.sim, plan.solver)
        assert forcing_name(plan.solver.forcing_amplitude) == forcing
        assert "forcing" not in run and run["forcing_amplitude"] == amplitude


def test_force_kind_inherits_and_conflicts():
    plan = parse_config("", force_kind="inviscid_limit")
    assert plan.kind == "inviscid_limit"
    assert plan.sweep_values == (250.0, 1000.0, 4000.0)  # kind defaults follow
    with pytest.raises(ConfigError, match="subcommand implies"):
        parse_config("kind = single_run\n", force_kind="sweep_re")
    with pytest.raises(ConfigError, match="kind must be one of"):
        parse_config("", force_kind="bogus")
    assert set(KINDS) >= {"single_run", "sweep_re", "sweep_alpha",
                          "micro_verify", "energy_audit", "inviscid_limit"}


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.cfg")


def test_config_not_utf8_exits_2(tmp_path, capsys):
    # a Latin-1 byte in a comment is a config error, not a failed physics check
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"# caf\xe9\nkind = single_run\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: cannot read config" in err and str(cfg) in err
    assert "utf-8" in err
    assert not (tmp_path / "o").exists()


def test_with_output_and_seed():
    plan = parse_config("").with_output("/tmp/somewhere", seed=42)
    assert plan.output_dir == Path("/tmp/somewhere")
    assert plan.seed == 42
    assert plan.echo()["seed"] == 42


# ---- command line ----


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def fresh_python(code: str) -> str:
    """Stdout of code run in a new interpreter with no thread caps set."""
    path = [str(Path(nspb.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_ENV_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    # the run-time package is numpy only: scipy serves the tests alone
    code = (
        "import sys, nspb.cli, nspb.experiments; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    assert fresh_python(code) == "[]"


def test_cli_threads_flag_caps_numpy_blas_pool(tmp_path):
    # --threads works only if numpy first loads after main() sets the caps;
    # the pool size is what numpy's bundled OpenBLAS reports
    cfg = write_cfg(tmp_path, "t_end = 0\nnx = 16\nny = 17\n")
    argv = ["run", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1"]
    script = f"""
import ctypes, pathlib, sys, nspb.cli
numpy_early = "numpy" in sys.modules
exit_code = nspb.cli.main({argv!r})
import numpy
libdir = pathlib.Path(numpy.__file__).parent.parent / "numpy.libs"
threads = None
for lib in sorted(libdir.glob("*openblas*.so*")) if libdir.is_dir() else ():
    handle = ctypes.CDLL(str(lib))
    for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(handle, sym, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            threads = fn()
            break
print(numpy_early, exit_code, threads)
"""
    numpy_early, exit_code, threads = fresh_python(script).splitlines()[-1].split()
    assert numpy_early == "False"
    assert exit_code == "0"
    if threads == "None":
        pytest.skip("numpy's OpenBLAS reports no thread count")
    assert threads == "1"


def test_cli_run_produces_outputs(tmp_path):
    cfg = write_cfg(tmp_path, TINY)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "records.csv").is_file()
    assert (out / "checkpoints" / "final.ckpt").is_file()
    assert (out / "checkpoints" / "step00000005.ckpt").is_file()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kind"] == "single_run"
    assert summary["passed"] is True
    assert summary["total_steps"] == 10
    assert summary["config"]["re"] == 50.0


def test_cli_zero_step_run(tmp_path):
    cfg = write_cfg(tmp_path, "t_end = 0\nnx = 16\nny = 17\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total_steps"] == 0


def test_cli_config_error_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "alpha = 2\nkappa = 1\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    # subcommand kind clash is a config error too
    clash = write_cfg(tmp_path, "kind = sweep_re\n", name="clash.cfg")
    assert main(["energy-audit", "--config", clash, "--out", str(tmp_path / "o2")]) == 2


def test_cli_runtime_failure_exits_3(tmp_path, capsys):
    # dt = 0.5 trips the CFL guard on the first step of the sweep point,
    # which the driver records as a failed point
    cfg = write_cfg(tmp_path, "nx = 16\nny = 17\ndt = 0.5\nt_end = 0.5\nsweep_values = 10\n")
    assert main(["sweep-alpha", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "CFLError" in capsys.readouterr().err


def test_cli_rejected_checkpoint_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.ckpt"
    bad.write_bytes(b"not a checkpoint")
    cfg = write_cfg(tmp_path, TINY)
    code = main(["restart", str(bad), "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "checkpoint error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # a rejected restart writes nothing


def test_cli_restart_from_a_missing_checkpoint_exits_2(tmp_path, capsys):
    missing = tmp_path / "gone.ckpt"
    cfg = write_cfg(tmp_path, TINY)
    assert main(["restart", str(missing), "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "checkpoint error:" in err and str(missing) in err
    assert not (tmp_path / "o").exists()


def test_cli_restart_from_a_non_ascii_header_exits_2(tmp_path, capsys):
    from test_flow import crafted_checkpoint

    ckpt = crafted_checkpoint(tmp_path / "text.ckpt", mode=b"navier_\xffstokes")
    cfg = write_cfg(tmp_path, TINY)
    assert main(["restart", str(ckpt), "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "checkpoint error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_restart_matches_uninterrupted(tmp_path):
    cfg = write_cfg(tmp_path, TINY)
    full = tmp_path / "full"
    assert main(["run", "--config", cfg, "--out", str(full)]) == 0
    resumed = tmp_path / "resumed"
    ckpt = full / "checkpoints" / "step00000005.ckpt"
    assert main(["restart", str(ckpt), "--config", cfg, "--out", str(resumed)]) == 0

    from nspb.checkpoint import read_checkpoint
    from test_flow import assert_same_state

    a = read_checkpoint(full / "checkpoints" / "final.ckpt").state
    b = read_checkpoint(resumed / "checkpoints" / "final.ckpt").state
    assert_same_state(a, b)


@pytest.mark.parametrize(
    "key, text",
    [
        ("re", TINY.replace("re = 50\n", "re = 60\n")),
        ("wi", TINY.replace("wi = 1\n", "wi = 2\n")),
        ("tau", TINY.replace("tau = 20\n", "tau = 10\n")),
        ("alpha", TINY.replace("alpha = 1\n", "alpha = 2\n")),
        ("kappa", TINY + "kappa = 0.1\n"),
        ("lx", TINY + "lx = 6.0\n"),
        ("nx", TINY.replace("nx = 16\n", "nx = 24\n")),
        ("ny", TINY.replace("ny = 17\n", "ny = 25\n")),
        ("dt", TINY.replace("dt = 2e-3\n", "dt = 1e-3\n")),
        # a nonzero amplitude makes the run forced, which the unforced checkpoint was not
        ("forcing_amplitude", TINY + "forcing_amplitude = 0.004\n"),
    ],
)
def test_cli_restart_under_other_physics_exits_2(tmp_path, capsys, key, text):
    full = tmp_path / "full"
    assert main(["run", "--config", write_cfg(tmp_path, TINY), "--out", str(full)]) == 0
    ckpt = str(full / "checkpoints" / "step00000005.ckpt")
    other = write_cfg(tmp_path, text, name="other.cfg")
    capsys.readouterr()
    assert main(["restart", ckpt, "--config", other, "--out", str(tmp_path / "r")]) == 2
    assert f"written with {key}=" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_cli_restart_from_version_1_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY)
    full = tmp_path / "full"
    assert main(["run", "--config", cfg, "--out", str(full)]) == 0
    raw = (full / "checkpoints" / "step00000005.ckpt").read_bytes()
    # v1 kept the first 32 header bytes (version aside), had no physics or
    # CRC32, stored node values and appended two slip accumulators: a run no
    # restart can check
    nx, ny = struct.unpack_from("<II", raw, 8)
    body, J = 124, nx // 3
    assert len(raw) == body + 16 * ny * J + 8 * ny + 32 * (J + 1)
    v1 = raw[:4] + struct.pack("<I", 1) + raw[8:32] + bytes(8 * (ny * nx + ny + 4 * nx))
    ckpt = tmp_path / "v1.ckpt"
    ckpt.write_bytes(v1)
    resumed = tmp_path / "resumed"
    capsys.readouterr()
    assert main(["restart", str(ckpt), "--config", cfg, "--out", str(resumed)]) == 2
    assert "unsupported version 1" in capsys.readouterr().err
    assert not resumed.exists()


def test_cli_restart_with_t_end_before_the_checkpoint_exits_2(tmp_path, capsys):
    full = tmp_path / "full"
    assert main(["run", "--config", write_cfg(tmp_path, TINY), "--out", str(full)]) == 0
    ckpt = str(full / "checkpoints" / "final.ckpt")  # t = 0.02
    early = write_cfg(tmp_path, TINY.replace("t_end = 0.02\n", "t_end = 0.01\n"), "early.cfg")
    capsys.readouterr()
    assert main(["restart", ckpt, "--config", early, "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "t_end=0.01 before it" in err
    assert not (tmp_path / "r").exists()


def test_cli_same_plan_same_bytes(tmp_path):
    cfg = write_cfg(tmp_path, TINY)
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["run", "--config", cfg, "--out", str(out), "--seed", "9"]) == 0
        outs.append((out / "records.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_threads_flag_caps_pools(tmp_path, monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    cfg = write_cfg(tmp_path, "t_end = 0\nnx = 16\nny = 17\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "2"]) == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_cli_seed_validation_and_usage(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", "--seed", "-1"])
    with pytest.raises(SystemExit):
        main(["restart"])  # checkpoint argument is required
    cfg = write_cfg(tmp_path, "t_end = 0\nnx = 16\nny = 17\n")
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out), "--seed", "0xdeadbeef"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 0xDEADBEEF
