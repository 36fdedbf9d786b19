import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from nspb.cli import main
from nspb.config import KINDS, ConfigError, load_config, parse_config

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
    # every schema key is echoed with its resolved value
    keys = ("re", "wi", "tau", "alpha", "kappa", "stokes_einstein", "nx", "ny", "lx",
            "dt", "t_end", "mode", "forcing", "forcing_amplitude", "cfl_max",
            "checkpoint_every", "record_every", "kind", "sweep_values")
    assert set(echo) == set(keys) | {"output_dir", "seed"}
    assert echo["kind"] == "single_run"


def test_comments_and_whitespace():
    plan = parse_config("# header\n  re = 300   # trailing\n\n   \nwi=2\n")
    assert plan.sim.Re == 300.0
    assert plan.sim.Wi == 2.0


def test_wall_admissibility_rejected():
    with pytest.raises(ConfigError, match="alpha > 4"):
        parse_config("alpha = 2\nkappa = 1\n")


def test_three_point_sweep_plan():
    plan = parse_config("kind = sweep_re\nsweep_values = 250,500,1000\n")
    assert plan.kind == "sweep_re"
    assert plan.sweep_values == (250.0, 500.0, 1000.0)


def test_kind_defaults_and_overrides():
    plan = parse_config("kind = sweep_re\n")
    assert plan.solver.t_end == 2.0
    assert plan.solver.dt == 5e-4
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
        ("stokes_einstein = maybe\n", r"bad value for 'stokes_einstein'"),
        ("kind = warp_drive\n", r"kind must be one of"),
        ("kind = sweep_re\nsweep_values =\n", r"bad value for 'sweep_values'"),
        ("kind = sweep_re\nsweep_values = 100,-5\n", r"sweep_values must be positive"),
        ("kind = sweep_re\nsweep_values = 10, nan, 1000\n", r"sweep_values must be .* finite"),
        ("forcing_amplitude = nan\n", r"forcing_amplitude must be finite"),
        ("forcing_amplitude = inf\n", r"forcing_amplitude must be finite"),
        ("dt = -1\n", r"dt must be positive"),
        ("cfl_max = 1.5\n", r"cfl_max"),
        ("mode = magic\n", r"mode"),
    ],
)
def test_config_errors_carry_context(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


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


def test_cli_runtime_failure_exits_3(tmp_path):
    bad = tmp_path / "broken.ckpt"
    bad.write_bytes(b"not a checkpoint")
    cfg = write_cfg(tmp_path, TINY)
    code = main(["restart", str(bad), "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 3


def test_cli_restart_matches_uninterrupted(tmp_path):
    cfg = write_cfg(tmp_path, TINY)
    full = tmp_path / "full"
    assert main(["run", "--config", cfg, "--out", str(full)]) == 0
    resumed = tmp_path / "resumed"
    ckpt = full / "checkpoints" / "step00000005.ckpt"
    assert main(["restart", str(ckpt), "--config", cfg, "--out", str(resumed)]) == 0

    from nspb.checkpoint import read_checkpoint

    a = read_checkpoint(full / "checkpoints" / "final.ckpt").state
    b = read_checkpoint(resumed / "checkpoints" / "final.ckpt").state
    assert a.t == pytest.approx(b.t, abs=1e-15)
    assert np.max(np.abs(a.omega.values - b.omega.values)) < 1e-12
    assert np.max(np.abs(a.mean_u - b.mean_u)) < 1e-12
    assert np.max(np.abs(a.g[0] - b.g[0])) < 1e-12
    assert np.max(np.abs(a.g[1] - b.g[1])) < 1e-12


@pytest.mark.parametrize(
    "key, text",
    [("alpha", TINY.replace("alpha = 1\n", "alpha = 2\n")), ("lx", TINY + "lx = 6.0\n")],
)
def test_cli_restart_under_other_physics_exits_2(tmp_path, capsys, key, text):
    full = tmp_path / "full"
    assert main(["run", "--config", write_cfg(tmp_path, TINY), "--out", str(full)]) == 0
    ckpt = str(full / "checkpoints" / "step00000005.ckpt")
    other = write_cfg(tmp_path, text, name="other.cfg")
    capsys.readouterr()
    assert main(["restart", ckpt, "--config", other, "--out", str(tmp_path / "r")]) == 2
    assert f"written with {key}=" in capsys.readouterr().err


def test_cli_restart_from_version_1_notes_unverified_physics(tmp_path):
    cfg = write_cfg(tmp_path, TINY)
    full = tmp_path / "full"
    assert main(["run", "--config", cfg, "--out", str(full)]) == 0
    raw = (full / "checkpoints" / "step00000005.ckpt").read_bytes()
    # v1 keeps the first 32 header bytes (version aside), has no physics or
    # CRC32 and appends two slip accumulators, which the reader skips
    nx, ny = struct.unpack_from("<II", raw, 8)
    body = 156
    v1 = raw[:4] + struct.pack("<I", 1) + raw[8:32] + raw[body:] + bytes(16 * nx)
    assert len(raw) == body + 8 * (ny * nx + ny + 2 * nx)
    ckpt = tmp_path / "v1.ckpt"
    ckpt.write_bytes(v1)
    resumed = tmp_path / "resumed"
    assert main(["restart", str(ckpt), "--config", cfg, "--out", str(resumed)]) == 0
    notes = json.loads((resumed / "summary.json").read_text())["notes"]
    assert any("version 1" in n and "unverified" in n for n in notes), notes


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
