import json
import math

import numpy as np
import pytest

from zklab import (ConfigError, SimConfig, build_grid, cli_main, emit_artifacts,
                   load_config, random_clean_field, read_trace_csv, simulate,
                   write_trace_csv)
from zklab.dynamics import EnergyTrace
from zklab.harness import canonical_config_json, config_hash


def write_config(tmp_path, name="cfg.json", **over):
    cfg = dict(L=2.0, B=1.0, nx=16, ny=16, dt=1e-3, t_end=0.01,
               initial="cos-product:0.3")
    cfg.update(over)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------------
# config loading

def test_load_minimal_config_fills_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.trace_stride == 10
    assert cfg.dt == 1e-3
    assert cfg.alpha == 1 and not cfg.linear


def test_load_config_names_offending_key(tmp_path):
    with pytest.raises(ConfigError, match="alpha"):
        load_config(write_config(tmp_path, alpha=2))
    with pytest.raises(ConfigError, match="L"):
        load_config(write_config(tmp_path, L=-3.0))
    with pytest.raises(ConfigError, match="mystery"):
        load_config(write_config(tmp_path, mystery=1))
    with pytest.raises(ConfigError, match="missing"):
        p = tmp_path / "short.json"
        p.write_text(json.dumps({"L": 2.0}))
        load_config(p)


def test_load_config_bad_file(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(p)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_config_hash_stable_across_reserialization():
    cfg = SimConfig(L=2.0, B=1.0, nx=16, ny=16, dt=1e-3, t_end=0.01)
    from zklab.dynamics import config_from_dict
    again = config_from_dict(json.loads(canonical_config_json(cfg)))
    assert config_hash(cfg) == config_hash(again)


# ---------------------------------------------------------------------------
# trace CSV

def test_trace_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(21)
    n = 37
    tr = EnergyTrace(t=np.linspace(0, math.pi, n),
                     l2_sq=rng.random(n) * 1e3,
                     weighted=rng.random(n) * 1e-7,
                     flux0=rng.random(n),
                     grad_x_sq=rng.random(n),
                     grad_y_sq=rng.random(n),
                     cubic=rng.normal(size=n) * 1e-14)
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,l2_sq,weighted,flux0,grad_x_sq,grad_y_sq,cubic"
    back = read_trace_csv(path)
    for name in ("t", "l2_sq", "weighted", "flux0", "grad_x_sq", "grad_y_sq", "cubic"):
        assert np.array_equal(tr.column(name), back.column(name))


def test_trace_csv_line_count(tmp_path):
    cfg = SimConfig(L=2.0, B=1.0, nx=16, ny=16, dt=1e-3, t_end=0.02,
                    initial="cos-product:0.3", trace_stride=4)
    traj = simulate(cfg)
    path = tmp_path / "trace.csv"
    write_trace_csv(traj.trace, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(traj.trace) + 1


# ---------------------------------------------------------------------------
# artifacts

def test_emit_artifacts_and_manifest(tmp_path):
    cfg = SimConfig(L=2.0, B=1.0, nx=16, ny=16, dt=1e-3, t_end=0.01,
                    initial="cos-product:0.3")
    traj = simulate(cfg)
    man = emit_artifacts(traj, out_dir=tmp_path / "run", wall_time_s=0.5)
    names = {o["name"] for o in man.outputs}
    assert "trace.csv" in names
    assert any(n.startswith("snapshot_") for n in names)
    stored = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert stored["config_sha256"] == config_hash(cfg)
    assert stored["aborted_at"] is None and stored["blowup"] is None
    assert stored["i0_initial"] > 0


def test_rerun_same_config_identical_trace_bytes(tmp_path):
    cfg = SimConfig(L=2.0, B=1.0, nx=16, ny=16, dt=1e-3, t_end=0.02,
                    initial="cos-product:0.3")
    emit_artifacts(simulate(cfg), out_dir=tmp_path / "a")
    emit_artifacts(simulate(cfg), out_dir=tmp_path / "b")
    assert ((tmp_path / "a" / "trace.csv").read_bytes()
            == (tmp_path / "b" / "trace.csv").read_bytes())


def test_aborted_run_flagged_in_manifest(tmp_path):
    cfg = SimConfig(L=2.0, B=1.0, nx=16, ny=16, dt=1e-2, t_end=0.5,
                    initial="cos-product:100000.0", trace_stride=1)
    traj = simulate(cfg)
    man = emit_artifacts(traj, out_dir=tmp_path / "boom")
    stored = json.loads((tmp_path / "boom" / "manifest.json").read_text())
    assert stored["aborted_at"] == traj.aborted_at is not None


# ---------------------------------------------------------------------------
# random fields

def test_random_clean_field_is_clean_and_smoothish():
    g = build_grid(2.0, 1.0, 63, 63)
    rng = np.random.default_rng(0)
    f = random_clean_field(g, rng)
    assert f.dirichlet_clean
    assert f.boundary_max() == 0.0
    assert 0 < np.max(np.abs(f.values)) < 10.0


# ---------------------------------------------------------------------------
# CLI

def test_cli_critical_golden_row(capsys):
    code = cli_main(["critical", "--L", "7.2552", "--B", "3.1416",
                     "--kmax", "2", "--lmax", "2", "--nmax", "2",
                     "--alpha", "1"])
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0].split() == ["k", "l", "n", "residual", "is_critical"]
    first = [r for r in rows[1:] if r.startswith("1 1 1 ")]
    assert first
    residual = float(first[0].split()[3])
    assert abs(residual) < 1e-3


def test_cli_critical_alpha0_no_rows(capsys):
    code = cli_main(["critical", "--L", "7.2552", "--B", "3.1416",
                     "--kmax", "2", "--lmax", "2", "--nmax", "2",
                     "--alpha", "0"])
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 1


def test_cli_minimal_rectangle(capsys):
    code = cli_main(["minimal-rectangle", "--B", "3.14159265358979"])
    assert code == 0
    val = float(capsys.readouterr().out.strip())
    assert abs(val - 4 * math.pi / math.sqrt(3)) < 1e-6


def test_cli_minimal_rectangle_domain_error(capsys):
    assert cli_main(["minimal-rectangle", "--B", "1.0"]) == 1


def test_cli_decay_report_synthetic(tmp_path, capsys):
    t = np.linspace(0.0, 6.0, 121)
    w = np.exp(-2.0 * t)
    zero = np.zeros_like(t)
    tr = EnergyTrace(t=t, l2_sq=w, weighted=w, flux0=zero,
                     grad_x_sq=zero, grad_y_sq=zero, cubic=zero)
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, path)
    code = cli_main(["decay-report", "--trace", str(path), "--alpha", "1",
                     "--L", "2.0", "--B", repr(math.sqrt(2.0))])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["envelope_ok"] is True
    assert abs(rep["margin"] - 2.0) < 1e-6


def test_cli_verify_spectral(capsys):
    assert cli_main(["verify", "--suite", "spectral", "--samples", "25",
                     "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_verify_inequalities_small(capsys):
    assert cli_main(["verify", "--suite", "inequalities", "--samples", "5",
                     "--seed", "3"]) == 0


def test_cli_verify_conservation(capsys):
    assert cli_main(["verify", "--suite", "conservation", "--samples", "1",
                     "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_cli_simulate_and_artifacts(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(cfg_path),
                     "--out", str(out_dir)]) == 0
    assert (out_dir / "trace.csv").exists()
    assert (out_dir / "manifest.json").exists()


def test_cli_sweep_disjoint_dirs(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "sweep"
    assert cli_main(["sweep", "--config", str(cfg_path),
                     "--vary", "epsilon=0:0.01:2", "--out", str(out_dir)]) == 0
    runs = sorted(p.name for p in out_dir.iterdir())
    assert len(runs) == 2
    for r in runs:
        assert (out_dir / r / "trace.csv").exists()


def test_cli_sweep_rejects_bad_key(tmp_path):
    cfg_path = write_config(tmp_path)
    assert cli_main(["sweep", "--config", str(cfg_path),
                     "--vary", "alpha=0:1:2", "--out", str(tmp_path / "s")]) == 1


def test_cli_usage_errors_exit_2(capsys):
    assert cli_main(["critical"]) == 2          # missing required flags
    assert cli_main(["no-such-command"]) == 2
    assert cli_main(["simulate", "--config", "x", "--out", "y",
                     "--bogus", "1"]) == 2


def test_cli_domain_error_exit_1(tmp_path):
    assert cli_main(["simulate", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path)]) == 1
