import hashlib
import io
import itertools
import json
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from zklab import calculus, spectral
from zklab import (ConfigError, DecayGeometry, Field, SimConfig, build_grid, cli_main,
                   decay_theory, emit_artifacts, load_config,
                   random_clean_field, read_trace_csv, simulate, verdict, write_trace_csv)
from zklab.dynamics import TRACE_COLUMNS, EnergyTrace
from zklab.harness import (_mode_tables, _parse_vary, canonical_config_json, config_hash, main,
                           run_verify)


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
    p.write_text(json.dumps([{"L": 2.0}]))
    with pytest.raises(ConfigError, match="must be a JSON object$"):
        load_config(p)


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
    # A blank line is skipped.
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:5] + ["\n"] + lines[5:]))
    again = read_trace_csv(path)
    for name in TRACE_COLUMNS:
        assert again.column(name).tobytes() == back.column(name).tobytes()


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def finite_traces(draw):
    """Traces of finite columns whose t strictly increases (-0.0 and 0.0 count as one)."""
    n = draw(st.integers(1, 6))
    t = sorted(draw(st.lists(FINITE, min_size=n, max_size=n, unique=True)))
    rest = [draw(hnp.arrays(np.float64, n, elements=FINITE)) for _ in TRACE_COLUMNS[1:]]
    return EnergyTrace(np.array(t), *rest)


# A temp dir per example: a function-scoped fixture is shared by all examples.
@settings(max_examples=40, deadline=None)
@given(finite_traces())
def test_trace_csv_round_trip_is_bitwise(tr):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "trace.csv"
        write_trace_csv(tr, path)
        back = read_trace_csv(path)
    for name in TRACE_COLUMNS:
        assert back.column(name).tobytes() == tr.column(name).tobytes(), name


def test_trace_csv_line_count(tmp_path):
    cfg = SimConfig(L=2.0, B=1.0, nx=16, ny=16, dt=1e-3, t_end=0.02,
                    initial="cos-product:0.3", trace_stride=4)
    traj = simulate(cfg)
    path = tmp_path / "trace.csv"
    write_trace_csv(traj.trace, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(traj.trace) + 1


TRACE_CSV_FAULTS = {
    "bad_header": r": unexpected trace header 't,l2_sq,weighted,flux,",
    "ragged": r":3: 6 values, expected 7",
    "not_a_number": r":2: could not convert",
    "nan": r":3: non-finite value",
    "inf": r":4: non-finite value",
    "backwards_t": r":4: t=0\.05 does not increase past t=0\.1",
    "repeated_t": r":3: t=0\.05 does not increase past t=0\.05",
    "no_rows": r"no data rows",
}


@pytest.mark.parametrize("case", TRACE_CSV_FAULTS)
def test_read_trace_csv_rejects_malformed_file(tmp_path, case):
    rows = [[0.0, 1, 2, 3, 4, 5, 6], [0.05, 1, 2, 3, 4, 5, 6], [0.1, 1, 2, 3, 4, 5, 6]]
    lines = [",".join(repr(float(v)) for v in row) for row in rows]
    if case == "ragged":
        lines[1] = lines[1].rsplit(",", 1)[0]
    elif case == "not_a_number":
        lines[0] = lines[0].replace("1.0", "one")
    elif case == "nan":
        lines[1] = lines[1].replace("3.0", "nan")
    elif case == "inf":
        lines[2] = lines[2].replace("6.0", "-inf")
    elif case == "backwards_t":
        lines[2] = lines[2].replace("0.1", "0.05", 1)
        lines[1] = lines[1].replace("0.05", "0.1", 1)
    elif case == "repeated_t":
        lines[2] = lines[2].replace("0.1", "0.05", 1)
        del lines[0]
    elif case == "no_rows":
        lines = []
    header = ",".join(TRACE_COLUMNS)
    if case == "bad_header":
        header = header.replace("flux0", "flux")
    path = tmp_path / "trace.csv"
    path.write_text("\n".join([header] + lines) + "\n")
    with pytest.raises(ValueError, match=TRACE_CSV_FAULTS[case]) as info:
        read_trace_csv(path)
    assert str(path) in str(info.value)


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


def strict_json(text: str):
    """json.loads that rejects NaN and the infinities, which RFC 8259 does not define."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


# The inadmissible (k, l, n) = (1, 1, 2) critical rectangle: its decay
# theory has no threshold, rate or margin.
INADMISSIBLE = ["--alpha", "1", "--L", "7.255197456936871", "--B", "6.283185307179586"]


def test_emit_artifacts_writes_and_lists_the_verdict(tmp_path):
    cfg = SimConfig(L=2.0, B=1.0, nx=16, ny=16, dt=1e-3, t_end=0.01,
                    initial="cos-product:0.3", trace_stride=1)
    traj = simulate(cfg)
    v = verdict(traj.trace, decay_theory(1, DecayGeometry(2.0, 1.0)))
    man = emit_artifacts(traj, v, out_dir=tmp_path)
    data = (tmp_path / "verdict.json").read_bytes()
    assert data.decode() == json.dumps(v.to_dict(), indent=2) + "\n"
    assert strict_json(data.decode()) == v.to_dict()
    entry = {"name": "verdict.json", "bytes": len(data),
             "sha256": hashlib.sha256(data).hexdigest()}
    assert entry in man.outputs
    assert strict_json((tmp_path / "manifest.json").read_text())["outputs"] == man.outputs


def test_json_outputs_write_non_finite_values_as_null(tmp_path, capsys):
    cfg = SimConfig(L=2.0, B=1.0, nx=16, ny=16, dt=1e-3, t_end=0.01, initial="cos-product:0.3")
    traj = simulate(cfg)
    traj = replace(traj, trace=replace(traj.trace, i0_initial=math.inf))
    theory = decay_theory(1, DecayGeometry(float(INADMISSIBLE[3]), float(INADMISSIBLE[5])))
    assert not theory.admissible
    emit_artifacts(traj, verdict(traj.trace, theory), out_dir=tmp_path)
    stored = strict_json((tmp_path / "verdict.json").read_text())
    assert stored["admissible"] is False
    assert stored["threshold"] is stored["rate"] is stored["margin"] is None
    assert strict_json((tmp_path / "manifest.json").read_text())["i0_initial"] is None
    path = tmp_path / "trace.csv"
    capsys.readouterr()
    assert cli_main(["decay-report", "--trace", str(path), *INADMISSIBLE]) == 0
    out = capsys.readouterr().out
    assert strict_json(out) == stored
    assert out == json.dumps(stored, indent=2) + "\n"


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
    # The partial trace of the blown-up run round-trips through trace.csv.
    back = read_trace_csv(tmp_path / "boom" / "trace.csv")
    for name in TRACE_COLUMNS:
        assert np.array_equal(back.column(name), traj.trace.column(name))


# ---------------------------------------------------------------------------
# random fields

def test_random_clean_field_is_clean_and_smoothish():
    g = build_grid(2.0, 1.0, 63, 63)
    rng = np.random.default_rng(0)
    f = random_clean_field(g, rng)
    assert not f.values[[0, -1], :].any() and not f.values[:, [0, -1]].any()
    assert 0 < np.max(np.abs(f.values)) < 10.0


def test_random_clean_field_builds_one_field(monkeypatch):
    # Every Field passes through __post_init__.
    g = build_grid(2.0, 1.0, 63, 31)
    built = []
    real = Field.__post_init__

    def counting(self):
        built.append(self)
        return real(self)

    monkeypatch.setattr(Field, "__post_init__", counting)
    rng = np.random.default_rng(5)
    fld = random_clean_field(g, rng)
    monkeypatch.undo()
    assert len(built) == 1 and built[0] is fld
    # Bitwise the modal sum with its boundary layer zeroed by with_interior,
    # drawn from the same rng state.
    ref_rng = np.random.default_rng(5)
    i = np.arange(1, 7)
    coeffs = ref_rng.normal(size=(6, 6)) / np.add.outer(i ** 2, i ** 2)
    sx = np.sin(np.pi * np.multiply.outer(i, g.xs()) / g.L)
    sy = np.sin(np.pi * np.multiply.outer(i, g.ys() + g.B) / (2.0 * g.B))
    raw = Field(g, sx.T @ coeffs @ sy)
    want = raw.with_interior(raw.interior)
    assert fld.values.tobytes() == want.values.tobytes()
    assert rng.random() == ref_rng.random()


def test_random_clean_field_reads_read_only_tables_built_once_per_grid():
    g = build_grid(2.0, 1.0, 127, 127)
    tables = _mode_tables(g)
    for table in tables:
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
    assert all(a is b for a, b in zip(tables, _mode_tables(build_grid(2.0, 1.0, 127, 127))))
    # Bitwise the inline modal sum on a second shape, after the tables were built.
    fld = random_clean_field(g, np.random.default_rng(9))
    ref_rng = np.random.default_rng(9)
    i = np.arange(1, 7)
    coeffs = ref_rng.normal(size=(6, 6)) / np.add.outer(i ** 2, i ** 2)
    sx = np.sin(np.pi * np.multiply.outer(i, g.xs()) / g.L)
    sy = np.sin(np.pi * np.multiply.outer(i, g.ys() + g.B) / (2.0 * g.B))
    raw = Field(g, sx.T @ coeffs @ sy)
    assert fld.values.tobytes() == raw.with_interior(raw.interior).values.tobytes()


def test_verify_inequalities_repeats_in_one_process():
    # A table left behind by one run must not change the next, cold or warm.
    def text():
        out = io.StringIO()
        assert run_verify("inequalities", 20, 3, out=out) == 0
        return out.getvalue()

    _mode_tables.cache_clear()
    first = text()
    assert text() == first
    _mode_tables.cache_clear()
    assert text() == first


def _nan_on_call(monkeypatch, owner, name, call, spoil=lambda value: math.nan):
    """Make call number ``call`` (from 0) of owner.name return spoil(its value)."""
    real, calls = getattr(owner, name), itertools.count()

    def patched(*args):
        value = real(*args)
        return spoil(value) if next(calls) == call else value

    monkeypatch.setattr(owner, name, patched)


def test_verify_inequalities_fails_a_nan_certificate(monkeypatch):
    # max(worst, nan) is worst: a NaN after the first sample must stick and fail.
    _nan_on_call(monkeypatch, calculus, "check_gn", 8)  # q = 3 on the fifth of ten fields
    out = io.StringIO()
    assert run_verify("inequalities", 10, 1, out=out) == 1
    lines = out.getvalue().splitlines()
    assert lines[0] == "FAIL inequalities/gn_q3: max ratio nan (certify <= 1.05)"
    assert len(lines) == 5 and all(line.startswith("PASS") for line in lines[1:])


@pytest.mark.parametrize("owner, name, spoil, check", [
    (spectral, "critical_residual", lambda value: math.nan, "length_residual"),
    # A NaN in a later identity, behind finite ones.
    (spectral.ResonantTriple, "identity_residuals",
     lambda value: {**value, "product": math.nan}, "viete_spacing"),
    # A NaN in |p'(L)|, the last of the four, behind finite values.
    (spectral.ModeProfile, "boundary_residuals",
     lambda value: (*value[:3], math.nan), "profile_bc"),
    (spectral.ResonantTriple, "cubic_residuals",
     lambda value: np.array([value[0], math.nan, value[2]]), "cubic_roots"),
])
def test_verify_spectral_fails_a_nan_residual(monkeypatch, owner, name, spoil, check):
    _nan_on_call(monkeypatch, owner, name, 3, spoil)
    out = io.StringIO()
    assert run_verify("spectral", 10, 1, out=out) == 1
    lines = out.getvalue().splitlines()
    assert len(lines) == 4
    assert [line for line in lines if line.startswith("FAIL")] == [
        f"FAIL spectral/{check}: max residual nan"]


# ---------------------------------------------------------------------------
# CLI

# The README's and CI's ``critical`` command, byte for byte.
CRITICAL_GOLDEN = """\
k l n residual is_critical
1 1 1 -1.694987190271e-06 no
1 1 2 7.499947973726e-01 no
1 2 1 9.999976039811e-01 no
1 2 2 1.749994096341e+00 no
2 1 1 9.999976039811e-01 no
2 1 2 1.749994096341e+00 no
2 2 1 2.249996727691e+00 no
2 2 2 2.999993220051e+00 no
"""


def test_cli_critical_golden_row(capsys):
    code = cli_main(["critical", "--L", "7.2552", "--B", "3.1416",
                     "--kmax", "2", "--lmax", "2", "--nmax", "2",
                     "--alpha", "1"])
    assert code == 0
    assert capsys.readouterr().out == CRITICAL_GOLDEN


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


@pytest.mark.parametrize("suite, flag, value", [
    ("inequalities", "samples", "0"),
    ("spectral", "samples", "-3"),
    ("conservation", "samples", "0"),
    ("spectral", "seed", "-1"),
])
def test_cli_verify_rejects_no_samples_and_negative_seeds(capsys, suite, flag, value):
    # A suite run on no samples certifies nothing, so it must not print PASS.
    assert cli_main(["verify", "--suite", suite, f"--{flag}", value]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {flag} must be an integer >= {int(flag == 'samples')}, got {value}\n"


def test_run_verify_rejects_an_unknown_suite_before_running():
    out = io.StringIO()
    with pytest.raises(ValueError, match=r"'bogus'.*conservation, inequalities, spectral"):
        run_verify("bogus", 1, 0, out=out)
    assert out.getvalue() == ""


def test_readme_verify_outputs():
    # The README's inequality command prints exactly these lines.
    out = io.StringIO()
    assert run_verify("inequalities", 100, 1, out=out) == 0
    assert out.getvalue() == (
        "PASS inequalities/gn_q3: max ratio 0.529309 (certify <= 1.05)\n"
        "PASS inequalities/gn_q4: max ratio 0.396837 (certify <= 1.05)\n"
        "PASS inequalities/sup_bound: max ratio 0.041962 (certify <= 1.05)\n"
        "PASS inequalities/poincare_x: max ratio 0.561386 (certify <= 1.05)\n"
        "PASS inequalities/poincare_y: max ratio 0.619593 (certify <= 1.05)\n")
    # Three spectral lines are computed in float arithmetic alone, so they
    # are pinned exactly; they also catch any change in the drawn tuples.
    # profile_bc's digits follow numpy's vectorised cos (the amplitude that
    # normalises each profile), so only its check and verdict are pinned.
    out = io.StringIO()
    assert run_verify("spectral", 500, 1, out=out) == 0
    lines = out.getvalue().splitlines()
    assert lines[:3] == [
        "PASS spectral/viete_spacing: max residual 7.772e-16",
        "PASS spectral/cubic_roots: max residual 1.110e-15",
        "PASS spectral/length_residual: max residual 6.661e-16"]
    assert len(lines) == 4 and lines[3].startswith("PASS spectral/profile_bc: ")


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


def test_cli_sweep_bad_member_fails_before_any_output(tmp_path, capsys):
    # The B=0.5 member cannot host the bump radius 1.0.  Checked only when
    # its datum was sampled, the sweep used to write two members first.
    cfg = write_config(tmp_path, B=1.5, nx=15, ny=15, t_end=0.002,
                       initial="cos-bump:0.1,1.0")
    out = tmp_path / "sw"
    assert cli_main(["sweep", "--config", str(cfg), "--vary", "B=1.5:0.5:3",
                     "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: initial: bump radius 1.0 outside (0, B]\n"
    assert not out.exists()


def test_cli_sweep_rejects_bad_key(tmp_path):
    cfg_path = write_config(tmp_path)
    assert cli_main(["sweep", "--config", str(cfg_path),
                     "--vary", "alpha=0:1:2", "--out", str(tmp_path / "s")]) == 1


def test_cli_usage_errors_exit_2(capsys):
    assert cli_main(["critical"]) == 2          # missing required flags
    assert cli_main(["no-such-command"]) == 2
    assert cli_main(["simulate", "--config", "x", "--out", "y",
                     "--bogus", "1"]) == 2


def test_cli_simulate_overflowing_datum_is_one_error_line(tmp_path, capsys):
    # Unchecked, the overflowing weighted energy scaled the first datum to
    # zero and the run read "ok" with an all-zero trace.  The second samples
    # finitely, but the squares in its i0 overflow before the first step.
    for over in (dict(scale_weighted=0.5), dict(nx=15, ny=15)):
        cfg = write_config(tmp_path, initial="cos-product:1e200", **over)
        out = tmp_path / "out"
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: initial: 'cos-product:1e200' overflows")
        assert captured.err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("vary", ["nx=nan:16:2", "L=1:inf:2", "B=-inf:1:2",
                                  "epsilon=-1e308:1e308:3"])
def test_parse_vary_rejects_non_finite_bounds(vary):
    with pytest.raises(ConfigError, match="^--vary needs finite lo and hi"):
        _parse_vary(vary)


@pytest.mark.parametrize("vary, match", [
    ("L2:4:5", r"^--vary expects KEY=lo:hi:steps, got 'L2:4:5'$"),
    ("L=2:4:0", r"^--vary needs steps >= 1, got 0$"),
    ("L=2:4:-1", r"^--vary needs steps >= 1, got -1$"),
])
def test_parse_vary_rejects_malformed_specs(vary, match):
    with pytest.raises(ConfigError, match=match):
        _parse_vary(vary)


def test_parse_vary_rounds_grid_sizes_to_distinct_ints():
    key, values = _parse_vary("nx=8:9:4")
    assert key == "nx" and values == [8, 9] and all(type(v) is int for v in values)


VARY_BOUNDS = ["-1", "0", "0.5", "8", "16", "nan", "inf", "-inf"]


@st.composite
def cli_calls(draw):
    """argv of a ``critical`` or a ``sweep --vary`` call with drawn bounds."""
    if draw(st.booleans()):
        k, l, n = (draw(st.integers(-3, 3)) for _ in range(3))
        return ["critical", "--L", "7.2552", "--B", "3.1416", "--kmax", str(k),
                "--lmax", str(l), "--nmax", str(n), "--alpha", draw(st.sampled_from("01"))]
    key = draw(st.sampled_from(["L", "B", "nx", "epsilon"]))
    lo, hi = draw(st.sampled_from(VARY_BOUNDS)), draw(st.sampled_from(VARY_BOUNDS))
    return ["sweep", "--vary", f"{key}={lo}:{hi}:{draw(st.integers(1, 3))}"]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cli_calls())
@example(["critical", "--L", "7.2552", "--B", "3.1416", "--kmax", "0", "--lmax", "-3",
          "--nmax", "1", "--alpha", "1"])
@example(["sweep", "--vary", "L=1:-1:3"])
@example(["sweep", "--vary", "nx=nan:16:2"])
def test_cli_flags_exit_0_or_1_and_fail_before_any_output(tmp_path, capsys, argv):
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    out_dir = work / "out"
    if argv[0] == "sweep":
        cfg = write_config(work, t_end=1e-3)  # 16x16, one step
        argv = argv + ["--config", str(cfg), "--out", str(out_dir)]
    capsys.readouterr()
    code = cli_main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1)
    if argv[0] == "critical" and min(int(argv[i]) for i in (6, 8, 10)) < 1:
        assert code == 1
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out == ""
        assert not out_dir.exists()


def test_main_exits_with_the_cli_code(monkeypatch, capsys):
    # main is the [project.scripts] entry point.
    for argv, code in ((["minimal-rectangle", "--B", "3.1416"], 0), ([], 2)):
        monkeypatch.setattr(sys, "argv", ["zklab", *argv])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == code


def test_cli_domain_error_exit_1(tmp_path):
    assert cli_main(["simulate", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("argv, name", [
    (["decay-report", "--alpha", "1", "--L", "nan", "--B", "1"], "L"),
    (["decay-report", "--alpha", "1", "--L", "inf"], "L"),
    (["decay-report", "--alpha", "1", "--L", "2", "--B", "inf"], "B"),
    (["critical", "--L", "nan", "--B", "1", "--kmax", "1", "--lmax", "1", "--nmax", "1",
      "--alpha", "1"], "L"),
    (["critical", "--L", "2", "--B", "inf", "--kmax", "1", "--lmax", "1", "--nmax", "1",
      "--alpha", "0"], "B"),
    (["minimal-rectangle", "--B", "inf"], "B"),
    (["minimal-rectangle", "--B", "nan"], "B"),
], ids=["report-L-nan", "report-L-inf", "report-B-inf", "critical-L-nan",
        "critical-alpha0-B-inf", "minimal-B-inf", "minimal-B-nan"])
def test_cli_rejects_non_finite_lengths(tmp_path, capsys, argv, name):
    if argv[0] == "decay-report":
        path = tmp_path / "trace.csv"
        t = np.linspace(0.0, 1.0, 5)
        write_trace_csv(EnergyTrace(t, *(np.exp(-t) for _ in TRACE_COLUMNS[1:])), path)
        argv = argv + ["--trace", str(path)]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {name} must be finite and positive" in captured.err
