"""Command-line interface, config files, artifact persistence, sweeps.

Subcommands:
  simulate          run one configured IBVP and write artifacts
  critical          residual rows of the critical-rectangle condition
  minimal-rectangle length of the minimal critical rectangle at a given B
  decay-report      verdict of a stored trace against a decay statement
  verify            seeded property suites (inequalities|spectral|conservation)
  sweep             one-parameter family of simulate runs

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, calculus, spectral
from .dynamics import (EnergyTrace, SimConfig, TRACE_COLUMNS, Trajectory,
                       config_from_dict, simulate, write_snapshot)
from .geometry import Field, Grid, _Fresh, _zero_walls, check_int, check_positive_finite
from .stabilization import (DecayGeometry, decay_theory, energy_balance,
                            verdict as decay_verdict)


class ConfigError(ValueError):
    """A config file failed validation; the message names the offending key."""


# ---------------------------------------------------------------------------
# config files

def load_config(path) -> SimConfig:
    """Load and validate a flat JSON config; unknown keys are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    try:
        return config_from_dict(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def canonical_config_json(config: SimConfig) -> str:
    return json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))


def config_hash(config: SimConfig) -> str:
    return hashlib.sha256(canonical_config_json(config).encode()).hexdigest()


# ---------------------------------------------------------------------------
# trace CSV (17 significant digits: float64 round-trips exactly)

def write_trace_csv(trace: EnergyTrace, path) -> None:
    np.savetxt(path, np.column_stack([trace.column(c) for c in TRACE_COLUMNS]),
               fmt="%.17g", delimiter=",", header=",".join(TRACE_COLUMNS), comments="")


def read_trace_csv(path) -> EnergyTrace:
    """Read a ``write_trace_csv`` file; every ValueError names the path and line.

    Each row must hold one finite number per column, and ``t`` must
    strictly increase.
    """
    data = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header.split(",") != list(TRACE_COLUMNS):
            raise ValueError(f"{path}: unexpected trace header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            cells = line.split(",")
            if len(cells) != len(TRACE_COLUMNS):
                raise ValueError(f"{path}:{lineno}: {len(cells)} values, "
                                 f"expected {len(TRACE_COLUMNS)}")
            try:
                row = [float(v) for v in cells]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if not np.isfinite(row).all():
                raise ValueError(f"{path}:{lineno}: non-finite value")
            if data and not row[0] > data[-1][0]:
                raise ValueError(f"{path}:{lineno}: t={row[0]!r} does not increase "
                                 f"past t={data[-1][0]!r}")
            data.append(row)
    if not data:
        raise ValueError(f"{path}: no data rows")
    arr = np.asarray(data, dtype=float)
    return EnergyTrace(*(arr[:, i] for i in range(len(TRACE_COLUMNS))))


# ---------------------------------------------------------------------------
# artifacts

@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written next to the artifacts."""

    config: dict
    config_sha256: str
    tool_version: str
    wall_time_s: float | None
    aborted_at: float | None
    blowup: dict | None
    i0_initial: float | None
    outputs: list


def _write_json(obj, path: Path | None = None) -> None:
    """obj as JSON, indented by 2 with a trailing newline, to path or stdout.

    JSON has no NaN or Infinity: the round trip writes each as null.
    """
    obj = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    text = json.dumps(obj, indent=2, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text, encoding="utf-8")


def _file_entry(path: Path) -> dict:
    data = path.read_bytes()
    return {"name": path.name, "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest()}


def emit_artifacts(trajectory: Trajectory, verdict_obj=None, out_dir=".",
                   wall_time_s: float | None = None) -> RunManifest:
    """Write trace.csv, optional verdict.json, snapshots, and manifest.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    trace_path = out / "trace.csv"
    write_trace_csv(trajectory.trace, trace_path)
    outputs.append(_file_entry(trace_path))
    if verdict_obj is not None:
        vpath = out / "verdict.json"
        _write_json(verdict_obj.to_dict(), vpath)
        outputs.append(_file_entry(vpath))
    for idx, (t, fld) in enumerate(trajectory.snapshots):
        spath = out / f"snapshot_{idx:04d}.zks"
        write_snapshot(spath, t, fld)
        outputs.append(_file_entry(spath))
    manifest = RunManifest(
        config=asdict(trajectory.config),
        config_sha256=config_hash(trajectory.config),
        tool_version=__version__,
        wall_time_s=wall_time_s,
        aborted_at=trajectory.aborted_at,
        blowup=None if trajectory.blowup is None else trajectory.blowup.to_dict(),
        i0_initial=trajectory.trace.i0_initial,
        outputs=outputs,
    )
    _write_json(asdict(manifest), out / "manifest.json")
    return manifest


# ---------------------------------------------------------------------------
# seeded random fields for the property suites

@functools.lru_cache(maxsize=16)
def _mode_tables(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (i^2 + j^2, sx, sy) of the 6 x 6 lowest Dirichlet modes, built once per grid.

    Row i - 1 of sx is sin(pi i x / L) at every x node, and row j - 1 of sy
    is sin(pi j (y + B) / 2B) at every y node, boundary layer included.
    """
    i = np.arange(1, 7)
    weights = np.add.outer(i ** 2, i ** 2)
    sx = np.sin(np.pi * np.multiply.outer(i, grid.xs()) / grid.L)
    sy = np.sin(np.pi * np.multiply.outer(i, grid.ys() + grid.B) / (2.0 * grid.B))
    for table in (weights, sx, sy):
        table.flags.writeable = False
    return weights, sx, sy


def random_clean_field(grid: Grid, rng: np.random.Generator) -> Field:
    """Smooth random field from the 6 x 6 lowest Dirichlet modes, weights decaying."""
    weights, sx, sy = _mode_tables(grid)
    coeffs = rng.normal(size=weights.shape) / weights
    vals = sx.T @ coeffs @ sy
    _zero_walls(vals)  # sin(pi i) on the far walls is ~1e-16, not 0
    return Field(grid, _Fresh(vals))


# ---------------------------------------------------------------------------
# verify suites

def _worst(*values: float) -> float:
    """The largest of the values, or NaN if any is NaN: max() drops a NaN
    after the first argument, and a check that read NaN must fail."""
    out = values[0]
    for v in values[1:]:
        if v > out or v != v:
            out = v
    return out


def _verify_inequalities(samples: int, seed: int) -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(seed)
    grid = Grid(2.0, 1.0, 127, 127)
    tol = 1.0 + 5e-2
    worst = {"gn_q3": 0.0, "gn_q4": 0.0, "sup_bound": 0.0,
             "poincare_x": 0.0, "poincare_y": 0.0}
    for _ in range(samples):
        fld = random_clean_field(grid, rng)
        worst["gn_q3"] = _worst(worst["gn_q3"], calculus.check_gn(fld, 3))
        worst["gn_q4"] = _worst(worst["gn_q4"], calculus.check_gn(fld, 4))
        worst["sup_bound"] = _worst(worst["sup_bound"], calculus.check_sup_bound(fld))
        worst["poincare_x"] = _worst(worst["poincare_x"], calculus.check_poincare(fld, "x"))
        worst["poincare_y"] = _worst(worst["poincare_y"], calculus.check_poincare(fld, "y"))
    return [(name, ratio <= tol, f"max ratio {ratio:.6f} (certify <= {tol})")
            for name, ratio in worst.items()]


def _verify_spectral(samples: int, seed: int) -> list[tuple[str, bool, str]]:
    """Check the closed forms on random (k, l, n, B).

    Each sample draws (k, l, n) in 1..5 from one ``rng.integers`` call, then
    B in pi n / 2 * [1.05, 4) from one ``rng.random()``.
    """
    rng = np.random.default_rng(seed)
    worst_identity = 0.0
    worst_cubic = 0.0
    worst_consistency = 0.0
    worst_profile = 0.0
    for _ in range(samples):
        k, l, n = rng.integers(1, 6, size=3).tolist()
        B = np.pi * n / 2.0 * (1.0 + 0.05 + 2.95 * rng.random())
        triple = spectral.resonant_family(k, l, n, B)
        worst_identity = _worst(worst_identity, *triple.identity_residuals().values())
        worst_cubic = _worst(worst_cubic, float(triple.cubic_residuals().max()))
        worst_consistency = _worst(worst_consistency, abs(
            spectral.critical_residual(triple.L, B, k, l, n)))
        profile = spectral.build_profile(triple)
        worst_profile = _worst(worst_profile, *profile.boundary_residuals(triple.L))
    return [
        ("viete_spacing", worst_identity <= 1e-12, f"max residual {worst_identity:.3e}"),
        ("cubic_roots", worst_cubic <= 1e-10, f"max residual {worst_cubic:.3e}"),
        ("length_residual", worst_consistency <= 1e-12, f"max residual {worst_consistency:.3e}"),
        ("profile_bc", worst_profile <= 1e-10, f"max residual {worst_profile:.3e}"),
    ]


def _verify_conservation(samples: int, seed: int) -> list[tuple[str, bool, str]]:
    # One deterministic linear run; samples/seed are accepted for interface
    # uniformity but the check itself is seedless.
    config = SimConfig(L=2.0, B=1.0, nx=127, ny=63, dt=2e-3, t_end=2.0,
                       alpha=1, linear=True, initial="cos-product:0.5",
                       trace_stride=2)
    tr = simulate(config).trace
    rise, defect = energy_balance(tr)
    mono = bool(rise <= 1e-12 * tr.l2_sq[0])
    return [
        ("l2_monotone", mono, "sampled ||u||^2 non-increasing"),
        ("flux_balance", defect <= 1e-2, f"max defect {defect:.3e} (<= 1e-2)"),
    ]


_SUITES = {
    "inequalities": _verify_inequalities,
    "spectral": _verify_spectral,
    "conservation": _verify_conservation,
}


def run_verify(suite: str, samples: int, seed: int, out=None) -> int:
    """Write one PASS/FAIL line per check of the suite; 0 if every check passes."""
    if suite not in _SUITES:
        raise ValueError(f"unknown verify suite {suite!r}; "
                         f"choose one of {', '.join(sorted(_SUITES))}")
    check_int("samples", samples, 1)
    check_int("seed", seed, 0)
    out = sys.stdout if out is None else out
    results = _SUITES[suite](samples, seed)
    ok = True
    for name, passed, detail in results:
        ok &= passed
        out.write(f"{'PASS' if passed else 'FAIL'} {suite}/{name}: {detail}\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# CLI

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="zklab",
                                description="2D Zakharov-Kuznetsov laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one configured simulation")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True)
    sim.set_defaults(run=_cmd_simulate)

    crit = sub.add_parser("critical", help="critical-rectangle residual rows")
    crit.add_argument("--L", type=float, required=True)
    crit.add_argument("--B", type=float, required=True)
    crit.add_argument("--kmax", type=int, required=True)
    crit.add_argument("--lmax", type=int, required=True)
    crit.add_argument("--nmax", type=int, required=True)
    crit.add_argument("--alpha", type=int, required=True, choices=(0, 1))
    crit.set_defaults(run=_cmd_critical)

    mini = sub.add_parser("minimal-rectangle", help="minimal critical length")
    mini.add_argument("--B", type=float, required=True)
    mini.set_defaults(run=_cmd_minimal_rectangle)

    rep = sub.add_parser("decay-report", help="verdict for a stored trace")
    rep.add_argument("--trace", required=True)
    rep.add_argument("--alpha", type=int, required=True, choices=(0, 1))
    rep.add_argument("--L", type=float, required=True)
    rep.add_argument("--B", type=float, default=None)
    rep.set_defaults(run=_cmd_decay_report)

    ver = sub.add_parser("verify", help="seeded property suites")
    ver.add_argument("--suite", required=True, choices=sorted(_SUITES),
                     help="conservation is one fixed linear run and uses "
                          "neither --samples nor --seed")
    ver.add_argument("--samples", type=int, default=100)
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(run=lambda args: run_verify(args.suite, args.samples, args.seed))

    sw = sub.add_parser("sweep", help="one-parameter family of runs")
    sw.add_argument("--config", required=True)
    sw.add_argument("--vary", required=True, metavar="KEY=lo:hi:steps")
    sw.add_argument("--out", required=True)
    sw.set_defaults(run=_cmd_sweep)
    return p


_SWEEP_KEYS = {"L", "B", "dt", "t_end", "epsilon", "scale_weighted", "nx", "ny"}


def _parse_vary(spec: str):
    """The key and the member values, as Python numbers, of a --vary spec."""
    try:
        key, rng = spec.split("=", 1)
        lo, hi, steps = rng.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError as exc:
        raise ConfigError(f"--vary expects KEY=lo:hi:steps, got {spec!r}") from exc
    if key not in _SWEEP_KEYS:
        raise ConfigError(f"--vary key must be one of {sorted(_SWEEP_KEYS)}, got {key!r}")
    if steps < 1:
        raise ConfigError(f"--vary needs steps >= 1, got {steps}")
    if not np.isfinite(hi - lo):  # also a nan, an infinity or an overflowing span
        raise ConfigError(f"--vary needs finite lo and hi, got {spec!r}")
    values = np.linspace(lo, hi, steps).tolist()
    if key in ("nx", "ny"):
        values = sorted({round(v) for v in values})
    return key, values


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    t0 = time.perf_counter()
    traj = simulate(config)
    wall = time.perf_counter() - t0
    manifest = emit_artifacts(traj, out_dir=args.out, wall_time_s=wall)
    status = "aborted at t=%g" % traj.aborted_at if traj.aborted_at is not None else "ok"
    print(f"simulate: {status}, {len(traj.trace)} trace samples, "
          f"{len(manifest.outputs)} artifacts in {args.out}")
    return 0


def _cmd_critical(args) -> int:
    # Checked before any output, and for alpha = 0, which computes no residual.
    check_positive_finite("L", args.L)
    check_positive_finite("B", args.B)
    for name in ("kmax", "lmax", "nmax"):
        check_int(name, getattr(args, name), 1)
    print("k l n residual is_critical")
    if args.alpha == 0:
        return 0  # no critical rectangles exist without the transport term
    for k in range(1, args.kmax + 1):
        for l in range(1, args.lmax + 1):
            for n in range(1, args.nmax + 1):
                r = spectral.critical_residual(args.L, args.B, k, l, n)
                flag = "yes" if abs(r) <= spectral.CRITICAL_TOL else "no"
                print(f"{k} {l} {n} {r:.12e} {flag}")
    return 0


def _cmd_minimal_rectangle(args) -> int:
    print("%.17g" % spectral.minimal_critical_rectangle(args.B))
    return 0


def _cmd_decay_report(args) -> int:
    trace = read_trace_csv(args.trace)
    theory = decay_theory(args.alpha, DecayGeometry(args.L, args.B))
    v = decay_verdict(trace, theory)
    _write_json(v.to_dict())
    return 0


def _cmd_sweep(args) -> int:
    base = load_config(args.config)
    key, values = _parse_vary(args.vary)
    configs = [replace(base, **{key: value}) for value in values]  # all checked first
    out_root = Path(args.out)
    for idx, (value, config) in enumerate(zip(values, configs)):
        run_dir = out_root / f"run_{idx:03d}_{key}={value:g}"
        t0 = time.perf_counter()
        traj = simulate(config)
        emit_artifacts(traj, out_dir=run_dir, wall_time_s=time.perf_counter() - t0)
        status = "aborted" if traj.aborted_at is not None else "ok"
        print(f"sweep[{idx}]: {key}={value:g} {status}")
    return 0


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())
