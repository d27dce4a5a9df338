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
import hashlib
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, calculus, spectral
from .dynamics import (EnergyTrace, SimConfig, TRACE_COLUMNS, Trajectory,
                       config_from_dict, simulate, write_snapshot)
from .geometry import Grid, build_grid, enforce_dirichlet, Field
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
    return json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))


def config_hash(config: SimConfig) -> str:
    return hashlib.sha256(canonical_config_json(config).encode()).hexdigest()


# ---------------------------------------------------------------------------
# trace CSV (17 significant digits: float64 round-trips exactly)

def write_trace_csv(trace: EnergyTrace, path) -> None:
    cols = [trace.column(c) for c in TRACE_COLUMNS]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for row in zip(*cols):
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def read_trace_csv(path) -> EnergyTrace:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header.split(",") != list(TRACE_COLUMNS):
            raise ValueError(f"{path}: unexpected trace header {header!r}")
        data = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != len(TRACE_COLUMNS):
        raise ValueError(f"{path}: malformed trace body")
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

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "config_sha256": self.config_sha256,
            "tool_version": self.tool_version,
            "wall_time_s": self.wall_time_s,
            "aborted_at": self.aborted_at,
            "blowup": self.blowup,
            "i0_initial": self.i0_initial,
            "outputs": self.outputs,
        }


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
        vpath.write_text(json.dumps(verdict_obj.to_dict(), indent=2) + "\n",
                         encoding="utf-8")
        outputs.append(_file_entry(vpath))
    for idx, (t, fld) in enumerate(trajectory.snapshots):
        spath = out / f"snapshot_{idx:04d}.zks"
        write_snapshot(spath, t, fld)
        outputs.append(_file_entry(spath))
    manifest = RunManifest(
        config=trajectory.config.to_dict(),
        config_sha256=config_hash(trajectory.config),
        tool_version=__version__,
        wall_time_s=wall_time_s,
        aborted_at=trajectory.aborted_at,
        blowup=None if trajectory.blowup is None else trajectory.blowup.to_dict(),
        i0_initial=trajectory.trace.i0_initial,
        outputs=outputs,
    )
    (out / "manifest.json").write_text(
        json.dumps(manifest.to_dict(), indent=2) + "\n", encoding="utf-8")
    return manifest


# ---------------------------------------------------------------------------
# seeded random fields for the property suites

def random_clean_field(grid: Grid, rng: np.random.Generator,
                       n_modes: int = 6) -> Field:
    """Smooth random field from low Dirichlet modes with decaying weights."""
    X, Y = grid.meshgrid()
    i = np.arange(1, n_modes + 1)
    coeffs = rng.normal(size=(n_modes, n_modes)) / np.add.outer(i ** 2, i ** 2)
    sx = np.sin(np.pi * np.multiply.outer(i, grid.xs()) / grid.L)
    sy = np.sin(np.pi * np.multiply.outer(i, grid.ys() + grid.B) / (2.0 * grid.B))
    vals = sx.T @ coeffs @ sy
    return enforce_dirichlet(Field(grid, vals))


# ---------------------------------------------------------------------------
# verify suites

def _verify_inequalities(samples: int, seed: int) -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(seed)
    grid = build_grid(2.0, 1.0, 127, 127)
    tol = 1.0 + 5e-2
    worst = {"gn_q3": 0.0, "gn_q4": 0.0, "sup_bound": 0.0,
             "poincare_x": 0.0, "poincare_y": 0.0}
    for _ in range(samples):
        fld = random_clean_field(grid, rng)
        worst["gn_q3"] = max(worst["gn_q3"], calculus.check_gn(fld, 3))
        worst["gn_q4"] = max(worst["gn_q4"], calculus.check_gn(fld, 4))
        worst["sup_bound"] = max(worst["sup_bound"], calculus.check_sup_bound(fld))
        worst["poincare_x"] = max(worst["poincare_x"], calculus.check_poincare(fld, "x"))
        worst["poincare_y"] = max(worst["poincare_y"], calculus.check_poincare(fld, "y"))
    return [(name, ratio <= tol, f"max ratio {ratio:.6f} (certify <= {tol})")
            for name, ratio in worst.items()]


def _verify_spectral(samples: int, seed: int) -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(seed)
    worst_identity = 0.0
    worst_cubic = 0.0
    worst_consistency = 0.0
    worst_profile = 0.0
    for _ in range(samples):
        k, l, n = (int(rng.integers(1, 6)) for _ in range(3))
        B = np.pi * n / 2.0 * (1.0 + 0.05 + 2.95 * rng.random())
        triple = spectral.resonant_family(k, l, n, B)
        worst_identity = max(worst_identity,
                             max(triple.identity_residuals().values()))
        worst_cubic = max(worst_cubic, float(triple.cubic_residuals().max()))
        worst_consistency = max(worst_consistency, abs(
            spectral.critical_residual(triple.L, B, k, l, n)))
        profile = spectral.build_profile(triple)
        ends = np.array([0.0, triple.L])
        worst_profile = max(worst_profile,
                            float(np.max(np.abs(profile(ends)))),
                            float(np.max(np.abs(profile.derivative(ends)))))
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

    crit = sub.add_parser("critical", help="critical-rectangle residual rows")
    crit.add_argument("--L", type=float, required=True)
    crit.add_argument("--B", type=float, required=True)
    crit.add_argument("--kmax", type=int, required=True)
    crit.add_argument("--lmax", type=int, required=True)
    crit.add_argument("--nmax", type=int, required=True)
    crit.add_argument("--alpha", type=int, required=True, choices=(0, 1))

    mini = sub.add_parser("minimal-rectangle", help="minimal critical length")
    mini.add_argument("--B", type=float, required=True)

    rep = sub.add_parser("decay-report", help="verdict for a stored trace")
    rep.add_argument("--trace", required=True)
    rep.add_argument("--alpha", type=int, required=True, choices=(0, 1))
    rep.add_argument("--L", type=float, required=True)
    rep.add_argument("--B", type=float, default=None)

    ver = sub.add_parser("verify", help="seeded property suites")
    ver.add_argument("--suite", required=True, choices=sorted(_SUITES))
    ver.add_argument("--samples", type=int, default=100)
    ver.add_argument("--seed", type=int, default=0)

    sw = sub.add_parser("sweep", help="one-parameter family of runs")
    sw.add_argument("--config", required=True)
    sw.add_argument("--vary", required=True, metavar="KEY=lo:hi:steps")
    sw.add_argument("--out", required=True)
    return p


_SWEEP_KEYS = {"L", "B", "dt", "t_end", "epsilon", "scale_weighted", "nx", "ny"}


def _parse_vary(spec: str):
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
    values = np.linspace(lo, hi, steps)
    if key in ("nx", "ny"):
        values = np.unique(np.rint(values).astype(int))
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
    print("k l n residual is_critical")
    if args.alpha == 0:
        return 0  # no critical rectangles exist without the transport term
    for k in range(1, args.kmax + 1):
        for l in range(1, args.lmax + 1):
            for n in range(1, args.nmax + 1):
                rect = spectral.CriticalRectangle(
                    L=args.L, B=args.B, k=k, l=l, n=n,
                    residual=spectral.critical_residual(args.L, args.B, k, l, n))
                flag = "yes" if rect.is_critical else "no"
                print(f"{rect.k} {rect.l} {rect.n} {rect.residual:.12e} {flag}")
    return 0


def _cmd_minimal_rectangle(args) -> int:
    print("%.17g" % spectral.minimal_critical_rectangle(args.B))
    return 0


def _cmd_decay_report(args) -> int:
    trace = read_trace_csv(args.trace)
    geometry = (DecayGeometry.strip(args.L) if args.B is None
                else DecayGeometry.rectangle(args.L, args.B))
    theory = decay_theory(args.alpha, geometry)
    v = decay_verdict(trace, theory)
    print(json.dumps(v.to_dict(), indent=2))
    return 0


def _cmd_sweep(args) -> int:
    base = load_config(args.config)
    key, values = _parse_vary(args.vary)
    out_root = Path(args.out)
    for idx, value in enumerate(values):
        value = value.item()
        config = replace(base, **{key: value})
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
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "critical":
            return _cmd_critical(args)
        if args.command == "minimal-rectangle":
            return _cmd_minimal_rectangle(args)
        if args.command == "decay-report":
            return _cmd_decay_report(args)
        if args.command == "verify":
            return run_verify(args.suite, args.samples, args.seed)
        if args.command == "sweep":
            return _cmd_sweep(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


def main() -> None:
    sys.exit(cli_main())
