"""The benchmark workloads: seeded inputs, the timed calls, output checks.

Each workload draws its inputs from the benchmark seed in ``__init__``.
``setup`` is the set-up call timed on its own (``setup_s``), ``run`` is the
user-facing call timed for ``run_s``, and ``check`` inspects a finished
run outside the timed region.  All calls go through module attributes
(``dynamics.simulate``, not a bound name), so the traced run sees them.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from zklab import calculus, dynamics, geometry, harness, stabilization
from zklab.stabilization import DecayGeometry

DEFAULT_SEED = 0

# Initial weighted energy as a fraction of theory.threshold.  The
# acceptance runs C05-C07 use 0.5; the decay theorems cover (0, 1).
SCALE_RANGE = (0.3, 0.7)

# Relative tolerance of a trace column against its recorded reference,
# scaled by the column's largest magnitude.  Replacing the stored per-mode
# inverse by an LU solve moves the traces by <1e-13; the smallest scheme
# error tried (no predictor on the first step) moves them by 4.5e-5.  See
# perfbench/README.md for the measured cases behind this value.
TRACE_RTOL = 1e-9
# The inequality suite prints its ratios with six decimals.
RATIO_RTOL = 1e-4


@dataclass
class Outcome:
    """One timed user-facing call and what it returned."""

    seconds: float          # the whole user-facing call
    sim_seconds: float      # the part in simulate; the whole call for the conservation suite
    work: int               # simulated steps, or certified fields and tuples
    result: object = None
    bytes_written: int = 0
    values: dict = field(default_factory=dict)   # series compared with the reference


def trace_columns(trace) -> dict:
    return {name: trace.column(name).tolist() for name in dynamics.TRACE_COLUMNS}


def compare_reference(values: dict, reference: dict, rtol: float) -> list[str]:
    """Names and sizes of the series that differ from the reference."""
    problems = []
    for name, ref in reference.items():
        got = values.get(name)
        if got is None or len(got) != len(ref):
            problems.append(f"reference {name}: length {None if got is None else len(got)}"
                            f" != {len(ref)}")
            continue
        ref_a, got_a = np.asarray(ref), np.asarray(got)
        scale = float(np.max(np.abs(ref_a))) or 1.0
        err = float(np.max(np.abs(got_a - ref_a))) / scale
        if not err <= rtol:
            problems.append(f"reference {name}: relative deviation {err:.3e} > {rtol:.0e}")
    return problems


def _verify_lines(text: str, code: int, suite: str) -> list[str]:
    lines = text.splitlines()
    problems = [f"{suite}: exit code {code}"] if code != 0 else []
    if not lines:
        problems.append(f"{suite}: no result lines")
    problems += [f"not PASS: {ln}" for ln in lines if not ln.startswith("PASS ")]
    return problems


class _Workload:
    name = ""
    rtol = TRACE_RTOL          # reference tolerance
    unit_of_work = "steps"     # what throughput_per_s counts
    probe = "stream"           # run.SpeedProbe kind that slows down like this workload

    def reference_run(self) -> Outcome:
        """The run whose ``values`` are compared with the reference."""
        return self.run()


class _Simulation(_Workload):
    """A seeded small-data decay run: simulate, then verdict (and artifacts)."""

    emits = False

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        self.fraction = float(rng.uniform(*SCALE_RANGE))
        self.theory = stabilization.decay_theory(1, self.geometry())
        self.config = self.make_config(self.fraction * self.theory.threshold)
        self.out_dir = work_dir / "artifacts" / self.name

    def describe(self) -> str:
        c = self.config
        return (f"{c.nx}x{c.ny} grid, {c.n_steps} steps of dt={c.dt}, "
                f"scale {self.fraction:.4f} x threshold")

    def setup(self):
        grid = self.config.grid()
        return dynamics.initial_field(self.config, grid), dynamics.Stepper(self.config, grid)

    def run(self) -> Outcome:
        t0 = time.perf_counter()
        traj = dynamics.simulate(self.config)
        t1 = time.perf_counter()
        verdict = stabilization.verdict(traj.trace, self.theory)
        manifest = (harness.emit_artifacts(traj, verdict, out_dir=self.out_dir)
                    if self.emits else None)
        t2 = time.perf_counter()
        return Outcome(seconds=t2 - t0, sim_seconds=t1 - t0, work=self.config.n_steps,
                       result=(traj, verdict, manifest))

    def check(self, out: Outcome) -> list[str]:
        traj, verdict, manifest = out.result
        problems = []
        if traj.aborted_at is not None:
            problems.append(f"run aborted at t={traj.aborted_at}")
        if not verdict.smallness_ok:
            problems.append("smallness_ok is false")
        if not verdict.envelope_ok:
            problems.append("envelope_ok is false")
        if manifest is not None:
            written = harness.read_trace_csv(self.out_dir / "trace.csv")
            if trace_columns(written) != trace_columns(traj.trace):
                problems.append("trace.csv does not reproduce the in-memory trace")
            out.bytes_written = (sum(e["bytes"] for e in manifest.outputs)
                                 + (self.out_dir / "manifest.json").stat().st_size)
        out.values = trace_columns(traj.trace)
        return problems


class RectNonlinear(_Simulation):
    """C05: the Theorem 3 decay run on the (0,2)x(-1,1) rectangle."""

    name = "rect_nonlinear"
    emits = True

    @staticmethod
    def geometry():
        return DecayGeometry.rectangle(2.0, 1.0)

    @staticmethod
    def make_config(weighted):
        return dynamics.SimConfig(L=2.0, B=1.0, nx=127, ny=127, dt=1e-3, t_end=0.5,
                                  alpha=1, linear=False, initial="cos-product:1.0",
                                  scale_weighted=weighted, trace_stride=20)


class StripWide(_Simulation):
    """C07 at B=12: the truncated-strip proxy with 383 transverse modes."""

    name = "strip_wide"

    @staticmethod
    def geometry():
        return DecayGeometry.strip(2.0)

    @staticmethod
    def make_config(weighted):
        return dynamics.SimConfig(L=2.0, B=12.0, nx=127, ny=383, dt=1e-3, t_end=0.2,
                                  alpha=1, linear=False, domain_kind="truncated_strip",
                                  initial="cos-bump:1.0,2.0", scale_weighted=weighted,
                                  trace_stride=20)


class LinearConservation(_Workload):
    """``verify --suite conservation``: the fused linear path and sampling."""

    name = "linear_conservation"
    # The run the conservation suite performs; it takes no input from the
    # seed.  reference_run checks that the suite still simulates this.
    CONFIG = dynamics.SimConfig(L=2.0, B=1.0, nx=127, ny=63, dt=2e-3, t_end=2.0,
                                alpha=1, linear=True, initial="cos-product:0.5",
                                trace_stride=2)

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed

    def describe(self) -> str:
        c = self.CONFIG
        return f"{c.nx}x{c.ny} grid, {c.n_steps} linear steps, trace every {c.trace_stride}"

    def setup(self):
        grid = self.CONFIG.grid()
        return (dynamics.initial_field(self.CONFIG, grid),
                dynamics.Stepper(self.CONFIG, grid))

    def run(self) -> Outcome:
        buf = io.StringIO()
        t0 = time.perf_counter()
        code = harness.run_verify("conservation", 1, self.seed, out=buf)
        seconds = time.perf_counter() - t0
        return Outcome(seconds=seconds, sim_seconds=seconds, work=self.CONFIG.n_steps,
                       result=(code, buf.getvalue()))

    def check(self, out: Outcome) -> list[str]:
        code, text = out.result
        return _verify_lines(text, code, "conservation")

    def reference_run(self) -> Outcome:
        """A run that also captures the trajectory the suite simulated."""
        captured = []
        real = harness.simulate

        def capture(config):
            captured.append(real(config))
            return captured[-1]

        harness.simulate = capture
        try:
            out = self.run()
        finally:
            harness.simulate = real
        (traj,) = captured
        if traj.config != self.CONFIG:
            raise RuntimeError("the conservation suite no longer runs LinearConservation.CONFIG")
        out.values = trace_columns(traj.trace)
        return out


class Certify(_Workload):
    """``verify --suite inequalities`` and ``--suite spectral``, seeded."""

    name = "certify"
    rtol = RATIO_RTOL
    unit_of_work = "certs"
    probe = "interp"

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        # Sample counts vary by +-2% so the seed reaches them; run_s stays
        # comparable across seeds, and throughput_per_s divides them out.
        self.ineq_samples = int(rng.integers(98, 103))
        self.ineq_seed = int(rng.integers(2 ** 31))
        self.spec_samples = int(rng.integers(490, 511))
        self.spec_seed = int(rng.integers(2 ** 31))

    def describe(self) -> str:
        return (f"{self.ineq_samples} fields (seed {self.ineq_seed}), "
                f"{self.spec_samples} tuples (seed {self.spec_seed})")

    def setup(self):
        """Time to the first certified sample: the grid, one field, its five certificates."""
        # The inequality suite draws its fields on this grid.
        grid = geometry.build_grid(2.0, 1.0, 127, 127)
        fld = harness.random_clean_field(grid, np.random.default_rng(self.ineq_seed))
        return (calculus.check_gn(fld, 3), calculus.check_gn(fld, 4),
                calculus.check_sup_bound(fld), calculus.check_poincare(fld, "x"),
                calculus.check_poincare(fld, "y"))

    def run(self) -> Outcome:
        ineq, spec = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        codes = (harness.run_verify("inequalities", self.ineq_samples, self.ineq_seed, out=ineq),
                 harness.run_verify("spectral", self.spec_samples, self.spec_seed, out=spec))
        seconds = time.perf_counter() - t0
        return Outcome(seconds=seconds, sim_seconds=0.0,
                       work=self.ineq_samples + self.spec_samples,
                       result=(codes, ineq.getvalue(), spec.getvalue()))

    def check(self, out: Outcome) -> list[str]:
        (c_ineq, c_spec), ineq, spec = out.result
        # "PASS inequalities/gn_q3: max ratio 0.712345 (certify <= 1.05)"
        out.values = {ln.split(":")[0].split("/")[1]: [float(ln.split()[4])]
                      for ln in ineq.splitlines()}
        return (_verify_lines(ineq, c_ineq, "inequalities")
                + _verify_lines(spec, c_spec, "spectral"))


WORKLOADS = {cls.name: cls for cls in (RectNonlinear, StripWide, LinearConservation, Certify)}
