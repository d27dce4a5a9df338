"""zklab benchmark: one workload per call, or every workload with ``--workload all``.

    python3 perfbench/run.py --workload rect_nonlinear --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it spends half of ``--seconds``
untraced and half with every public zklab call wrapped in a span, and
reports the per-layer metrics.  Every run first checks the default-seed
input against ``perfbench/reference.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"
REFERENCE = BENCH_DIR / "reference.json"
METRIC_MAP = BENCH_DIR / "metric_map.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPS = 3
# Set-ups per repetition.  Set-up times have a slow tail, so the median of
# the five or six set-ups of a strip_wide run with one per repetition
# jumped between runs (spread 0.28 over ten runs).
SETUPS_PER_REP = 3
LAYERS = ("geometry", "calculus", "spectral", "dynamics", "stabilization", "harness")
CHILD_TIMEOUT_S = 180


# One BLAS thread (at most nproc): a run then occupies one core, and does
# not contend with itself or with other work on the 2-core host the
# bounds were set on.
BLAS_THREADS = 1


def import_program():
    """Import zklab from this checkout's src/, never from an installed copy."""
    if not (SRC / "zklab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no zklab sources at {SRC / 'zklab'}")
    sys.path.insert(0, str(SRC))
    import zklab
    if Path(zklab.__file__).resolve().parent != (SRC / "zklab").resolve():
        sys.exit(f"perfbench: imported zklab from {zklab.__file__}, not {SRC}")
    return zklab


# ---------------------------------------------------------------------------
# run context

def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def run_context() -> dict:
    import numpy
    import scipy

    def blas(config):
        dep = config.CONFIG["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.__config__),
        "scipy_blas": blas(scipy.__config__),
        # 194 is glibc's _SC_LEVEL3_CACHE_SIZE, which os.sysconf_names lacks.
        "l3_bytes": os.sysconf(194),
        "git_sha": git_sha(),
    }


# ---------------------------------------------------------------------------
# measuring

# Reference work timed between runs to read the machine's current speed.
# On a shared host the CPU speed one process gets drifts by +-20% over tens
# of seconds (measured: 100 IMEX steps at 127x127 took 0.30-0.55 s within
# two minutes, and medians over 20 s windows spread by 14-22%).  Each
# workload names the probe that slows down the way it does: "stream",
# batched matvecs over a 4 MiB and a 32 MiB working set (the steppers'
# per-mode operators span that range), for the steppers; "interp", an
# interpreter loop, for the certificate suites.  Over 8-rep windows of 100
# steps at 127x127, the stream probe cut the spread of the rep medians from
# 0.31 to 0.07 in a noisy phase of the host (a 4 MiB probe alone: 0.12),
# and raised it from 0.04 to 0.05 in a quiet one.  The probes do not call
# zklab.
PROBE_NOMINAL_S = {"stream": 0.05, "interp": 0.018}


class SpeedProbe:
    """Fixed reference work of one kind; calling it returns its relative time."""

    def __init__(self, kind: str):
        self.kind = kind
        if kind == "stream":
            import numpy as np

            rng = np.random.default_rng(0)
            self.small = rng.random((32, 128, 128)), rng.random((32, 128, 1))
            self.large = rng.random((2, 127, 127, 127)), rng.random((127, 127, 1))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        if self.kind == "stream":
            mats, vecs = self.small
            for _ in range(80):
                mats @ vecs
            mats, vecs = self.large
            for i in (0, 1, 0) * 5:
                mats[i] @ vecs
        else:
            acc = 0
            for i in range(400_000):
                acc += i & 7
        return (time.perf_counter() - t0) / PROBE_NOMINAL_S[self.kind]


@dataclass
class Rep:
    setup_s: list          # the rep's set-up times; fewer when set-up raised
    out: object            # workloads.Outcome without its result, None when a call raised
    problems: list
    speed: float           # relative probe time around the rep (1 = nominal)


def timed_reps(wl, seconds: float, min_reps: int, tracer=None) -> list[Rep]:
    """Set-up and user-facing call, repeated until ``seconds`` have passed."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    probe = SpeedProbe(wl.probe)
    probes = [probe()]
    reps = []
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        setup_s = []
        try:
            for _ in range(SETUPS_PER_REP):
                with span("bench.setup"):
                    t0 = time.perf_counter()
                    wl.setup()
                    setup_s.append(time.perf_counter() - t0)
            with span("bench.run"):
                out = wl.run()
            problems = wl.check(out)
            # The checked result (a trajectory holds full-grid snapshots) is
            # dropped, so peak RSS does not grow with the number of reps.
            out.result = None
        except Exception as exc:  # a failed run is counted and reported, not fatal
            traceback.print_exc()
            out, problems = None, [f"{type(exc).__name__}: {exc}"]
        probes.append(probe())
        reps.append(Rep(setup_s, out, problems, (probes[-2] + probes[-1]) / 2))
        for p in problems:
            print(f"FAIL {wl.name} run {len(reps)}: {p}")
    return reps


def reference_check(wl) -> list[str]:
    """Run a default-seed workload once and compare it with the recorded reference."""
    from workloads import compare_reference

    try:
        out = wl.reference_run()
        problems = wl.check(out)
    except Exception as exc:  # reported as a failed run
        traceback.print_exc()
        return [f"{type(exc).__name__}: {exc}"]
    reference = json.loads(REFERENCE.read_text())[wl.name]
    return problems + compare_reference(out.values, reference, wl.rtol)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    values = sorted(values)
    return values[max(0, math.ceil(q * len(values) / 100) - 1)] if values else 0.0


def end_to_end(reps: list[Rep], wl, calibrated: bool = True) -> dict:
    """End-to-end metrics; times are divided by each rep's speed factor
    unless ``calibrated`` is false (the raw wall times, printed alongside)."""
    ok = [r for r in reps if not r.problems]
    speed = (lambda r: r.speed) if calibrated else (lambda r: 1.0)
    if wl.unit_of_work == "steps":
        rates = [r.out.work * speed(r) / (r.out.sim_seconds - median(r.setup_s))
                 for r in ok]
    else:
        rates = [r.out.work * speed(r) / r.out.seconds for r in ok]
    return {
        "setup_s": median(t / speed(r) for r in reps for t in r.setup_s),
        "run_s": median(r.out.seconds / speed(r) for r in ok),
        "throughput_per_s": median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(spans: list, traced: list[Rep], untraced: list[Rep]) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced run's spans."""
    from tracer import NAME, PARENT, RSS, SpanIndex

    idx = SpanIndex(spans)
    ms, us, s = 1e-6, 1e-3, 1e-9
    runs = idx.named("bench.run")
    in_runs = idx.under(runs)
    n_runs = max(1, len(runs))

    def per_run(pred) -> float:
        return sum(1 for sp in in_runs if pred(sp[NAME])) / n_runs

    def durations(names, scale):
        return [idx.duration_ns(sp) * scale for sp in spans if sp[NAME] in names]

    advance = idx.named("dynamics.Stepper.advance")
    advance_ids = {sp[0] for sp in advance}
    dst_names = {"dynamics.LinearPart.to_modes", "dynamics.LinearPart.from_modes"}
    dst_in_step = sum(1 for sp in spans if sp[NAME] in dst_names and sp[PARENT] in advance_ids)
    simulate = idx.named("dynamics.simulate")
    sampling = {"calculus.integrate", "calculus.weighted_energy", "calculus.trace_flux",
                "calculus.gradient_full"}
    children = {sp[0]: [] for sp in simulate}
    for sp in spans:
        if sp[PARENT] in children:
            children[sp[PARENT]].append(sp)
    inits = idx.named("dynamics.Stepper.__init__")
    root_ns = sum(idx.duration_ns(r) for r in runs) or 1
    self_by_layer = {}
    for sp in in_runs:
        layer = sp[NAME].split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0) + idx.self_ns(sp)
    untraced_run = median(r.out.seconds / r.speed for r in untraced if not r.problems)
    traced_run = median(r.out.seconds / r.speed for r in traced if not r.problems)

    metrics = {
        "dynamics.stepper_init_s": median(durations({"dynamics.Stepper.__init__"}, s)),
        "dynamics.stepper_init_rss_mb": median(sp[RSS] for sp in inits),
        "dynamics.advance_ms.p50": median(durations({"dynamics.Stepper.advance"}, ms)),
        "dynamics.advance_ms.p99": percentile(durations({"dynamics.Stepper.advance"}, ms), 99),
        "dynamics.advance_calls": per_run(lambda n: n == "dynamics.Stepper.advance"),
        "dynamics.advance_self_ms.p50": median(idx.self_ns(sp) * ms for sp in advance),
        "dynamics.dst_ms.p50": median(durations(dst_names, ms)),
        "dynamics.dst_calls_per_step": dst_in_step / len(advance) if advance else 0.0,
        "dynamics.apply_interior_calls": per_run(
            lambda n: n == "dynamics.LinearPart.apply_interior"),
        "dynamics.simulate_self_s": median(idx.self_ns(sp) * s for sp in simulate),
        "calculus.sampling_s": median(
            sum(idx.duration_ns(c) for c in kids if c[NAME] in sampling) * s
            for kids in children.values()),
        "calculus.integrate_calls": median(
            sum(1 for c in kids if c[NAME] == "calculus.integrate")
            for kids in children.values()),
        "calculus.certificate_ms.p50": median(durations(
            {"calculus.check_gn", "calculus.check_sup_bound", "calculus.check_poincare"}, ms)),
        "harness.random_clean_field_ms.p50": median(
            durations({"harness.random_clean_field"}, ms)),
        "spectral.resonant_family_us.p50": median(durations({"spectral.resonant_family"}, us)),
        "spectral.build_profile_us.p50": median(durations({"spectral.build_profile"}, us)),
        "spectral.calls": per_run(lambda n: n.startswith("spectral.")),
        "stabilization.verdict_ms": median(durations({"stabilization.verdict"}, ms)),
        "harness.emit_artifacts_ms": median(durations({"harness.emit_artifacts"}, ms)),
        "harness.bytes_written": median(r.out.bytes_written for r in traced if r.out),
        "trace_overhead_frac": traced_run / untraced_run - 1.0 if untraced_run else 0.0,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_frac"] = self_by_layer.get(layer, 0) / root_ns
    metrics["trace.unattributed_frac"] = self_by_layer.get("bench", 0) / root_ns
    return metrics


# ---------------------------------------------------------------------------
# one workload

def run_workload(args, spec: dict) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    import_program()
    import workloads
    from tracer import Tracer

    wl_cls = workloads.WORKLOADS[args.workload]
    wl = wl_cls(args.seed, WORK_DIR)
    print("context " + json.dumps(run_context(), sort_keys=True))
    print(f"workload {wl.name} seed {args.seed}: {wl.describe()}")

    # The reference run is also the warm-up: caches fill and lazy set-up
    # (FFT plans, first-call imports) finishes before anything is timed.
    ref_problems = reference_check(wl_cls(workloads.DEFAULT_SEED, WORK_DIR))
    for p in ref_problems:
        print(f"FAIL {wl.name} reference (seed {workloads.DEFAULT_SEED}): {p}")
    print(f"reference check (seed {workloads.DEFAULT_SEED}): "
          f"{'FAIL' if ref_problems else 'ok'}")

    if args.trace:
        # Untraced and traced reps alternate, so both see the same phases of
        # the host's speed and trace_overhead_frac compares like with like.
        layers = {name: sys.modules[f"zklab.{name}"] for name in LAYERS}
        namespaces = [m for n, m in sys.modules.items() if n == "zklab" or n.startswith("zklab.")]
        tracer = Tracer()
        untraced, traced = [], []
        start = time.perf_counter()
        while len(traced) < 2 or time.perf_counter() - start < args.seconds:
            untraced += timed_reps(wl, 0, 1)
            wrapped = tracer.instrument(layers, namespaces)
            try:
                traced += timed_reps(wl, 0, 1, tracer)
            finally:
                tracer.uninstrument()
        reps = untraced + traced
        metrics = layer_metrics(tracer.spans, traced, untraced)
        spans_path = WORK_DIR / f"spans-{wl.name}-seed{args.seed}.json"
        tracer.write(spans_path, {"workload": wl.name, "seed": args.seed})
        print(f"{len(traced)} traced runs alternating with {len(untraced)} untraced: "
              f"{len(tracer.spans)} spans over {wrapped} wrapped callables -> {spans_path}")
        declared = spec["per_layer"]
    else:
        reps = timed_reps(wl, args.seconds, MIN_REPS)
        for i, r in enumerate(reps, 1):
            print(f"run {i}: setup {median(r.setup_s):.4f} s, call "
                  f"{r.out.seconds if r.out else float('nan'):.4f} s, speed factor {r.speed:.4f}")
        metrics = end_to_end(reps, wl)
        declared = spec["end_to_end"]

    attempted = len(reps) + 1
    failed = sum(1 for r in reps if r.problems) + bool(ref_problems)
    applies = json.loads(METRIC_MAP.read_text())["per_layer"]
    for m in declared:
        where = applies.get(m["name"], {}).get("workloads", [wl.name])
        note = "" if wl.name in where else "  (not reached on this workload)"
        print(f"metric {m['name']} = {metrics[m['name']]:.6g} {m['unit']}{note}")
    if not args.trace:
        raw = end_to_end(reps, wl, calibrated=False)
        print(f"  uncalibrated wall time: setup_s {raw['setup_s']:.6g} s, run_s "
              f"{raw['run_s']:.6g} s, throughput_per_s {raw['throughput_per_s']:.6g} 1/s; "
              f"median speed factor {median(r.speed for r in reps):.4g}")
        ok_runs = sum(1 for r in reps if not r.problems)
        print(f"  throughput_per_s is {wl.unit_of_work}_per_s; run_s and throughput_per_s: "
              f"median of {ok_runs} runs; setup_s: median of "
              f"{sum(len(r.setup_s) for r in reps)} set-ups")
    print(f"metric failed_frac = {failed / attempted:.6g} ({failed} of {attempted} runs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


# ---------------------------------------------------------------------------
# every workload

def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    """One workload in its own process (peak RSS is per process); its result line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_all(args, spec: dict) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        result = run_child(w["name"], args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{w['name']}: correct={result['correct']} "
              f"failed_frac={result['failed'] / result['attempted']:.6g}")
        for name, m in result["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
            combined["metrics"][f"{w['name']}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
