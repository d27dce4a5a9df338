"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run as `pytest -s tests/test_acceptance.py` to watch the lines stream.
The heavy criteria are full simulations and take a few minutes combined.
"""

import math

import numpy as np

from zklab import (LinearPart, SimConfig, build_grid, critical_length,
                   critical_residual, decay_theory, energy_balance,
                   fit_decay_rate, lyapunov_monitor, resonant_family,
                   sample_field, simulate, simulate_regularized_sweep,
                   stationary_mode, verdict)
from zklab.harness import _verify_inequalities
from zklab.stabilization import DecayGeometry

CRIT_L = 4 * math.pi / math.sqrt(3)
ROOT3 = math.sqrt(3.0)


def report(cid: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{cid}: {detail}"


def test_c01_spectral_golden_values():
    e1 = abs(critical_length(1, 1, 0.0).L - 2 * math.pi)
    e2 = abs(critical_length(1, 1, 0.25).L - CRIT_L)
    e3 = abs(critical_residual(CRIT_L, math.pi, 1, 1, 1))
    ok = e1 <= 1e-12 and e2 <= 1e-12 and e3 <= 1e-12
    report("C01", ok,
           f"critical lengths/residual off by ({e1:.1e}, {e2:.1e}, {e3:.1e}), tol 1e-12")


def test_c02_viete_spacing_property_suite():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(500):
        k, l, n = (int(rng.integers(1, 6)) for _ in range(3))
        B = math.pi * n / 2 * (1.05 + 2.95 * rng.random())
        t = resonant_family(k, l, n, B)
        worst = max(worst, max(t.identity_residuals().values()))
    report("C02", worst <= 1e-12,
           f"500 admissible tuples, max identity residual {worst:.3e}, tol 1e-12")


def test_c03_stationary_mode_residual_refinement():
    mode = stationary_mode(1, 1, 1, math.pi)
    errs = []
    for nx in (63, 127, 255):
        g = build_grid(CRIT_L, math.pi, nx, nx)
        lp = LinearPart(g, alpha=1, epsilon=0.0)
        f = sample_field(g, mode)
        errs.append(np.max(np.abs(lp.apply(f).values)))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ok = 3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0
    report("C03", ok, f"max-norm residual ratios {r1:.3f}, {r2:.3f} in [3, 5]")


def test_c04_nondecay_on_critical_rectangle():
    cfg = SimConfig(L=CRIT_L, B=math.pi, nx=127, ny=127, dt=1e-3, t_end=20.0,
                    alpha=1, linear=True, initial="mode:1,1,1",
                    trace_stride=100)
    tr = simulate(cfg).trace
    dev = float(np.max(np.abs(tr.weighted / tr.weighted[0] - 1.0)))
    rate, _ = fit_decay_rate(tr, (10.0, 20.0))
    ok = dev <= 0.02 and abs(rate) <= 0.01
    report("C04", ok,
           f"weighted drift {dev:.2e} (tol 2e-2), fitted rate {rate:.2e} (tol 1e-2)")
    # the critical rectangle is inadmissible, so no decay envelope exists
    v = verdict(tr, decay_theory(1, DecayGeometry.rectangle(CRIT_L, math.pi)))
    report("C04b", (not v.envelope_ok) and abs(v.fitted_rate) <= 0.01,
           f"verdict on critical rectangle: envelope_ok={v.envelope_ok}, "
           f"fitted {v.fitted_rate:.2e}")


def _decay_run(alpha: int) -> tuple:
    theory = decay_theory(alpha, DecayGeometry.rectangle(2.0, 1.0))
    cfg = SimConfig(L=2.0, B=1.0, nx=127, ny=127, dt=1e-3, t_end=8.0,
                    alpha=alpha, linear=False, initial="cos-product:1.0",
                    scale_weighted=0.5 * theory.threshold, trace_stride=20)
    traj = simulate(cfg)
    return theory, traj


def test_c05_theorem3_decay_envelope():
    theory, traj = _decay_run(alpha=1)
    v = verdict(traj.trace, theory)
    target = 7.0 / 6.0
    ok = (v.smallness_ok and v.envelope_ok
          and v.fitted_rate >= target * 0.95 and abs(theory.rate - target) < 1e-12)
    report("C05", ok,
           f"envelope_ok={v.envelope_ok}, fitted {v.fitted_rate:.2f} >= "
           f"{target * 0.95:.3f}, margin {v.margin:.1f}")
    mon = lyapunov_monitor(traj.trace, theory)
    report("C05b", mon.max_excursion <= 0.05 * traj.trace.weighted[0],
           f"Lyapunov max excursion {mon.max_excursion:.2e} within 5% of "
           f"initial weighted energy {traj.trace.weighted[0]:.3f}")


def test_c06_theorem5_decay_alpha0():
    theory, traj = _decay_run(alpha=0)
    v = verdict(traj.trace, theory)
    target = 4.0 / 3.0
    ok = (v.smallness_ok and v.envelope_ok
          and v.fitted_rate >= target * 0.95
          and abs(theory.rate - target) < 1e-12
          and abs(theory.threshold - 2.25) < 1e-12)
    report("C06", ok,
           f"envelope_ok={v.envelope_ok}, fitted {v.fitted_rate:.2f} >= "
           f"{target * 0.95:.3f}")


def test_c07_strip_proxy_with_truncation_sensitivity():
    theory = decay_theory(1, DecayGeometry.strip(2.0))
    target = 5.0 / 6.0
    runs = {}
    for B, ny in ((8.0, 255), (12.0, 383)):
        cfg = SimConfig(L=2.0, B=B, nx=127, ny=ny, dt=1e-3, t_end=5.0,
                        alpha=1, linear=False, domain_kind="truncated_strip",
                        initial="cos-bump:1.0,2.0",
                        scale_weighted=0.5 * theory.threshold, trace_stride=20)
        runs[B] = simulate(cfg).trace
    a, b = runs[8.0].weighted, runs[12.0].weighted
    guard = a[0] * 1e-10
    mask = (a > guard) & (b > guard)
    sensitivity = float(np.max(np.abs(a[mask] - b[mask]) / a[mask]))
    v = verdict(runs[8.0], theory)
    ok = (v.envelope_ok and sensitivity < 0.01
          and abs(theory.rate - target) < 1e-12)
    report("C07", ok,
           f"envelope_ok={v.envelope_ok} (rate {target:.3f}), truncation "
           f"sensitivity {sensitivity:.2e} < 1e-2")


def test_c08_conservation_dissipation_identity():
    cfg = SimConfig(L=2.0, B=1.0, nx=255, ny=127, dt=2e-3, t_end=10.0,
                    alpha=1, linear=True, initial="cos-product:0.5",
                    trace_stride=2)
    tr = simulate(cfg).trace
    rise, defect = energy_balance(tr)
    mono = bool(rise <= 1e-14 * tr.l2_sq[0])
    ok = mono and defect <= 0.01
    report("C08", ok,
           f"l2 monotone={mono}, max balance defect {defect:.2e} (tol 1e-2)")


def test_c09_inequality_suites():
    results = _verify_inequalities(samples=100, seed=2025)
    ok = all(passed for _, passed, _ in results)
    detail = ", ".join(f"{name} {msg.split()[2]}" for name, _, msg in results)
    report("C09", ok, f"100 seeded fields: {detail} (certify <= 1.05)")


def test_c10_regularization_limit():
    cfg = SimConfig(L=2 * math.pi, B=math.pi, nx=127, ny=127, dt=1e-3,
                    t_end=1.0, alpha=1, linear=False,
                    initial="cos-product:0.4", trace_stride=10 ** 9)
    res = simulate_regularized_sweep(cfg, [1e-2, 5e-3, 2.5e-3, 0.0])
    d = res.distances_to_limit
    strictly = d[0] > d[1] > d[2] > 0.0
    cauchy = res.pairwise_distances[0] > res.pairwise_distances[1]
    report("C10", strictly and cauchy,
           f"distances to the eps=0 terminal state {['%.3e' % x for x in d]} "
           f"strictly decreasing; consecutive gaps Cauchy={cauchy}")


def test_c11_threshold_crosscheck():
    rng = np.random.default_rng(99)
    count, worst = 0, 0.0
    while count < 1000:
        L, B = 10 ** rng.uniform(-0.5, 1.0, size=2)
        two_a_sq = 24 / L ** 2 + 2 / B ** 2 - 1
        if two_a_sq <= 0:
            continue
        count += 1
        a_sq = two_a_sq / 2
        form1 = 9 * a_sq ** 2 / (16 * (8 / L ** 2 + 2 / B ** 2))
        form2 = (3 * a_sq * L * B) ** 2 / (32 * (4 * B ** 2 + L ** 2))
        th = decay_theory(1, DecayGeometry.rectangle(L, B))
        construction = 9 * th.eps_small * th.delta / 4
        worst = max(worst,
                    abs(form1 - form2) / form1,
                    abs(th.threshold - form1) / form1,
                    abs(th.threshold - construction) / form1)
    report("C11", worst <= 1e-12,
           f"1000 admissible (L,B): max relative disagreement {worst:.3e}, tol 1e-12")
