import math

import numpy as np
import pytest

from zklab import (SimConfig, decay_theory, energy_balance, fit_decay_rate,
                   initial_field, lyapunov_monitor, trace_row, verdict)
from zklab.dynamics import EnergyTrace
from zklab.stabilization import DecayGeometry


def rect(L, B):
    return DecayGeometry.rectangle(L, B)


def strip(L):
    return DecayGeometry.strip(L)


def make_trace(t, weighted, **cols):
    t = np.asarray(t, dtype=float)
    weighted = np.asarray(weighted, dtype=float)
    zero = np.zeros_like(t)
    return EnergyTrace(t=t,
                       l2_sq=cols.get("l2_sq", weighted.copy()),
                       weighted=weighted,
                       flux0=cols.get("flux0", zero),
                       grad_x_sq=cols.get("grad_x_sq", zero),
                       grad_y_sq=cols.get("grad_y_sq", zero),
                       cubic=cols.get("cubic", zero))


# ---------------------------------------------------------------------------
# decay_theory golden table

@pytest.mark.parametrize("alpha", [True, False, 1.0, 0.0, 2, -1, "1", None])
def test_theory_rejects_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be 0 or 1"):
        decay_theory(alpha, rect(2.0, 1.0))


@pytest.mark.parametrize("L,B,name", [(0.0, 1.0, "L"), (math.inf, None, "L"), (True, None, "L"),
                                      (2.0, -1.0, "B"), (2.0, math.nan, "B"), (2.0, True, "B")])
def test_decay_geometry_checks_itself(L, B, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
        DecayGeometry(L, B)


def test_decay_geometry_kind_follows_b():
    g = DecayGeometry(2, 1)
    assert g.kind == "rectangle" and g == rect(2.0, 1.0)
    assert type(g.L) is float and type(g.B) is float  # verdict.json writes 2.0, not 2
    assert DecayGeometry(2.0).kind == "strip" and DecayGeometry(2.0) == strip(2)
    with pytest.raises(ValueError, match="^B must"):
        rect(2.0, None)  # a rectangle needs its B, not the strip's None
    with pytest.raises(ValueError, match="^L must"):
        rect(-1.0, 1.0)
    with pytest.raises(ValueError, match="^L must"):
        strip(math.nan)


def test_theory_alpha1_rectangle():
    th = decay_theory(1, rect(2.0, 1.0))
    assert th.admissible
    assert abs(th.a_sq - 3.5) < 1e-14
    assert abs(th.rate - 3.5 / 3.0) < 1e-14
    assert abs(th.threshold - 441.0 / 256.0) < 1e-12


def test_theory_alpha1_large_rectangle_inadmissible():
    th = decay_theory(1, rect(10.0, 10.0))
    assert not th.admissible
    assert math.isnan(th.rate) and math.isnan(th.threshold)


def test_theory_alpha0_rectangle():
    th = decay_theory(0, rect(2.0, 1.0))
    assert th.admissible
    assert abs(th.rate - 4.0 / 3.0) < 1e-14
    assert abs(th.threshold - 2.25) < 1e-12


def test_theory_alpha1_strip():
    th = decay_theory(1, strip(2.0))
    assert th.admissible
    assert abs(th.a_sq - 2.5) < 1e-14
    assert abs(th.rate - 5.0 / 6.0) < 1e-14
    assert abs(th.threshold - 9 * 400 / 2048) < 1e-12


def test_theory_alpha0_strip():
    th = decay_theory(0, strip(3.0))
    assert th.admissible
    assert abs(th.rate - 1.0 / 3.0) < 1e-14
    assert abs(th.threshold - 81.0 / 72.0) < 1e-12


def test_theory_alpha0_always_admissible():
    rng = np.random.default_rng(12)
    for _ in range(200):
        L, B = 10 ** rng.uniform(-1, 2, size=2)
        assert decay_theory(0, rect(L, B)).admissible
    for _ in range(50):
        assert decay_theory(0, strip(10 ** rng.uniform(-1, 2))).admissible


def test_threshold_two_printed_forms_agree():
    rng = np.random.default_rng(13)
    count = 0
    while count < 1000:
        L, B = 10 ** rng.uniform(-0.5, 1.0, size=2)
        two_a_sq = 24 / L ** 2 + 2 / B ** 2 - 1
        if two_a_sq <= 0:
            continue
        count += 1
        a_sq = two_a_sq / 2
        form1 = 9 * a_sq ** 2 / (16 * (8 / L ** 2 + 2 / B ** 2))
        form2 = (3 * a_sq * L * B) ** 2 / (32 * (4 * B ** 2 + L ** 2))
        assert abs(form1 - form2) <= 1e-12 * form1
        th = decay_theory(1, rect(L, B))
        assert abs(th.threshold - form1) <= 1e-12 * form1
        assert abs(th.threshold - 9 * th.eps_small * th.delta / 4) <= 1e-12 * form1


def test_rate_monotone_decreasing_in_L_and_B():
    Ls = np.linspace(1.0, 4.0, 13)
    Bs = np.linspace(0.6, 3.0, 13)
    for B in Bs:
        rates = [decay_theory(1, rect(L, B)).rate for L in Ls
                 if decay_theory(1, rect(L, B)).admissible]
        assert all(b < a for a, b in zip(rates, rates[1:]))
    for L in Ls:
        rates = [decay_theory(1, rect(L, B)).rate for B in Bs
                 if decay_theory(1, rect(L, B)).admissible]
        assert all(b < a for a, b in zip(rates, rates[1:]))


# ---------------------------------------------------------------------------
# smallness

def test_verdict_smallness_of_initial_data():
    # Smallness is the verdict's test of the datum's weighted energy.
    def small(u0, th):
        w = trace_row(u0.interior, u0.grid)[1]
        t = np.linspace(0.0, 1.0, 11)
        return w, verdict(make_trace(t, np.full_like(t, w)), th).smallness_ok

    th = decay_theory(1, rect(2.0, 1.0))
    cfg = dict(L=2.0, B=1.0, nx=31, ny=31, dt=1e-3, t_end=1e-3,
               initial="cos-product:1.0")
    zero = initial_field(SimConfig(**{**cfg, "initial": "zero"}))
    assert small(zero, th) == (0.0, True)
    half = initial_field(SimConfig(**cfg, scale_weighted=0.5 * th.threshold))
    w, ok = small(half, th)
    assert ok and abs(w - 0.5 * th.threshold) < 1e-12
    big = initial_field(SimConfig(**cfg, scale_weighted=2.0 * th.threshold))
    w, ok = small(big, th)
    assert not ok
    assert small(zero, decay_theory(1, rect(10.0, 10.0))) == (0.0, False)


# ---------------------------------------------------------------------------
# rate fitting

def test_fit_exact_exponential():
    t = np.linspace(0.0, 5.0, 101)
    tr = make_trace(t, np.exp(-2.0 * t))
    rate, r_sq = fit_decay_rate(tr, (0.0, 5.0))
    assert abs(rate - 2.0) < 1e-6
    assert r_sq > 0.999999


def test_fit_constant_trace():
    t = np.linspace(0.0, 5.0, 51)
    rate, _ = fit_decay_rate(make_trace(t, np.ones_like(t)), (0.0, 5.0))
    assert abs(rate) < 1e-12


def test_fit_perturbed_exponential():
    t = np.linspace(0.0, 5.0, 501)
    tr = make_trace(t, np.exp(-2.0 * t) * (1 + 0.01 * np.sin(10 * t)))
    rate, _ = fit_decay_rate(tr, (0.0, 5.0))
    assert abs(rate - 2.0) < 0.02


def test_fit_window_errors():
    t = np.linspace(0.0, 5.0, 101)
    tr = make_trace(t, np.exp(-2.0 * t))
    with pytest.raises(ValueError, match="fewer than 5"):
        fit_decay_rate(tr, (4.9, 5.0))
    deep = make_trace(t, np.exp(-20.0 * t))
    with pytest.raises(ValueError, match="underflow"):
        fit_decay_rate(deep, (0.0, 5.0))
    with pytest.raises(ValueError, match="t_hi"):
        fit_decay_rate(tr, (2.0, 1.0))


# ---------------------------------------------------------------------------
# monitor

def test_monitor_zero_trace():
    th = decay_theory(1, rect(2.0, 1.0))
    t = np.linspace(0.0, 1.0, 11)
    rep = lyapunov_monitor(make_trace(t, np.zeros_like(t)), th)
    assert rep.max_excursion <= 0.0
    assert rep.persistence_ok


def test_monitor_needs_three_samples():
    th = decay_theory(1, rect(2.0, 1.0))
    with pytest.raises(ValueError, match="short"):
        lyapunov_monitor(make_trace([0.0, 1.0], [1.0, 0.5]), th)


def test_monitor_rejects_an_inadmissible_theory():
    th = decay_theory(1, rect(10.0, 10.0))
    assert not th.admissible
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="^monitor is undefined for an inadmissible theory$"):
        lyapunov_monitor(make_trace(t, np.ones_like(t)), th)


def test_monitor_compliant_synthetic_decay():
    # trace mimicking the guaranteed inequality with slack
    th = decay_theory(1, rect(2.0, 1.0))
    t = np.linspace(0.0, 4.0, 201)
    w = 0.5 * th.threshold * np.exp(-2.0 * t)
    tr = make_trace(t, w, l2_sq=w / (1 + 2.0), grad_x_sq=w, grad_y_sq=w)
    rep = lyapunov_monitor(tr, th)
    assert rep.max_excursion <= 0.05 * w[0]
    assert rep.persistence_ok


# ---------------------------------------------------------------------------
# verdicts

def test_verdict_synthetic_margin_two():
    # theory with rate exactly 1: alpha=1, L=2, B=sqrt(2)
    th = decay_theory(1, rect(2.0, math.sqrt(2.0)))
    assert abs(th.rate - 1.0) < 1e-14
    t = np.linspace(0.0, 6.0, 121)
    v = verdict(make_trace(t, np.exp(-2.0 * t)), th)
    assert v.envelope_ok
    assert v.smallness_ok
    assert abs(v.margin - 2.0) < 1e-6
    assert abs(v.fitted_rate - 2.0) < 1e-6


def test_verdict_envelope_violation():
    th = decay_theory(1, rect(2.0, math.sqrt(2.0)))
    t = np.linspace(0.0, 6.0, 121)
    v = verdict(make_trace(t, np.exp(-0.5 * t)), th)
    assert not v.envelope_ok
    assert v.margin < 1.0


def test_verdict_inadmissible_theory():
    th = decay_theory(1, rect(10.0, 10.0))
    t = np.linspace(0.0, 6.0, 121)
    v = verdict(make_trace(t, np.ones_like(t)), th)
    assert not v.envelope_ok
    assert not v.smallness_ok
    assert math.isnan(v.margin)


def test_verdict_needs_two_samples():
    th = decay_theory(1, rect(2.0, 1.0))
    with pytest.raises(ValueError, match="^trace too short for a verdict$"):
        verdict(make_trace([0.0], [1.0]), th)


def test_verdict_window_slides_above_floor():
    # fast decay underflows the floor midway; fit must use the early part
    th = decay_theory(1, rect(2.0, math.sqrt(2.0)))
    t = np.linspace(0.0, 8.0, 401)
    w = np.maximum(np.exp(-20.0 * t), 1e-16)
    v = verdict(make_trace(t, w), th)
    assert v.envelope_ok
    assert v.fitted_rate > 15.0


def test_verdict_invariant_envelope_implies_rate():
    # randomized: envelope_ok implies fitted >= rate*(1 - tol)
    rng = np.random.default_rng(14)
    th = decay_theory(1, rect(2.0, 1.0))
    t = np.linspace(0.0, 6.0, 241)
    for _ in range(20):
        r = rng.uniform(0.2, 4.0)
        v = verdict(make_trace(t, np.exp(-r * t)), th)
        if v.envelope_ok:
            assert v.fitted_rate >= th.rate * 0.95


# ---------------------------------------------------------------------------
# energy balance of linear runs

def test_energy_balance_on_hand_built_trace():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    flux = np.full(4, 0.1)
    exact = make_trace(t, 1.0 - 0.1 * t, flux0=flux)
    rise, defect = energy_balance(exact)
    assert rise == pytest.approx(-0.1, abs=1e-15)
    assert defect <= 1e-15
    # l2_sq 0.8 -> 0.75 at t = 3 misses the balance by 0.05 of l2_sq[0] = 1
    short = make_trace(t, [1.0, 0.9, 0.8, 0.75], flux0=flux)
    rise, defect = energy_balance(short)
    assert rise == pytest.approx(-0.05, abs=1e-15)
    assert defect == pytest.approx(0.05, abs=1e-15)
    # the rise is absolute, the defect relative to l2_sq[0] = 2
    grows = make_trace(t, [2.0, 1.8, 1.9, 1.7], flux0=flux)
    rise, defect = energy_balance(grows)
    assert rise == pytest.approx(0.1, abs=1e-15)
    assert defect == pytest.approx(0.1 / 2.0, abs=1e-15)


def test_energy_balance_rejects_degenerate_traces():
    with pytest.raises(ValueError, match="two samples"):
        energy_balance(make_trace([0.0], [1.0]))
    with pytest.raises(ValueError, match="nonzero"):
        energy_balance(make_trace([0.0, 1.0], [0.0, 0.0]))
