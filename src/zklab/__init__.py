"""zklab: a desk-scale laboratory for the 2D Zakharov-Kuznetsov equation.

Simulates the initial-boundary value problem on rectangles and truncated
strips, computes the critical-domain spectra in closed form, and verifies
the exponential-decay statements (thresholds, rates, Lyapunov monitor).
"""

__version__ = "0.1.0"

from .geometry import (Field, Grid, RECTANGLE, TRUNCATED_STRIP, build_grid,
                       build_strip_grid, enforce_dirichlet, sample_field,
                       zero_field)
from .calculus import (NormReport, apply_operator, check_gn, check_poincare,
                       check_sup_bound, initial_regularity, integrate, norms,
                       trace_flux, trace_row, weighted_energy)
from .spectral import (CriticalRectangle, ResonantTriple, build_profile,
                       critical_length, critical_residual, cubic_roots,
                       enumerate_critical, kdv_critical_set,
                       minimal_critical_rectangle, mode_xi, resonant_family,
                       stationary_mode)
from .dynamics import (BlowupError, EnergyTrace, SimConfig, Stepper,
                       Trajectory, assemble_linear_part, initial_field,
                       read_snapshot, simulate, simulate_regularized_sweep,
                       write_snapshot)
from .stabilization import (DecayGeometry, DecayTheory, DecayVerdict,
                            check_smallness, decay_theory, energy_balance,
                            fit_decay_rate, lyapunov_monitor, verdict)
from .harness import (ConfigError, RunManifest, cli_main, emit_artifacts,
                      load_config, random_clean_field, read_trace_csv,
                      write_trace_csv)
