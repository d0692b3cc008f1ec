"""Thermal entanglement toolkit for scalar-coupled spin-1/2 pairs.

Concurrence of the equilibrium state, threshold temperatures, the
zero-temperature level-crossing critical point, pulse spectra and
reconstruction of entanglement from longitudinal NMR observables.

Conventions that every module keeps:

- The value types (SpinSystem, DerivedParams, EnergyLevels, Populations,
  DensityMatrixX, GroundState, Observables, SpectrumLine) are immutable
  namedtuples: setting a field raises AttributeError, and they unpack, pickle,
  copy and compare equal to the plain tuple of their fields. SpinSystem,
  DerivedParams and Observables validate in __new__ and in _replace, which
  swaps the labels of a SpinSystem as its constructor does.
- Invalid input raises ValueError, and a valid input whose answer leaves float
  range raises ArithmeticError. Every function that takes a beta raises
  ValueError outside [0, inf], NaN and -inf included; beta = inf is the exact
  zero-temperature limit, never a large beta.
- Every function that takes populations and a mixing angle (density_matrix,
  concurrence_from_populations, transition_amplitudes, polarizations) takes a
  Populations or any 4-sequence, and raises ValueError unless each population
  is finite and in [0, 1] and theta is in [0, pi/4].
- Every thermal route needs a finite J >= 0, and J = 0 alone never entangles:
  the threshold functions return None for it and for no other input.
"""

from .model import (
    DerivedParams,
    HBAR,
    K_BOLTZMANN,
    PRESET_RATIOS,
    SpinSystem,
    derive,
    derive_from_sigma_delta,
    from_si,
    preset,
)
from .thermo import (
    DensityMatrixX,
    EnergyLevels,
    Populations,
    density_matrix,
    energies,
    partition_for_params,
    populations,
    populations_for_params,
)
from .entangle import (
    concurrence_for_params,
    concurrence_from_populations,
    concurrence_homonuclear,
    concurrence_thermal,
    sweep,
    threshold_kelvin,
    threshold_tau,
    threshold_temperature,
)
from .oracle import spin_flip, wootters_concurrence
from .critical import (
    FIELD_RATIOS,
    GroundState,
    critical_omega_sigma,
    crossing_coupling,
    ground_state,
)
from .spectrum import (
    DEFAULT_FLIP_ANGLE,
    DEFAULT_LINEWIDTH,
    SpectrumLine,
    TRANSITIONS,
    render_lorentzian,
    simulate_spectrum,
    transition_amplitudes,
    transition_frequencies_for_params,
)
from .observe import (
    Observables,
    concurrence_from_observables,
    polarizations,
    reconstruct_populations,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_FLIP_ANGLE",
    "DEFAULT_LINEWIDTH",
    "DensityMatrixX",
    "DerivedParams",
    "EnergyLevels",
    "FIELD_RATIOS",
    "GroundState",
    "HBAR",
    "K_BOLTZMANN",
    "Observables",
    "PRESET_RATIOS",
    "Populations",
    "SpectrumLine",
    "SpinSystem",
    "TRANSITIONS",
    "concurrence_for_params",
    "concurrence_from_observables",
    "concurrence_from_populations",
    "concurrence_homonuclear",
    "concurrence_thermal",
    "critical_omega_sigma",
    "crossing_coupling",
    "density_matrix",
    "derive",
    "derive_from_sigma_delta",
    "energies",
    "from_si",
    "ground_state",
    "partition_for_params",
    "polarizations",
    "populations",
    "populations_for_params",
    "preset",
    "reconstruct_populations",
    "render_lorentzian",
    "simulate_spectrum",
    "spin_flip",
    "sweep",
    "threshold_kelvin",
    "threshold_tau",
    "threshold_temperature",
    "transition_amplitudes",
    "transition_frequencies_for_params",
    "wootters_concurrence",
]
