"""Thermal entanglement toolkit for scalar-coupled spin-1/2 pairs.

Concurrence of the equilibrium state, threshold temperatures, the
zero-temperature level-crossing critical point, pulse spectra and
reconstruction of entanglement from longitudinal NMR observables.
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
    partition,
    populations,
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
    critical_field_ratio,
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
    transition_frequencies,
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
    "critical_field_ratio",
    "critical_omega_sigma",
    "crossing_coupling",
    "density_matrix",
    "derive",
    "derive_from_sigma_delta",
    "energies",
    "from_si",
    "ground_state",
    "partition",
    "polarizations",
    "populations",
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
    "transition_frequencies",
    "wootters_concurrence",
]
