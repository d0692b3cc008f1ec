"""Spin-flip concurrence for arbitrary two-qubit density matrices.

Independent numeric cross-check for every closed-form concurrence in
this package: C = max{0, l1 - l2 - l3 - l4} where the l_i are the
decreasingly sorted square roots of the eigenvalues of the Hermitian
product sqrt(rho) rho_tilde sqrt(rho),

    rho_tilde = (sy (x) sy) rho* (sy (x) sy).

X-structured matrices (always the case for the thermal states built
here) take the l_i from an exact two-block closed form. Any other state
builds sqrt(rho) from the clipped eigendecomposition of rho and takes
the l_i as the singular values of sqrt(rho) sqrt(rho_tilde), whose
squares are the eigenvalues of the Hermitian product above. Singular
values keep the small l_i accurate to rounding; square roots of the
product's eigenvalues would amplify rounding to about 1e-8 near pure
states.
"""

from __future__ import annotations

import math

import numpy as np

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

# Sign pattern of sy (x) sy in the product basis {aa, ab, ba, bb}:
# flipping both spins reverses the basis order and these signs.
_FLIP_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])

# Entries allowed to be nonzero in an X-structured matrix.
_X_PATTERN = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]


def _as_hermitian4(matrix, error: str) -> np.ndarray:
    """A finite complex 4x4 array; ValueError(error) unless it is Hermitian."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m - m.conj().T))) > HERMITICITY_ATOL * scale:
        raise ValueError(error)
    return m


def check_density_matrix(rho) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity; return as complex array."""
    m = _as_hermitian4(rho, "density matrix is not Hermitian")
    if abs(m.trace().real - 1.0) > TRACE_ATOL or abs(m.trace().imag) > TRACE_ATOL:
        raise ValueError("density matrix must have unit trace")
    if float(np.min(np.linalg.eigvalsh(m))) < EIGENVALUE_FLOOR:
        raise ValueError("density matrix has a negative eigenvalue")
    return m


def spin_flip(rho) -> np.ndarray:
    """rho_tilde[i, j] = s_i s_j conj(rho[3-i, 3-j]) with s = (+1, -1, -1, +1)."""
    m = _as_hermitian4(rho, "spin flip requires a Hermitian input")
    return np.outer(_FLIP_SIGNS, _FLIP_SIGNS) * np.conj(m[::-1, ::-1])


def wootters_concurrence(rho) -> float:
    """Concurrence from the spin-flip spectrum of an arbitrary 4x4 state."""
    m = check_density_matrix(rho)
    if np.all(m[~_X_PATTERN] == 0.0):
        lams = sorted(_x_state_lambdas(m), reverse=True)
    else:
        w, v = np.linalg.eigh(m)
        sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        lams = np.linalg.svd(sqrt_rho @ spin_flip(sqrt_rho), compute_uv=False)
    return max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))


def _x_state_lambdas(m: np.ndarray) -> list[float]:
    # Square roots of the rho @ rho_tilde spectrum of an X-state, taken
    # blockwise: sqrt((sqrt(ad) +- |u|)^2) collapses to sqrt(ad) +- |u|,
    # which avoids the square-then-root cancellation near pure states.
    outer = math.sqrt(max((m[0, 0] * m[3, 3]).real, 0.0))
    inner = math.sqrt(max((m[1, 1] * m[2, 2]).real, 0.0))
    a14 = abs(m[0, 3])
    a23 = abs(m[1, 2])
    return [outer + a14, abs(outer - a14), inner + a23, abs(inner - a23)]

