"""Spin-flip concurrence for arbitrary two-qubit density matrices.

wootters_concurrence, the one entry, is the independent numeric cross-check for every
closed-form concurrence in this package: C = max{0, l1 - l2 - l3 - l4} where the l_i are the
decreasingly sorted square roots of the eigenvalues of the Hermitian product
sqrt(rho) rho_tilde sqrt(rho), with rho_tilde = (sy (x) sy) rho* (sy (x) sy) the spin flip
that _flip forms on the dense path.

Inputs are checked entry by entry as Python numbers, Hermiticity on the
entries times 1/4 so that no modulus overflows. An X-structured state (every
thermal state built here) is two 2x2 blocks, {11, 14, 44} and {22, 23, 33},
with closed-form eigenvalues and l_i. Others take one eigh of rho, for
positivity and sqrt(rho), and the l_i as singular values of sqrt(rho)
sqrt(rho_tilde): roots of the product's eigenvalues err by 1e-8 near pure states.
"""

from __future__ import annotations

import cmath
import math
from operator import itemgetter

import numpy as np

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

# Signs s_i s_j of sy (x) sy in the product basis {aa, ab, ba, bb}, s = (+1, -1, -1, +1):
# flipping both spins reverses the basis order and these signs.
_FLIP_SIGNS = np.outer([1.0, -1.0, -1.0, 1.0], [1.0, -1.0, -1.0, 1.0])

# Row-major indices 4i + j: the (ij, ji) pairs with i <= j; a getter of the zeros of an X matrix.
_UPPER = [(4 * i + j, 4 * j + i) for i in range(4) for j in range(i, 4)]
_OFF_X = itemgetter(*(4 * i + j for i in range(4) for j in range(4) if j not in (i, 3 - i)))


def _as_state(rho):
    """(row-major entries, eigh) of a valid density matrix; eigh is None for an X state."""
    m = np.asarray(rho, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    e = m.ravel().tolist()
    if not all(map(cmath.isfinite, e)):
        raise ValueError("matrix entries must be finite")
    # skew <= atol max(1, max|e|), judged on the entries times 1/4 where no modulus overflows.
    q = [0.25 * z for z in e]
    skew = max(abs(q[ij] - q[ji].conjugate()) for ij, ji in _UPPER)
    if skew > HERMITICITY_ATOL * max(0.25, *map(abs, q)):
        raise ValueError("density matrix is not Hermitian")
    trace = (e[0] + e[5]) + (e[10] + e[15])
    if abs(trace.real - 1.0) > TRACE_ATOL or abs(trace.imag) > TRACE_ATOL:
        raise ValueError("density matrix must have unit trace")
    eig = np.linalg.eigh(m) if any(_OFF_X(e)) else None
    if not (_x_lowest(e) if eig is None else eig[0][0]) >= EIGENVALUE_FLOOR:  # NaN too
        raise ValueError("density matrix has a negative eigenvalue")
    return e, eig


def _x_lowest(e: list[complex]) -> float:
    # Lowest eigenvalue of an X state's blocks [[a, b*], [b, d]], read as eigvalsh reads them.
    return min((a + d) / 2 - math.hypot((a - d) / 2, b.real, b.imag)
               for a, b, d in ((e[0].real, e[12], e[15].real), (e[5].real, e[9], e[10].real)))


def _flip(m: np.ndarray) -> np.ndarray:
    return _FLIP_SIGNS * np.conj(m[::-1, ::-1])


def wootters_concurrence(rho) -> float:
    """Concurrence from the spin-flip spectrum of an arbitrary 4x4 state.

    ValueError unless rho is finite, Hermitian, of unit trace and, checked last, positive.
    """
    e, eig = _as_state(rho)
    if eig is None:
        lams = sorted(_x_state_lambdas(e), reverse=True)
    else:
        w, v = eig
        sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        lams = np.linalg.svd(sqrt_rho @ _flip(sqrt_rho), compute_uv=False)
    return max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))


def _x_state_lambdas(e: list[complex]) -> list[float]:
    # Square roots of the rho @ rho_tilde spectrum of an X-state, taken
    # blockwise: sqrt((sqrt(ad) +- |u|)^2) collapses to sqrt(ad) +- |u|,
    # which avoids the square-then-root cancellation near pure states.
    outer = math.sqrt(max((e[0] * e[15]).real, 0.0))
    inner = math.sqrt(max((e[5] * e[10]).real, 0.0))
    a14, a23 = abs(e[3]), abs(e[6])
    return [outer + a14, abs(outer - a14), inner + a23, abs(inner - a23)]
