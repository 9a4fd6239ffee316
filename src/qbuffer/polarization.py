"""2x2 polarization algebra in the {|H>, |V>} basis.

States are density matrices rather than Jones vectors so that pure launch
states and partially depolarized states after many storage cycles share one
representation. Optical elements act as Jones matrices by conjugation
(rho -> U rho U+); gradual loss of polarization coherence is modeled by the
isotropic depolarizing channel rho -> (1-p) rho + p I/2, which shrinks the
Bloch vector by exactly (1-p).

The ``PolState`` functions wrap array forms over ``(..., 2, 2)`` stacks
(:func:`rotate`, :func:`depolarize`, :func:`check_density`,
:func:`hwp_matrices`), so a whole table of states is built and checked with
the same arithmetic as one state.

Global optical phase is not tracked here; interferometric phase differences
are handled explicitly by the loop-routing model in :mod:`qbuffer.components`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (ContractViolationError, InputDomainError, _array,
                     _checked, _typed)

# Tolerance applied to user-provided inputs.
INPUT_TOL = 1e-9

#: Largest HWP angle magnitude, in radians: up to it, the fringe phase
#: 4 * theta (and so 2 * theta) is finite.
HWP_ANGLE_MAX = sys.float_info.max / 4.0

_I2 = np.eye(2, dtype=np.complex128)


def _as_matrix(m, field: str) -> np.ndarray:
    a = _array(field, np.asarray, m, dtype=np.complex128)
    if a.shape != (2, 2):
        raise InputDomainError(f"expected a 2x2 matrix, got shape {a.shape}",
                               field)
    return a


def _jones(field: str, vec) -> np.ndarray:
    """``vec`` as a complex Jones 2-vector; InputDomainError naming
    ``field`` unless it holds exactly 2 numbers."""
    v = _array(field, np.asarray, vec, dtype=np.complex128)
    if v.size != 2:
        raise InputDomainError(
            f"{field} must hold 2 components, not {v.size}", field)
    return v.reshape(2)


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each 2x2 matrix in a ``(..., 2, 2)`` stack."""
    return m.conj().swapaxes(-1, -2)


def check_density(rho: np.ndarray) -> None:
    """Reject any matrix of a ``(..., 2, 2)`` stack that is not a density
    matrix within ``INPUT_TOL``: finite, unit trace, Hermitian, eigenvalues
    in [0, 1]. The message names the first offending matrix as
    :class:`PolState` would.
    """
    if not np.isfinite(rho).all():
        raise InputDomainError("density matrix contains non-finite entries")
    trace = np.trace(rho, axis1=-2, axis2=-1)
    bad = np.abs(trace - 1.0) > INPUT_TOL
    if bad.any():
        raise InputDomainError(f"trace(rho) = {trace[bad].flat[0]} != 1")
    herm = _dagger(rho)
    if (np.abs(rho - herm).max(axis=(-2, -1)) > INPUT_TOL).any():
        raise InputDomainError("density matrix is not Hermitian")
    ev = np.linalg.eigvalsh(0.5 * (rho + herm))
    bad = (ev.min(axis=-1) < -INPUT_TOL) | (ev.max(axis=-1) > 1.0 + INPUT_TOL)
    if bad.any():
        raise InputDomainError(f"eigenvalues {ev[bad][0]} outside [0, 1]")


def unitary_within(m: np.ndarray, tol: float = INPUT_TOL) -> bool:
    """Whether every matrix of a ``(..., 2, 2)`` stack is unitary within
    ``tol``."""
    return bool(np.abs(m @ _dagger(m) - _I2).max() <= tol)


def conjugate(rho: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``m rho m+`` over broadcast ``(..., 2, 2)`` stacks."""
    return m @ rho @ _dagger(m)


def rotate(rho: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Array form of :func:`apply_unitary`: ``m rho m+``, Hermitized, for
    stacks of states and unitaries; the result is not domain-checked."""
    if not unitary_within(m):
        raise ContractViolationError("element is not unitary within 1e-9")
    rho = conjugate(rho, m)
    return 0.5 * (rho + _dagger(rho))  # kill rounding drift off Hermitian


def depolarize(rho: np.ndarray, p: float) -> np.ndarray:
    """Array form of :func:`apply_depolarizing` over a ``(..., 2, 2)``
    stack: ``(1-p) rho + p I/2``."""
    _checked("p", p, ge=0, le=1, label="depolarization probability")
    return (1.0 - p) * rho + (p / 2.0) * _I2


@dataclass(frozen=True, eq=False)
class PolState:
    """Polarization density matrix. Hermitian, unit trace, PSD."""

    rho: np.ndarray

    def __post_init__(self):
        rho = _as_matrix(self.rho, "rho")
        check_density(rho)
        rho = rho.copy()
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)

    @classmethod
    def from_jones(cls, vec) -> "PolState":
        """Pure state |v><v| from a (not necessarily normalized) Jones vector."""
        v = _jones("vec", vec)
        n = np.linalg.norm(v)
        if n == 0 or not np.isfinite(n):
            raise InputDomainError("Jones vector must be nonzero and finite")
        v = v / n
        return cls(np.outer(v, v.conj()))

    @property
    def bloch_vector(self) -> np.ndarray:
        """Stokes-like (s1, s2, s3) with |s| = 1 for pure states."""
        r = self.rho
        return np.array(
            [
                2.0 * r[0, 1].real,
                -2.0 * r[0, 1].imag,
                (r[0, 0] - r[1, 1]).real,
            ]
        )


@dataclass(frozen=True, eq=False)
class JonesOp:
    """2x2 Jones matrix of an optical element."""

    m: np.ndarray

    def __post_init__(self):
        m = _as_matrix(self.m, "m")
        if not np.isfinite(m).all():
            raise InputDomainError("Jones matrix contains non-finite entries")
        # Passive elements must not amplify.
        smax = np.linalg.norm(m, 2)
        if smax > 1.0 + INPUT_TOL:
            raise InputDomainError(f"largest singular value {smax} exceeds 1")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "m", m)

    def is_unitary(self, tol: float = INPUT_TOL) -> bool:
        return unitary_within(self.m, tol)

    @classmethod
    def identity(cls) -> "JonesOp":
        return cls(_I2)


def hwp_matrices(angles) -> np.ndarray:
    """``(len(angles), 2, 2)`` stack of half-wave plates, fast axis at each
    angle in radians: [[cos 2t, sin 2t], [sin 2t, -cos 2t]].

    Each matrix is unitary by construction, so the stack is not checked
    for passivity here; :func:`rotate` checks its unitarity.
    """
    rows = [_hwp_rows(f"angles[{i}]", theta) for i, theta in enumerate(angles)]
    return np.array(rows, dtype=np.complex128).reshape(-1, 2, 2)


def _hwp_rows(field: str, theta) -> tuple:
    """Rows of the half-wave plate at ``theta``, checked as ``field``."""
    _checked(field, theta, ge=-HWP_ANGLE_MAX, le=HWP_ANGLE_MAX,
             label="HWP angle")
    c, s = math.cos(2.0 * theta), math.sin(2.0 * theta)
    return (c, s), (s, -c)


def hwp_matrix(theta: float) -> JonesOp:
    """Half-wave plate with its fast axis at ``theta`` radians; unitary and
    involutive. See :func:`hwp_matrices`."""
    return JonesOp(np.array(_hwp_rows("theta", theta), dtype=np.complex128))


def apply_unitary(state: PolState, u: JonesOp) -> PolState:
    """Conjugate a state by a unitary element: rho -> U rho U+."""
    _typed("state", state, PolState)
    _typed("u", u, JonesOp)
    return PolState(rotate(state.rho, u.m))


def apply_depolarizing(state: PolState, p: float) -> PolState:
    """Isotropic depolarizing channel rho -> (1-p) rho + p I/2."""
    _typed("state", state, PolState)
    return PolState(depolarize(state.rho, p))


def projection_probability(state: PolState, axis) -> float:
    """Probability <a|rho|a> of projecting onto a unit Jones vector ``axis``."""
    _typed("state", state, PolState)
    a = _jones("axis", axis)
    if not abs(np.linalg.norm(a) - 1.0) <= INPUT_TOL:  # NaN fails it
        raise InputDomainError("projection axis must be normalized within 1e-9")
    p = float(np.vdot(a, state.rho @ a).real)
    return min(max(p, 0.0), 1.0)


# Canonical axes and states. D is the +45 degree superposition.
AXIS_H = np.array([1.0, 0.0], dtype=np.complex128)
AXIS_V = np.array([0.0, 1.0], dtype=np.complex128)
AXIS_D = np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)

STATE_H = PolState.from_jones(AXIS_H)
STATE_V = PolState.from_jones(AXIS_V)
STATE_D = PolState.from_jones(AXIS_D)
