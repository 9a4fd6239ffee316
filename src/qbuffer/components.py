"""Parameterized models of the buffer's optical elements.

The physical layout: a pulsed source (intensity-modulated laser plus
attenuator) launches weak coherent pulses through a half-wave plate and a
circulator into a routing stage. The routing stage is a fiber Sagnac loop: a
50:50 coupler whose two pigtails are joined by a delay fiber containing a
gated phase modulator placed asymmetrically, a few tens of meters from one
coupler port. The loop's second coupler port feeds a storage line terminated
by a grating mirror. Balanced, the loop reflects; a pi phase difference
between the counter-propagating directions routes the pulse across.

Everything here is a pure transfer rule acting on immutable pulse records;
propagation ordering lives in :mod:`qbuffer.engine`. Routing never depends on
polarization, so records carry route and power only: the polarization of a
record is ``stored_rho(topology, launch.rho, max_cycles)[record.cycles]``,
the only code that applies the preparation error and the per-cycle
depolarization; ``stored_states`` wraps it for one ``PolState``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import (ContractViolationError, InputDomainError, _checked,
                     _typed)
from .polarization import JonesOp, PolState, conjugate, depolarize

#: Vacuum speed of light, m/s.
C_VACUUM = 299_792_458.0

#: Loss applied per element and pass when not overridden, in dB.
DEFAULT_ELEMENT_LOSS_DB = {
    "circulator": 0.6,        # per pass through the output circulator
    "coupler": 0.0,           # excess loss of the loop coupler, per traversal
    "loop_fiber": 0.2,        # delay-loop fiber, per traversal
    "storage_fiber": 0.02,    # storage line, per one-way trip
    "input_path": 0.0,        # source side patch cords
    "output_path": 0.0,       # measurement side patch cords
}


def db_to_transmission(loss_db: float) -> float:
    """Power transmission of a ``loss_db`` attenuation."""
    _checked("loss_db", loss_db, ge=0, label="loss")
    return 10.0 ** (-loss_db / 10.0)


def fiber_delay(length_m: float, group_index: float) -> float:
    """Group delay of ``length_m`` of fiber: length * n_g / c."""
    _checked("length_m", length_m, ge=0, label="fiber length")
    _checked("group_index", group_index, ge=1, label="group index")
    return length_m * group_index / C_VACUUM


@dataclass(frozen=True)
class PulseRecord:
    """One optical pulse in flight.

    ``t`` is the arrival time at the current port, ``mu`` the mean photon
    number of the weak coherent state, ``cycles`` the number of completed
    storage-line round trips. ``root_id`` names the source pulse this record
    descends from and ``path_transmission`` accumulates every pure-loss
    factor met along its path (splitting fractions excluded), which makes a
    closed power audit possible.
    """

    id: int
    t: float
    width: float
    mu: float
    cycles: int = 0
    root_id: int = -1
    path_transmission: float = 1.0

    def __post_init__(self):
        _checked("width", self.width, gt=0, label="pulse width")
        _checked("mu", self.mu, ge=0, label="mean photon number")
        _checked("t", self.t, label="pulse time")
        _checked("id", self.id, integer=True)
        _checked("cycles", self.cycles, ge=0, integer=True,
                 label="cycle count")
        _checked("root_id", self.root_id, integer=True)
        _checked("path_transmission", self.path_transmission, ge=0, le=1,
                 label="path transmission")
        if self.root_id < 0:
            object.__setattr__(self, "root_id", self.id)


@dataclass(frozen=True)
class DrivePulse:
    """One high-voltage gate applied to the loop phase modulator."""

    t_start: float
    width: float = 180e-9
    voltage: float = 900.0

    def __post_init__(self):
        _checked("t_start", self.t_start)
        _checked("width", self.width, gt=0)
        _checked("voltage", self.voltage, ge=0)

    @property
    def t_end(self) -> float:
        return self.t_start + self.width


@dataclass(frozen=True)
class BufferTopology:
    """Geometry, loss budget and decoherence knobs of the buffer.

    ``depol_per_cycle`` may be a single probability applied on every storage
    cycle or a sequence indexed by cycle number (the last entry repeats for
    later cycles). ``prep_error_depol`` is a one-shot channel applied at the
    routing-stage input, standing in for state-preparation-and-measurement
    imperfection.
    """

    loop_length_m: float = 1000.0
    storage_length_m: float = 100.0
    group_index: float = 1.468
    modulator_offset_m: float = 10.0
    v_pi: float = 900.0
    modulator_loss_db: float = 0.4
    per_element_loss_db: dict = field(
        default_factory=DEFAULT_ELEMENT_LOSS_DB.copy)
    fbg_reflectivity: float = 1.0
    depol_per_cycle: float | tuple = 0.0
    prep_error_depol: float = 0.0

    def __post_init__(self):
        _checked("loop_length_m", self.loop_length_m, gt=0)
        _checked("storage_length_m", self.storage_length_m, ge=0)
        _checked("group_index", self.group_index, ge=1)
        _checked("modulator_offset_m", self.modulator_offset_m, gt=0,
                 lt=self.loop_length_m)
        _checked("v_pi", self.v_pi, gt=0)
        _checked("modulator_loss_db", self.modulator_loss_db, ge=0)
        _checked("fbg_reflectivity", self.fbg_reflectivity, ge=0, le=1)
        _checked("prep_error_depol", self.prep_error_depol, ge=0, le=1)
        _typed("per_element_loss_db", self.per_element_loss_db, Mapping)
        losses = dict(DEFAULT_ELEMENT_LOSS_DB)
        for name, value in self.per_element_loss_db.items():
            key = f"per_element_loss_db.{name}"
            if name not in losses:
                raise InputDomainError(f"unknown loss element {name!r}", key)
            _checked(key, value, ge=0)
            losses[name] = value
        object.__setattr__(self, "per_element_loss_db", losses)
        depol = self.depol_per_cycle
        if isinstance(depol, (tuple, list)):
            for i, p in enumerate(depol):
                _checked(f"depol_per_cycle[{i}]", p, ge=0, le=1)
        else:  # one probability for every cycle
            _checked("depol_per_cycle", depol, ge=0, le=1)
            depol = (depol,)
        object.__setattr__(self, "depol_per_cycle",
                           tuple(float(p) for p in depol) or (0.0,))

    # -- derived timing -----------------------------------------------------

    def loop_delay_s(self) -> float:
        return fiber_delay(self.loop_length_m, self.group_index)

    def storage_delay_s(self) -> float:
        """One-way trip along the storage line."""
        return fiber_delay(self.storage_length_m, self.group_index)

    def near_passage_delay_s(self) -> float:
        """Coupler entry to modulator along the short arm."""
        return fiber_delay(self.modulator_offset_m, self.group_index)

    def far_passage_delay_s(self) -> float:
        """Coupler entry to modulator along the long arm."""
        return fiber_delay(self.loop_length_m - self.modulator_offset_m,
                           self.group_index)

    # -- derived loss budget ------------------------------------------------

    def element_loss_db(self, name: str) -> float:
        return self.per_element_loss_db[name]

    def traversal_loss_db(self) -> float:
        """Loss of one full loop traversal (either direction)."""
        return (self.modulator_loss_db
                + self.element_loss_db("loop_fiber")
                + self.element_loss_db("coupler"))

    def storage_round_trip_loss_db(self) -> float:
        fbg_db = math.inf if self.fbg_reflectivity == 0.0 else \
            -10.0 * math.log10(self.fbg_reflectivity)
        return 2.0 * self.element_loss_db("storage_fiber") + fbg_db

    def cycle_loss_db(self) -> float:
        """Loss added per stored cycle: one traversal plus one storage
        round trip."""
        return self.traversal_loss_db() + self.storage_round_trip_loss_db()

    def depol_for_cycle(self, cycle: int) -> float:
        """Depolarization probability applied on storage cycle ``cycle``
        (1-based). Cycles past the end of the table reuse the last entry."""
        _checked("cycle", cycle, ge=1, integer=True, label="cycle number")
        table = self.depol_per_cycle
        return table[min(cycle, len(table)) - 1]


def stored_rho(topology: BufferTopology, rho: np.ndarray,
               max_cycles: int) -> np.ndarray:
    """Density matrices of pulses launched as the ``(..., 2, 2)`` stack
    ``rho`` after 0..max_cycles cycles, as a ``(..., max_cycles + 1, 2, 2)``
    stack.

    Entry ``k`` is the state of a record that has completed ``k`` storage
    cycles: ``prep_error_depol`` at the input, then ``depol_for_cycle(j)``
    for j = 1..k. Routing never depends on polarization, so one engine run
    per schedule plus this table covers every launch state. The result is
    not domain-checked; :func:`qbuffer.polarization.check_density` does
    that.
    """
    _typed("topology", topology, BufferTopology)
    _checked("max_cycles", max_cycles, ge=0, integer=True,
             label="cycle count")
    out = np.empty(rho.shape[:-2] + (max_cycles + 1, 2, 2),
                   dtype=np.complex128)
    out[..., 0, :, :] = depolarize(rho, topology.prep_error_depol)
    for k in range(1, max_cycles + 1):
        out[..., k, :, :] = depolarize(out[..., k - 1, :, :],
                                       topology.depol_for_cycle(k))
    return out


def stored_states(topology: BufferTopology, pol: PolState,
                  max_cycles: int) -> list:
    """:func:`stored_rho` of one launch state, as a list of ``PolState``."""
    _typed("pol", pol, PolState)
    return [PolState(r) for r in stored_rho(topology, pol.rho, max_cycles)]


# -- transfer rules ---------------------------------------------------------


def generate_pulse_train(rep_rate: float, pulse_width: float, mu: float,
                         n: int) -> list[PulseRecord]:
    """``n`` identical pulses at times k / rep_rate, k = 0..n-1; each
    :class:`PulseRecord` checks the width and mu."""
    _checked("rep_rate", rep_rate, gt=0, label="repetition rate")
    _checked("n", n, ge=1, integer=True, label="pulse count")
    return [
        PulseRecord(id=k, t=k / rep_rate, width=pulse_width, mu=mu)
        for k in range(n)
    ]


def sagnac_transfer(delta_phi: float) -> tuple[float, float]:
    """Loop-mirror power split for a direction phase difference ``delta_phi``.

    Returns (R, T): R = cos^2(dphi/2) back out the entry port, T = 1 - R out
    the opposite port, so R + T = 1 holds exactly. A drive far above the
    half-wave voltage can make the phase overflow; that is rejected.
    """
    _checked("delta_phi", delta_phi, label="loop phase difference")
    r = math.cos(delta_phi / 2.0) ** 2
    return r, 1.0 - r


def pbs_shares(rho: np.ndarray, basis_unitary: JonesOp) -> np.ndarray:
    """P(H) of each state of a ``(..., 2, 2)`` stack at a polarizing
    beamsplitter after a basis rotation, clipped to [0, 1]; P(V) is
    ``1 - P(H)``."""
    if not basis_unitary.is_unitary():
        raise ContractViolationError("basis rotation is not unitary within 1e-9")
    return np.clip(conjugate(rho, basis_unitary.m)[..., 0, 0].real, 0.0, 1.0)


def pbs_project(state: PolState, basis_unitary: JonesOp
                ) -> tuple[float, float]:
    """Port shares of a polarizing beamsplitter after a basis rotation.

    Returns (P(H), P(V)) = (p, 1 - p) in the rotated frame, p clipped to
    [0, 1]; a pulse of mean photon number mu sends mu * P(H) and mu * P(V)
    to the two ports.
    """
    _typed("state", state, PolState)
    _typed("basis_unitary", basis_unitary, JonesOp)
    p_h = float(pbs_shares(state.rho, basis_unitary))
    return p_h, 1.0 - p_h
