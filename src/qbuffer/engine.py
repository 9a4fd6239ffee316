"""Discrete-event propagation of pulses through the buffer.

One storage cycle is: a full traversal of the delay loop, routing at the
coupler, a round trip along the storage line, and re-entry into the loop.
The engine tracks each pulse record through these stages under a drive
schedule:

* A pulse entering the coupler splits into the two counter-propagating loop
  directions. The "near" direction meets the modulator ``modulator_offset_m``
  after entry, the "far" direction meets it near the end of the traversal.
  The phase difference accumulated from every drive window overlapping the
  two passage intervals fixes the power split at recombination:
  R = cos^2(dphi/2) back out the entry port, T = 1 - R out the other port.
* The external port leads through the circulator to the measurement stage;
  the internal port leads down the storage line to the grating mirror and
  back, which increments the cycle counter.

Records carry route and power only. Polarization never steers a pulse, so
the engine applies no depolarization; the state of a record that has
completed ``k`` cycles is entry ``k`` of
:func:`qbuffer.components.stored_states`.

The coupler makes every routing decision, so the one kind of event is a
coupler arrival, and each of its children is finished where the coupler
routes it: an exit child through the circulator to the measurement stage,
a storage child down the storage line and back to its next arrival.
Arrivals are processed in strict global time order with a monotonic
sequence number as tie-breaker, so results are bit-for-bit reproducible.
Every pure loss factor is folded into ``path_transmission``, and after a
run the engine audits that, per source pulse, the split fractions over all
terminal records sum to one.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .components import (
    BufferTopology,
    DrivePulse,
    PulseRecord,
    db_to_transmission,
    sagnac_transfer,
)
from .errors import (ContractViolationError, InputDomainError, _array,
                     _checked, _typed)


class EventLogEntry(NamedTuple):
    time_s: float
    pulse_id: int
    component: str
    port: str
    mu: float
    cycles: int


class ModulatorPassage(NamedTuple):
    """One pass of a pulse through the modulator, with the indices of the
    drives that overlap it."""

    root_id: int
    traversal: int
    direction: str  # "near" or "far"
    drives: tuple


@dataclass(frozen=True)
class DriveSchedule:
    """Time-ordered, non-overlapping high-voltage gates."""

    pulses: tuple = ()

    def __post_init__(self):
        pulses = _array("pulses", tuple, self.pulses,
                        "a sequence of DrivePulse")
        prev_end = -math.inf
        prev_start = -math.inf
        for i, d in enumerate(pulses):
            _typed(f"pulses[{i}]", d, DrivePulse)
            if d.t_start <= prev_start:
                raise InputDomainError(
                    "drive start times must be strictly increasing",
                    f"pulses[{i}]")
            if d.t_start < prev_end:
                raise InputDomainError(
                    f"drive at t={d.t_start} overlaps the previous one",
                    f"pulses[{i}]")
            prev_start, prev_end = d.t_start, d.t_end
        object.__setattr__(self, "pulses", pulses)

    def __len__(self):
        return len(self.pulses)


@dataclass(frozen=True)
class SimLimits:
    """Safety bounds on recirculation.

    ``mu_floor`` discards numerical-dust descendants from partial switching;
    exact vacuum pulses (mu == 0) are deliberately kept alive so that empty
    triggers still produce timing records.
    """

    max_cycles: int = 64
    mu_floor: float = 1e-12

    def __post_init__(self):
        _checked("max_cycles", self.max_cycles, ge=0, integer=True)
        _checked("mu_floor", self.mu_floor, ge=0)


@dataclass
class Violation:
    severity: str  # "error" or "warning"
    code: str
    message: str
    drive_index: int


@dataclass
class SimulationResult:
    """One :func:`simulate` run, with its inputs and its drive schedule."""

    retrieved: list
    discarded: list  # (PulseRecord, reason)
    event_log: list
    passages: list
    inputs: list
    schedule: DriveSchedule

    def __post_init__(self):
        _typed("schedule", self.schedule, DriveSchedule)
        for name in ("retrieved", "discarded", "event_log", "passages",
                     "inputs"):
            setattr(self, name, _array(name, list, getattr(self, name),
                                       "a sequence"))

    def retrieved_with_cycles(self, cycles: int) -> list:
        return [p for p in self.retrieved if p.cycles == cycles]

    def write_event_log_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("time_s,pulse_id,component,port,mu,cycles\n")
            for e in self.event_log:
                fh.write(f"{e.time_s!r},{e.pulse_id},{e.component},"
                         f"{e.port},{e.mu!r},{e.cycles}\n")


def storage_period(topology: BufferTopology) -> float:
    """Duration of one stored cycle: loop delay plus storage round trip."""
    _typed("topology", topology, BufferTopology)
    return topology.loop_delay_s() + 2.0 * topology.storage_delay_s()


def _drive_phases(schedule: DriveSchedule, start: float, width: float,
                  v_pi: float) -> tuple[float, tuple]:
    """Phase on one modulator passage, the sum of pi * (V / V_pi) * f over
    the drives with f the fraction of the passage each covers, and the
    indices of the drives with f > 0."""
    _checked("passage_start", start, label="passage start")
    _checked("passage_width", width, gt=0, label="passage width")
    _checked("v_pi", v_pi, gt=0, label="half-wave voltage")
    end = start + width
    phi = 0.0
    hits = []
    for i, d in enumerate(schedule.pulses):
        f = min(1.0, max(0.0, min(d.t_end, end) - max(d.t_start, start))
                / width)
        if f > 0.0:
            phi += math.pi * (d.voltage / v_pi) * f
            hits.append(i)
    return phi, tuple(hits)


def simulate(topology: BufferTopology, schedule: DriveSchedule,
             inputs: list, limits: SimLimits | None = None
             ) -> SimulationResult:
    """Propagate ``inputs`` through the buffer under ``schedule``.

    Inputs are pulse records at the routing-stage entry, ordered by time.
    Returns the pulses that exit toward the measurement stage, the pulses
    discarded by the safety limits, a time-ordered event log, the
    modulator passages and the schedule, for :func:`validate_schedule`.
    """
    _typed("topology", topology, BufferTopology)
    if limits is None:
        limits = SimLimits()
    _typed("limits", limits, SimLimits)
    _typed("schedule", schedule, DriveSchedule)
    inputs = _array("inputs", list, inputs, "a sequence of PulseRecord")
    for i, p in enumerate(inputs):
        _typed(f"inputs[{i}]", p, PulseRecord)
        if i and p.t < inputs[i - 1].t:
            raise InputDomainError("input pulses must be time-ordered")

    d_loop = topology.loop_delay_s()
    d_near = topology.near_passage_delay_s()
    d_far = topology.far_passage_delay_s()
    d_storage = topology.storage_delay_s()
    tr_traversal = db_to_transmission(topology.traversal_loss_db())
    tr_storage_rt = (db_to_transmission(
        2.0 * topology.element_loss_db("storage_fiber"))
        * topology.fbg_reflectivity)
    tr_in = db_to_transmission(topology.element_loss_db("input_path"))
    tr_out = db_to_transmission(
        topology.element_loss_db("circulator")
        + topology.element_loss_db("output_path"))

    retrieved: list = []
    discarded: list = []
    log: list = []
    passages: list = []

    new_ids = itertools.count(max((p.id for p in inputs), default=-1) + 1)
    seq = itertools.count()
    heap: list = []  # coupler arrivals: (time, seq, entry port, record)

    for p in inputs:
        log.append(EventLogEntry(p.t, p.id, "routing", "in", p.mu, p.cycles))
        entered = PulseRecord(p.id, p.t, p.width, p.mu * tr_in, p.cycles,
                              p.root_id, p.path_transmission * tr_in)
        heapq.heappush(heap, (entered.t, next(seq), "a", entered))

    while heap:
        # An arrival from the external side ("a") or the storage side
        # ("b"): one full loop traversal.
        t, _, entry_port, pulse = heapq.heappop(heap)
        log.append(EventLogEntry(t, pulse.id, "coupler", f"in_{entry_port}",
                                 pulse.mu, pulse.cycles))
        near, far = t + d_near, t + d_far
        phi_near, on_near = _drive_phases(schedule, near, pulse.width,
                                          topology.v_pi)
        phi_far, on_far = _drive_phases(schedule, far, pulse.width,
                                        topology.v_pi)
        for direction, start, drives in (("near", near, on_near),
                                         ("far", far, on_far)):
            passages.append(ModulatorPassage(pulse.root_id, pulse.cycles,
                                             direction, drives))
            log.append(EventLogEntry(start, pulse.id, "modulator", direction,
                                     pulse.mu, pulse.cycles))

        refl, trans = sagnac_transfer(phi_near - phi_far)
        t_rec = t + d_loop
        mu_rec = pulse.mu * tr_traversal
        tr_rec = pulse.path_transmission * tr_traversal
        # Reflection leaves by the entry port, transmission by the other.
        if entry_port == "a":
            branches = (("exit", refl), ("storage", trans))
        else:
            branches = (("storage", refl), ("exit", trans))
        child_ids = itertools.chain((pulse.id,), new_ids)
        for dest, fraction in branches:
            if fraction == 0.0:
                continue
            child_id = next(child_ids)
            mu, cyc = mu_rec * fraction, pulse.cycles
            log.append(EventLogEntry(t_rec, child_id, "coupler",
                                     f"out_{dest}", mu, cyc))
            if dest == "exit":
                # Through the circulator to the measurement stage.
                out = PulseRecord(child_id, t_rec, pulse.width, mu * tr_out,
                                  cyc, pulse.root_id, tr_rec * tr_out)
                log.append(EventLogEntry(t_rec, child_id, "circulator",
                                         "out", out.mu, cyc))
                if 0.0 < out.mu < limits.mu_floor:
                    discarded.append((out, "negligible"))
                else:
                    log.append(EventLogEntry(t_rec, child_id, "measurement",
                                             "in", out.mu, cyc))
                    retrieved.append(out)
            elif 0.0 < mu < limits.mu_floor:
                discarded.append((PulseRecord(child_id, t_rec, pulse.width,
                                              mu, cyc, pulse.root_id, tr_rec),
                                  "negligible"))
            else:
                # Down the storage line, off the grating mirror, and back.
                log.append(EventLogEntry(t_rec + d_storage, child_id, "fbg",
                                         "reflect", mu, cyc))
                back = PulseRecord(child_id, t_rec + 2.0 * d_storage,
                                   pulse.width, mu * tr_storage_rt, cyc + 1,
                                   pulse.root_id, tr_rec * tr_storage_rt)
                if back.cycles > limits.max_cycles:
                    discarded.append((back, "cycle limit"))
                elif 0.0 < back.mu < limits.mu_floor:
                    discarded.append((back, "negligible"))
                else:
                    heapq.heappush(heap, (back.t, next(seq), "b", back))

    retrieved.sort(key=lambda p: (p.t, p.id))
    discarded.sort(key=lambda pr: (pr[0].t, pr[0].id))
    # A stable sort: same-instant entries of one pulse keep their causal
    # (append) order.
    log.sort(key=lambda e: (e.time_s, e.pulse_id))
    result = SimulationResult(retrieved, discarded, log, passages, inputs,
                              schedule)
    _audit_conservation(result)
    return result


def _audit_conservation(result: SimulationResult) -> None:
    """Check that split fractions over all terminal records sum to one.

    For every terminal record, mu / path_transmission equals the source mu
    times the product of split fractions along its branch, so the terminal
    sum must reproduce the source mu exactly (to rounding).
    """
    per_root: dict[int, float] = {}
    for p in result.retrieved + [p for p, _ in result.discarded]:
        if not p.path_transmission:
            raise ContractViolationError(
                f"power audit failed for source pulse {p.root_id}: its path "
                "transmission underflowed to 0")
        per_root[p.root_id] = per_root.get(p.root_id, 0.0) + \
            p.mu / p.path_transmission
    for src in result.inputs:
        total = per_root.get(src.root_id, 0.0)
        ref = src.mu / src.path_transmission if src.path_transmission else 0.0
        if abs(total - ref) > 1e-9 * max(ref, 1.0):
            raise ContractViolationError(
                f"power audit failed for source pulse {src.id}: "
                f"{total} != {ref}")


def validate_schedule(result: SimulationResult) -> list[Violation]:
    """Diagnose the drive schedule of a :func:`simulate` run against the
    modulator passages of that run.

    Flags, per drive window:

    * ``unintended-readout`` (error): the window touches modulator passages
      of the same pulse lineage in two different traversals, i.e. it is
      still open when the pulse returns from the grating mirror. The safe
      margin is the storage round trip plus twice the near-arm delay.
    * ``both-directions`` (error): the window covers both counter-propagating
      passages of one traversal, cancelling its own switching phase.
    * ``no-op-drive`` (warning): the window overlaps no optical passage.

    Violations are ordered by drive index, then source pulse, then
    traversal.
    """
    _typed("result", result, SimulationResult)
    schedule = result.schedule
    # drive index -> source pulse -> traversal -> loop directions covered
    touched: list[dict] = [{} for _ in schedule.pulses]
    for m in result.passages:
        for i in m.drives:
            touched[i].setdefault(m.root_id, {}).setdefault(
                m.traversal, set()).add(m.direction)

    violations: list[Violation] = []
    for i, (d, roots) in enumerate(zip(schedule.pulses, touched)):
        if not roots:
            violations.append(Violation(
                "warning", "no-op-drive",
                f"drive {i} at t={d.t_start:.3e}s overlaps no optical "
                "passage", i))
        for root, directions in sorted(roots.items()):
            traversals = sorted(directions)
            if len(traversals) > 1:
                violations.append(Violation(
                    "error", "unintended-readout",
                    f"drive {i} is still open when pulse {root} returns "
                    f"from the storage line (touches traversals "
                    f"{traversals})", i))
            for trav in traversals:
                if len(directions[trav]) == 2:
                    violations.append(Violation(
                        "error", "both-directions",
                        f"drive {i} covers both loop directions of pulse "
                        f"{root} in traversal {trav}", i))
    return violations


def storage_retrieval_schedule(topology: BufferTopology,
                               input_pulse: PulseRecord,
                               cycles: int, drive_width: float = 180e-9,
                               voltage: float | None = None,
                               guard: float = 20e-9) -> DriveSchedule:
    """Schedule that stores a pulse and retrieves it after ``cycles`` cycles.

    Drives target the far-arm modulator passage, opening ``guard`` seconds
    before the pulse reaches the modulator. Placing the window at the late
    passage keeps it clear of the short-arm passage of the same traversal,
    and, provided the drive is shorter than the storage round trip plus
    twice the near-arm delay, of the return pass as well. ``cycles == 0``
    needs no drive at all: the balanced loop already reflects the pulse to
    the measurement stage.
    """
    _typed("topology", topology, BufferTopology)
    _typed("input_pulse", input_pulse, PulseRecord)
    _checked("cycles", cycles, ge=0, integer=True, label="cycle count")
    _checked("guard", guard, ge=0)
    if cycles == 0:
        return DriveSchedule()
    if voltage is None:
        voltage = topology.v_pi
    t0 = input_pulse.t  # coupler entry; patch delays are loss-only
    period = storage_period(topology)
    d_far = topology.far_passage_delay_s()
    store = DrivePulse(t0 + d_far - guard, drive_width, voltage)
    retrieve = DrivePulse(t0 + cycles * period + d_far - guard,
                          drive_width, voltage)
    return DriveSchedule((store, retrieve))

