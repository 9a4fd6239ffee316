import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qbuffer.components import (
    C_VACUUM,
    BufferTopology,
    DrivePulse,
    PulseRecord,
    db_to_transmission,
    fiber_delay,
    generate_pulse_train,
    pbs_project,
    sagnac_transfer,
    stored_states,
)
from qbuffer.detection import (
    DetectorModel,
    TriggerTrain,
    click_probability,
    count_triggered,
    histogram,
)
from qbuffer.engine import (
    DriveSchedule,
    SimLimits,
    _drive_phases,
    simulate,
    storage_period,
    storage_retrieval_schedule,
)
from qbuffer.errors import ContractViolationError, InputDomainError
from qbuffer.experiments import (
    CalibrationResult,
    ExperimentConfig,
    apply_calibration,
    calibrate,
    fit_decay,
    linearized_counts,
    run_hwp_sweep,
    run_retrieval_sweep,
)
from qbuffer.polarization import (
    AXIS_H,
    AXIS_V,
    STATE_D,
    STATE_H,
    JonesOp,
    PolState,
    apply_depolarizing,
    apply_unitary,
    hwp_matrix,
    projection_probability,
)


class TestPulseTrain:
    def test_kilohertz_spacing(self):
        train = generate_pulse_train(1000.0, 50e-9, 0.1, 3)
        assert [p.t for p in train] == [0.0, 1e-3, 2e-3]
        assert all(p.width == 50e-9 and p.mu == 0.1 for p in train)

    def test_single_pulse_at_origin(self):
        (p,) = generate_pulse_train(76e6, 1e-12, 0.5, 1)
        assert p.t == 0.0

    def test_vacuum_train_is_valid(self):
        train = generate_pulse_train(1000.0, 50e-9, 0.0, 2)
        assert all(p.mu == 0.0 for p in train)

    def test_ids_distinct(self):
        train = generate_pulse_train(1000.0, 50e-9, 0.1, 16)
        assert len({p.id for p in train}) == 16

    @pytest.mark.parametrize("kwargs", [
        dict(rep_rate=0.0), dict(rep_rate=-1.0), dict(rep_rate=math.inf),
        dict(pulse_width=0.0),
        dict(n=0), dict(mu=-0.1), dict(n=2.5), dict(n=True),
    ])
    def test_domain(self, kwargs):
        args = dict(rep_rate=1000.0, pulse_width=50e-9, mu=0.1, n=2)
        args.update(kwargs)
        with pytest.raises(InputDomainError):
            generate_pulse_train(**args)


class TestAttenuate:
    """Attenuation by a loss in dB, the rule behind every loss element."""

    def test_zero_loss(self):
        assert db_to_transmission(0.0) == 1.0

    def test_modulator_insertion_loss(self):
        assert db_to_transmission(0.4) == pytest.approx(10 ** (-0.04),
                                                        rel=1e-12)

    def test_three_db(self):
        assert db_to_transmission(3.0) == pytest.approx(10 ** (-0.3),
                                                        rel=1e-12)

    @given(st.floats(0.0, 60.0), st.floats(0.0, 60.0))
    def test_monotone_and_composable(self, a, b):
        tr = db_to_transmission(a) * db_to_transmission(b)
        assert tr <= 1.0
        assert tr == pytest.approx(10 ** (-(a + b) / 10), rel=1e-9)

    @pytest.mark.parametrize("loss_db", [
        math.nan, math.inf, -math.inf, -1.0, "x", None, True])
    def test_rejected(self, loss_db):
        with pytest.raises(InputDomainError) as info:
            db_to_transmission(loss_db)
        assert info.value.field == "loss_db"


class TestFiberDelay:
    def test_zero_length(self):
        assert fiber_delay(0.0, 1.468) == 0.0

    def test_loop_kilometer(self):
        assert fiber_delay(1000.0, 1.468) == pytest.approx(
            1000.0 * 1.468 / C_VACUUM, rel=1e-15)
        assert fiber_delay(1000.0, 1.468) == pytest.approx(4.8967e-6,
                                                           rel=1e-4)

    def test_storage_round_trip(self):
        assert fiber_delay(200.0, 1.468) == pytest.approx(
            200.0 * 1.468 / C_VACUUM, rel=1e-15)
        assert fiber_delay(200.0, 1.468) == pytest.approx(0.97934e-6,
                                                          rel=1e-4)

    def test_domain(self):
        with pytest.raises(InputDomainError):
            fiber_delay(-1.0, 1.468)
        with pytest.raises(InputDomainError):
            fiber_delay(1.0, 0.99)

    @pytest.mark.parametrize("length, index", [
        (math.nan, 1.47), (10.0, math.nan), (math.inf, 1.47),
        (10.0, math.inf)])
    def test_domain_rejects_nan_and_inf(self, length, index):
        with pytest.raises(InputDomainError):
            fiber_delay(length, index)


def one_drive_phase(drive, passage_start, passage_width, v_pi):
    """Phase of one passage under ``drive`` alone (None: no drive)."""
    schedule = DriveSchedule(() if drive is None else (drive,))
    return _drive_phases(schedule, passage_start, passage_width, v_pi)[0]


class TestModulatorPhase:
    """The phase rule of the engine's modulator passages."""

    def test_no_drive(self):
        assert _drive_phases(DriveSchedule(), 0.0, 50e-9, 900.0) == (0.0, ())

    def test_full_overlap_at_half_wave_voltage(self):
        drive = DrivePulse(-20e-9, 180e-9, 900.0)
        assert one_drive_phase(drive, 0.0, 50e-9, 900.0) == pytest.approx(
            math.pi, rel=1e-15)

    def test_half_overlap(self):
        # Oracle: interval arithmetic by hand. Passage [0, 100 ns); a drive
        # open over [50 ns, 1050 ns) covers exactly half of it.
        drive = DrivePulse(50e-9, 1000e-9, 900.0)
        assert one_drive_phase(drive, 0.0, 100e-9, 900.0) == pytest.approx(
            math.pi / 2, rel=1e-12)

    def test_overlapping_drives_add_and_are_named(self):
        drives = (DrivePulse(-1e-6, 100e-9, 900.0),
                  DrivePulse(-20e-9, 40e-9, 900.0),
                  DrivePulse(30e-9, 100e-9, 450.0))
        phi, hits = _drive_phases(DriveSchedule(drives), 0.0, 50e-9, 900.0)
        # Oracle: the second drive covers [0, 20 ns) of the passage, the
        # third [30, 50 ns) at half the voltage.
        assert hits == (1, 2)
        assert phi == pytest.approx(math.pi * (0.4 + 0.5 * 0.4), rel=1e-12)

    @given(st.floats(-1e-6, 1e-6), st.floats(1e-9, 1e-6),
           st.floats(0.0, 2000.0))
    def test_matches_brute_force_overlap(self, start, width, voltage):
        drive = DrivePulse(start, width, voltage)
        p_start, p_width = 0.0, 50e-9
        grid = np.linspace(p_start, p_start + p_width, 2001)
        centers = (grid[:-1] + grid[1:]) / 2
        inside = (centers >= drive.t_start) & (centers < drive.t_end)
        frac = inside.mean()
        got = one_drive_phase(drive, p_start, p_width, 900.0)
        assert got == pytest.approx(math.pi * voltage / 900.0 * frac,
                                    abs=math.pi * 1e-3)

    def test_voltage_scaling(self):
        drive = DrivePulse(-20e-9, 180e-9, 450.0)
        assert one_drive_phase(drive, 0.0, 50e-9, 900.0) == pytest.approx(
            math.pi / 2, rel=1e-15)

    def test_domain(self):
        with pytest.raises(InputDomainError):
            one_drive_phase(None, 0.0, 0.0, 900.0)
        with pytest.raises(InputDomainError):
            one_drive_phase(None, 0.0, 50e-9, 0.0)

    @pytest.mark.parametrize("args", [
        (0.0, math.nan, 900.0), (0.0, 50e-9, math.nan),
        (math.nan, 50e-9, 900.0), (0.0, math.inf, 900.0),
        (0.0, 50e-9, math.inf), (math.inf, 50e-9, 900.0)])
    @pytest.mark.parametrize(
        "drive", [None, DrivePulse(-20e-9, 180e-9, 900.0)],
        ids=["no-drive", "drive"])
    def test_domain_rejects_nan_and_inf(self, drive, args):
        # A NaN width or V_pi used to give pi or nan, a NaN start 0.0.
        with pytest.raises(InputDomainError):
            one_drive_phase(drive, *args)


class TestSagnacTransfer:
    def test_balanced_loop_reflects(self):
        assert sagnac_transfer(0.0) == (1.0, 0.0)

    def test_pi_switch_routes(self):
        r, t = sagnac_transfer(math.pi)
        assert r == pytest.approx(0.0, abs=1e-12)
        assert t == pytest.approx(1.0, abs=1e-12)

    def test_half_pi_splits_evenly(self):
        r, t = sagnac_transfer(math.pi / 2)
        assert r == pytest.approx(0.5, abs=1e-12)
        assert t == pytest.approx(0.5, abs=1e-12)

    @given(st.floats(-100.0, 100.0))
    def test_completeness(self, dphi):
        r, t = sagnac_transfer(dphi)
        assert r + t == 1.0
        assert 0.0 <= r <= 1.0


class TestPbsProject:
    def test_h_in_computational_basis(self):
        p_h, p_v = pbs_project(STATE_H, JonesOp.identity())
        assert p_h == pytest.approx(1.0, abs=1e-15)
        assert p_v == pytest.approx(0.0, abs=1e-15)

    def test_diagonal_splits_evenly(self):
        p_h, p_v = pbs_project(STATE_D, JonesOp.identity())
        assert p_h == pytest.approx(0.5, abs=1e-12)
        assert p_v == pytest.approx(0.5, abs=1e-12)

    def test_depolarized_h_split(self):
        pol = apply_depolarizing(STATE_H, 0.1)
        p_h, p_v = pbs_project(pol, JonesOp.identity())
        # Oracle: projection probabilities of the same state.
        assert p_h == pytest.approx(projection_probability(pol, AXIS_H),
                                    rel=1e-12)
        assert p_v == pytest.approx(projection_probability(pol, AXIS_V),
                                    rel=1e-12)
        assert p_h == pytest.approx(0.95, rel=1e-12)

    @given(st.floats(0.0, 1.0), st.floats(-3.0, 3.0))
    def test_power_conserved(self, depol, theta):
        pol = apply_depolarizing(STATE_H, depol)
        p_h, p_v = pbs_project(pol, hwp_matrix(theta))
        assert 0.0 <= p_h <= 1.0
        assert p_h + p_v == 1.0

    def test_non_unitary_rotation_rejected(self):
        with pytest.raises(ContractViolationError):
            pbs_project(STATE_H, JonesOp(np.array([[1.0, 0.0], [0.0, 0.0]])))


def covered_fraction(drive, passage_start, passage_width):
    """Fraction of the passage ``drive`` covers: its phase over pi with
    the drive at the half-wave voltage."""
    return one_drive_phase(drive, passage_start, passage_width,
                           drive.voltage) / math.pi


class TestOverlapFraction:
    def test_clamped_to_unit_interval(self):
        drive = DrivePulse(-1.0, 10.0, 900.0)
        assert covered_fraction(drive, 4.8e-6, 50e-9) == 1.0

    def test_disjoint(self):
        drive = DrivePulse(10.0, 1.0, 900.0)
        assert covered_fraction(drive, 0.0, 50e-9) == 0.0

    @pytest.mark.parametrize("start, width, field", [
        (0.0, 0.0, "passage_width"), (0.0, -1e-9, "passage_width"),
        (0.0, math.nan, "passage_width"), (0.0, math.inf, "passage_width"),
        (0.0, "x", "passage_width"), (0.0, True, "passage_width"),
        (math.nan, 50e-9, "passage_start"),
        (-math.inf, 50e-9, "passage_start")])
    def test_rejected(self, start, width, field):
        drive = DrivePulse(0.0, 1.0, 900.0)
        with pytest.raises(InputDomainError) as info:
            covered_fraction(drive, start, width)
        assert info.value.field == field


class TestBufferTopology:
    def test_default_loss_budget(self):
        topo = BufferTopology()
        assert topo.traversal_loss_db() == pytest.approx(0.6)
        assert topo.cycle_loss_db() == pytest.approx(0.64)
        # Routing-stage input to measurement-stage input, zero cycles.
        assert (topo.element_loss_db("input_path") + topo.traversal_loss_db()
                + topo.element_loss_db("circulator")
                + topo.element_loss_db("output_path")) == pytest.approx(1.2)

    def test_fbg_reflectivity_in_cycle_loss(self):
        topo = BufferTopology(fbg_reflectivity=0.5)
        assert topo.cycle_loss_db() == pytest.approx(
            0.64 + 10 * math.log10(2.0), rel=1e-12)

    def test_depol_table_indexing(self):
        topo = BufferTopology(depol_per_cycle=(0.1, 0.2))
        assert topo.depol_for_cycle(1) == 0.1
        assert topo.depol_for_cycle(2) == 0.2
        assert topo.depol_for_cycle(9) == 0.2
        with pytest.raises(InputDomainError):
            topo.depol_for_cycle(0)

    def test_scalar_depol_becomes_table(self):
        topo = BufferTopology(depol_per_cycle=0.05)
        assert topo.depol_per_cycle == (0.05,)

    @pytest.mark.parametrize("kwargs", [
        dict(loop_length_m=0.0),
        dict(storage_length_m=-1.0),
        dict(group_index=0.5),
        dict(modulator_offset_m=2000.0),
        dict(v_pi=0.0),
        dict(fbg_reflectivity=1.5),
        dict(depol_per_cycle=(0.5, 1.5)),
        dict(prep_error_depol=-0.1),
        dict(per_element_loss_db={"no_such_element": 1.0}),
        dict(per_element_loss_db={"circulator": -1.0}),
    ])
    def test_domain(self, kwargs):
        with pytest.raises(InputDomainError):
            BufferTopology(**kwargs)

    def test_degenerate_storage_line(self):
        topo = BufferTopology(storage_length_m=0.0)
        assert topo.storage_delay_s() == 0.0


class TestPulseRecordValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(width=0.0), dict(mu=-1e-9), dict(cycles=-1),
    ])
    def test_domain(self, kwargs):
        args = dict(id=0, t=0.0, width=50e-9, mu=0.1)
        args.update(kwargs)
        with pytest.raises(InputDomainError):
            PulseRecord(**args)

    def test_root_defaults_to_own_id(self):
        p = PulseRecord(id=7, t=0.0, width=1e-9, mu=0.1)
        assert p.root_id == 7


def _pulse(**kwargs):
    return PulseRecord(**{**dict(id=0, t=0.0, width=50e-9, mu=0.1),
                          **kwargs})


#: Valid models for the rows that pass a wrong type to another argument.
_CONFIG = ExperimentConfig(mode="analytic", eta_list=(1, 2))
_CAL = CalibrationResult("table", 0.0, (0.0,), {}, {1: 0.9})


class TestConstructorDomain:
    """Every model constructor, and each entry point below, rejects a
    non-number, a bool, NaN, inf or an out-of-range value with
    InputDomainError naming the field."""

    @pytest.mark.parametrize("build, field", [
        (lambda: BufferTopology(loop_length_m=math.inf), "loop_length_m"),
        (lambda: BufferTopology(group_index=math.inf), "group_index"),
        (lambda: BufferTopology(v_pi=math.nan), "v_pi"),
        (lambda: BufferTopology(modulator_loss_db=True),
         "modulator_loss_db"),
        (lambda: BufferTopology(storage_length_m="x"), "storage_length_m"),
        (lambda: BufferTopology(per_element_loss_db={"circulator": math.nan}),
         "per_element_loss_db.circulator"),
        (lambda: DrivePulse(math.nan), "t_start"),
        (lambda: DriveSchedule((DrivePulse(math.nan), DrivePulse(math.nan))),
         "t_start"),
        (lambda: SimLimits(max_cycles=2.5), "max_cycles"),
        (lambda: SimLimits(mu_floor=math.nan), "mu_floor"),
        (lambda: _pulse(t=math.nan), "t"),
        (lambda: _pulse(mu=math.nan), "mu"),
        (lambda: _pulse(cycles=math.nan), "cycles"),
        (lambda: _pulse(cycles=2.5), "cycles"),
        (lambda: _pulse(cycles=True), "cycles"),
        (lambda: _pulse(id=math.nan), "id"),
        (lambda: _pulse(id=1.5), "id"),
        (lambda: _pulse(id=True), "id"),
        (lambda: _pulse(root_id=2.5), "root_id"),
        (lambda: _pulse(root_id=True), "root_id"),
        (lambda: _pulse(path_transmission=math.nan), "path_transmission"),
        (lambda: _pulse(path_transmission=-1.0), "path_transmission"),
        (lambda: _pulse(path_transmission=1.5), "path_transmission"),
        (lambda: ExperimentConfig(hwp_angles=("0", 0.5, 1.0, 1.6)),
         "hwp_angles[0]"),
        (lambda: ExperimentConfig(eta_list=(1, 2, 2.5)), "eta_list[2]"),
        (lambda: ExperimentConfig(eta_list=(3, 1, np.int64(3))),
         "eta_list[2]"),
        (lambda: DetectorModel(efficiency="0.5"), "efficiency"),
        (lambda: storage_retrieval_schedule(BufferTopology(), _pulse(), 2.5),
         "cycles"),
        (lambda: stored_states(BufferTopology(), STATE_H, 2.5),
         "max_cycles"),
        (lambda: fit_decay([(1, math.inf), (2, 1.0)]), "peaks[0].counts"),
        (lambda: fit_decay([(1.5, 2.0), (3, 1.0)]), "peaks[0].eta"),
        (lambda: BufferTopology().depol_for_cycle(2.5), "cycle"),
        (lambda: BufferTopology().depol_for_cycle(math.nan), "cycle"),
        (lambda: BufferTopology().depol_for_cycle(True), "cycle"),
        (lambda: fiber_delay(True, 1.5), "length_m"),
        (lambda: fiber_delay("1", 1.5), "length_m"),
        (lambda: sagnac_transfer(True), "delta_phi"),
        (lambda: sagnac_transfer("x"), "delta_phi"),
        (lambda: one_drive_phase(None, "x", 1e-7, 900.0), "passage_start"),
        (lambda: apply_depolarizing(STATE_H, True), "p"),
        (lambda: PulseRecord(0, "x", 5e-8, 0.1), "t"),
        (lambda: _pulse(mu=True), "mu"),
        (lambda: generate_pulse_train(True, 5e-8, 0.1, 1), "rep_rate"),
        (lambda: storage_retrieval_schedule(BufferTopology(), _pulse(), 2,
                                            guard=math.nan), "guard"),
        (lambda: PolState([["a", "b"], ["c", "d"]]), "rho"),
        (lambda: PolState.from_jones(["a", 1]), "vec"),
        (lambda: JonesOp([["a", 0], [0, 1]]), "m"),
        (lambda: projection_probability(STATE_H, ["a", 1]), "axis"),
        (lambda: PolState.from_jones([1, 0, 0]), "vec"),
        (lambda: projection_probability(STATE_H, [1, 0, 0]), "axis"),
        (lambda: PolState([[1, 0, 0]]), "rho"),
        (lambda: JonesOp([[1, 0, 0], [0, 1, 0]]), "m"),
        (lambda: ExperimentConfig(eta_list=5), "eta_list"),
        (lambda: ExperimentConfig(hwp_angles=5), "hwp_angles"),
        (lambda: TriggerTrain(1.0, 1, 5, 5), "offsets"),
        (lambda: TriggerTrain(1.0, 1, (0.5,), 5), "mus"),
        (lambda: simulate(BufferTopology(), 5, [_pulse()]), "schedule"),
        (lambda: simulate(BufferTopology(), 5, []), "schedule"),
        (lambda: simulate(BufferTopology(), DriveSchedule(), 5), "inputs"),
        (lambda: histogram(np.array([0.1]), 0.0, 1.0, 4), "clicks"),
        (lambda: count_triggered([0.1], 1.0, 0.5, 0.1), "clicks"),
        (lambda: click_probability(0.1, 5, 1e-7), "det"),
        (lambda: linearized_counts([1.0], 10, 5, 1e-7), "det"),
        (lambda: calibrate({1: 0.9}, BufferTopology(), _CONFIG, 5), "det"),
        (lambda: calibrate({1: 0.9}, BufferTopology(), 5, DetectorModel()),
         "config"),
        (lambda: run_hwp_sweep(5, BufferTopology(), DetectorModel()),
         "config"),
        (lambda: run_retrieval_sweep(5, BufferTopology(), DetectorModel()),
         "config"),
        (lambda: run_retrieval_sweep(_CONFIG, 5, DetectorModel()),
         "topology"),
        (lambda: storage_period(5), "topology"),
        (lambda: storage_retrieval_schedule(5, _pulse(), 2), "topology"),
        (lambda: storage_retrieval_schedule(5, _pulse(), 0), "topology"),
        (lambda: stored_states(5, STATE_H, 2), "topology"),
        (lambda: stored_states(BufferTopology(), 5, 2), "pol"),
        (lambda: apply_calibration(5, _CAL), "topology"),
        (lambda: apply_calibration(BufferTopology(), 5), "cal"),
        (lambda: pbs_project(5, JonesOp.identity()), "state"),
        (lambda: pbs_project(STATE_H, 5), "basis_unitary"),
        (lambda: apply_unitary(5, JonesOp.identity()), "state"),
        (lambda: apply_unitary(STATE_H, 5), "u"),
        (lambda: apply_depolarizing(5, 0.1), "state"),
        (lambda: projection_probability(5, AXIS_H), "state"),
        (lambda: DriveSchedule(5), "pulses"),
        (lambda: fit_decay(5), "peaks"),
        (lambda: fit_decay([5, 6]), "peaks"),
        (lambda: fit_decay([(1,)]), "peaks"),
    ], ids=[
        "topology-inf-loop", "topology-inf-group-index", "topology-nan-v-pi",
        "topology-bool-loss", "topology-str-length", "topology-nan-element",
        "drive-nan", "schedule-nan-drives", "limits-fractional-cycles",
        "limits-nan-floor", "record-nan-t", "record-nan-mu",
        "record-nan-cycles", "record-fractional-cycles",
        "record-bool-cycles", "record-nan-id", "record-fractional-id",
        "record-bool-id", "record-fractional-root-id", "record-bool-root-id",
        "record-nan-transmission",
        "record-negative-transmission", "record-transmission-above-one",
        "experiment-str-angle", "experiment-fractional-eta",
        "experiment-repeated-eta",
        "detector-str-efficiency", "schedule-fractional-cycles",
        "stored-fractional-cycles", "decay-inf-counts",
        "decay-fractional-eta", "depol-cycle-fractional", "depol-cycle-nan",
        "depol-cycle-bool", "fiber-bool-length", "fiber-str-length",
        "sagnac-bool-phase", "sagnac-str-phase", "phase-str-start",
        "depolarizing-bool-p", "record-str-t", "record-bool-mu",
        "train-bool-rate", "schedule-nan-guard", "polstate-str-rho",
        "jones-str-vec", "jonesop-str-m", "projection-str-axis",
        "jones-three-vec", "projection-three-axis", "polstate-shape-rho",
        "jonesop-shape-m", "experiment-int-etas", "experiment-int-angles",
        "train-int-offsets", "train-int-mus", "simulate-int-schedule",
        "simulate-int-schedule-no-inputs", "simulate-int-inputs",
        "histogram-array-clicks", "count-list-clicks",
        "click-probability-int-det", "linearized-int-det",
        "calibrate-int-det", "calibrate-int-config", "hwp-sweep-int-config",
        "retrieval-sweep-int-config", "retrieval-sweep-int-topology",
        "period-int-topology", "schedule-int-topology",
        "schedule-int-topology-no-cycles", "stored-int-topology",
        "stored-int-pol", "apply-calibration-int-topology",
        "apply-calibration-int-cal", "pbs-int-state", "pbs-int-basis",
        "unitary-int-state", "unitary-int-u", "depolarizing-int-state",
        "projection-int-state", "drive-schedule-int",
        "decay-int-peaks", "decay-int-pairs", "decay-short-pair"])
    def test_rejected_with_field(self, build, field):
        with pytest.raises(InputDomainError) as info:
            build()
        assert info.value.field == field
        # A sequence of model objects is not asked to hold numbers.
        what = {"schedule": "a DriveSchedule, not int",
                "pulses": "a sequence of DrivePulse",
                "inputs": "a sequence of PulseRecord",
                "peaks": "a sequence of (eta, counts) pairs"}.get(field)
        assert what is None or str(info.value) == f"{field} must be {what}"
