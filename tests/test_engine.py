import csv
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qbuffer.components import (
    BufferTopology,
    DrivePulse,
    db_to_transmission,
    fiber_delay,
    generate_pulse_train,
    stored_states,
)
from qbuffer.engine import (
    DriveSchedule,
    SimLimits,
    simulate,
    storage_period,
    storage_retrieval_schedule,
    validate_schedule,
)
from qbuffer.errors import InputDomainError
from qbuffer.polarization import STATE_D, STATE_H


def closed_form_bloch(prep, table, cycles):
    """Bloch length after the preparation error and ``cycles`` cycles of a
    per-cycle table whose last entry repeats: (1 - prep) * prod(1 - p_k)."""
    per_cycle = [table[min(k, len(table)) - 1] for k in range(1, cycles + 1)]
    return (1.0 - prep) * math.prod(1.0 - p for p in per_cycle)


@pytest.fixture
def topo():
    return BufferTopology()


@pytest.fixture
def pulse():
    return generate_pulse_train(1000.0, 50e-9, 0.1, 1)[0]


def mirror_run(topology, pulses):
    return simulate(topology, DriveSchedule(), pulses)


class TestStoragePeriod:
    def test_default_geometry(self, topo):
        # Oracle: sum of the independent fiber-delay evaluations.
        expected = fiber_delay(1000.0, 1.468) + fiber_delay(200.0, 1.468)
        assert storage_period(topo) == pytest.approx(expected, rel=1e-15)
        assert storage_period(topo) == pytest.approx(5.876e-6, rel=5e-4)

    def test_eight_periods_near_47_microseconds(self, topo):
        assert 8 * storage_period(topo) == pytest.approx(47.0e-6, rel=0.01)

    def test_degenerate_storage_line(self):
        topo = BufferTopology(storage_length_m=0.0)
        assert storage_period(topo) == topo.loop_delay_s()


class TestDriveSchedule:
    def test_ordering_enforced(self):
        with pytest.raises(InputDomainError):
            DriveSchedule((DrivePulse(1e-6), DrivePulse(0.5e-6)))

    def test_overlap_rejected(self):
        with pytest.raises(InputDomainError):
            DriveSchedule((DrivePulse(0.0, 200e-9), DrivePulse(100e-9)))

    def test_valid(self):
        s = DriveSchedule((DrivePulse(0.0), DrivePulse(1e-6)))
        assert len(s) == 2


class TestMirrorBehavior:
    def test_direct_reflection(self, topo, pulse):
        res = mirror_run(topo, [pulse])
        assert len(res.retrieved) == 1
        out = res.retrieved[0]
        assert out.cycles == 0
        # Hand-summed path: only the loop contributes delay.
        assert out.t == pytest.approx(pulse.t + topo.loop_delay_s(),
                                      abs=1e-12)
        direct_pass_db = (topo.element_loss_db("input_path")
                          + topo.traversal_loss_db()
                          + topo.element_loss_db("circulator")
                          + topo.element_loss_db("output_path"))
        assert out.mu == pytest.approx(
            0.1 * db_to_transmission(direct_pass_db), rel=1e-12)

    def test_no_discards_in_mirror_mode(self, topo, pulse):
        res = mirror_run(topo, [pulse])
        assert res.discarded == []

    def test_vacuum_pulse_keeps_timing(self, topo):
        vac = generate_pulse_train(1000.0, 50e-9, 0.0, 1)[0]
        res = mirror_run(topo, [vac])
        assert len(res.retrieved) == 1
        assert res.retrieved[0].mu == 0.0
        assert res.retrieved[0].t == pytest.approx(topo.loop_delay_s())


class TestStoreAndRetrieve:
    @pytest.mark.parametrize("k", [1, 2, 8, 32])
    def test_exit_time_offset(self, topo, pulse, k):
        direct = mirror_run(topo, [pulse]).retrieved[0]
        sched = storage_retrieval_schedule(topo, pulse, k)
        res = simulate(topo, sched, [pulse])
        (out,) = res.retrieved_with_cycles(k)
        assert abs(out.t - direct.t - k * storage_period(topo)) < 1e-9

    def test_eight_cycles_spans_47_microseconds(self, topo, pulse):
        direct = mirror_run(topo, [pulse]).retrieved[0]
        sched = storage_retrieval_schedule(topo, pulse, 8)
        (out,) = simulate(topo, sched, [pulse]).retrieved_with_cycles(8)
        assert out.t - direct.t == pytest.approx(47.0e-6, rel=0.01)

    def test_per_cycle_power_law(self, topo, pulse):
        direct = mirror_run(topo, [pulse]).retrieved[0]
        r = db_to_transmission(topo.cycle_loss_db())
        for k in range(1, 9):
            sched = storage_retrieval_schedule(topo, pulse, k)
            (out,) = simulate(topo, sched, [pulse]).retrieved_with_cycles(k)
            assert out.mu / direct.mu == pytest.approx(r ** k, rel=1e-9)

    def test_hand_traced_single_cycle_loss(self, pulse):
        # Oracle: hand-multiplied chain of element transmissions.
        topo = BufferTopology(fbg_reflectivity=0.9)
        sched = storage_retrieval_schedule(topo, pulse, 1)
        (out,) = simulate(topo, sched, [pulse]).retrieved_with_cycles(1)
        chain = (db_to_transmission(0.4 + 0.2 + 0.0)   # traversal 1
                 * db_to_transmission(2 * 0.02) * 0.9  # storage round trip
                 * db_to_transmission(0.4 + 0.2 + 0.0)  # traversal 2
                 * db_to_transmission(0.6))            # circulator out
        assert out.mu == pytest.approx(0.1 * chain, rel=1e-12)

    def test_depolarization_applied_per_cycle(self, pulse):
        # The state of a record retrieved after 3 cycles is entry 3 of the
        # stored-state table: the preparation error, then 3 cycles.
        topo = BufferTopology(depol_per_cycle=0.1, prep_error_depol=0.05)
        sched = storage_retrieval_schedule(topo, pulse, 3)
        (out,) = simulate(topo, sched, [pulse]).retrieved_with_cycles(3)
        state = stored_states(topo, STATE_D, 3)[out.cycles]
        assert np.linalg.norm(state.bloch_vector) == pytest.approx(
            0.95 * 0.9 ** 3, rel=1e-12)

    def test_purity_monotone_in_cycles(self):
        topo = BufferTopology(depol_per_cycle=(0.07, 0.0, 0.2))
        states = stored_states(topo, STATE_H, 5)
        lengths = [float(np.linalg.norm(s.bloch_vector)) for s in states]
        assert lengths == pytest.approx(
            [closed_form_bloch(0.0, (0.07, 0.0, 0.2), k) for k in range(6)],
            rel=1e-12)
        assert all(a >= b - 1e-12 for a, b in zip(lengths, lengths[1:]))
        purities = [float(np.trace(s.rho @ s.rho).real) for s in states]
        assert all(a >= b - 1e-12 for a, b in zip(purities, purities[1:]))

    def test_retrieval_convention_eta_is_cycles_plus_one(self, topo, pulse):
        # Retrieval setting 1 is the direct reflection: zero storage cycles.
        res = mirror_run(topo, [pulse])
        assert res.retrieved[0].cycles == 0


class TestLimits:
    def test_cycle_limit_reached(self, topo, pulse):
        store_only = DriveSchedule(
            storage_retrieval_schedule(topo, pulse, 1).pulses[:1])
        res = simulate(topo, store_only, [pulse], SimLimits(max_cycles=3))
        reasons = [r for _, r in res.discarded]
        assert "cycle limit" in reasons
        limited = [p for p, r in res.discarded if r == "cycle limit"]
        assert limited[0].cycles == 4

    def test_mu_floor_discards_dust(self, topo, pulse):
        # A weak drive leaks a small fraction each pass; a high floor
        # sweeps the leakage into the discard list.
        sched = storage_retrieval_schedule(topo, pulse, 1, voltage=450.0)
        res = simulate(topo, sched, [pulse], SimLimits(mu_floor=1e-3))
        assert any(r == "negligible" for _, r in res.discarded)

    def test_unordered_inputs_rejected(self, topo):
        train = generate_pulse_train(1000.0, 50e-9, 0.1, 2)
        with pytest.raises(InputDomainError):
            simulate(topo, DriveSchedule(), list(reversed(train)))

    @pytest.mark.parametrize("args, field", [
        (lambda topo, p: (topo, DriveSchedule(), [(0.0, 0.1)]), "inputs[0]"),
        (lambda topo, p: (topo, DriveSchedule(), [p, "x"]), "inputs[1]"),
        (lambda topo, p: (topo, DriveSchedule(), [p], 64), "limits"),
        (lambda topo, p: (None, DriveSchedule(), [p]), "topology"),
    ], ids=["tuple-input", "str-input", "int-limits", "no-topology"])
    def test_bad_argument_named(self, topo, pulse, args, field):
        with pytest.raises(InputDomainError) as info:
            simulate(*args(topo, pulse))
        assert info.value.field == field

    def test_generator_inputs(self, topo):
        train = generate_pulse_train(1000.0, 50e-9, 0.1, 2)
        res = simulate(topo, DriveSchedule(), (p for p in train))
        assert res.inputs == train
        assert len(res.retrieved) == 2

    def test_schedule_needs_a_pulse_record(self, topo):
        with pytest.raises(InputDomainError) as info:
            storage_retrieval_schedule(topo, None, 2)
        assert info.value.field == "input_pulse"


class TestDeterminism:
    def test_identical_runs_bit_for_bit(self, topo, pulse):
        sched = storage_retrieval_schedule(topo, pulse, 2, voltage=700.0)
        a = simulate(topo, sched, [pulse])
        b = simulate(topo, sched, [pulse])
        assert a.event_log == b.event_log
        assert [(p.id, p.t, p.mu) for p in a.retrieved] == \
               [(p.id, p.t, p.mu) for p in b.retrieved]
        assert [(p.id, p.t, p.mu, r) for p, r in a.discarded] == \
               [(p.id, p.t, p.mu, r) for p, r in b.discarded]


class TestConservation:
    @given(st.floats(0.0, 1.0), st.floats(100.0, 900.0))
    def test_audit_with_partial_drives(self, frac, voltage):
        # Slide a drive across the far passage; every split must keep the
        # per-lineage power audit closed (simulate raises otherwise).
        topo = BufferTopology()
        pulse = generate_pulse_train(1000.0, 50e-9, 0.1, 1)[0]
        d_far = topo.far_passage_delay_s()
        start = d_far - 180e-9 + frac * 360e-9
        sched = DriveSchedule((DrivePulse(start, 180e-9, voltage),))
        res = simulate(topo, sched, [pulse], SimLimits(max_cycles=6))
        total = sum(p.mu / p.path_transmission for p in res.retrieved)
        total += sum(p.mu / p.path_transmission for p, _ in res.discarded)
        assert total == pytest.approx(0.1, rel=1e-9)

    def test_split_children_sum_to_parent(self, topo, pulse):
        sched = storage_retrieval_schedule(topo, pulse, 1, voltage=450.0)
        res = simulate(topo, sched, [pulse])
        outs = [e for e in res.event_log
                if e.component == "coupler" and e.port.startswith("out")]
        ins = [e for e in res.event_log
               if e.component == "coupler" and e.port.startswith("in")]
        tr = db_to_transmission(topo.traversal_loss_db())
        first_in = ins[0]
        children = [e for e in outs if abs(
            e.time_s - first_in.time_s - topo.loop_delay_s()) < 1e-12]
        assert sum(e.mu for e in children) == pytest.approx(
            first_in.mu * tr, rel=1e-12)


class TestMultiPulseTrains:
    def test_two_pulse_packet_stored_and_retrieved(self, topo):
        train = generate_pulse_train(1000.0, 50e-9, 0.1, 2)
        # Each pulse's store-and-retrieve drives, in time order.
        sched = DriveSchedule(tuple(sorted(
            (d for p in train
             for d in storage_retrieval_schedule(topo, p, 2).pulses),
            key=lambda d: d.t_start)))
        res = simulate(topo, sched, train)
        outs = res.retrieved_with_cycles(2)
        assert len(outs) == 2
        spacing = outs[1].t - outs[0].t
        assert spacing == pytest.approx(1e-3, abs=1e-9)
        assert {p.root_id for p in outs} == {0, 1}


def diagnose(topology, schedule, inputs):
    return validate_schedule(simulate(topology, schedule, inputs))


class TestValidateSchedule:
    def test_operating_point_is_clean(self, topo, pulse):
        sched = storage_retrieval_schedule(topo, pulse, 3)
        assert diagnose(topo, sched, [pulse]) == []

    def test_long_drive_triggers_unintended_readout(self, topo, pulse):
        sched = storage_retrieval_schedule(topo, pulse, 3,
                                           drive_width=1.2e-6)
        codes = {v.code for v in diagnose(topo, sched, [pulse])
                 if v.severity == "error"}
        assert "unintended-readout" in codes

    def test_threshold_is_storage_round_trip_plus_margin(self, topo, pulse):
        # The return pass reaches the modulator one storage round trip plus
        # twice the near-arm delay after the far passage.
        margin = 2 * topo.storage_delay_s() + \
            2 * topo.near_passage_delay_s()
        guard = 20e-9
        safe = storage_retrieval_schedule(
            topo, pulse, 1, drive_width=margin + guard - 1e-9)
        risky = storage_retrieval_schedule(
            topo, pulse, 1, drive_width=margin + guard + 5e-9)
        ok = {v.code for v in diagnose(topo, safe, [pulse])}
        bad = {v.code for v in diagnose(topo, risky, [pulse])
               if v.severity == "error"}
        assert "unintended-readout" not in ok
        assert "unintended-readout" in bad

    def test_drive_covering_both_directions(self, topo, pulse):
        width = (topo.far_passage_delay_s() - topo.near_passage_delay_s()
                 + 200e-9)
        sched = DriveSchedule((DrivePulse(
            topo.near_passage_delay_s() - 20e-9, width, 900.0),))
        codes = {v.code for v in diagnose(topo, sched, [pulse])
                 if v.severity == "error"}
        assert "both-directions" in codes

    def test_noop_drive_warns(self, topo, pulse):
        sched = DriveSchedule((DrivePulse(0.5, 180e-9, 900.0),))
        vs = diagnose(topo, sched, [pulse])
        assert [(v.severity, v.code) for v in vs] == \
            [("warning", "no-op-drive")]

    def test_empty_schedule_is_silent(self, topo, pulse):
        assert diagnose(topo, DriveSchedule(), [pulse]) == []

    def test_run_is_diagnosed_under_its_own_schedule(self, topo, pulse):
        # Two drives far from any passage each warn, whatever schedule
        # another run of the same pulse used.
        far_away = DriveSchedule((DrivePulse(0.5, 180e-9, 900.0),
                                  DrivePulse(0.6, 180e-9, 900.0)))
        vs = validate_schedule(simulate(topo, far_away, [pulse]))
        assert [(v.severity, v.code, v.drive_index) for v in vs] == [
            ("warning", "no-op-drive", 0), ("warning", "no-op-drive", 1)]

    @pytest.mark.parametrize("arg", [None, [], "run"],
                             ids=["none", "list", "str"])
    def test_non_result_rejected(self, topo, pulse, arg):
        with pytest.raises(InputDomainError) as info:
            validate_schedule(arg)
        assert info.value.field == "result"


class TestStoredStates:
    @pytest.mark.parametrize("drive_width", [180e-9, 40e-9])
    def test_replay_matches_propagated_states(self, drive_width, pulse):
        # A 40 ns drive switches part of the pulse, which leaves records at
        # cycles 0 and 3. Each record's state is the table entry of its
        # cycle count: the launch Bloch vector shrunk by the closed form.
        prep, table = 0.05, (0.1, 0.02, 0.3)
        topo = BufferTopology(prep_error_depol=prep, depol_per_cycle=table)
        sched = storage_retrieval_schedule(topo, pulse, 3,
                                           drive_width=drive_width)
        res = simulate(topo, sched, [pulse])
        states = stored_states(topo, STATE_D, 3)
        assert len(states) == 4
        assert {p.cycles for p in res.retrieved} == \
            ({3} if drive_width == 180e-9 else {0, 3})
        for p in res.retrieved:
            b = closed_form_bloch(prep, table, p.cycles)
            np.testing.assert_allclose(states[p.cycles].bloch_vector,
                                       [b, 0.0, 0.0], rtol=1e-12,
                                       atol=1e-15)

    def test_entry_zero_is_preparation_error_only(self):
        topo = BufferTopology(prep_error_depol=0.2, depol_per_cycle=0.5)
        (state,) = stored_states(topo, STATE_H, 0)
        assert np.linalg.norm(state.bloch_vector) == pytest.approx(
            0.8, rel=1e-12)

    def test_negative_cycles_rejected(self, topo):
        with pytest.raises(InputDomainError):
            stored_states(topo, STATE_H, -1)


class TestEventLog:
    def test_csv_round_trip(self, topo, pulse, tmp_path):
        sched = storage_retrieval_schedule(topo, pulse, 1)
        res = simulate(topo, sched, [pulse])
        path = tmp_path / "events.csv"
        res.write_event_log_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"time_s", "pulse_id", "component", "port",
                                "mu", "cycles"}
        assert len(rows) == len(res.event_log)
        times = [float(r["time_s"]) for r in rows]
        assert times == sorted(times)
        mus = [float(r["mu"]) for r in rows]
        assert all(m >= 0 for m in mus)

    def test_mu_non_increasing_along_each_pulse(self, topo, pulse):
        sched = storage_retrieval_schedule(topo, pulse, 2)
        res = simulate(topo, sched, [pulse])
        per_pulse = {}
        for e in sorted(res.event_log, key=lambda e: e.time_s):
            per_pulse.setdefault(e.pulse_id, []).append(e.mu)
        for mus in per_pulse.values():
            assert all(a >= b - 1e-15 for a, b in zip(mus, mus[1:]))
