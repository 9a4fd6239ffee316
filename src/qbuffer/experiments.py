"""Preset experiments and their analysis.

Two measurement campaigns are built in:

* a retrieval-time sweep: the buffer is driven to hold a pulse for 0..7
  storage cycles, and the retrieved pulses are time-tagged into a histogram
  whose peaks decay geometrically with the per-cycle loss;
* a polarization sweep: the launch half-wave plate is rotated through a full
  fringe period at several retrieval settings, the two beamsplitter ports
  are counted in the computational and the superposition basis, and a
  fringe visibility is extracted per setting.

Counting conventions: ``eta`` labels retrieval settings starting at 1 for a
pulse reflected straight back without entering the storage line, so
``cycles = eta - 1``; the retrieval-time axis places peak ``eta`` at
``eta * delta_t``. Count analysis works on background-subtracted,
saturation-corrected ("linearized") counts: with click probability
p = 1 - exp(-(mu_port * eff + dark_rate * window)), the quantity
n * (-ln(1 - c/n) - dark_rate * window) is proportional to the detected
photon number, which keeps fringe visibilities and decay slopes free of the
exponential saturation bias of raw click counts.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .components import (
    BufferTopology,
    generate_pulse_train,
    pbs_shares,
    stored_rho,
)
from .detection import (
    ClickSet,
    DetectorModel,
    Histogram,
    TriggerTrain,
    _click_probability,
    _substream,
    click_probability,
    count_triggered,
    histogram,
    sample_clicks,
)
from .engine import (
    SimLimits,
    simulate,
    storage_period,
    storage_retrieval_schedule,
    validate_schedule,
)
from .errors import (
    CalibrationError,
    InputDomainError,
    ScheduleError,
    _array,
    _checked,
)
from .polarization import (
    HWP_ANGLE_MAX,
    STATE_H,
    JonesOp,
    check_density,
    hwp_matrices,
    hwp_matrix,
    rotate,
)

#: Measurement-basis rotations in front of the beamsplitter.
BASES = {
    "computational": JonesOp.identity(),
    "logical": hwp_matrix(math.pi / 8.0),
}
BASIS_ORDER = ("computational", "logical")

#: Histogram bin width for the retrieval-time sweep.
HIST_BIN_S = 100e-9

#: Fringe-fit threshold: with at least this many angles the visibility comes
#: from a least-squares sinusoid; below it, from the raw extrema.
FIT_MIN_ANGLES = 8


def default_hwp_grid(n: int = 16) -> tuple:
    """Uniform grid of ``n`` HWP angles covering one full fringe period
    (pi/2); a sweep needs at least 4."""
    _checked("n", n, ge=4, integer=True, label="angle count")
    return tuple(float(a) for a in np.linspace(0.0, math.pi / 2.0, n))


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: source, trigger count, sweep axes, mode."""

    preset: str = "custom"
    mu_source: float = 0.1
    n_triggers: int = 60_000
    seed: int = 12345
    eta_list: tuple = tuple(range(1, 9))
    hwp_angles: tuple = field(default_factory=default_hwp_grid)
    basis: str = "both"  # computational | logical | both
    mode: str = "monte-carlo"  # monte-carlo | analytic
    rep_rate_hz: float = 1000.0
    pulse_width_s: float = 50e-9
    count_window_s: float = 100e-9
    drive_width_s: float = 180e-9
    drive_guard_s: float = 20e-9

    def __post_init__(self):
        for name in ("rep_rate_hz", "pulse_width_s", "count_window_s",
                     "drive_width_s"):
            _checked(name, getattr(self, name), gt=0)
        for name in ("mu_source", "drive_guard_s"):
            _checked(name, getattr(self, name), ge=0)
        _checked("n_triggers", self.n_triggers, ge=1, integer=True,
                 label="trigger count")
        _checked("seed", self.seed, ge=0, integer=True)
        etas = tuple(self.eta_list)
        if not etas:
            raise InputDomainError(
                "eta_list must name at least one retrieval setting",
                "eta_list")
        seen = set()
        for i, e in enumerate(etas):
            _checked(f"eta_list[{i}]", e, ge=1, integer=True)
            if e in seen:
                raise InputDomainError(
                    f"eta {e!r} is listed twice; each retrieval setting is "
                    "swept once", f"eta_list[{i}]")
            seen.add(e)
        object.__setattr__(self, "eta_list", tuple(int(e) for e in etas))
        angles = tuple(self.hwp_angles)
        for i, a in enumerate(angles):
            _checked(f"hwp_angles[{i}]", a, ge=-HWP_ANGLE_MAX,
                     le=HWP_ANGLE_MAX, label="HWP angle")
        object.__setattr__(self, "hwp_angles", tuple(float(a) for a in angles))
        if self.basis not in ("computational", "logical", "both"):
            raise InputDomainError(
                f"basis {self.basis!r} must be computational, logical or "
                "both", "basis")
        if self.mode not in ("monte-carlo", "analytic"):
            raise InputDomainError(
                f"mode {self.mode!r} must be monte-carlo or analytic", "mode")

    @property
    def acquisition_s(self) -> float:
        return self.n_triggers / self.rep_rate_hz

    @property
    def bases(self) -> tuple:
        if self.basis == "both":
            return BASIS_ORDER
        return (self.basis,)


@dataclass(frozen=True)
class Calibration:
    """The calibration a fringe sweep runs first: a mode, and visibility
    targets in (0, 1] keyed by eta, an integer >= 1 or its decimal string
    (stored as ``{int: float}``). Any mode but ``none`` needs eta = 1."""

    mode: str = "none"  # none | table | physical
    targets: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in ("none", "table", "physical"):
            raise InputDomainError(
                f"calibration mode {self.mode!r} must be none, table or "
                "physical", "mode")
        if not isinstance(self.targets, Mapping):
            raise InputDomainError(
                "targets must map eta to a visibility", "targets")
        targets = {}
        for key, value in self.targets.items():
            name = f"targets.{key}"
            try:
                eta = int(key) if str(key).isdecimal() else 0
            except ValueError:  # more digits than int() converts
                eta = 0
            if eta < 1:
                raise InputDomainError(
                    f"eta key {key!r} must be an integer >= 1", name)
            if eta in targets:
                raise InputDomainError(
                    f"eta key {key!r} names eta={eta} twice", name)
            _checked(name, value, gt=0, le=1, label="visibility target")
            targets[eta] = float(value)
        if self.mode != "none" and 1 not in targets:
            raise InputDomainError(
                "calibration needs an eta=1 target to anchor the preparation "
                "error", "targets")
        object.__setattr__(self, "targets", targets)


@dataclass
class PeakRow:
    """One retrieval setting of the timing sweep."""

    eta: int
    cycles: int
    exit_time_s: float
    retrieval_time_s: float  # eta * delta_t, the retrieval-axis position
    mu: float
    expected_counts: float
    sampled_counts: int | None
    expected_counts_linear: float
    sampled_counts_linear: float | None


@dataclass
class RetrievalSweepResult:
    rows: list
    delta_t_s: float
    n_triggers: int
    window_s: float
    histogram: object | None
    sim_results: dict = field(default_factory=dict)

    @property
    def span_s(self) -> float:
        """Extent of the retrieval-time axis up to the last peak."""
        return max(r.retrieval_time_s for r in self.rows)


@dataclass(eq=False)
class VisibilityResult:
    """Fringe visibility of one (retrieval setting, basis) sweep."""

    eta: int
    basis: str
    visibility: float
    visibility_per_port: tuple
    angles: tuple
    curve: list  # (angle_rad, normalized port-0 counts, normalized port-1)
    counts: np.ndarray  # raw counts, shape (2, n_angles)
    expected: np.ndarray  # raw expectation, same shape
    n_triggers: int


@dataclass
class DecayFit:
    loss_db_per_cycle: float
    residual_db: float
    n_points: int


@dataclass
class CalibrationResult:
    mode: str
    prep_error_depol: float
    depol_per_cycle: tuple
    bloch_targets: dict
    residuals: dict
    targets: dict


def visibility(c_max: float, c_min: float) -> float:
    """Fringe visibility (c_max - c_min) / (c_max + c_min)."""
    _checked("c_min", c_min, ge=0)
    _checked("c_max", c_max, ge=c_min)
    if c_max == 0:
        raise InputDomainError("visibility undefined for all-zero counts")
    return (c_max - c_min) / (c_max + c_min)


def linearized_counts(counts, n_triggers: int, det: DetectorModel,
                      window: float) -> np.ndarray:
    """Background-subtracted, saturation-corrected counts, of any shape;
    each count must be finite and >= 0.

    Inverts p = 1 - exp(-x) per point and removes the dark-count term, so
    the result is n * mu_port * efficiency up to sampling noise. Values may
    go slightly negative when a near-empty port fluctuates below the dark
    baseline.
    """
    _checked("n_triggers", n_triggers, ge=1, integer=True,
             label="trigger count")
    _checked("window", window, ge=0)
    c = _array("counts", np.asarray, counts, dtype=np.float64)
    if not ((c >= 0) & (c < math.inf)).all():  # both False for NaN
        raise InputDomainError("counts must be finite and >= 0", "counts")
    return _linearized(c, n_triggers, det, window)


def _linearized(c: np.ndarray, n_triggers: int, det: DetectorModel,
                window: float) -> np.ndarray:
    """:func:`linearized_counts` of a float64 array it has checked."""
    p = np.clip(c / n_triggers, 0.0, 1.0 - 1e-15)
    return n_triggers * (-np.log1p(-p) - det.dark_rate_hz * window)


def _fringe_design(angles: np.ndarray):
    """Design matrix of the fit mean + a cos(4 theta) + b sin(4 theta), or
    None below FIT_MIN_ANGLES."""
    if angles.size < FIT_MIN_ANGLES:
        return None
    return np.column_stack([np.ones_like(angles), np.cos(4.0 * angles),
                            np.sin(4.0 * angles)])


def _curve_visibility(design, counts: np.ndarray) -> float:
    """Visibility of float64 counts (negatives read as 0), fitted on
    ``design`` or, when it is None, from the raw extrema."""
    c = np.maximum(counts, 0.0)
    if design is None:
        return visibility(float(c.max()), float(c.min()))
    beta, *_ = np.linalg.lstsq(design, c, rcond=None)
    if beta[0] <= 0:
        raise InputDomainError("visibility undefined for all-zero counts")
    return min(1.0, math.hypot(beta[1], beta[2]) / float(beta[0]))


def fit_decay(peaks) -> DecayFit:
    """Per-cycle loss from a peak-count series.

    ``peaks`` is a sequence of (eta, counts); the fit is the least-squares
    slope of log10(counts) against cycle count (eta - 1), reported in dB per
    cycle. Each eta must be an integer >= 1 and each count finite;
    non-positive counts are excluded.
    """
    pts = []
    for i, (eta, c) in enumerate(peaks):
        _checked(f"peaks[{i}].eta", eta, ge=1, integer=True, label="eta")
        _checked(f"peaks[{i}].counts", c, label="peak counts")
        if c > 0:
            pts.append((int(eta) - 1, float(c)))
    if len({k for k, _ in pts}) < 2:
        raise InputDomainError("need at least 2 peaks with positive counts, "
                               "at distinct settings")
    x = np.array([k for k, _ in pts], dtype=np.float64)
    y = np.log10([c for _, c in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    rms_db = 10.0 * float(np.sqrt(np.mean(resid ** 2)))
    return DecayFit(-10.0 * float(slope), rms_db, len(pts))


# -- engine plumbing --------------------------------------------------------


def _n_distinct(values: np.ndarray) -> int:
    """Number of distinct values in a float array without NaN; -0.0 and 0.0
    are one value.

    ``np.unique`` gives the same count, but its first call imports
    ``numpy.ma``, which costs every run about 16 ms.
    """
    s = np.sort(values)
    if s.size == 0:
        return 0
    return 1 + int(np.count_nonzero(s[1:] != s[:-1]))


def _hwp_grid(config: ExperimentConfig) -> np.ndarray:
    """The HWP angles; at least 4 distinct ones spanning pi/2 are needed."""
    angles = np.asarray(config.hwp_angles, dtype=np.float64)
    if _n_distinct(angles) < 4 or \
            angles.max() - angles.min() < math.pi / 2.0 - 1e-9:
        raise InputDomainError(
            "need at least 4 distinct HWP angles spanning a full fringe "
            "period (pi/2)")
    return angles


def source_pulses(config: ExperimentConfig) -> list:
    """The one source pulse every run launches."""
    return generate_pulse_train(config.rep_rate_hz, config.pulse_width_s,
                                config.mu_source, 1)


def simulate_checked(topology, schedule, inputs, limits, name: str):
    """``simulate`` the inputs once and ``validate_schedule`` that run.

    Returns (result, violations); raises ScheduleError, with ``name``
    and the error messages, if any violation is an error. Both functions
    are looked up in this module, so a tracer that replaces
    ``qbuffer.experiments.simulate`` sees every run.
    """
    result = simulate(topology, schedule, inputs, limits)
    violations = validate_schedule(result)
    errors = [v.message for v in violations if v.severity == "error"]
    if errors:
        raise ScheduleError(f"{name} is unsafe: " + "; ".join(errors),
                            violations)
    return result, violations


def propagate(runs: dict, topology, config, eta, limits):
    """The one checked engine run of setting ``eta``: the source pulse
    through the schedule that retrieves it after ``eta - 1`` cycles, made
    once per eta into ``runs``. Returns (retained pulse, result,
    violations). Raises ScheduleError, with the run's violations, unless
    the schedule is safe and exactly one pulse exits at ``eta - 1`` cycles,
    and InputDomainError if its count window ends after the next trigger.
    The engine applies no depolarization, so a run serves every topology
    that differs only in it (a calibrated one), with the same config and
    limits."""
    if eta in runs:
        return runs[eta]
    inputs = source_pulses(config)
    sched = storage_retrieval_schedule(
        topology, inputs[0], eta - 1, drive_width=config.drive_width_s,
        guard=config.drive_guard_s)
    res, violations = simulate_checked(topology, sched, inputs, limits,
                                       f"schedule for eta={eta}")
    main = res.retrieved_with_cycles(eta - 1)
    if len(main) != 1:
        raise ScheduleError(
            f"schedule for eta={eta} produced {len(main)} retrievals at "
            f"cycles={eta - 1} instead of exactly one", violations)
    if main[0].t + config.count_window_s >= 1.0 / config.rep_rate_hz:
        raise InputDomainError(
            f"exit time {main[0].t} of eta={eta} exceeds the trigger period")
    runs[eta] = (main[0], res, violations)
    return runs[eta]


def _trigger_train(retrieved, config: ExperimentConfig,
                   share=None) -> TriggerTrain:
    """Every retrieved pulse repeated over all triggers of the run; with
    ``share``, each pulse's mu times ``share[its cycle count]``."""
    return TriggerTrain(1.0 / config.rep_rate_hz, config.n_triggers,
                        tuple(p.t for p in retrieved),
                        tuple(p.mu if share is None else p.mu * share[p.cycles]
                              for p in retrieved))


def _folded_histogram(clicksets, period: float, n_bins: int):
    """Histogram of every click's time within its trigger period.

    Each block of each click set is folded and binned on its own and the
    integer counts are summed, which is exact because binning is
    elementwise; the memory it needs above the click sets is O(block),
    whatever their sizes. Binning needs no order, so the folded times are
    left unsorted. ``clicksets`` may be a generator: no set is referenced
    here once it is binned, so a set the generator drops is freed before
    the next one is drawn.
    """
    counts = np.zeros(n_bins, dtype=np.int64)
    overflow = 0
    step = kernels._BLOCK_CLICKS
    for cs in clicksets:
        for start in range(0, len(cs), step):
            offsets = kernels.fold(cs.times[start:start + step], period)
            part = histogram(ClickSet(offsets, 0, period), 0.0, HIST_BIN_S,
                             n_bins)
            counts += part.counts
            overflow += part.overflow
        del cs
    return Histogram(0.0, HIST_BIN_S, counts, overflow)


def run_retrieval_sweep(config: ExperimentConfig, topology: BufferTopology,
                        det: DetectorModel, limits: SimLimits | None = None,
                        on_clicks=None, *,
                        runs: dict | None = None) -> RetrievalSweepResult:
    """Timing sweep over the configured retrieval settings.

    Each setting runs its own schedule; expected counts come from the click
    model, sampled counts (monte-carlo mode) from per-trigger sampling and
    gated counting around the known exit time.

    Every setting is propagated and checked before any is sampled, so an
    input error raises before ``on_clicks`` sees a click set. The settings
    are then sampled one at a time: each click set is counted, passed to
    ``on_clicks(eta, clicks)`` (once per setting, in ``eta_list`` order),
    folded into the histogram and dropped. A caller that wants the sets
    keeps them, e.g. ``on_clicks=sets.__setitem__``. A ``runs`` dict
    shares engine runs with earlier :func:`propagate` calls.
    """
    limits = limits or SimLimits()
    delta_t = storage_period(topology)
    period = 1.0 / config.rep_rate_hz
    n = config.n_triggers
    window = config.count_window_s

    runs = {} if runs is None else runs
    rows: list[PeakRow] = []
    sims: dict[int, object] = {}
    for eta in config.eta_list:
        main, sims[eta], _ = propagate(runs, topology, config, eta, limits)
        rows.append(PeakRow(eta, eta - 1, main.t, eta * delta_t, main.mu,
                            n * click_probability(main.mu, det, window), None,
                            n * main.mu * det.efficiency, None))
    trains = [(row, _trigger_train(sims[row.eta].retrieved, config))
              for row in rows] if config.mode == "monte-carlo" else []

    def sampled_sets():
        for row, train in trains:
            cs = sample_clicks(train, det, config.acquisition_s,
                               _substream(config.seed, 0, row.eta))
            row.sampled_counts = count_triggered(cs, period, row.exit_time_s,
                                                 window)
            row.sampled_counts_linear = float(linearized_counts(
                [row.sampled_counts], n, det, window)[0])
            if on_clicks is not None:
                on_clicks(row.eta, cs)
            yield cs
            del cs  # freed before the next setting is drawn

    hist = None
    if trains:
        n_bins = int(math.ceil((max(r.exit_time_s for r in rows) + delta_t)
                               / HIST_BIN_S))
        hist = _folded_histogram(sampled_sets(), period, n_bins)
    return RetrievalSweepResult(rows, delta_t, n, window, hist, sims)


def share_table(topology: BufferTopology, angles, max_cycles: int,
                bases) -> dict:
    """Port shares of an H launch through a HWP at each of ``angles``.

    ``table[basis][i, port, k]`` is the share the beamsplitter sends to
    ``port`` in ``basis`` of the state at angle ``i`` after ``k`` storage
    cycles. Every (angle, cycle) state is built, checked and projected as
    one numpy stack; the values are those of the per-state
    ``apply_unitary`` -> ``stored_states`` -> ``pbs_project`` chain.
    """
    launch = rotate(STATE_H.rho, hwp_matrices(angles))
    check_density(launch)
    states = stored_rho(topology, launch, max_cycles)
    check_density(states)
    table = {}
    for basis in bases:
        p_h = pbs_shares(states, BASES[basis])
        table[basis] = np.stack([p_h, 1.0 - p_h], axis=1)
    return table


def run_hwp_sweep(config: ExperimentConfig, topology: BufferTopology,
                  det: DetectorModel, limits: SimLimits | None = None, *,
                  runs: dict | None = None) -> list:
    """Polarization fringe sweep; one VisibilityResult per (eta, basis).

    Both ports are counted with the one detector model ``det``; port p's
    clicks carry ``detector_id=p``.

    Routing never depends on polarization, so each setting is propagated
    once. One :func:`share_table` holds the two port shares of the state
    at each (basis, HWP angle, cycle count); a retrieved record sends
    ``mu * share[record.cycles]`` to a port. All counts are one (eta,
    basis, port, angle) stack, built with one :func:`click_probability`
    and one :func:`linearized_counts` call; each curve is fitted once and
    read into Python once. A ``runs`` dict shares engine runs with
    :func:`calibrate`.
    """
    if not isinstance(det, DetectorModel):
        raise InputDomainError(
            f"det must be a DetectorModel, not {type(det).__name__}", "det")
    angles = _hwp_grid(config)
    design = _fringe_design(angles)
    limits = limits or SimLimits()

    period = 1.0 / config.rep_rate_hz
    n = config.n_triggers
    window = config.count_window_s

    runs = {} if runs is None else runs
    runs = [propagate(runs, topology, config, eta, limits)[:2]
            for eta in config.eta_list]
    max_cycles = max(p.cycles for _, sim in runs for p in sim.retrieved)
    tables = share_table(topology, angles, max_cycles, config.bases)

    # [basis, angle, port, cycles] -> [eta, basis, port, angle], times mu
    mus = np.stack([tables[basis] for basis in config.bases])[
        ..., [main.cycles for main, _ in runs]].transpose(3, 0, 2, 1)
    mus *= np.array([main.mu for main, _ in runs])[:, None, None, None]
    expected = n * click_probability(mus, det, window)
    counts = np.zeros(expected.shape)
    if config.mode == "monte-carlo":
        for e, b, i, port in np.ndindex(counts.shape[:2] + (angles.size, 2)):
            main, sim = runs[e]
            basis = config.bases[b]
            cs = sample_clicks(
                _trigger_train(sim.retrieved, config, tables[basis][i, port]),
                det, config.acquisition_s,
                _substream(config.seed, 1, config.eta_list[e],
                           BASIS_ORDER.index(basis), i, port),
                detector_id=port)
            counts[e, b, port, i] = count_triggered(cs, period, main.t, window)
    raw = counts if config.mode == "monte-carlo" else expected
    lin = linearized_counts(raw, n, det, window)
    # Normalize by the per-angle two-port total, so the two curves are
    # complementary and bounded by [0, 1].
    norm = np.maximum(lin, 0.0)
    totals = norm.sum(axis=2, keepdims=True)
    norm = np.where(totals > 0, norm / np.where(totals > 0, totals, 1.0), 0.0)

    angle_tuple = tuple(angles.tolist())
    results: list[VisibilityResult] = []
    for e, eta in enumerate(config.eta_list):
        for b, basis in enumerate(config.bases):
            vis = []
            for port in (0, 1):
                try:
                    vis.append(_curve_visibility(design, lin[e, b, port]))
                except InputDomainError as exc:
                    if config.mode != "monte-carlo":
                        raise
                    raise InputDomainError(
                        f"eta {eta}, basis {basis}, port {port}: {exc} in "
                        f"{n} sampled triggers; more triggers are "
                        "needed") from None
            curve = list(zip(angle_tuple, *norm[e, b].tolist()))
            results.append(VisibilityResult(
                eta, basis, (vis[0] + vis[1]) / 2.0, tuple(vis),
                angle_tuple, curve, counts[e, b], expected[e, b], n))
    return results


def average_visibility_by_eta(results) -> dict:
    """Mean visibility over bases, keyed by retrieval setting."""
    by_eta: dict[int, list] = {}
    for r in results:
        by_eta.setdefault(r.eta, []).append(r.visibility)
    return {eta: float(np.mean(v)) for eta, v in sorted(by_eta.items())}


# -- calibration ------------------------------------------------------------


def _bloch_visibility(mu_ret: float, config, det: DetectorModel):
    """Visibility the sweep analysis reports for a net Bloch shrink ``b``,
    as a ``functools.cache``d function of ``b``.

    Feeds the expected port counts of a launch state shrunk to Bloch
    length ``b`` through the sweep's click model and linearize-and-fit
    analysis. The arguments are checked, and the angles and fit design
    built, once.
    """
    n, window = config.n_triggers, config.count_window_s
    click_probability(mu_ret, det, window)
    angles = np.asarray(config.hwp_angles, dtype=np.float64)
    cos4, design = np.cos(4.0 * angles), _fringe_design(angles)

    @functools.cache
    def visibility_of(b: float) -> float:
        p_port0 = (1.0 + b * cos4) / 2.0  # shares of mu_ret: no new check
        expected = n * _click_probability(
            mu_ret * np.array([p_port0, 1.0 - p_port0]), det, window)
        lin = _linearized(expected, n, det, window)
        return (_curve_visibility(design, lin[0])
                + _curve_visibility(design, lin[1])) / 2.0
    return visibility_of


def _solve_bloch(target: float, f) -> float:
    """Invert the analysis f: Bloch length whose visibility equals target."""
    hi = f(1.0)
    if target > hi + 1e-9:
        raise CalibrationError(
            f"target visibility {target} exceeds the maximum {hi:.6f} "
            "reachable with a fully polarized state")
    lo_b, hi_b = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo_b + hi_b)
        if f(mid) < target:
            lo_b = mid
        else:
            hi_b = mid
    return 0.5 * (lo_b + hi_b)


def calibrate(targets: dict, topology: BufferTopology,
              config: ExperimentConfig, det: DetectorModel,
              mode: str = "table", limits: SimLimits | None = None, *,
              runs: dict | None = None) -> CalibrationResult:
    """Choose depolarization parameters that reproduce visibility targets.

    ``targets`` maps retrieval setting eta to the desired average
    visibility, checked as a :class:`Calibration` whose mode is not
    ``none``. Table mode solves one net Bloch shrink per target and
    spreads it over the intervening cycles, reproducing every target
    exactly in analytic mode; the eta = 1 entry anchors the preparation
    error. Physical mode fits a single per-cycle probability by
    least squares in the log domain and reports the per-target residuals.
    A ``runs`` dict shares engine runs with :func:`run_hwp_sweep`.
    """
    _hwp_grid(config)
    if mode == "none":
        raise InputDomainError("calibrate needs mode table or physical",
                               "mode")
    targets = Calibration(mode, targets).targets
    limits = limits or SimLimits()

    runs = {} if runs is None else runs
    bloch: dict[int, float] = {}
    vis_of = {}
    for eta in sorted(targets):
        main = propagate(runs, topology, config, eta, limits)[0]
        vis_of[eta] = _bloch_visibility(main.mu, config, det)
        bloch[eta] = _solve_bloch(targets[eta], vis_of[eta])

    ks = [eta - 1 for eta in sorted(targets)]
    bs = [bloch[eta] for eta in sorted(targets)]
    prep = 1.0 - bs[0]

    if mode == "table":
        table = [0.0] * max(max(ks), 1)
        for (k0, b0), (k1, b1) in zip(zip(ks, bs), zip(ks[1:], bs[1:])):
            if b1 > b0 + 1e-12:
                raise CalibrationError(
                    f"targets imply Bloch length growing from cycle {k0} to "
                    f"{k1}; no depolarization table can do that")
            retention = (min(b1 / b0, 1.0)) ** (1.0 / (k1 - k0)) \
                if b0 > 0 else 1.0
            for k in range(k0 + 1, k1 + 1):
                table[k - 1] = 1.0 - retention
        depol = tuple(table)
        calibrated = apply_calibration(topology, CalibrationResult(
            mode, prep, depol, bloch, {}, targets))
        # Bloch length per setting, from the table stored_states reads.
        shrink = {eta: math.prod([1.0 - calibrated.prep_error_depol]
                                 + [1.0 - calibrated.depol_for_cycle(k)
                                    for k in range(1, eta)])
                  for eta in targets}
    else:
        pos = [(k, b) for k, b in zip(ks, bs) if k > 0]
        if pos and bs[0] > 0:
            num = sum(k * (math.log(b) - math.log(bs[0])) for k, b in pos
                      if b > 0)
            den = sum(k * k for k, _ in pos)
            ln_r = num / den if den else 0.0
            if ln_r > 1e-12:
                raise CalibrationError(
                    "targets increase with cycle count; a constant "
                    "depolarization cannot fit them")
            p = 1.0 - math.exp(min(ln_r, 0.0))
        else:
            p = 0.0
        depol = (p,)
        # The fitted closed form; a product of factors would change bits.
        shrink = {eta: bs[0] * (1.0 - p) ** (eta - 1) for eta in targets}

    residuals = {eta: vis_of[eta](shrink[eta]) - targets[eta]
                 for eta in sorted(targets)}
    return CalibrationResult(mode, prep, depol, bloch, residuals, targets)


def apply_calibration(topology: BufferTopology,
                      cal: CalibrationResult) -> BufferTopology:
    return replace(topology, prep_error_depol=cal.prep_error_depol,
                   depol_per_cycle=cal.depol_per_cycle)


# -- exporters ----------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_peaks_csv(rows, path) -> None:
    cols = ("eta", "cycles", "exit_time_s", "retrieval_time_s", "mu",
            "expected_counts", "sampled_counts", "expected_counts_linear",
            "sampled_counts_linear")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for r in rows:
            fh.write(",".join(_fmt(getattr(r, c)) for c in cols) + "\n")


#: Columns of the fringe-sweep table.
_SWEEP_COLUMNS = ("eta", "basis", "angle_rad", "port", "counts",
                  "normalized_counts")


def _sweep_table(results):
    """``(eta, basis, rows)`` per result; ``rows`` gives (curve point, port-0
    count, port-1 count) per angle: sampled, or expected if none was."""
    for r in results:
        raw = r.counts if np.any(r.counts) else r.expected
        yield r.eta, r.basis, zip(r.curve, *raw.tolist())


def write_sweep_csv(results, path) -> None:
    """Fringe-sweep table: one row per (eta, basis, angle, port). Each curve
    is read once and written as one string, formatting each angle once for
    its two port rows."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_SWEEP_COLUMNS) + "\n")
        for eta, basis, rows in _sweep_table(results):
            fh.write("".join([
                f"{head}0,{c0!r},{n0!r}\n{head}1,{c1!r},{n1!r}\n"
                for (angle, n0, n1), c0, c1 in rows
                for head in (f"{eta},{basis},{angle!r},",)]))


def sweep_rows(results) -> list:
    """The write_sweep_csv table as dicts, for JSON output."""
    return [dict(zip(_SWEEP_COLUMNS, (eta, basis, angle, port, c, norm)))
            for eta, basis, rows in _sweep_table(results)
            for (angle, n0, n1), c0, c1 in rows
            for port, c, norm in ((0, c0, n0), (1, c1, n1))]
