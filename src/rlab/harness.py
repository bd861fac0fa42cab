"""Sweep driver: lambda sweeps, slope fits, randomized lower bounds.

Each experiment produces an in-memory list of records plus a CSV dump
with a self-describing '#' header.  CSV output contains no timing data:
reruns with identical config, seed and thread count must be
byte-identical.
"""

from __future__ import annotations

import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curves import Curve, moment_curve
from .errors import ComputationError, ConfigError
from .exponents import ExponentPoint, kdim_threshold, predicted_excess, sphere_region
from .extremal import (
    bump_input,
    calibrate_c,
    knapp_box,
    knapp_input,
    partition_family,
    random_sign_input,
    solve_stationary,
)
from .measures import (
    QuadMeasure,
    sphere_cap_graph,
    sphere_measure,
    sphere_resolution_for,
    submanifold_builder,
)
from .oscillatory import (
    PhaseSpec,
    TestFunction,
    _segment_panel_count,
    eval_field,
    field,
    graph_phase,
    lp_norm,
    lq_norm,
)

DEFAULT_SIGN_SAMPLES = 64


# ----------------------------------------------------------------------
# families and configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BumpFamily:
    """Modulated indicator chi_[0, eps0] e^{-i lam x0 . gamma}."""

    x0: tuple | None = None
    eps0: float = 1.0

    name = "bump"


@dataclass(frozen=True)
class KnappFamily:
    """Short interval [t0, t0 + lam^-rho], recentered at its anchor."""

    t0: float = 0.2
    rho: float | None = None     # defaults to 1/(2d)

    name = "knapp"


@dataclass(frozen=True)
class RandomFamily:
    """Rademacher signs on the lambda^{-1/(2d)} partition of [0, delta]."""

    delta: float = 0.25
    n_samples: int = DEFAULT_SIGN_SAMPLES

    name = "random"


def default_bump_point(d: int) -> np.ndarray:
    """A sphere point whose tangent directions avoid the curve's
    stationary directions over [0, 1], keeping the far-field tame."""
    if d == 2:
        return np.array([math.cos(0.5), -math.sin(0.5)])
    x = np.full(d, 0.3)
    x[0] = 1.0
    x[1] = -0.6
    return x / np.linalg.norm(x)


@dataclass(frozen=True)
class SweepConfig:
    curve: Curve
    family: object
    lams: tuple
    qs: tuple
    ps: tuple = (float("inf"),)
    seed: int = 0
    out: str | None = None
    threads: int = 1

    def __post_init__(self):
        lams = tuple(float(v) for v in self.lams)
        if len(lams) == 0 or len(self.qs) == 0 or len(self.ps) == 0:
            raise ConfigError("lambda, q, p lists must be non-empty")
        if len(set(lams)) != len(lams):
            raise ConfigError("lambda values must be distinct")
        for lam in lams:
            if not 16 <= lam < math.inf:
                raise ConfigError(f"lambda {lam} must be finite and >= 16")
            if 2.0 ** round(math.log2(lam)) != lam:
                raise ConfigError(f"lambda {lam} is not a power of two")
        qs, ps = (tuple(float(v) for v in vs) for vs in (self.qs, self.ps))
        if not all(v >= 1 for v in qs + ps):
            raise ConfigError(f"q and p must be >= 1, got q={qs}, p={ps}")
        object.__setattr__(self, "lams", lams)
        object.__setattr__(self, "qs", qs)
        object.__setattr__(self, "ps", ps)


@dataclass(frozen=True)
class SweepRecord:
    lam: float
    p: float
    q: float
    input_norm: float
    field_norm: float
    decay_exponent: float        # the s in lambda^-s the ratio divides out
    ratio: float
    resolution: int
    max_spacing: float
    panels: int
    witness_norm: float = 0.0    # L^q over the dual box only (knapp family)
    witness_ratio: float = 0.0

    def row(self) -> list:
        return [self.lam, self.p, self.q, self.input_norm, self.field_norm,
                self.decay_exponent, self.ratio, self.resolution,
                self.max_spacing, self.panels, self.witness_norm,
                self.witness_ratio]

    HEADER = ["lambda", "p", "q", "input_norm", "field_norm",
              "decay_exponent", "ratio", "resolution", "max_spacing",
              "panels", "witness_norm", "witness_ratio"]


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def write_csv(path_or_buf, header_lines: list, columns: list,
              rows: list) -> str:
    """Deterministic CSV with '#' header echo; returns the text."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    text = buf.getvalue()
    if isinstance(path_or_buf, (str,)):
        with open(path_or_buf, "w") as fh:
            fh.write(text)
    elif path_or_buf is not None:
        path_or_buf.write(text)
    return text


def _ordered_map(fn, items, threads: int):
    """Parallel map that preserves order (and determinism)."""
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ----------------------------------------------------------------------
# decay sweeps
# ----------------------------------------------------------------------

def _build_input(config: SweepConfig, lam: float,
                 phase: PhaseSpec) -> TestFunction:
    fam = config.family
    d = config.curve.dim
    if isinstance(fam, BumpFamily):
        x0 = fam.x0 if fam.x0 is not None else default_bump_point(d)
        return bump_input(config.curve, lam, x0, fam.eps0)
    if isinstance(fam, KnappFamily):
        rho = fam.rho if fam.rho is not None else 1.0 / (2 * d)
        anchor = fam.t0 + lam ** -rho
        x_anchor = phase.embed(solve_stationary(phase, anchor)[None, :])[0]
        return knapp_input(fam.t0, lam, rho, modulation=x_anchor)
    if isinstance(fam, RandomFamily):
        part = partition_family(phase, fam.delta, lam)
        return random_sign_input(part, config.seed)
    raise ConfigError(f"unknown input family {fam!r}")


@dataclass(frozen=True)
class _Sample:
    """One lambda of a sphere experiment: the measure, the inputs, and
    one field per input in input order."""

    lam: float
    mu: QuadMeasure
    inputs: list
    fields: list
    panels: int                  # sum over input segments of the panel
                                 # count eval_field used on its widest chunk


def _evaluate(curve: Curve, lam: float, inputs: list) -> _Sample:
    """Build the sphere measure at lambda and one field per input."""
    d = curve.dim
    mu = sphere_measure(d, sphere_resolution_for(d, lam))
    fields = [field(curve, lam, f, mu) for f in inputs]
    ext = PhaseSpec(kind="extension", curve=curve)
    panels = sum(_segment_panel_count(ext, lam, seg, mu.nodes)
                 for f in inputs for seg in f.segments if seg.length > 0)
    return _Sample(lam=lam, mu=mu, inputs=inputs, fields=fields,
                   panels=panels)


def ols_fit(logx: np.ndarray, logy: np.ndarray) -> tuple:
    """Least-squares slope and residual RMS of a log-log cloud."""
    if logx.size < 2:
        raise ComputationError("slope fit needs at least two lambda values")
    a = np.vstack([logx, np.ones_like(logx)]).T
    coef, *_ = np.linalg.lstsq(a, logy, rcond=None)
    resid = logy - a @ coef
    return float(coef[0]), float(np.sqrt(np.mean(resid ** 2)))


def _log_column(records: list, name: str) -> np.ndarray:
    """log of one record column across lambda; a zero, negative or
    non-finite value has no log and fails naming its lambda."""
    for r in records:
        v = getattr(r, name)
        if not (0.0 < v < math.inf):
            raise ComputationError(
                f"{name} = {v!r} at lambda={_fmt(r.lam)} (p={_fmt(r.p)}, "
                f"q={_fmt(r.q)}) has no log; no slope can be fitted")
    return np.log(np.array([getattr(r, name) for r in records]))


def _sweep_fits(config: SweepConfig, records: list) -> dict:
    """Per-(p, q) log-log slopes of the sweep records across lambda."""
    fits = {}
    logl = np.log(np.array(sorted(config.lams)))
    for q in config.qs:
        for p in config.ps:
            sel = [r for r in records if r.q == q and r.p == p]
            slope_n, rms = ols_fit(logl, _log_column(sel, "field_norm"))
            slope_r, _ = ols_fit(logl, _log_column(sel, "ratio"))
            fits[(p, q)] = {"norm_slope": slope_n, "ratio_slope": slope_r,
                            "resid_rms": rms}
            if (isinstance(config.family, KnappFamily)
                    and all(r.witness_norm > 0 for r in sel)):
                slope_w, rms_w = ols_fit(logl,
                                         _log_column(sel, "witness_ratio"))
                fits[(p, q)]["witness_slope"] = slope_w
                fits[(p, q)]["witness_rms"] = rms_w
    return fits


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    records: list
    fits: dict                   # (p, q) -> slopes; empty for one lambda
    csv_text: str


def decay_sweep(config: SweepConfig) -> SweepResult:
    """Field norms on the sphere across lambda, with per-(p,q) slopes.

    The sphere grid is rebuilt at every lambda to satisfy the spacing
    rule; one field evaluation per lambda serves every (p, q) pair.
    Slopes are fitted only when there are at least two lambda values;
    a single lambda yields its records and empty ``fits``.

    Knapp inputs additionally report the witness norm: the L^q mass of
    the field over the dual box alone.  That is the quantity the box
    construction bounds from below, and it follows the predicted power
    law cleanly at moderate lambda, whereas the full-sphere norm picks
    up an extra contribution from the arc traced by the interval itself
    (|field| stays near |I| on the whole image arc until the coherence
    scale lambda |I|^2 |w| passes pi, far beyond practical lambda).
    """
    curve = config.curve
    d = curve.dim
    phase = graph_phase(curve, sphere_cap_graph(d))
    is_knapp = isinstance(config.family, KnappFamily)

    def run_one(lam: float):
        sample = _evaluate(curve, lam, [_build_input(config, lam, phase)])
        mu, f, vals = sample.mu, sample.inputs[0], sample.fields[0]
        inside = None
        if is_knapp:
            fam = config.family
            rho = fam.rho if fam.rho is not None else 1.0 / (2 * d)
            box = knapp_box(phase, fam.t0 + lam ** -rho, lam, 1.0, rho=rho)
            cap = mu.nodes[:, 0] < 0
            inside = np.zeros(mu.size, dtype=bool)
            inside[cap] = box.contains(mu.nodes[cap, 1:])
        recs = []
        for q in config.qs:
            nrm = lq_norm(vals, mu, q)
            wit = 0.0
            if inside is not None and not math.isinf(q):
                wit = float(np.sum(mu.weights[inside]
                                   * np.abs(vals[inside]) ** q) ** (1 / q))
            s = (d - 1) / q if not math.isinf(q) else 0.0
            for p in config.ps:
                fn = lp_norm(f, p)
                ratio = nrm / (lam ** -s * fn)
                recs.append(SweepRecord(
                    lam=lam, p=p, q=q, input_norm=fn, field_norm=nrm,
                    decay_exponent=s, ratio=ratio, resolution=mu.size,
                    max_spacing=mu.max_spacing, panels=sample.panels,
                    witness_norm=wit,
                    witness_ratio=(wit / (lam ** -s * fn)) if wit else 0.0))
        return recs

    nested = _ordered_map(run_one, sorted(config.lams), config.threads)
    records = [r for sub in nested for r in sub]
    fits = _sweep_fits(config, records) if len(config.lams) >= 2 else {}

    header = [
        f"decay_sweep d={d} family={config.family.name}",
        f"curve={curve.name}",
        f"family_params={config.family}",
        f"lams={list(map(_fmt, sorted(config.lams)))} seed={config.seed}",
        "ratio = field_norm / (lambda^-decay_exponent * input_norm)",
    ]
    csv_text = write_csv(config.out, header, SweepRecord.HEADER,
                         [r.row() for r in records])
    return SweepResult(config=config, records=records, fits=fits,
                       csv_text=csv_text)


# ----------------------------------------------------------------------
# randomized lower bound
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class KhintchineRecord:
    lam: float
    p: float
    q: float
    ell: int
    interval_len: float
    c_used: float
    mean_power: float            # E ||sum eps_k field_k||_q^q
    std_err: float
    lower_bound: float           # lambda^{-q/(2d)} sum |P_k|
    upper_chain: float           # lambda^{-(d-1)} delta^{q/p}
    ratio: float                 # mean / lower_bound
    resolution: int
    panels: int

    HEADER = ["lambda", "p", "q", "ell", "interval_len", "c_used",
              "mean_power", "std_err", "lower_bound", "upper_chain",
              "ratio", "resolution", "panels"]

    def row(self) -> list:
        return [self.lam, self.p, self.q, self.ell, self.interval_len,
                self.c_used, self.mean_power, self.std_err,
                self.lower_bound, self.upper_chain, self.ratio,
                self.resolution, self.panels]


@dataclass(frozen=True)
class KhintchineResult:
    records: list
    csv_text: str

    def band(self, q: float | None = None) -> float:
        ratios = [r.ratio for r in self.records
                  if q is None or r.q == q]
        return max(ratios) / min(ratios)


def khintchine_experiment(config: SweepConfig,
                          c: float | None = None) -> KhintchineResult:
    """Empirical mean of ||sum_k eps_k T chi_k||_q^q against its bounds.

    Each interval's indicator is recentered at its own anchor; the sign
    patterns are drawn once from the seed before any parallel dispatch
    and every draw reuses the same per-interval fields, so the sample
    set never depends on thread count.  A shared dyadic c (the min of
    the per-lambda calibrations) keeps the box volumes an exact power
    law in lambda.
    """
    fam = config.family
    if not isinstance(fam, RandomFamily):
        raise ConfigError("khintchine_experiment needs a random family")
    if any(q < 2 for q in config.qs):
        raise ConfigError("the randomized bound needs q >= 2")
    if fam.n_samples < 32:
        raise ConfigError("need at least 32 sign samples")
    curve = config.curve
    d = curve.dim
    delta = fam.delta
    phase = graph_phase(curve, sphere_cap_graph(d))
    lams = sorted(config.lams)

    parts = {lam: partition_family(phase, delta, lam) for lam in lams}
    if c is None:
        c = min(
            calibrate_c(phase, float(part.anchors[-1]), lam,
                        interval=part.intervals[-1])
            for lam, part in parts.items()
        )

    rng = np.random.default_rng(config.seed)
    max_ell = max(p_.ell for p_ in parts.values())
    sign_table = rng.integers(0, 2, size=(fam.n_samples, max_ell)) * 2 - 1

    def run_one(lam: float):
        part = parts[lam]
        sample = _evaluate(curve, lam, [TestFunction((part.segment(k),))
                                        for k in range(part.ell)])
        mu, fields = sample.mu, np.stack(sample.fields)
        signs = sign_table[:, : part.ell]
        boxes = part.boxes(c)
        vol = sum(b.volume for b in boxes)
        recs = []
        for q in config.qs:
            powers = np.empty(fam.n_samples)
            for i in range(fam.n_samples):
                combo = signs[i].astype(complex) @ fields
                powers[i] = float(np.sum(mu.weights * np.abs(combo) ** q))
            lb = lam ** (-q / (2 * d)) * vol
            mean = float(np.mean(powers))
            for p in config.ps:
                upper = lam ** (-(d - 1)) * delta ** (
                    q / p if not math.isinf(p) else 0.0)
                recs.append(KhintchineRecord(
                    lam=lam, p=p, q=q, ell=part.ell,
                    interval_len=part.intervals[0][1] - part.intervals[0][0],
                    c_used=c, mean_power=mean,
                    std_err=float(np.std(powers)
                                  / math.sqrt(fam.n_samples)),
                    lower_bound=lb, upper_chain=upper, ratio=mean / lb,
                    resolution=mu.size, panels=sample.panels))
        return recs

    nested = _ordered_map(run_one, lams, config.threads)
    records = [r for sub in nested for r in sub]

    header = [
        f"khintchine_experiment d={d} delta={_fmt(delta)}",
        f"curve={curve.name}",
        f"n_samples={fam.n_samples} seed={config.seed} c={_fmt(c)}",
        "mean_power = E ||sum_k eps_k T chi_k||_q^q over sign draws",
        "lower_bound = lambda^(-q/(2d)) * sum_k |P_k|",
    ]
    csv_text = write_csv(config.out, header, KhintchineRecord.HEADER,
                         [r.row() for r in records])
    return KhintchineResult(records=records, csv_text=csv_text)


# ----------------------------------------------------------------------
# phase diagram
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseDiagramResult:
    cells: list                  # dict rows
    agreement: float             # sign match fraction among off-band cells
    n_off_band: int
    csv_text: str


def phase_diagram(d: int, grid_n: int, family=None, lam_pair=None,
                  band: float = 0.02, out=None, seed: int = 0,
                  threads: int = 1) -> PhaseDiagramResult:
    """Measured two-lambda excess slopes over the (1/p, 1/q) square.

    One field per lambda serves the whole grid: only the normalization
    lambda^{-(d-1)/q} ||f||_p changes from cell to cell.  Sign agreement
    is scored against the region classification outside a band around
    the predicted-excess zero set.  lam_pair defaults to (64, 1024) for
    the Knapp family and (256, 1024) for the random one, whose default
    delta = 1/4 needs lambda >= delta^(-2d) (256 at d = 2).
    """
    if family is None:
        family = KnappFamily()
    if not isinstance(family, (KnappFamily, RandomFamily)):
        raise ConfigError("phase_diagram supports knapp or random families")
    if lam_pair is None:
        lam_pair = ((256.0, 1024.0) if isinstance(family, RandomFamily)
                    else (64.0, 1024.0))
    if len(lam_pair) != 2 or lam_pair[0] == lam_pair[1]:
        raise ConfigError("lam_pair must hold two distinct lambda values")
    if grid_n < 2:
        raise ConfigError("grid_n >= 2 required")

    curve = moment_curve(d)
    region = sphere_region(d)
    config = SweepConfig(curve=curve, family=family,
                         lams=tuple(sorted(lam_pair)), qs=(2.0,),
                         ps=(2.0,), seed=seed, threads=threads)
    phase = graph_phase(curve, sphere_cap_graph(d))

    samples = _ordered_map(
        lambda lam: _evaluate(curve, lam, [_build_input(config, lam, phase)]),
        config.lams, config.threads)
    lam0, lam1 = config.lams
    dlog = math.log(lam1) - math.log(lam0)

    cells = []
    n_match = 0
    n_off = 0
    fractions = [Fraction(j, grid_n - 1) for j in range(grid_n)]
    for inv_p in fractions:
        for inv_q in fractions:
            pt = ExponentPoint(inv_p, inv_q)
            q = float("inf") if inv_q == 0 else float(1 / inv_q)
            p = float("inf") if inv_p == 0 else float(1 / inv_p)
            s = (d - 1) * float(inv_q)
            ratios = [lq_norm(sm.fields[0], sm.mu, q)
                      / (sm.lam ** -s * lp_norm(sm.inputs[0], p))
                      for sm in samples]
            if not all(0 < r < math.inf for r in ratios):
                raise ComputationError(
                    f"ratio {ratios} at 1/p={inv_p}, 1/q={inv_q} has no log")
            measured = (math.log(ratios[1]) - math.log(ratios[0])) / dlog
            predicted = float(predicted_excess(pt, family.name, d))
            cls = region.classify(pt)
            off_band = abs(predicted) > band
            match = None
            if off_band and cls != "boundary":
                want_positive = cls == "exterior"
                match = (measured > 0) == want_positive
                n_off += 1
                n_match += int(match)
            cells.append({
                "inv_p": float(inv_p), "inv_q": float(inv_q),
                "class": cls, "predicted_excess": predicted,
                "measured_excess": measured,
                "off_band": int(off_band),
                "sign_match": "" if match is None else int(match),
            })

    agreement = n_match / n_off if n_off else 1.0
    cols = ["inv_p", "inv_q", "class", "predicted_excess",
            "measured_excess", "off_band", "sign_match"]
    header = [
        f"phase_diagram d={d} grid_n={grid_n} family={family.name}",
        f"lam_pair={_fmt(lam0)},{_fmt(lam1)} band={_fmt(band)}",
        "measured_excess = two-point slope of log ratio, to 10 decimals",
    ]
    # the slope prints to 1e-10 absolute: at 1/q = 0 it is the slope of two
    # nearly equal sup norms, whose last printed digits would be round-off
    # (+ 0.0 turns a rounded -0.0 into 0)
    rows = [[round(c[k], 10) + 0.0 if k == "measured_excess" else c[k]
             for k in cols] for c in cells]
    csv_text = write_csv(out, header, cols, rows)
    return PhaseDiagramResult(cells=cells, agreement=agreement,
                              n_off_band=n_off, csv_text=csv_text)


# ----------------------------------------------------------------------
# k-dimensional graph experiment
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class KdimRecord:
    lam: float
    q: float
    ell: int
    box_volume: float
    sum_volumes: float
    closed_form_slope: float     # -(q - q_c)/(2d), from continuum counts
    min_field_ratio: float       # min |T chi_1| / |I_1| over the box lattice
    field_ok: int
    resolution: int              # lattice points per box used in the check
    panels: int

    HEADER = ["lambda", "q", "ell", "box_volume", "sum_volumes",
              "closed_form_slope", "min_field_ratio", "field_ok",
              "resolution", "panels"]

    def row(self):
        return [self.lam, self.q, self.ell, self.box_volume,
                self.sum_volumes, self.closed_form_slope,
                self.min_field_ratio, self.field_ok, self.resolution,
                self.panels]


@dataclass(frozen=True)
class KdimResult:
    records: list
    q_critical: float
    slopes: dict                 # q -> closed-form slope
    csv_text: str


def kdim_experiment(d: int, k: int, curve: Curve, lams, qs,
                    extent: float = 0.75, c: float | None = None,
                    out=None) -> KdimResult:
    """Sign of the excess slope across the k-dimensional threshold.

    The slope of log[lambda^{-q/(2d)} N(lambda) |P-bar| / lambda^{-k}]
    with the continuum box count N = extent lambda^{1/(2d)} is exactly
    -(q - q_c)/(2d), flipping sign at q_c = (2d-k+1)k/2 + 1.  The field
    computation validates the mechanism behind the bound: each interval
    indicator, recentered at its anchor, keeps |T chi| >= 0.4 |I| across
    the whole dual box.
    """
    patch = submanifold_builder(d, k, curve, extent=extent)
    phase = PhaseSpec(kind="graph", curve=curve, patch=patch, offset=0.0)
    qc = float(kdim_threshold(d, k))
    lams = sorted(float(v) for v in lams)

    if c is None:
        part0 = partition_family(phase, extent, lams[0])
        c = calibrate_c(phase, float(part0.anchors[-1]), lams[0],
                        interval=part0.intervals[-1])

    records = []
    slopes = {float(q): -(float(q) - qc) / (2 * d) for q in qs}
    for lam in lams:
        part = partition_family(phase, extent, lam)
        boxes = part.boxes(c)
        vol = boxes[0].volume
        total = sum(b.volume for b in boxes)

        f1 = TestFunction((part.segment(0),))
        ylat = boxes[0].lattice(9)
        vals = eval_field(phase, lam, f1, ylat)
        ival = part.intervals[0][1] - part.intervals[0][0]
        min_ratio = float(np.min(np.abs(vals))) / ival
        panels = _segment_panel_count(phase, lam, f1.segments[0], ylat)

        for q in qs:
            records.append(KdimRecord(
                lam=lam, q=float(q), ell=part.ell, box_volume=vol,
                sum_volumes=total, closed_form_slope=slopes[float(q)],
                min_field_ratio=min_ratio, field_ok=int(min_ratio >= 0.4),
                resolution=ylat.shape[0], panels=panels))

    header = [
        f"kdim_experiment d={d} k={k} extent={_fmt(extent)} c={_fmt(c)}",
        f"curve={curve.name}",
        f"q_critical={_fmt(qc)}",
        "closed_form_slope = -(q - q_c)/(2d) from continuum box counts",
    ]
    csv_text = write_csv(out, header, KdimRecord.HEADER,
                         [r.row() for r in records])
    return KdimResult(records=records, q_critical=qc, slopes=slopes,
                      csv_text=csv_text)
