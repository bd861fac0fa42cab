"""Sweep driver: lambda sweeps, slope fits, randomized lower bounds.

Each experiment produces an in-memory list of records plus its CSV text
with a self-describing '#' header; the harness writes no file (the CLI
puts the text on stdout or at --out).  CSV output contains no timing
data: reruns with identical config and seed must be byte-identical.
"""

from __future__ import annotations

import io
import math
import numbers
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .curves import Curve, moment_curve
from .errors import ComputationError, ConfigError, DomainError
from .exponents import ExponentPoint, kdim_threshold, predicted_excess, sphere_region
from .extremal import (
    bump_input,
    calibrate_c,
    knapp_box,
    knapp_rho,
    partition_family,
    solve_stationary,
)
from .measures import (
    sphere_cap_graph,
    sphere_measure,
    sphere_resolution_for,
    submanifold_builder,
)
from .oscillatory import (
    PhaseSpec,
    TestFunction,
    _segment_panel_count,  # uncalled; perfbench/tracing.py wraps this name
    eval_field,
    field,
    graph_phase,
    indicator,
    lp_norm,
    lq_norm,
    segment_fields,
)

PHASE_BAND = 0.02           # phase_diagram scores |predicted| > this only
_BOX_LATTICE = 9            # points per axis of the dual-box lattice; odd,
                            # so the witness can take Simpson's rule on it


# ----------------------------------------------------------------------
# families and configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BumpFamily:
    """Modulated indicator chi_[0, eps0] e^{-i lam x0 . gamma}; no diagram."""

    x0: tuple | None = None
    eps0: float = 1.0

    name = "bump"
    support_keys = "eps0"

    def __post_init__(self):
        if not 0 < self.eps0 < math.inf:
            raise ConfigError(f"eps0 {self.eps0} must be finite and positive")
        # off the sphere |F| no longer peaks on it; 1e-6 admits six decimals
        if self.x0 is not None and not abs(math.hypot(*self.x0) - 1) <= 1e-6:
            raise ConfigError(f"x0 {self.x0} must be a unit vector")

    def support(self, d: int, lam: float) -> tuple:
        """The parameter interval the input lives on."""
        return 0.0, self.eps0

    def input(self, phase: PhaseSpec, lam: float, seed: int) -> tuple:
        """The input at lambda, and no witness box."""
        x0 = (self.x0 if self.x0 is not None
              else default_bump_point(phase.curve.dim))
        return bump_input(phase.curve, lam, x0, self.eps0), None


@dataclass(frozen=True)
class KnappFamily:
    """Short interval [t0, t0 + lam^-rho], recentered at its anchor; rho is
    read by extremal.knapp_rho (1/(2d) when None)."""

    t0: float = 0.2
    rho: float | None = None

    name = "knapp"
    support_keys = "t0, rho"
    diagram_lams = (64.0, 1024.0)

    def __post_init__(self):
        try:
            knapp_rho(2, self.rho)   # the rule on rho does not read d
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def support(self, d: int, lam: float) -> tuple:
        """The parameter interval the input lives on; its end is the
        anchor."""
        return self.t0, self.t0 + lam ** -float(knapp_rho(d, self.rho))

    def input(self, phase: PhaseSpec, lam: float, seed: int) -> tuple:
        """The input at lambda, and the c = 1 dual box at its anchor; a box
        whose witness lattice leaves the chart is refused (ConfigError)."""
        t0, anchor = self.support(phase.curve.dim, lam)
        x_anchor = phase.embed(solve_stationary(phase, anchor)[None, :])[0]
        f = indicator(t0, anchor, modulation=(x_anchor, lam))
        box = knapp_box(phase, anchor, lam, 1.0, rho=self.rho)
        try:
            phase.embed(box.lattice(_BOX_LATTICE))
        except DomainError:
            raise ConfigError(
                f"the {self.name} witness box at lambda={lam:g} leaves the "
                f"sphere chart: check {self.support_keys} ({self})") from None
        return f, box

    def predicted_excess(self, point: ExponentPoint, d: int) -> Fraction:
        """rho (1/p + L/q - 1), L the sphere region's line coefficient
        (d^2 + d - 2)/2: the Knapp example beats the decay past its line."""
        return predicted_excess(point, sphere_region(d).line_coeff,
                                knapp_rho(d, self.rho))


@dataclass(frozen=True)
class RandomFamily:
    """Rademacher signs on the lambda^{-1/(2d)} partition of [0, delta]."""

    delta: float = 0.25
    n_samples: int = 64

    name = "random"
    support_keys = "delta"
    # the default delta = 1/4 needs lambda >= delta^(-2d), 256 at d = 2
    diagram_lams = (256.0, 1024.0)

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise ConfigError(
                f"delta {self.delta} must be finite and positive")

    def support(self, d: int, lam: float) -> tuple:
        """The parameter interval the input lives on."""
        return 0.0, self.delta

    def input(self, phase: PhaseSpec, lam: float, seed: int) -> tuple:
        """Signs from the seed on the partition at lambda; no witness box."""
        part = partition_family(phase, self.delta, lam)
        return part.input(part.random_signs(seed)[0]), None

    def predicted_excess(self, point: ExponentPoint, d: int) -> Fraction:
        """(q_c/q - 1)/(2d), q_c = d(d + 1)/2: the random-sign sum beats the
        decay below q_c, whatever p is."""
        return (sphere_region(d).q_threshold * point.inv_q - 1) / (2 * d)


FAMILIES = {cls.name: cls for cls in (BumpFamily, KnappFamily, RandomFamily)}


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
    out: str | None = None       # the CSV path; only the CLI reads it

    def __post_init__(self):
        lams, qs, ps = (_distinct(name, vs) for name, vs in (
            ("lambda", self.lams), ("q", self.qs), ("p", self.ps)))
        for lam in lams:
            if not 16 <= lam < math.inf:
                raise ConfigError(f"lambda {lam} must be finite and >= 16")
            if 2.0 ** round(math.log2(lam)) != lam:
                raise ConfigError(f"lambda {lam} is not a power of two")
        if not all(v >= 1 for v in qs + ps):
            raise ConfigError(f"q and p must be >= 1, got q={qs}, p={ps}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        object.__setattr__(self, "lams", lams)
        object.__setattr__(self, "qs", qs)
        object.__setattr__(self, "ps", ps)
        # the operator is defined for inputs on the curve's domain only
        lo, hi = self.curve.domain
        fam = self.family
        for lam in lams:
            a, b = fam.support(self.curve.dim, lam)
            if not lo <= a <= b <= hi:
                raise ConfigError(
                    f"the {fam.name} input lies on [{a:.6g}, {b:.6g}] at "
                    f"lambda={lam:g}, outside the curve's domain "
                    f"[{lo:g}, {hi:g}]: check {fam.support_keys} ({fam})")
        # an unallocatable sphere grid is refused before any field
        sphere_resolution_for(self.curve.dim, max(lams))


def _distinct(name: str, values) -> tuple:
    """values as floats, refused when there are none or one repeats."""
    vals = tuple(float(v) for v in values)
    if not vals or len(set(vals)) != len(vals):
        raise ConfigError(f"{name} values must be distinct and at least "
                          f"one, got {vals}")
    return vals


def _csv_record(cls):
    """Give a record dataclass its CSV schema: HEADER names the fields in
    order (lam is written as lambda) and row() gives their values."""
    names = [f.name for f in fields(cls)]
    cls.HEADER = ["lambda" if n == "lam" else n for n in names]
    cls.row = lambda self: [getattr(self, n) for n in names]
    return cls


@_csv_record
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


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def format_csv(header_lines: list, columns: list, rows: list) -> str:
    """Deterministic CSV text with '#' header echo."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue()


# ----------------------------------------------------------------------
# decay sweeps
# ----------------------------------------------------------------------

def _box_witness(phase: PhaseSpec, lam: float, f: TestFunction, box,
                 qs) -> tuple:
    """min |F| on box.lattice(_BOX_LATTICE), {q: L^q norm of F over the
    box} at the finite q of qs, and the panels eval_field used.  The
    surface weights, built only when a q asks for them, are tensor Simpson
    over |det M| times the chart area element sqrt(1 + |grad phi|^2).
    perfbench's kdim capture reads eval_field's four positional args."""
    n = _BOX_LATTICE
    lattice = box.lattice(n)
    stats = {}
    mods = np.abs(eval_field(phase, lam, f, lattice, stats=stats))
    finite = [q for q in qs if not math.isinf(q)]
    norms = {}
    if finite:
        simpson = (np.r_[1.0, np.tile([4.0, 2.0], n // 2)[:-1], 1.0]
                   / (3 * (n - 1)))
        w = np.ones(1)
        for h in box.half_widths:        # axis step 2h/(n - 1)
            w = np.multiply.outer(w, 2.0 * h * simpson).ravel()
        jac = phase.patch.jacobian(lattice)[:, 0, :]
        w = (w * np.sqrt(1.0 + np.sum(jac * jac, axis=1))
             / abs(np.linalg.det(box.transform)))
        norms = {q: float(np.sum(w * mods ** q) ** (1 / q)) for q in finite}
    return float(np.min(mods)), norms, stats["panels"]


def ols_fit(logx: np.ndarray, logy: np.ndarray) -> tuple:
    """Least-squares slope and residual RMS of a log-log cloud.

    logy may stack one cloud per column, shape (n, m); slope and RMS are
    then length-m arrays.  A 1-D logy gives two floats.
    """
    if logx.size < 2:
        raise ComputationError("slope fit needs at least two lambda values")
    y = logy.reshape(logx.size, -1)
    dx = (logx - logx.mean())[:, None]
    dy = y - y.mean(axis=0)
    # elementwise sums, not a BLAS product, so no thread count moves a bit
    slope = np.sum(dx * dy, axis=0) / np.sum(dx * dx)
    rms = np.sqrt(np.mean((dy - dx * slope) ** 2, axis=0))
    if logy.ndim == 1:
        return float(slope[0]), float(rms[0])
    return slope, rms


def _log_column(cells: list, name: str) -> np.ndarray:
    """log of one record column as an (n_lambda, cells) array, from each
    cell's records in lambda order; a zero, negative or non-finite value
    has no log and fails naming its lambda."""
    vals = np.array([[getattr(r, name) for r in cell] for cell in cells])
    bad = np.argwhere(~((vals > 0.0) & (vals < math.inf)))
    if bad.size:
        r = cells[bad[0, 0]][bad[0, 1]]
        raise ComputationError(
            f"{name} = {getattr(r, name)!r} at lambda={_fmt(r.lam)} "
            f"(p={_fmt(r.p)}, q={_fmt(r.q)}) has no log; no slope can be "
            "fitted")
    return np.log(vals).T


def _sweep_fits(config: SweepConfig, records: list) -> dict:
    """Per-(p, q) log-log slopes of the sweep records across lambda; each
    column is fitted for every (p, q) cell in one ols_fit call."""
    cells = {}
    for r in records:
        cells.setdefault((r.p, r.q), []).append(r)
    logl = np.log(np.array(sorted(config.lams)))
    rows = list(cells.values())
    slope_n, rms = ols_fit(logl, _log_column(rows, "field_norm"))
    slope_r, _ = ols_fit(logl, _log_column(rows, "ratio"))
    fits = {key: {"norm_slope": n, "ratio_slope": r, "resid_rms": e}
            for key, n, r, e in zip(cells, slope_n.tolist(),
                                    slope_r.tolist(), rms.tolist())}
    # only Knapp records carry a witness norm, and only at finite q
    wit = [key for key, cell in cells.items()
           if all(r.witness_norm > 0 for r in cell)]
    if wit:
        slope_w, _ = ols_fit(logl, _log_column([cells[k] for k in wit],
                                               "witness_ratio"))
        for key, s in zip(wit, slope_w.tolist()):
            fits[key]["witness_slope"] = s
    return fits


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    records: list
    fits: dict                   # (p, q) -> slopes; empty for one lambda

    @property
    def csv_text(self) -> str:
        """The CSV, formatted when read (phase_diagram never reads it)."""
        c = self.config
        header = [f"decay_sweep d={c.curve.dim} family={c.family.name}",
                  f"curve={c.curve.name}", f"family_params={c.family}",
                  f"lams={list(map(_fmt, sorted(c.lams)))} seed={c.seed}",
                  "ratio = field_norm / (lambda^-decay_exponent * input_norm)"]
        return format_csv(header, SweepRecord.HEADER,
                          [r.row() for r in self.records])


def decay_sweep(config: SweepConfig) -> SweepResult:
    """Field norms on the sphere across lambda, with per-(p,q) slopes.

    The sphere grid is rebuilt at every lambda with the node count of
    measures._sphere_rule; one field evaluation per lambda serves every
    (p, q) pair.
    Slopes are fitted only when there are at least two lambda values;
    a single lambda yields its records and empty ``fits``.

    The family builds every input and its witness box (Knapp: the c = 1
    dual box at the anchor) before the first sphere grid, so a refused
    one costs no field.  With a box, records at finite q carry the
    witness norm: the L^q norm of the field over the box alone, by
    ``_box_witness``.  The box construction bounds it from below, and it
    follows the predicted power law at moderate lambda, whereas the
    full-sphere norm also picks up the arc traced by the interval
    (|field| stays near |I| on it until lambda |I|^2 |w| passes pi, far
    beyond practical lambda).
    """
    curve = config.curve
    d = curve.dim
    phase = graph_phase(curve, sphere_cap_graph(d))

    lams = sorted(config.lams)
    inputs = [config.family.input(phase, lam, config.seed) for lam in lams]

    def run_one(lam: float, f: TestFunction, box):
        mu = sphere_measure(d, sphere_resolution_for(d, lam))
        stats = {}
        vals = field(curve, lam, f, mu, stats=stats)
        wits = (_box_witness(phase, lam, f, box, config.qs)[1]
                if box is not None else {})
        recs = []
        for q in config.qs:
            nrm = lq_norm(vals, mu, q)
            wit = wits.get(q, 0.0)
            s = (d - 1) / q if not math.isinf(q) else 0.0
            for p in config.ps:
                fn = lp_norm(f, p)
                ratio = nrm / (lam ** -s * fn)
                recs.append(SweepRecord(
                    lam=lam, p=p, q=q, input_norm=fn, field_norm=nrm,
                    decay_exponent=s, ratio=ratio, resolution=mu.size,
                    max_spacing=mu.max_spacing, panels=stats["panels"],
                    witness_norm=wit,
                    witness_ratio=(wit / (lam ** -s * fn)) if wit else 0.0))
        return recs

    records = [r for lam, (f, box) in zip(lams, inputs)
               for r in run_one(lam, f, box)]
    fits = _sweep_fits(config, records) if len(config.lams) >= 2 else {}
    return SweepResult(config=config, records=records, fits=fits)


# ----------------------------------------------------------------------
# randomized lower bound
# ----------------------------------------------------------------------

@_csv_record
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


@dataclass(frozen=True)
class KhintchineResult:
    records: list
    csv_text: str

    def band(self, q: float | None = None) -> float:
        ratios = [r.ratio for r in self.records
                  if q is None or r.q == q]
        return max(ratios) / min(ratios)


def khintchine_experiment(config: SweepConfig) -> KhintchineResult:
    """Empirical mean of ||sum_k eps_k T chi_k||_q^q against its bounds.

    Each interval's indicator is recentered at its own anchor.  Each
    lambda draws its n_samples sign patterns from the seed alone
    (part.random_signs), so they do not depend on the other lambdas of
    the run, and every draw reuses the same per-interval fields.  A
    shared dyadic c (the min of the per-lambda calibrations) keeps the
    box volumes an exact power law in lambda.
    """
    fam = config.family
    if not isinstance(fam, RandomFamily):
        raise ConfigError("khintchine_experiment needs a random family")
    if not all(2 <= q < math.inf for q in config.qs):
        # the lower bound lambda^(-q/(2d)) |P| is 0 at q = inf
        raise ConfigError("the randomized bound needs finite q >= 2")
    if fam.n_samples < 32:
        raise ConfigError("need at least 32 sign samples")
    curve = config.curve
    d = curve.dim
    delta = fam.delta
    phase = graph_phase(curve, sphere_cap_graph(d))
    lams = sorted(config.lams)

    parts = {lam: partition_family(phase, delta, lam) for lam in lams}
    c = min(calibrate_c(phase, float(part.anchors[-1]), lam,
                        interval=part.intervals[-1])
            for lam, part in parts.items())

    def run_one(lam: float):
        part = parts[lam]
        mu = sphere_measure(d, sphere_resolution_for(d, lam))
        f = part.input([1] * part.ell)
        stats = {}
        rows = segment_fields(curve, lam, f, mu.nodes, stats=stats)
        vol = sum(b.volume for b in part.boxes(c))
        powers_q = np.empty((len(config.qs), fam.n_samples))
        draws = part.random_signs(config.seed, fam.n_samples)
        for j, signs in enumerate(draws):
            # one signed sum per draw, in interval order, read by every q
            combo = np.zeros(mu.size, dtype=complex)
            for s_k, row in zip(signs, rows):
                if s_k > 0:
                    combo += row
                else:
                    combo -= row
            mods = np.abs(combo)
            powers_q[:, j] = [np.sum(mu.weights * mods**q) for q in config.qs]
        recs = []
        for q, powers in zip(config.qs, powers_q):
            lb = lam ** (-q / (2 * d)) * vol
            mean = float(np.mean(powers))
            # spread about the first draw, so equal powers (every draw of
            # one interval) give exactly 0, not the rounding of their mean
            std_err = float(np.std(powers - powers[0])
                            / math.sqrt(fam.n_samples))
            for p in config.ps:
                upper = lam ** (-(d - 1)) * delta ** (
                    q / p if not math.isinf(p) else 0.0)
                recs.append(KhintchineRecord(
                    lam=lam, p=p, q=q, ell=part.ell,
                    interval_len=part.intervals[0][1] - part.intervals[0][0],
                    c_used=c, mean_power=mean,
                    std_err=std_err,
                    lower_bound=lb, upper_chain=upper, ratio=mean / lb,
                    resolution=mu.size, panels=stats["panels"]))
        return recs

    records = [r for lam in lams for r in run_one(lam)]

    header = [
        f"khintchine_experiment d={d} delta={_fmt(delta)}",
        f"curve={curve.name}",
        f"n_samples={fam.n_samples} seed={config.seed} c={_fmt(c)}",
        "mean_power = E ||sum_k eps_k T chi_k||_q^q over sign draws",
        "lower_bound = lambda^(-q/(2d)) * sum_k |P_k|",
    ]
    csv_text = format_csv(header, KhintchineRecord.HEADER,
                          [r.row() for r in records])
    return KhintchineResult(records=records, csv_text=csv_text)


# ----------------------------------------------------------------------
# phase diagram
# ----------------------------------------------------------------------

PHASE_DIAGRAM_HEADER = ["inv_p", "inv_q", "class", "predicted_excess",
                        "measured_excess", "off_band", "sign_match"]


@dataclass(frozen=True)
class PhaseDiagramResult:
    cells: list                  # dict rows
    agreement: float             # sign match fraction among off-band cells
    n_off_band: int
    csv_text: str


def phase_diagram(d: int, grid_n: int, family=None, lam_pair=None,
                  seed: int = 0) -> PhaseDiagramResult:
    """Measured two-lambda excess slopes over the (1/p, 1/q) square.

    One decay sweep over the grid's exponents (infinity at 1/p = 0 and
    1/q = 0) gives every cell: its measured excess is the sweep's
    ratio_slope at that (p, q); its predicted excess is the family's
    ``predicted_excess``.  Sign agreement is scored against the region
    classification outside the band |predicted excess| <= PHASE_BAND
    around its zero set.  lam_pair defaults to the family's diagram_lams;
    a family without a predicted excess (bump) has no diagram.
    """
    if family is None:
        family = KnappFamily()
    if not hasattr(family, "predicted_excess"):
        raise ConfigError(f"the {family.name} family has no phase diagram")
    if lam_pair is None:
        lam_pair = family.diagram_lams
    if len(lam_pair) != 2:
        raise ConfigError("lam_pair must hold two lambda values")
    if grid_n < 2:
        raise ConfigError("grid_n >= 2 required")

    fractions = [Fraction(j, grid_n - 1) for j in range(grid_n)]
    exps = [math.inf if v == 0 else float(1 / v) for v in fractions]
    config = SweepConfig(curve=moment_curve(d), family=family,
                         lams=tuple(sorted(lam_pair)), qs=exps, ps=exps,
                         seed=seed)
    fits = decay_sweep(config).fits
    lam0, lam1 = config.lams
    region = sphere_region(d)

    cells = []
    n_match = 0
    n_off = 0
    for inv_p, p in zip(fractions, exps):
        for inv_q, q in zip(fractions, exps):
            pt = ExponentPoint(inv_p, inv_q)
            measured = fits[(p, q)]["ratio_slope"]
            predicted = float(family.predicted_excess(pt, d))
            cls = region.classify(pt)
            off_band = abs(predicted) > PHASE_BAND
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
    header = [
        f"phase_diagram d={d} grid_n={grid_n} family={family.name}",
        f"lam_pair={_fmt(lam0)},{_fmt(lam1)} band={_fmt(PHASE_BAND)}",
        "measured_excess = two-point slope of log ratio, to 10 decimals",
    ]
    # the slope prints to 1e-10 absolute: at 1/q = 0 it is the slope of two
    # nearly equal sup norms, whose last printed digits would be round-off
    # (+ 0.0 turns a rounded -0.0 into 0)
    rows = [[round(c[k], 10) + 0.0 if k == "measured_excess" else c[k]
             for k in PHASE_DIAGRAM_HEADER] for c in cells]
    csv_text = format_csv(header, PHASE_DIAGRAM_HEADER, rows)
    return PhaseDiagramResult(cells=cells, agreement=agreement,
                              n_off_band=n_off, csv_text=csv_text)


# ----------------------------------------------------------------------
# k-dimensional graph experiment
# ----------------------------------------------------------------------

@_csv_record
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


@dataclass(frozen=True)
class KdimResult:
    records: list
    q_critical: float
    slopes: dict                 # q -> closed-form slope
    csv_text: str


def kdim_experiment(d: int, k: int, curve: Curve, lams, qs,
                    extent: float = 0.75) -> KdimResult:
    """Sign of the excess slope across the k-dimensional threshold.

    The slope of log[lambda^{-q/(2d)} N(lambda) |P-bar| / lambda^{-k}]
    with the continuum box count N = extent lambda^{1/(2d)} is exactly
    (q_c - q)/(2d), flipping sign at q_c = (2d-k+1)k/2 + 1.  The field
    computation validates the mechanism behind the bound: each interval
    indicator, recentered at its anchor, keeps |T chi| >= 0.4 |I| across
    the whole dual box.
    """
    lams, qs = sorted(_distinct("lambda", lams)), _distinct("q", qs)
    for lam in lams:
        if not 0 < lam < math.inf:
            raise ConfigError(f"lambda {lam} must be finite and positive")
    if not all(1 <= q < math.inf for q in qs):
        # the closed-form slope (q_c - q)/(2d) is infinite at q = inf
        raise ConfigError(f"q must be finite and >= 1, got q={qs}")
    if not 0 < extent < math.inf:
        raise ConfigError(f"extent {extent} must be finite and positive")
    # the intervals partition [0, extent], which must lie on the domain
    lo, hi = curve.domain
    if lo > 0.0 or extent > hi:
        raise ConfigError(
            f"the kdim input lies on [0, {extent:g}], outside the curve's "
            f"domain [{lo:g}, {hi:g}]: check extent")
    patch = submanifold_builder(d, k, curve, extent=extent)
    phase = graph_phase(patch.curve, patch)
    qc = float(kdim_threshold(d, k))

    part0 = partition_family(phase, extent, lams[0])
    c = calibrate_c(phase, float(part0.anchors[-1]), lams[0],
                    interval=part0.intervals[-1])

    records = []
    # q_c - q, not -(q - q_c), so that q = q_c gives 0 and not -0
    slopes = {q: (qc - q) / (2 * d) for q in qs}
    for lam in lams:
        part = partition_family(phase, extent, lam)
        boxes = part.boxes(c)
        vol = boxes[0].volume
        total = sum(b.volume for b in boxes)

        f1 = TestFunction((part.segment(0),))
        min_field, _, panels = _box_witness(phase, lam, f1, boxes[0], ())
        ival = part.intervals[0][1] - part.intervals[0][0]
        min_ratio = min_field / ival

        for q in qs:
            records.append(KdimRecord(
                lam=lam, q=q, ell=part.ell, box_volume=vol,
                sum_volumes=total, closed_form_slope=slopes[q],
                min_field_ratio=min_ratio, field_ok=int(min_ratio >= 0.4),
                resolution=_BOX_LATTICE ** k, panels=panels))

    header = [
        f"kdim_experiment d={d} k={k} extent={_fmt(extent)} c={_fmt(c)}",
        f"curve={curve.name}",
        f"q_critical={_fmt(qc)}",
        "closed_form_slope = -(q - q_c)/(2d) from continuum box counts",
    ]
    csv_text = format_csv(header, KdimRecord.HEADER,
                          [r.row() for r in records])
    return KdimResult(records=records, q_critical=qc, slopes=slopes,
                      csv_text=csv_text)
