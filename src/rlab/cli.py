"""Command line interface.

Exit codes: 0 success, 2 bad arguments or config (a ``ConfigError`` or a
plain ``ValueError`` refusing an argument), 3 numerical failure (a
``ComputationError``, such as a ``DataError`` from a check on computed
arrays, or numpy's ``LinAlgError``).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import parse_floats, resolve_threads, sweep_config_from_file
from .curves import moment_curve
from .errors import ComputationError, ConfigError
from .exponents import exponent_table, hyperplane_omega
from .harness import (
    KnappFamily,
    RandomFamily,
    SweepConfig,
    decay_sweep,
    kdim_experiment,
    khintchine_experiment,
    phase_diagram,
)
from .measures import (
    dimension_audit,
    singular_alpha_measure,
    sphere_measure,
)

_CSV_NOTE = """CSV schemas: every file starts with '#'-prefixed header lines
echoing the configuration, then one column-name row, then data rows.
sweep/knapp: lambda,p,q,input_norm,field_norm,decay_exponent,ratio,
  resolution,max_spacing,panels,witness_norm,witness_ratio
random-lower: lambda,p,q,ell,interval_len,c_used,mean_power,std_err,
  lower_bound,upper_chain,ratio,resolution,panels
phase-diagram: inv_p,inv_q,class,predicted_excess,measured_excess,
  off_band,sign_match
kdim: lambda,q,ell,box_volume,sum_volumes,closed_form_slope,
  min_field_ratio,field_ok,resolution,panels"""


_FLAGS = {
    "config": dict(required=True, help="config file path"),
    "seed": dict(type=int, default=None,
                 help="seed for every random draw (default 0)"),
    "out": dict(default=None, help="CSV output path (default stdout)"),
    "threads": dict(type=int, default=None,
                    help="threads over lambda (default RLAB_THREADS, else 1); "
                         "output does not depend on it"),
}


def _add_flags(sp, *names):
    for name in names:
        sp.add_argument(f"--{name}", **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rlab",
        description="Numerical laboratory for extension-operator decay "
                    "over curved measures.",
        epilog=_CSV_NOTE,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("exponents", help="print critical exponents")
    sp.add_argument("--d", type=int, required=True)

    sp = sub.add_parser("sweep", help="decay sweep from a config file",
                        description="Flags override the file's [sweep] "
                                    "values.")
    _add_flags(sp, "config", "seed", "out", "threads")

    sp = sub.add_parser("knapp", help="knapp-family excess sweep")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--t0", type=float, default=0.2)
    sp.add_argument("--rho", type=float, default=None)
    sp.add_argument("--lams", default="64,128,256,512,1024")
    sp.add_argument("--qs", default="3,4")
    sp.add_argument("--ps", default="inf")
    _add_flags(sp, "out", "threads")

    sp = sub.add_parser("random-lower",
                        help="randomized lower-bound experiment")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--delta", type=float, default=0.25)
    sp.add_argument("--n-samples", type=int, default=64)
    sp.add_argument("--lams", default="256,1024,4096")
    sp.add_argument("--qs", default="3")
    _add_flags(sp, "seed", "out", "threads")

    sp = sub.add_parser("phase-diagram", help="excess-sign grid")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--grid-n", type=int, default=20)
    sp.add_argument("--lam-pair", default=None,
                    help="two lambdas for the slopes (default 64,1024 for "
                         "knapp, 256,1024 for random); the random family "
                         "(delta = 0.25) needs lambda >= delta^(-2d), "
                         "i.e. 256 at d=2")
    sp.add_argument("--family", default="knapp",
                    choices=("knapp", "random"))
    _add_flags(sp, "seed", "out", "threads")

    sp = sub.add_parser("hyperplane", help="hyperplane shadow coefficient")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--normal", required=True,
                    help="comma separated components")

    sp = sub.add_parser("kdim", help="k-dimensional graph threshold")
    sp.add_argument("--d", type=int, default=4)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--lams", default="16,32")
    sp.add_argument("--qs", default="6,7,8,9,10")
    sp.add_argument("--extent", type=float, default=0.75)
    _add_flags(sp, "out")

    sp = sub.add_parser("audit-measure", help="dimension audit")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--kind", default="sphere",
                    choices=("sphere", "singular"))
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--resolution", type=int, default=0)
    _add_flags(sp, "seed")
    return ap


def _emit(res, out) -> None:
    """Write the CSV to stdout unless the experiment wrote it to out."""
    if out is None:
        sys.stdout.write(res.csv_text)


def _run(args) -> int:
    if args.command == "exponents":
        tab = exponent_table(args.d)
        qc = tab["q_critical"]
        coeff = tab["line_coeff"]
        print(f"d={args.d}")
        print(f"q_c={qc}")
        print(f"critical line: 1/p + {coeff}*(1/q) = 1"
              + ("  i.e. 1/p + 2/q = 1" if coeff == 2 else ""))
        print(f"estimate holds on q > {qc} with 1/p + {coeff}/q < 1")
        return 0

    if args.command == "hyperplane":
        normal = parse_floats(args.normal)
        omega = hyperplane_omega(normal, args.d)
        print(f"omega={omega}")
        print(f"critical line coefficient: "
              f"{args.d * (args.d - 1) // 2} + {omega}")
        return 0

    if args.command == "sweep":
        config = sweep_config_from_file(
            args.config, {"seed": args.seed, "out": args.out,
                          "threads": args.threads})
        res = decay_sweep(config)
        _emit(res, config.out)
        for (p, q), fit in sorted(res.fits.items()):
            print(f"# fit p={p} q={q}: norm_slope={fit['norm_slope']:+.5f} "
                  f"ratio_slope={fit['ratio_slope']:+.5f} "
                  f"resid_rms={fit['resid_rms']:.5f}")
        return 0

    if args.command == "knapp":
        config = SweepConfig(curve=moment_curve(args.d),
                             family=KnappFamily(t0=args.t0, rho=args.rho),
                             lams=parse_floats(args.lams),
                             qs=parse_floats(args.qs),
                             ps=parse_floats(args.ps), out=args.out,
                             threads=resolve_threads(args.threads))
        res = decay_sweep(config)
        _emit(res, config.out)
        for (p, q), fit in sorted(res.fits.items()):
            line = (f"# fit p={p} q={q}: "
                    f"ratio_slope={fit['ratio_slope']:+.5f}")
            if "witness_slope" in fit:
                line += f" witness_slope={fit['witness_slope']:+.5f}"
            print(line)
        return 0

    if args.command == "random-lower":
        config = SweepConfig(
            curve=moment_curve(args.d),
            family=RandomFamily(delta=args.delta,
                                n_samples=args.n_samples),
            lams=parse_floats(args.lams), qs=parse_floats(args.qs),
            seed=args.seed or 0, out=args.out,
            threads=resolve_threads(args.threads))
        res = khintchine_experiment(config)
        _emit(res, config.out)
        print(f"# ratio band across lambda: {res.band():.4f}")
        return 0

    if args.command == "phase-diagram":
        family = (KnappFamily() if args.family == "knapp"
                  else RandomFamily())
        lam_pair = (None if args.lam_pair is None
                    else parse_floats(args.lam_pair))
        res = phase_diagram(args.d, args.grid_n, family=family,
                            lam_pair=lam_pair, out=args.out,
                            seed=args.seed or 0,
                            threads=resolve_threads(args.threads))
        _emit(res, args.out)
        print(f"# off-band cells: {res.n_off_band}  "
              f"sign agreement: {res.agreement:.4f}")
        return 0

    if args.command == "kdim":
        res = kdim_experiment(args.d, args.k, moment_curve(args.d),
                              parse_floats(args.lams), parse_floats(args.qs),
                              extent=args.extent, out=args.out)
        _emit(res, args.out)
        print(f"# q_critical={res.q_critical}")
        for q in sorted(res.slopes):
            print(f"# q={q}: closed-form slope {res.slopes[q]:+.5f}")
        return 0

    if args.command == "audit-measure":
        if args.kind == "sphere":
            mu = sphere_measure(args.d, args.resolution)
            alpha = args.d - 1 if args.alpha is None else args.alpha
        else:
            alpha = 1.5 if args.alpha is None else args.alpha
            mu = singular_alpha_measure(args.d, alpha,
                                        args.resolution or 64)
        ratio = dimension_audit(mu, alpha, seed=args.seed or 0)
        print(f"max mass ratio mu(B)/r^alpha: {ratio:.6f}")
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


def cli_main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except (ComputationError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        # a plain ValueError is the library refusing an argument
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
