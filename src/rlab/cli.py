"""Command line interface.

Exit codes: 0 success, 2 bad arguments or config (a ``ConfigError``,
such as a CSV path that cannot be written, or a plain ``ValueError``
refusing an argument), 3 numerical failure (a
``ComputationError``, such as a ``DataError`` from a check on computed
arrays, or numpy's ``LinAlgError``).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from .config import parse_floats, sweep_config_from_file
from .curves import moment_curve
from .errors import ComputationError, ConfigError
from .exponents import exponent_table, hyperplane_omega
from .harness import (
    FAMILIES,
    PHASE_DIAGRAM_HEADER,
    KdimRecord,
    KhintchineRecord,
    KnappFamily,
    RandomFamily,
    SweepConfig,
    SweepRecord,
    decay_sweep,
    kdim_experiment,
    khintchine_experiment,
    phase_diagram,
)
from .measures import (
    check_audit_arguments,
    dimension_audit,
    singular_alpha_measure,
    sphere_measure,
)

_CSV_NOTE = "\n".join([
    "CSV schemas: every file starts with '#'-prefixed header lines",
    "echoing the configuration, then one column-name row, then data rows.",
    *(f"{names}: {','.join(columns)}" for names, columns in (
        ("sweep/knapp", SweepRecord.HEADER),
        ("random-lower", KhintchineRecord.HEADER),
        ("phase-diagram", PHASE_DIAGRAM_HEADER), ("kdim", KdimRecord.HEADER))),
])


def _arg(*flags, **kwargs):
    """One add_argument call of a command table entry."""
    return flags, kwargs


_CONFIG = _arg("--config", required=True, help="config file path")
_SEED = _arg("--seed", type=int, default=None,
             help=f"seed for every random draw (default {SweepConfig.seed})")
_OUT = _arg("--out", default=None, help="CSV output path (default stdout)")


class _Command(NamedTuple):
    help: str
    description: str | None
    arguments: tuple
    run: Callable[[argparse.Namespace], int]


# subcommand name -> entry, in the order of the help listing
_COMMANDS: dict[str, _Command] = {}


def _command(name, help, *arguments, description=None):
    """Enter the decorated runner in the command table as subcommand name;
    the runner takes the parsed arguments and returns the exit code."""
    def enter(run):
        _COMMANDS[name] = _Command(help, description, arguments, run)
        return run
    return enter


def _given(args, *names) -> dict:
    """The flags among names that the command line sets, by name."""
    return {n: v for n, v in vars(args).items()
            if n in names and v is not None}


def _unwritable(out, reason):
    return ConfigError(f"cannot write the CSV to {out}: {reason}")


def _check_out(out) -> None:
    """Refuse, before the run and without making a file, an out path that
    is empty, names a directory, lies in a missing one or in one without
    write permission."""
    if out is None:
        return
    if not out:
        raise ConfigError("cannot write the CSV to an empty path")
    if os.path.isdir(out):
        raise _unwritable(out, os.strerror(errno.EISDIR))
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        raise _unwritable(out, os.strerror(code))
    if not os.access(parent, os.W_OK):
        raise _unwritable(out, os.strerror(errno.EACCES))


def _emit(text, out) -> None:
    """Write the CSV text to stdout, or to the file out when one is given."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _unwritable(out, exc.strerror) from exc


def _print_sweep(res, out) -> None:
    """The sweep's CSV, then one '# fit' line per (p, q)."""
    _emit(res.csv_text, out)
    for (p, q), fit in sorted(res.fits.items()):
        line = (f"# fit p={p} q={q}: norm_slope={fit['norm_slope']:+.5f} "
                f"ratio_slope={fit['ratio_slope']:+.5f} "
                f"resid_rms={fit['resid_rms']:.5f}")
        if "witness_slope" in fit:
            line += f" witness_slope={fit['witness_slope']:+.5f}"
        print(line)


@_command("exponents", "print critical exponents",
          _arg("--d", type=int, required=True))
def _exponents(args) -> int:
    tab = exponent_table(args.d)
    qc = tab["q_critical"]
    coeff = tab["line_coeff"]
    print(f"d={args.d}")
    print(f"q_c={qc}")
    print(f"critical line: 1/p + {coeff}*(1/q) = 1"
          + ("  i.e. 1/p + 2/q = 1" if coeff == 2 else ""))
    print(f"estimate holds on q > {qc} with 1/p + {coeff}/q < 1")
    return 0


@_command("sweep", "decay sweep from a config file", _CONFIG, _SEED, _OUT,
          description="Flags override the file's [sweep] values.")
def _sweep(args) -> int:
    config = sweep_config_from_file(
        args.config, {"seed": args.seed, "out": args.out})
    _check_out(config.out)
    _print_sweep(decay_sweep(config), config.out)
    return 0


@_command("knapp", "knapp-family excess sweep",
          _arg("--d", type=int, default=2),
          _arg("--t0", type=float, default=KnappFamily.t0),
          _arg("--rho", type=float, default=None),
          _arg("--lams", default="64,128,256,512,1024"),
          _arg("--qs", default="3,4"),
          _arg("--ps", default=",".join(map(str, SweepConfig.ps))),
          _OUT)
def _knapp(args) -> int:
    config = SweepConfig(curve=moment_curve(args.d),
                         family=KnappFamily(t0=args.t0, rho=args.rho),
                         lams=parse_floats(args.lams),
                         qs=parse_floats(args.qs),
                         ps=parse_floats(args.ps))
    _print_sweep(decay_sweep(config), args.out)
    return 0


@_command("random-lower", "randomized lower-bound experiment",
          _arg("--d", type=int, default=2),
          _arg("--delta", type=float, default=RandomFamily.delta),
          _arg("--n-samples", type=int, default=RandomFamily.n_samples),
          _arg("--lams", default="256,1024,4096"),
          _arg("--qs", default="3"),
          _SEED, _OUT)
def _random_lower(args) -> int:
    config = SweepConfig(
        curve=moment_curve(args.d),
        family=RandomFamily(delta=args.delta, n_samples=args.n_samples),
        lams=parse_floats(args.lams), qs=parse_floats(args.qs),
        **_given(args, "seed"))
    res = khintchine_experiment(config)
    _emit(res.csv_text, args.out)
    print(f"# ratio band across lambda: {res.band():.4f}")
    return 0


@_command("phase-diagram", "excess-sign grid",
          _arg("--d", type=int, default=2),
          _arg("--grid-n", type=int, default=20),
          _arg("--lam-pair", default=None,
               help="two lambdas for the slopes (default " + ", ".join(
                   "{:g},{:g} for {}".format(*cls.diagram_lams, name)
                   for name, cls in FAMILIES.items()
                   if hasattr(cls, "diagram_lams")) + ")"),
          _arg("--family", default=KnappFamily.name,
               choices=[n for n, c in FAMILIES.items()
                        if hasattr(c, "diagram_lams")]),
          _SEED, _OUT)
def _phase_diagram(args) -> int:
    family = FAMILIES[args.family]
    if family is not RandomFamily and args.seed is not None:
        raise ConfigError(f"--seed needs --family {RandomFamily.name}: "
                          f"{args.family} inputs draw nothing at random")
    lam_pair = (None if args.lam_pair is None
                else parse_floats(args.lam_pair))
    res = phase_diagram(args.d, args.grid_n, family=family(),
                        lam_pair=lam_pair, **_given(args, "seed"))
    _emit(res.csv_text, args.out)
    print(f"# off-band cells: {res.n_off_band}  "
          f"sign agreement: {res.agreement:.4f}")
    return 0


@_command("hyperplane", "hyperplane shadow coefficient",
          _arg("--d", type=int, required=True),
          _arg("--normal", required=True, help="comma separated components"))
def _hyperplane(args) -> int:
    normal = parse_floats(args.normal)
    omega = hyperplane_omega(normal, args.d)
    print(f"omega={omega}")
    print(f"critical line coefficient: "
          f"{args.d * (args.d - 1) // 2} + {omega}")
    return 0


@_command("kdim", "k-dimensional graph threshold",
          _arg("--d", type=int, default=4),
          _arg("--k", type=int, default=2),
          _arg("--lams", default="16,32"),
          _arg("--qs", default="6,7,8,9,10"),
          _arg("--extent", type=float),
          _OUT)
def _kdim(args) -> int:
    res = kdim_experiment(args.d, args.k, moment_curve(args.d),
                          parse_floats(args.lams), parse_floats(args.qs),
                          **_given(args, "extent"))
    _emit(res.csv_text, args.out)
    print(f"# q_critical={res.q_critical}")
    for q in sorted(res.slopes):
        print(f"# q={q}: closed-form slope {res.slopes[q]:+.5f}")
    return 0


@_command("audit-measure", "dimension audit",
          _arg("--d", type=int, default=2),
          _arg("--kind", default="sphere", choices=("sphere", "singular")),
          _arg("--alpha", type=float, default=None),
          _arg("--resolution", type=int, default=0),
          _SEED)
def _audit_measure(args) -> int:
    if args.kind == "singular" and args.alpha is None:
        args.alpha = 1.5
    given = _given(args, "alpha", "seed")
    check_audit_arguments(**given)       # refused before the build
    if args.kind == "sphere":
        mu = sphere_measure(args.d, args.resolution)
    else:
        mu = singular_alpha_measure(args.d, args.alpha, args.resolution)
    given.setdefault("alpha", mu.alpha)  # the sphere's own, without --alpha
    ratio = dimension_audit(mu, **given)
    print(f"max mass ratio mu(B)/r^alpha: {ratio:.6f}")
    return 0


def build_parser(names=None) -> argparse.ArgumentParser:
    """The rlab parser with the subcommands names, in table order by
    default every one; its usage line lists every subcommand either way."""
    ap = argparse.ArgumentParser(
        prog="rlab",
        description="Numerical laboratory for extension-operator decay "
                    "over curved measures.",
        epilog=_CSV_NOTE,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    # a one-entry parser shows the full parser's usage line, the brace list
    # of every subcommand; the full parser leaves that to argparse, so that
    # its missing-subcommand error still names the dest, "command"
    sub = ap.add_subparsers(
        dest="command", required=True,
        metavar=None if names is None else "{" + ",".join(_COMMANDS) + "}")
    for name in _COMMANDS if names is None else names:
        cmd = _COMMANDS[name]
        sp = sub.add_parser(name, help=cmd.help, description=cmd.description)
        for flags, kwargs in cmd.arguments:
            sp.add_argument(*flags, **kwargs)
    return ap


def _parse_args(argv) -> argparse.Namespace:
    """argv as the full parser parses it, from a parser holding only the
    subcommand argv[0] names (every one when it names none): the parsers
    of the others would cost a tenth of a small sweep."""
    names = argv[:1] if argv and argv[0] in _COMMANDS else None
    return build_parser(names).parse_args(argv)


def cli_main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_out(getattr(args, "out", None))
        return _COMMANDS[args.command].run(args)
    except (ComputationError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        # a plain ValueError is the library refusing an argument
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
