"""Config-file parsing for the CLI.

Plain ``key = value`` text with sections [curve], [family] and
[sweep], read through configparser.  A section or key that the loader
does not read is refused with ConfigError.  Example::

    [curve]
    kind = moment(2)

    [family]
    kind = knapp
    t0 = 0.2

    [sweep]
    lams = 64, 128, 256
    qs = 3, 4
    ps = inf
    seed = 0
"""

from __future__ import annotations

import ast
import configparser
import math
import os
import re

from .curves import Curve, moment_curve, monomial_curve, poly_curve
from .errors import ConfigError
from .harness import BumpFamily, KnappFamily, RandomFamily, SweepConfig

_CALL = re.compile(r"^\s*([a-z_]+)\s*\((.*)\)\s*$", re.S)


def parse_curve(text: str) -> Curve:
    """Curve grammar: moment(d) | monomial(a1,a2,...) | poly([[...],...])."""
    m = _CALL.match(text.strip())
    if not m:
        raise ConfigError(f"cannot parse curve {text!r}")
    head, body = m.group(1), m.group(2)
    try:
        if head == "moment":
            return moment_curve(int(body))
        if head == "monomial":
            orders = [int(v) for v in body.split(",") if v.strip()]
            return monomial_curve(orders)
        if head == "poly":
            table = ast.literal_eval(body)
            return poly_curve(table)
    except (ValueError, SyntaxError, TypeError) as exc:
        raise ConfigError(f"bad curve {text!r}: {exc}") from exc
    raise ConfigError(f"unknown curve kind {head!r}")


def parse_floats(text: str) -> tuple:
    """Comma (or semicolon) separated floats; 'inf' and 'oo' are infinity.

    A token that reads as NaN is refused with ValueError.
    """
    vals = []
    for tok in text.replace(";", ",").split(","):
        tok = tok.strip()
        if not tok:
            continue
        val = float("inf") if tok in ("inf", "oo") else float(tok)
        if math.isnan(val):
            raise ValueError(f"not a number: {tok!r}")
        vals.append(val)
    return tuple(vals)


_FAMILY_KEYS = {"bump": {"x0", "eps0"}, "knapp": {"t0", "rho"},
                "random": {"delta"}}
# threads is the thread knob sweeps no longer have; perfbench/bump-d2.ini
# still sets it, so it is tolerated until the benchmark drops it
_SWEEP_KEYS = {"lams", "qs", "ps", "seed", "out", "threads"}


def _refuse_unknown_keys(section, known: set) -> None:
    unknown = sorted(set(section) - known)
    if unknown:
        raise ConfigError(
            f"[{section.name}] has unknown key(s) {', '.join(unknown)}; "
            f"it reads {', '.join(sorted(known))}")


def parse_family(section) -> object:
    kind = section.get("kind", "bump").strip()
    if kind not in _FAMILY_KEYS:
        raise ConfigError(f"unknown family kind {kind!r}")
    _refuse_unknown_keys(section, {"kind"} | _FAMILY_KEYS[kind])
    if kind == "bump":
        x0 = section.get("x0")
        return BumpFamily(
            x0=None if x0 is None else tuple(parse_floats(x0)),
            eps0=section.getfloat("eps0", 1.0))
    if kind == "knapp":
        rho = section.get("rho")
        return KnappFamily(t0=section.getfloat("t0", 0.2),
                           rho=None if rho is None else float(rho))
    return RandomFamily(delta=section.getfloat("delta", 0.25))


def load_config(path: str) -> configparser.ConfigParser:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return parser


def sweep_config_from_file(path: str, overrides: dict | None = None
                           ) -> SweepConfig:
    """Assemble a SweepConfig from a config file plus CLI overrides."""
    parser = load_config(path)
    overrides = overrides or {}
    unknown = sorted(set(parser.sections()) - {"curve", "family", "sweep"})
    if unknown:
        raise ConfigError(f"unknown section(s) "
                          f"{', '.join(f'[{n}]' for n in unknown)}; "
                          "a config reads [curve], [family] and [sweep]")
    if "curve" not in parser:
        raise ConfigError("config needs a [curve] section")
    _refuse_unknown_keys(parser["curve"], {"kind"})
    curve = parse_curve(parser["curve"].get("kind", ""))
    family = (parse_family(parser["family"]) if "family" in parser
              else BumpFamily())
    if "sweep" not in parser:
        parser.add_section("sweep")
    sweep = parser["sweep"]
    _refuse_unknown_keys(sweep, _SWEEP_KEYS)

    def pick(key, fallback):
        if overrides.get(key) is not None:
            return overrides[key]
        return fallback

    lams = parse_floats(sweep.get("lams", ""))
    qs = parse_floats(sweep.get("qs", ""))
    ps = parse_floats(sweep.get("ps", "inf")) or (math.inf,)
    if not lams or not qs:
        raise ConfigError("[sweep] must set lams and qs")
    return SweepConfig(curve=curve, family=family, lams=lams, qs=qs, ps=ps,
                       seed=int(pick("seed", sweep.getint("seed", 0))),
                       out=pick("out", sweep.get("out", None)))
