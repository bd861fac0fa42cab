"""Config-file parsing for the CLI.

Plain ``key = value`` text with sections [curve], [family] and
[sweep], read through configparser.  A section or key that the loader
does not read is refused with ConfigError.  Example::

    [curve]
    kind = moment(2)

    [family]
    kind = knapp
    t0 = 0.3

    [sweep]
    lams = 64, 128, 256
    qs = 3, 4
    ps = inf, 2
    seed = 7
"""

from __future__ import annotations

import ast
import configparser
import math
import os
import re
from dataclasses import fields

from .curves import Curve, moment_curve, monomial_curve, poly_curve
from .errors import ConfigError
from .harness import FAMILIES, BumpFamily, SweepConfig

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


# each [family] key a family class with that field reads; not n_samples, as
# a decay sweep draws one sign pattern per lambda and would ignore it
_FAMILY_KEYS = {"x0": parse_floats, "eps0": float, "t0": float,
                "rho": float, "delta": float}
# each [sweep] key with its parser (a blank ps reads as the default); threads,
# the thread knob sweeps no longer have, is not read: perfbench/bump-d2.ini
# still sets it, so it is tolerated until the benchmark drops it
_SWEEP_KEYS = {"lams": parse_floats, "qs": parse_floats,
               "ps": lambda text: parse_floats(text) or SweepConfig.ps,
               "seed": int, "out": str}


def _refuse_unknown(names, known, where: str) -> None:
    """Refuse with ConfigError the section or key names that known lacks."""
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise ConfigError(f"{where} has unknown {', '.join(unknown)}; it "
                          f"reads {', '.join(sorted(known))}")


def parse_family(section) -> object:
    """The section's family, from the keys it sets and defaults for the rest."""
    kind = section.get("kind", BumpFamily.name)
    _refuse_unknown([kind], FAMILIES, f"[{section.name}] kind")
    keys = {f.name for f in fields(FAMILIES[kind])} & _FAMILY_KEYS.keys()
    _refuse_unknown(section, {"kind"} | keys, f"[{section.name}]")
    return FAMILIES[kind](**{k: _FAMILY_KEYS[k](section[k]) for k in keys
                             if k in section})


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
    """Assemble a SweepConfig from a config file plus CLI overrides of seed
    and out (None for a flag not given, and [sweep] seed is then read)."""
    parser = load_config(path)
    _refuse_unknown([f"[{n}]" for n in parser.sections()],
                    ["[curve]", "[family]", "[sweep]"], path)
    if "curve" not in parser:
        raise ConfigError("config needs a [curve] section")
    _refuse_unknown(parser["curve"], {"kind"}, "[curve]")
    curve = parse_curve(parser["curve"].get("kind", ""))
    parser.read_dict({"family": {}, "sweep": {}})   # empty when left out
    family = parse_family(parser["family"])
    sweep = parser["sweep"]
    _refuse_unknown(sweep, _SWEEP_KEYS.keys() | {"threads"}, "[sweep]")
    # a key that a flag overrides is not read
    settings = {k: v for k, v in (overrides or {}).items() if v is not None}
    for key, parse in _SWEEP_KEYS.items():
        if key in sweep and key not in settings:
            try:
                settings[key] = parse(sweep[key])
            except ValueError as exc:
                raise ConfigError(f"[sweep] {key} in {path}: {exc}") from None
    if not settings.get("lams") or not settings.get("qs"):
        raise ConfigError("[sweep] must set lams and qs")
    return SweepConfig(curve=curve, family=family, **settings)
