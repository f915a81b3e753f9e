"""Plain-text configuration files.

Grammar: ``[section]`` headers, ``key = value`` entries, ``#`` comments.
Values are parsed leniently: integers, reals, booleans and bare strings.
Ladders are comma-separated numbers.  Every run-facing object in the
package can be described by one section; see ``configs/`` for annotated
examples of each.
"""

from __future__ import annotations

import configparser
from pathlib import Path

from .errors import ConfigInvalid
from .fem import ProblemKind, ProblemTag
from .studies import StudyConfig
from .training import PerturbationSpec

_TRUE = {"true", "yes", "on"}
_FALSE = {"false", "no", "off"}


def _coerce(text: str):
    t = text.strip()
    low = t.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        return t


def _ladder(text: str) -> tuple:
    vals = tuple(_coerce(v) for v in text.split(",") if v.strip())
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in vals):
        raise ConfigInvalid(f"ladder {text!r} must be numeric")
    return vals


def load_config(path) -> dict:
    """Parse a config file into {section: {key: coerced value}}."""
    p = Path(path)
    if not p.is_file():
        raise ConfigInvalid(f"config file not found: {p}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(p.read_text())
    except configparser.Error as err:
        raise ConfigInvalid(f"{p}: {err}")
    return {s: {k: _coerce(v) for k, v in cp.items(s)} for s in cp.sections()}


def _section(cfg: dict, name: str) -> dict:
    if name not in cfg:
        raise ConfigInvalid(f"missing [{name}] section")
    return dict(cfg[name])


def check_keys(sec: dict, allowed, name: str, what: str = "keys") -> dict:
    """``sec`` itself; a key outside ``allowed`` raises ConfigInvalid naming it."""
    unknown = set(sec) - set(allowed)
    if unknown:
        raise ConfigInvalid(f"unknown {name} {what}: {sorted(unknown)}")
    return sec


def problem_from_name(name: str) -> ProblemKind:
    name = str(name).strip().lower()
    if name in ("a", "a_example", "divergence"):
        return ProblemKind(ProblemTag.A_EXAMPLE)
    if name in ("c", "c_example", "potential"):
        return ProblemKind(ProblemTag.C_EXAMPLE)
    raise ConfigInvalid(f"unknown problem {name!r}; use 'a' or 'c'")


def study_config(cfg: dict, seed=None, out=None) -> StudyConfig:
    sec = _section(cfg, "study")
    if "ladder" in sec:
        sec["ladder"] = _ladder(str(sec["ladder"]))
    if seed is not None:
        sec["seed"] = seed
    if out is not None:
        sec["out"] = str(out)
    check_keys(sec, StudyConfig.__dataclass_fields__, "study")
    try:
        return StudyConfig(**sec)
    except TypeError as err:
        raise ConfigInvalid(str(err))


def perturbation_from_section(sec: dict, seed=None) -> PerturbationSpec:
    try:
        return PerturbationSpec(
            mode=sec.get("mode", "sine"),
            amplitude=float(sec.get("amplitude", 0.1)),
            count=int(sec.get("count", 6)),
            seed=int(seed if seed is not None else sec.get("seed", 0)),
        )
    except (TypeError, ValueError) as err:
        raise ConfigInvalid(f"bad perturbation: {err}")
