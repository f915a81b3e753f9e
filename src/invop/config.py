"""Plain-text configuration files.

Grammar: ``[section]`` headers, ``key = value`` entries, ``#`` comments.
:func:`load_config` keeps every value as text; :func:`read_section` parses
each given value once, as the type of its key's default in the section's
schema ``{key: default}``: an ``int`` default takes an integer (``1e4`` is
not one), a ``float`` default a finite real number (not ``nan`` or ``inf``),
a tuple default a comma-separated ladder of finite real numbers, and any
other default (a string or None) the text itself.  A key outside the
schema, a value that does not parse, or a missing key whose default is
:data:`REQUIRED` raises ConfigInvalid naming the key.  See ``configs/`` for
annotated examples of each section.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, fields
from pathlib import Path

from .errors import ConfigInvalid
from .fem import ProblemKind
from .studies import StudyConfig

#: the schema default of a key that has none and must be given
REQUIRED = MISSING

_TYPE_WORDS = {int: "an integer", float: "a finite real number",
               tuple: "comma-separated finite real numbers"}


def load_config(path) -> dict:
    """Parse a config file into {section: {key: value text}}."""
    p = Path(path)
    if not p.is_file():
        raise ConfigInvalid(f"config file not found: {p}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(p.read_text())
    except configparser.Error as err:
        raise ConfigInvalid(f"{p}: {err}")
    return {s: dict(cp.items(s)) for s in cp.sections()}


def check_keys(sec: dict, allowed, name: str, what: str = "keys") -> dict:
    """``sec`` itself; a key outside ``allowed`` raises ConfigInvalid naming it."""
    unknown = set(sec) - set(allowed)
    if unknown:
        raise ConfigInvalid(f"unknown {name} {what}: {sorted(unknown)}")
    return sec


def _parse(name: str, key: str, text: str, default):
    kind = type(default)
    if kind not in _TYPE_WORDS:
        return text
    try:
        # float("") and float(" ") raise, so a blank ladder item is an error
        value = tuple(map(float, text.split(","))) if kind is tuple else kind(text)
        if all(map(math.isfinite, value if kind is tuple else (value,))):
            return value
    except ValueError:
        pass
    raise ConfigInvalid(f"[{name}] {key} must be {_TYPE_WORDS[kind]}, not {text!r}")


def read_section(cfg: dict, name: str, schema: dict) -> dict:
    """Every key of ``schema``: the config's [name] value parsed as the type
    of the key's default, or the default itself where the key is not given."""
    given = check_keys(cfg.get(name, {}), schema, name)
    sec = {}
    for key, default in schema.items():
        if key in given:
            sec[key] = _parse(name, key, given[key], default)
        elif default is REQUIRED:
            raise ConfigInvalid(f"[{name}] needs {key} = <value>")
        else:
            sec[key] = default
    return sec


def problem_from_name(name: str) -> ProblemKind:
    if name not in ("a", "c"):
        raise ConfigInvalid(f"unknown problem {name!r}; use 'a' or 'c'")
    return ProblemKind(name)


def study_config(cfg: dict, seed=None, out=None) -> StudyConfig:
    sec = read_section(cfg, "study", {f.name: f.default for f in fields(StudyConfig)})
    if seed is not None:
        sec["seed"] = seed
    if out is not None:
        sec["out"] = str(out)
    return StudyConfig(**sec)
