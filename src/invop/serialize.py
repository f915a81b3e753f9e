"""Self-describing structured text files for coefficients and training data.

Format: a header line ``invop 1 <KIND>``, then one field per record as
``<name> <type> <dims...>`` followed by the numeric payload in row-major
order, one leading-index row per line, terminated by ``end``.  All floats
are written with 17 significant digits, so write-then-read reproduces every
finite value bit for bit.  Each array payload is parsed in one call.  A
truncated file, a missing field, a payload with the wrong number of rows
or entries, or fields whose shapes disagree raises :class:`ConfigInvalid`
naming the file and the field.  A grid function is written as
``<prefix>.n_cells`` and ``<prefix>.values``; the reader builds it from the
values and checks the cell count against them.  Every training set and
rank-N surrogate holds its ``load``, and every training set its
``perturbation.*``.  A surrogate file holds the one branch network once
(``branch.c``, a row per term, ``branch.w``, ``branch.theta``) and the
trunks per term; a file in an older layout, with a ``term0.branch.*``
field or without the shared ``s_points``, raises :class:`ConfigInvalid`
naming the field.  Fields a reader does not use, such as ``seed``, ``nu``, ``space`` or ``transform`` in
older files, are ignored; a rank-N file without ``problem`` raises
:class:`ConfigInvalid` naming it.  The surrogate's ``activation`` and the
training set's ``perturbation.mode`` are written as their one supported
value, and a file where either reads another value raises
:class:`ConfigInvalid` naming it.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch
from .fem import ProblemKind
from .grid import GridFunction
from .neural import BranchCoeffs, StructuredSurrogateCoeffs, TrunkCoeffs
from .training import LinearSurrogate, PerturbationSpec, SurrogateDiagnostics, TrainingSet

MAGIC = "invop 1"


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _write_field(lines: list, name: str, value):
    if isinstance(value, str):
        lines.append(f"{name} str {value}")
    elif isinstance(value, (int, np.integer)):
        lines.append(f"{name} int {int(value)}")
    elif isinstance(value, float):
        lines.append(f"{name} real {_fmt(value)}")
    else:
        a = np.asarray(value, dtype=float)
        dims = " ".join(str(d) for d in a.shape)
        lines.append(f"{name} array{a.ndim} {dims}")
        rows = a.reshape(-1, a.shape[-1]) if a.ndim > 1 else a.reshape(1, -1)
        lines.extend(" ".join(_fmt(v) for v in row) for row in rows.tolist())


def _write(path, kind: str, fields):
    lines = [f"{MAGIC} {kind}"]
    for name, value in fields:
        _write_field(lines, name, value)
    lines.append("end")
    Path(path).write_text("\n".join(lines) + "\n")


class _Fields(dict):
    """The fields of one file; a missing one raises ConfigInvalid naming it."""

    def __init__(self, path):
        super().__init__()
        self.path = path

    def __missing__(self, name):
        raise ConfigInvalid(f"{self.path}: missing field {name!r} (a damaged file or an "
                            "older layout); rebuild it with invop generate or invop build")


def _read(path, expect_kind: str) -> _Fields:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith(MAGIC):
        raise ConfigInvalid(f"{path}: not a recognized coefficient file")
    kind = lines[0][len(MAGIC):].strip()
    if kind != expect_kind:
        raise ConfigInvalid(f"{path}: contains {kind!r}, expected {expect_kind!r}")
    fields = _Fields(path)
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if line == "end":
            return fields
        if not line:
            continue
        name = line.split()[0]
        try:
            fields[name], i = _read_field(line, lines, i)
        except (IndexError, ValueError) as err:
            raise ConfigInvalid(f"{path}: field {name!r} is truncated or malformed: {err}") from None
    raise ConfigInvalid(f"{path}: missing end marker")


def _read_field(line: str, lines: list, i: int):
    """Value of the field whose header is ``line`` and the index of the line
    after its payload, which starts at ``lines[i]``."""
    parts = line.split()
    typ = parts[1]
    if typ == "str":
        return line.split(None, 2)[2], i
    if typ == "int":
        return int(parts[2]), i
    if typ == "real":
        return float(parts[2]), i
    if not typ.startswith("array"):
        raise ValueError(f"unknown field type {typ!r}")
    shape = tuple(int(d) for d in parts[2:])
    if len(shape) != int(typ[len("array"):]):
        raise ValueError(f"{typ} with dimensions {shape}")
    n_rows = 1 if len(shape) == 1 else math.prod(shape[:-1])
    block = lines[i:i + n_rows]
    if len(block) != n_rows:
        raise ValueError(f"expected {n_rows} payload rows, found {len(block)}")
    data = np.loadtxt(block, ndmin=2)
    size = math.prod(shape)
    if data.size != size:
        raise ValueError(f"expected {size} entries, found {data.size}")
    return data.reshape(shape), i + n_rows


# ---------------------------------------------------------------------------
# grid functions


def _put_grid(fields: list, prefix: str, g: GridFunction):
    fields.append((f"{prefix}.n_cells", g.n_cells))
    fields.append((f"{prefix}.values", g.values))


def _get_grid(fields: _Fields, prefix: str) -> GridFunction:
    n, values = fields[f"{prefix}.n_cells"], fields[f"{prefix}.values"]
    g = _shaped(fields.path, f"{prefix}.*", GridFunction, values)
    if g.n_cells != n:
        raise ConfigInvalid(f"{fields.path}: fields {prefix}.*: {n} cells need {n + 1} "
                            f"nodal values, got {values.size}")
    return g


def _shaped(path, name: str, make, *args):
    """make(*args), where a DimensionMismatch (fields whose shapes disagree)
    raises ConfigInvalid naming the file and the fields."""
    try:
        return make(*args)
    except DimensionMismatch as err:
        raise ConfigInvalid(f"{path}: fields {name}: {err}") from None


#: fields every file of its kind holds with this one value
ACTIVATION = "logistic"
PERTURBATION_MODE = "sine"


def _problem(fields: _Fields) -> ProblemKind:
    try:
        return ProblemKind(fields["problem"])
    except ValueError:
        names = ", ".join(repr(k.value) for k in ProblemKind)
        raise ConfigInvalid(f"{fields.path}: field 'problem' reads {fields['problem']!r}; "
                            f"choose from {names}") from None


def _check_pinned(fields: _Fields, name: str, value: str):
    if fields[name] != value:
        raise ConfigInvalid(f"{fields.path}: field {name!r} reads {fields[name]!r}; "
                            f"only {value!r} is supported")


# ---------------------------------------------------------------------------
# operator coefficients


def save_structured(path, s: StructuredSurrogateCoeffs):
    fields = [("activation", ACTIVATION), ("n_terms", s.n_terms),
              ("s_points", s.s_points), ("branch.c", s.branch.c),
              ("branch.w", s.branch.w), ("branch.theta", s.branch.theta)]
    for i, t in enumerate(s.trunks):
        fields += [
            (f"term{i}.trunk.c", t.c),
            (f"term{i}.trunk.w", t.w),
            (f"term{i}.trunk.zeta", t.zeta),
        ]
    _write(path, "StructuredSurrogateCoeffs", fields)


def load_structured(path) -> StructuredSurrogateCoeffs:
    f = _read(path, "StructuredSurrogateCoeffs")
    _check_pinned(f, "activation", ACTIVATION)
    old = next((name for name in f if name.startswith("term0.branch.")), None)
    if old is not None:
        raise ConfigInvalid(f"{path}: field {old!r} belongs to the layout with one branch "
                            "network per term; rebuild the surrogate with invop build")
    trunks = tuple(
        _shaped(path, f"term{i}.trunk.*", TrunkCoeffs,
                f[f"term{i}.trunk.c"], f[f"term{i}.trunk.w"], f[f"term{i}.trunk.zeta"])
        for i in range(f["n_terms"])
    )
    branch = _shaped(path, "branch.*", BranchCoeffs, f["branch.c"], f["branch.w"],
                     f["branch.theta"])
    return _shaped(path, "branch.*, n_terms and s_points", StructuredSurrogateCoeffs,
                   branch, trunks, f["s_points"])


# ---------------------------------------------------------------------------
# training sets and linear surrogates


def save_training_set(path, ts: TrainingSet):
    fields = [
        ("problem", ts.problem.value),
        ("n_pairs", len(ts.pairs)),
        ("perturbation.mode", PERTURBATION_MODE),
        ("perturbation.amplitude", ts.perturbation.amplitude),
        ("perturbation.count", ts.perturbation.count),
    ]
    _put_grid(fields, "load", ts.load)
    for i, (x, y) in enumerate(ts.pairs):
        _put_grid(fields, f"pair{i}.x", x)
        _put_grid(fields, f"pair{i}.y", y)
    _write(path, "TrainingSet", fields)


def load_training_set(path) -> TrainingSet:
    f = _read(path, "TrainingSet")
    pairs = tuple(
        (_get_grid(f, f"pair{i}.x"), _get_grid(f, f"pair{i}.y"))
        for i in range(f["n_pairs"])
    )
    _check_pinned(f, "perturbation.mode", PERTURBATION_MODE)
    pert = PerturbationSpec(f["perturbation.amplitude"], f["perturbation.count"])
    return TrainingSet(pairs, _problem(f), pert, _get_grid(f, "load"))


#: the surrogate error diagnostics ``invop build`` stores with the rank-N surrogate
DIAGNOSTIC_FIELDS = ("nu_N", "q_N", "r_N", "rho_bound")


def save_linear_surrogate(path, ls: LinearSurrogate, diagnostics: SurrogateDiagnostics):
    fields = [
        ("problem", ls.problem.value),
        ("n_terms", ls.n_terms),
    ]
    for i, (b, y) in enumerate(zip(ls.basis, ls.induced)):
        _put_grid(fields, f"basis{i}", b)
        _put_grid(fields, f"induced{i}", y)
    _put_grid(fields, "center.x", ls.center[0])
    _put_grid(fields, "center.y", ls.center[1])
    _put_grid(fields, "load", ls.load)
    fields += [(name, float(getattr(diagnostics, name))) for name in DIAGNOSTIC_FIELDS]
    _write(path, "LinearSurrogate", fields)


def load_linear_surrogate(path):
    """(surrogate, diagnostics)."""
    f = _read(path, "LinearSurrogate")
    n = f["n_terms"]
    basis = tuple(_get_grid(f, f"basis{i}") for i in range(n))
    induced = tuple(_get_grid(f, f"induced{i}") for i in range(n))
    center = (_get_grid(f, "center.x"), _get_grid(f, "center.y"))
    ls = LinearSurrogate(basis, induced, _problem(f), center, _get_grid(f, "load"))
    return ls, SurrogateDiagnostics(*(f[name] for name in DIAGNOSTIC_FIELDS), n_terms=n)
