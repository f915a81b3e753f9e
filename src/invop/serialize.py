"""Training sets and surrogates as binary containers.

Each file is an uncompressed numpy ``.npz`` archive at exactly the given
path: a ``kind`` string and one array per field, the grid functions of a
record stacked as the rows of one array whose last axis is the mesh; the
records hold these arrays, bar the ``.rank`` file's center and probe pairs.

- ``TrainingSet``: ``problem``, ``load`` (n + 1,), and ``x`` and ``y``
  (pairs, n + 1), row 0 the center.
- ``LinearSurrogate`` (the ``.rank`` file): ``problem``, ``load`` (n + 1,),
  ``basis`` and ``induced`` (N, n + 1), ``center`` (2, n + 1), the
  held-out probe pair ``probes.x`` and ``probes.y`` (1, n + 1) of
  ``training.probe_pairs``, which repeats no training pair, and the
  diagnostics ``nu_N``, ``q_N`` and ``r_N``, from which
  ``SurrogateDiagnostics.rho_bound`` follows.
- ``StructuredSurrogateCoeffs``: its seven arrays, one field each, in the
  order of ``neural.FIELDS``: ``s_points`` (L,), ``branch.c`` (N, L + 1),
  ``branch.w`` (L,), ``branch.theta`` (L + 1,), and ``trunk.c``,
  ``trunk.w``, ``trunk.zeta`` (N, n_j).  Saving and loading are one loop
  over the field names, and the record itself checks the arrays.

The arrays fix every count and mesh, and no file stores what they give or
what no reader needs; a reader ignores the fields it does not use, such as
an older training file's perturbation amplitude.  Write then read
reproduces every array bit for bit, and one record always gives the same
bytes.  Files are read with ``allow_pickle=False``.  One that does not open
as a container (the older text layout, an empty or cut file, a bare
``.npy``, an object array) raises :class:`ConfigInvalid` naming the file,
as do a wrong kind and, naming the fields, a missing field, an unknown
``problem``, stacks not 2-D, shapes that disagree and grids on different
meshes.  A non-finite value raises :class:`NonFiniteValue` naming the field.
"""

from __future__ import annotations

import zipfile

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, NonFiniteValue
from .fem import ProblemKind
from .grid import GridFunction
from .neural import FIELDS, StructuredSurrogateCoeffs
from .training import LinearSurrogate, SurrogateDiagnostics, TrainingSet

_REBUILD = "rebuild it with invop generate or invop build"


def _write(path, kind: str, fields: dict):
    with open(path, "wb") as fh:  # given a name, np.savez would append ".npz"
        np.savez(fh, kind=kind, **fields)


class _Fields(dict):
    """The fields of one file; a missing one raises ConfigInvalid naming it."""

    def __init__(self, path):
        super().__init__()
        self.path = path

    def __missing__(self, name):
        raise ConfigInvalid(f"{self.path}: missing field {name!r} (a damaged file or an "
                            f"older layout); {_REBUILD}")

    def scalar(self, name: str):
        if self[name].shape != ():
            raise ConfigInvalid(f"{self.path}: field {name!r} holds shape "
                                f"{self[name].shape}, not one value")
        return self[name].item()

    def agree(self, names, axis: int = 0, what: str = "disagree in shape") -> list:
        """The named arrays, whose shapes from ``axis`` on must agree."""
        arrays = [self[name] for name in names]
        if len({a.shape[axis:] for a in arrays}) > 1 or min(a.ndim for a in arrays) == 0:
            shapes = ", ".join(f"{n} {a.shape}" for n, a in zip(names, arrays))
            raise ConfigInvalid(f"{self.path}: fields {', '.join(names)} {what}: {shapes}")
        return arrays


def _read(path, kind: str) -> _Fields:
    f = _Fields(path)
    with open(path, "rb") as fh:
        try:
            # np.load takes any other file for a bare .npy or a pickle
            if fh.read(4) != b"PK\x03\x04":
                raise ValueError("no zip archive")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as z:
                f.update((name, z[name]) for name in z.files)
        except (ValueError, EOFError, OSError, NotImplementedError, zipfile.BadZipFile) as err:
            raise ConfigInvalid(f"{path}: not an invop container ({err}): a damaged file or "
                                f"the older text layout; {_REBUILD}") from None
    if f.scalar("kind") != kind:
        raise ConfigInvalid(f"{path}: contains {f.scalar('kind')!r}, expected {kind!r}")
    for name, a in f.items():
        if a.dtype.kind == "f" and not np.all(np.isfinite(a)):
            raise NonFiniteValue(f"{path}: field {name!r} holds a non-finite value")
    return f


def _shaped(path, name: str, make, *args):
    """make(*args); a DimensionMismatch raises ConfigInvalid naming the fields."""
    try:
        return make(*args)
    except DimensionMismatch as err:
        raise ConfigInvalid(f"{path}: fields {name}: {err}") from None


def _grids(f: _Fields, *stacks: str) -> list:
    """The ``load`` as a grid function, then each named stacked field as a
    float array of one row per function, all on the load's mesh."""
    load, *arrays = f.agree(("load",) + stacks, -1, "lie on different meshes")
    for name, a in zip(stacks, arrays):
        if a.ndim != 2:
            raise ConfigInvalid(f"{f.path}: fields {name}: expected one row of nodal values "
                                f"per function, got shape {a.shape}")
    return [_shaped(f.path, "load", GridFunction, load)] + [np.asarray(a, float) for a in arrays]


def _problem(f: _Fields) -> ProblemKind:
    name = f.scalar("problem")
    try:
        return ProblemKind(name)
    except ValueError:
        names = ", ".join(repr(k.value) for k in ProblemKind)
        raise ConfigInvalid(f"{f.path}: field 'problem' reads {name!r}; "
                            f"choose from {names}") from None


def save_structured(path, s: StructuredSurrogateCoeffs):
    _write(path, "StructuredSurrogateCoeffs",
           {name: getattr(s, slot) for name, slot in zip(FIELDS, s.__slots__)})


def load_structured(path) -> StructuredSurrogateCoeffs:
    f = _read(path, "StructuredSurrogateCoeffs")
    f.agree(FIELDS[4:])  # the trunk arrays first, so that a disagreement names them
    return _shaped(path, "branch.*, trunk.* and s_points", StructuredSurrogateCoeffs,
                   *(f[name] for name in FIELDS))


def save_training_set(path, ts: TrainingSet):
    _write(path, "TrainingSet",
           {"problem": ts.problem.value, "load": ts.load.values, "x": ts.x, "y": ts.y})


def load_training_set(path) -> TrainingSet:
    f = _read(path, "TrainingSet")
    f.agree(("x", "y"))
    load, x, y = _grids(f, "x", "y")
    if len(x) < 2:  # the count of pairs after the center must be positive
        raise ConfigInvalid(f"{path}: fields x and y hold {len(x)} pair(s), not 2 or more")
    return TrainingSet(_problem(f), load, x, y)


#: the surrogate error diagnostics ``invop build`` stores with the rank-N surrogate
DIAGNOSTIC_FIELDS = ("nu_N", "q_N", "r_N")


def save_linear_surrogate(path, ls: LinearSurrogate, diagnostics: SurrogateDiagnostics):
    _write(path, "LinearSurrogate", {
        "problem": ls.problem.value, "load": ls.load.values, "basis": ls.basis,
        "induced": ls.induced, "center": np.stack([g.values for g in ls.center]),
        **{f"probes.{k}": np.stack([p[i].values for p in ls.probes]) for i, k in enumerate("xy")},
        **{name: float(getattr(diagnostics, name)) for name in DIAGNOSTIC_FIELDS}})


def load_linear_surrogate(path):
    """(surrogate, diagnostics)."""
    f = _read(path, "LinearSurrogate")
    f.agree(("basis", "induced"))
    f.agree(("probes.x", "probes.y"))
    if f["center"].shape[:1] != (2,):
        raise ConfigInvalid(f"{path}: field 'center' holds shape {f['center'].shape}, "
                            "not the two rows x and y")
    load, basis, induced, *pairs = _grids(f, "basis", "induced", "center", "probes.x",
                                          "probes.y")
    center, *probes = (tuple(map(GridFunction, a)) for a in pairs)
    ls = LinearSurrogate(basis, induced, _problem(f), center, load, tuple(zip(*probes)))
    diag = (f.scalar(name) for name in DIAGNOSTIC_FIELDS)
    return ls, SurrogateDiagnostics(*diag, n_terms=ls.n_terms)
