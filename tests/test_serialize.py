import numpy as np
import pytest

from invop import serialize
from invop.errors import ConfigInvalid
from invop.fem import ProblemKind
from invop.grid import GridFunction
from invop.neural import eval_structured_with_gradient
from invop.serialize import (
    load_linear_surrogate,
    load_structured,
    load_training_set,
    save_linear_surrogate,
    save_structured,
    save_training_set,
)
from invop.training import (
    PerturbationSpec,
    assemble_neural_surrogate,
    build_linear_surrogate,
    generate_training_set,
    probe_pairs,
)

C = ProblemKind.C_EXAMPLE
N = 64


@pytest.fixture(scope="module")
def pipeline():
    f = GridFunction.constant(50.0, N)
    x0 = GridFunction.constant(1.0, N)
    ts = generate_training_set(C, f, x0, PerturbationSpec(0.1, 3))
    ls = build_linear_surrogate(ts)
    coeffs, diag = assemble_neural_surrogate(ls, 96, 10, seed=1, probes=probe_pairs(ts))
    return ts, ls, coeffs, diag


def test_training_set_round_trip_bitwise(pipeline, tmp_path):
    ts, _, _, _ = pipeline
    p = tmp_path / "ts.txt"
    save_training_set(p, ts)
    ts2 = load_training_set(p)
    assert ts2.problem is ts.problem
    assert ts2.perturbation == ts.perturbation
    for (x, y), (x2, y2) in zip(ts.pairs, ts2.pairs):
        assert np.array_equal(x.values, x2.values)
        assert np.array_equal(y.values, y2.values)


def test_linear_surrogate_round_trip_bitwise(pipeline, tmp_path):
    _, ls, _, diag = pipeline
    p = tmp_path / "ls.txt"
    save_linear_surrogate(p, ls, diag)
    ls2, diag2 = load_linear_surrogate(p)
    assert diag.nu_N > 0.0 and diag2 == diag
    assert ls2.problem is ls.problem
    for b, b2 in zip(ls.basis + ls.induced, ls2.basis + ls2.induced):
        assert np.array_equal(b.values, b2.values)
    assert np.array_equal(ls.center[0].values, ls2.center[0].values)


def test_fields_of_older_files_are_ignored(pipeline, tmp_path):
    # training sets with a seed and rank-N files with a transform still load
    ts, ls, _, diag = pipeline
    p, q = tmp_path / "ts.txt", tmp_path / "ls.txt"
    save_training_set(p, ts)
    save_linear_surrogate(q, ls, diag)
    for path, old in ((p, ["seed int 3", "perturbation.seed int 3"]),
                      (q, ["transform array2 2 2", "1 0", "0.5 2"])):
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + old + lines[2:]) + "\n")
    ts2 = load_training_set(p)
    assert ts2.perturbation == ts.perturbation
    for (x, y), (x2, y2) in zip(ts.pairs, ts2.pairs):
        assert np.array_equal(x.values, x2.values) and np.array_equal(y.values, y2.values)
    ls2, diag2 = load_linear_surrogate(q)
    assert diag2 == diag
    for b, b2 in zip(ls.basis + ls.induced, ls2.basis + ls2.induced):
        assert np.array_equal(b.values, b2.values)


def test_structured_round_trip_preserves_evaluation(pipeline, tmp_path):
    _, _, coeffs, _ = pipeline
    p = tmp_path / "st.txt"
    save_structured(p, coeffs)
    c2 = load_structured(p)
    assert "activation str logistic" in p.read_text().splitlines()
    for b, b2 in zip((coeffs.branch,) + coeffs.trunks, (c2.branch,) + c2.trunks):
        for name in type(b).__slots__:
            assert np.array_equal(_bits(getattr(b, name)), _bits(getattr(b2, name))), name
    assert np.array_equal(_bits(coeffs.s_points), _bits(c2.s_points))
    x = GridFunction.from_callable(lambda s: 1.0 + 0.05 * np.sin(np.pi * s), N)
    t = np.linspace(0, 1, 17)
    assert np.array_equal(eval_structured_with_gradient(coeffs, x, t)[0],
                          eval_structured_with_gradient(c2, x, t)[0])


def test_wrong_kind_rejected(pipeline, tmp_path):
    ts, _, _, _ = pipeline
    p = tmp_path / "ts.txt"
    save_training_set(p, ts)
    with pytest.raises(ConfigInvalid):
        load_structured(p)


def test_garbage_file_rejected(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("not a coefficient file\n")
    with pytest.raises(ConfigInvalid):
        load_training_set(p)


def test_truncated_file_rejected(pipeline, tmp_path):
    ts, _, _, _ = pipeline
    p = tmp_path / "ts.txt"
    save_training_set(p, ts)
    text = p.read_text().splitlines()
    (tmp_path / "cut.txt").write_text("\n".join(text[:-1]) + "\n")  # drop "end"
    with pytest.raises(ConfigInvalid):
        load_training_set(tmp_path / "cut.txt")


# -- bitwise round trip and the reference writer ----------------------------


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def test_extreme_and_random_values_round_trip_bitwise(tmp_path):
    special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                        -1.7976931348623157e308, 2.2250738585072014e-308])
    rng = np.random.default_rng(11)
    patterns = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64).view(float)
    flat = np.concatenate([special, patterns[np.isfinite(patterns)][:99_000]])
    square = flat[:300 * 330].reshape(300, 330)
    p = tmp_path / "values.txt"
    serialize._write(p, "Values", [("flat", flat), ("square", square),
                                   ("special", special)])
    f = serialize._read(p, "Values")
    assert f["square"].shape == (300, 330)
    for name, a in (("flat", flat), ("square", square), ("special", special)):
        assert np.array_equal(_bits(f[name]), _bits(a)), name
    assert p.read_text().splitlines()[-2] == (
        "-0 0 4.9406564584124654e-324 -4.9406564584124654e-324 "
        "1.7976931348623157e+308 -1.7976931348623157e+308 "
        "2.2250738585072014e-308")


def _reference_write_field(lines, name, value):
    """Every entry formatted on its own, one row at a time."""
    if isinstance(value, str):
        lines.append(f"{name} str {value}")
    elif isinstance(value, (int, np.integer)):
        lines.append(f"{name} int {int(value)}")
    elif isinstance(value, float):
        lines.append(f"{name} real {float(value):.17g}")
    else:
        a = np.asarray(value, dtype=float)
        dims = " ".join(str(d) for d in a.shape)
        lines.append(f"{name} array{a.ndim} {dims}")
        rows = a.reshape(-1, a.shape[-1]) if a.ndim > 1 else a.reshape(1, -1)
        for row in rows:
            lines.append(" ".join(f"{float(v):.17g}" for v in row))


def test_writer_text_matches_per_entry_reference(pipeline, tmp_path, monkeypatch):
    ts, ls, coeffs, diag = pipeline
    assert coeffs.n_terms >= 2
    saves = ((save_structured, (coeffs,)), (save_linear_surrogate, (ls, diag)),
             (save_training_set, (ts,)))
    for i, (save, args) in enumerate(saves):
        save(tmp_path / f"new{i}.txt", *args)
    monkeypatch.setattr(serialize, "_write_field", _reference_write_field)
    for i, (save, args) in enumerate(saves):
        save(tmp_path / f"ref{i}.txt", *args)
        assert (tmp_path / f"new{i}.txt").read_bytes() == (tmp_path / f"ref{i}.txt").read_bytes()


# -- damaged files ------------------------------------------------------------


def _damaged(tmp_path, text: str):
    p = tmp_path / "damaged.txt"
    p.write_text(text)
    return p


def test_file_cut_mid_payload_names_path_and_field(pipeline, tmp_path):
    _, _, coeffs, _ = pipeline
    assert coeffs.branch.c.shape == (3, 98)
    p = tmp_path / "st.txt"
    save_structured(p, coeffs)
    text = p.read_text()
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("branch.c "))
    cut_rows = _damaged(tmp_path, "\n".join(lines[:header + 3]) + "\n")
    with pytest.raises(ConfigInvalid, match=r"damaged\.txt.*'branch\.c'"):
        load_structured(cut_rows)
    cut_line = _damaged(tmp_path, "\n".join(lines[:header + 3]) + "\n" + lines[header + 3][:30])
    with pytest.raises(ConfigInvalid, match=r"'branch\.c'"):
        load_structured(cut_line)
    cut_header = _damaged(tmp_path, "\n".join(lines[:header]) + "\nbranch.c array2 5")
    with pytest.raises(ConfigInvalid, match=r"'branch\.c'"):
        load_structured(cut_header)
    cut_bytes = _damaged(tmp_path, text[:len(text) // 3])
    with pytest.raises(ConfigInvalid, match="damaged.txt"):
        load_structured(cut_bytes)


def test_ragged_or_short_payload_rejected(pipeline, tmp_path):
    ts, _, _, _ = pipeline
    p = tmp_path / "ts.txt"
    save_training_set(p, ts)
    lines = p.read_text().splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("pair0.x.values "))
    short_row = lines.copy()
    short_row[i + 1] = short_row[i + 1].rsplit(" ", 1)[0]
    with pytest.raises(ConfigInvalid, match="'pair0.x.values'"):
        load_training_set(_damaged(tmp_path, "\n".join(short_row) + "\n"))
    long_row = lines.copy()
    long_row[i + 1] += " 1"
    with pytest.raises(ConfigInvalid, match="'pair0.x.values'"):
        load_training_set(_damaged(tmp_path, "\n".join(long_row) + "\n"))
    missing_row = lines[:i + 1] + lines[i + 2:]
    with pytest.raises(ConfigInvalid):
        load_training_set(_damaged(tmp_path, "\n".join(missing_row) + "\n"))


def test_grid_whose_values_disagree_with_its_n_cells_rejected(pipeline, tmp_path):
    """A grid's ``values`` of another length than its ``n_cells`` + 1 raises
    ConfigInvalid naming the file and the grid's fields."""
    ts, ls, _, diag = pipeline
    p = tmp_path / "ts.txt"
    save_training_set(p, ts)
    lines = p.read_text().splitlines()
    i = lines.index(f"pair0.x.n_cells int {N}")
    for n_cells in (N - 1, N + 1, 0):
        bad = lines[:i] + [f"pair0.x.n_cells int {n_cells}"] + lines[i + 1:]
        with pytest.raises(ConfigInvalid, match=r"damaged\.txt: fields pair0\.x\.\*"):
            load_training_set(_damaged(tmp_path, "\n".join(bad) + "\n"))
    one_node = lines[:i] + ["pair0.x.n_cells int 0", "pair0.x.values array1 1", "1"] + lines[i + 3:]
    with pytest.raises(ConfigInvalid, match=r"damaged\.txt: fields pair0\.x\.\*"):
        load_training_set(_damaged(tmp_path, "\n".join(one_node) + "\n"))
    p = tmp_path / "ls.txt"
    save_linear_surrogate(p, ls, diag)
    lines = p.read_text().splitlines()
    i = lines.index(f"load.n_cells int {N}")
    bad = lines[:i] + [f"load.n_cells int {2 * N}"] + lines[i + 1:]
    with pytest.raises(ConfigInvalid, match=r"damaged\.txt: fields load\.\*"):
        load_linear_surrogate(_damaged(tmp_path, "\n".join(bad) + "\n"))
