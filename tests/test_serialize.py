import zipfile

import numpy as np
import pytest
from containers import edit, read_fields

from invop import serialize
from invop.errors import ConfigInvalid, NonFiniteValue
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
)

C = ProblemKind.C_EXAMPLE
N = 64


@pytest.fixture(scope="module")
def pipeline():
    f = GridFunction.constant(50.0, N)
    x0 = GridFunction.constant(1.0, N)
    ts = generate_training_set(C, f, x0, PerturbationSpec(0.1, 3))
    ls = build_linear_surrogate(ts)
    coeffs, diag = assemble_neural_surrogate(ls, 96, 10, seed=1)
    return ts, ls, coeffs, diag


def test_training_set_round_trip_bitwise(pipeline, tmp_path):
    ts, _, _, _ = pipeline
    p = tmp_path / "ts.txt"
    save_training_set(p, ts)
    ts2 = load_training_set(p)
    assert ts2.problem is ts.problem
    assert np.array_equal(ts2.load.values, ts.load.values)
    assert np.array_equal(ts.x, ts2.x) and np.array_equal(ts.y, ts2.y)
    assert ts2.x.dtype == ts2.y.dtype == float


def test_linear_surrogate_round_trip_bitwise(pipeline, tmp_path):
    _, ls, _, diag = pipeline
    p = tmp_path / "ls.txt"
    save_linear_surrogate(p, ls, diag)
    ls2, diag2 = load_linear_surrogate(p)
    assert diag.nu_N > 0.0 and diag2 == diag
    assert ls2.problem is ls.problem
    assert np.array_equal(ls.basis, ls2.basis) and np.array_equal(ls.induced, ls2.induced)
    assert np.array_equal(ls.center[0].values, ls2.center[0].values)
    # the held-out probe pair, which measures the rho of the maps built on the file
    assert len(ls2.probes) == len(ls.probes) == 1
    for pair, pair2 in zip(ls.probes, ls2.probes):
        for g, g2 in zip(pair, pair2):
            assert np.array_equal(g.values, g2.values)


def test_rank_file_without_probe_pairs_names_the_field(pipeline, tmp_path):
    # a file written before the expansion carried its probe pairs
    _, ls, _, diag = pipeline
    p = tmp_path / "ls.txt"
    save_linear_surrogate(p, ls, diag)
    edit(p, {"probes.x": None, "probes.y": None})
    with pytest.raises(ConfigInvalid, match=r"ls\.txt: missing field 'probes\.x'.*rebuild"):
        load_linear_surrogate(p)


def test_perturbation_count_is_the_pair_count(pipeline, tmp_path):
    # the pairs fix the count: a stored count that disagrees with them is ignored
    ts, _, _, _ = pipeline
    p = tmp_path / "ts.txt"
    save_training_set(p, ts)
    edit(p, {"perturbation.count": 9})
    assert load_training_set(p).n_train == ts.n_train == 3


def test_training_set_without_a_pair_after_the_center_rejected(pipeline, tmp_path):
    ts, _, _, _ = pipeline
    p = tmp_path / "ts.txt"
    save_training_set(p, ts)
    x, y = read_fields(p)["x"], read_fields(p)["y"]
    for rows in (1, 0):
        edit(p, {"x": x[:rows], "y": y[:rows]})
        with pytest.raises(ConfigInvalid, match=rf"ts\.txt: fields x and y hold {rows} pair"):
            load_training_set(p)


def test_rank_file_derives_rho_bound(pipeline, tmp_path):
    # rho_bound is no field: the loaded diagnostics compute it from nu_N, q_N and r_N
    _, ls, _, diag = pipeline
    p = tmp_path / "ls.txt"
    save_linear_surrogate(p, ls, diag)
    edit(p, {"rho_bound": 1.0})
    _, diag2 = load_linear_surrogate(p)
    assert diag2.rho_bound == diag.rho_bound == diag.nu_N + diag.n_terms * diag.q_N * diag.r_N


def test_fields_of_older_files_are_ignored(pipeline, tmp_path):
    # training sets with a seed or a perturbation amplitude, whatever the
    # amplitude holds, and rank-N files with a transform still load
    ts, ls, _, diag = pipeline
    p, q = tmp_path / "ts.txt", tmp_path / "ls.txt"
    save_linear_surrogate(q, ls, diag)
    edit(q, {"transform": np.array([[1.0, 0.0], [0.5, 2.0]])})
    for amplitude in (0.1, 5.0, np.array([0.1, 0.1])):
        save_training_set(p, ts)
        edit(p, {"seed": 3, "perturbation.seed": 3, "perturbation.amplitude": amplitude})
        ts2 = load_training_set(p)
        assert ts2.problem is ts.problem and np.array_equal(ts2.load.values, ts.load.values)
        assert np.array_equal(ts.x, ts2.x) and np.array_equal(ts.y, ts2.y)
    ls2, diag2 = load_linear_surrogate(q)
    assert diag2 == diag
    assert np.array_equal(ls.basis, ls2.basis) and np.array_equal(ls.induced, ls2.induced)


def test_files_hold_one_stacked_array_per_field(pipeline, tmp_path):
    # each file lands at exactly its path, and the same record gives the same bytes
    ts, ls, coeffs, diag = pipeline
    pairs, terms, n_j = len(ts.x), ls.n_terms, coeffs.trunk_c.shape[1]
    grid, one = (N + 1,), ()
    training = {"kind": one, "problem": one, "load": grid, "x": (pairs, N + 1),
                "y": (pairs, N + 1)}
    rank = {"kind": one, "problem": one, "load": grid, "basis": (terms, N + 1),
            "induced": (terms, N + 1), "center": (2, N + 1), "probes.x": (1, N + 1),
            "probes.y": (1, N + 1), "nu_N": one, "q_N": one, "r_N": one}
    structured = {"kind": one, "s_points": (97,), "branch.c": (terms, 98), "branch.w": (97,),
                  "branch.theta": (98,), "trunk.c": (terms, n_j), "trunk.w": (terms, n_j),
                  "trunk.zeta": (terms, n_j)}
    for save, args, layout in ((save_training_set, (ts,), training),
                               (save_linear_surrogate, (ls, diag), rank),
                               (save_structured, (coeffs,), structured)):
        p = tmp_path / "f.txt"
        save(p, *args)
        assert sorted(q.name for q in tmp_path.iterdir()) == ["f.txt"]
        assert {k: a.shape for k, a in read_fields(p).items()} == layout
        first = p.read_bytes()
        save(p, *args)
        assert p.read_bytes() == first


def test_structured_round_trip_preserves_evaluation(pipeline, tmp_path):
    _, _, coeffs, _ = pipeline
    p = tmp_path / "st.txt"
    save_structured(p, coeffs)
    c2 = load_structured(p)
    for name in type(coeffs).__slots__:
        assert np.array_equal(_bits(getattr(coeffs, name)), _bits(getattr(c2, name))), name
    x = GridFunction.from_callable(lambda s: 1.0 + 0.05 * np.sin(np.pi * s), N)
    t = np.linspace(0, 1, 17)
    assert np.array_equal(eval_structured_with_gradient(coeffs, x.values, t)[0],
                          eval_structured_with_gradient(c2, x.values, t)[0])


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
    data = p.read_bytes()
    for cut in (0, 1, 3, 4, 30, 100, 1000, len(data) // 2, len(data) - 22, len(data) - 1):
        (tmp_path / "cut.txt").write_bytes(data[:cut])
        with pytest.raises(ConfigInvalid, match=r"cut\.txt: not an invop container"):
            load_training_set(tmp_path / "cut.txt")


# -- bitwise round trip -------------------------------------------------------


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
    serialize._write(p, "Values", {"flat": flat, "square": square, "special": special})
    f = serialize._read(p, "Values")
    assert f["square"].shape == (300, 330)
    for name, a in (("flat", flat), ("square", square), ("special", special)):
        assert np.array_equal(_bits(f[name]), _bits(a)), name


# -- damaged files ------------------------------------------------------------


def test_file_cut_mid_member_names_path(pipeline, tmp_path):
    _, _, coeffs, _ = pipeline
    assert coeffs.branch_c.shape == (3, 98)
    p = tmp_path / "st.txt"
    save_structured(p, coeffs)
    data = p.read_bytes()
    with zipfile.ZipFile(p) as z:
        member = z.getinfo("branch.c.npy")
    for cut in range(member.header_offset, member.header_offset + member.file_size, 301):
        (tmp_path / "damaged.txt").write_bytes(data[:cut])
        with pytest.raises(ConfigInvalid, match=r"damaged\.txt: not an invop container"):
            load_structured(tmp_path / "damaged.txt")


def test_ragged_or_short_payload_rejected(pipeline, tmp_path):
    # a member whose array data ends before the shape in its header is filled
    ts, _, _, _ = pipeline
    p = tmp_path / "ts.txt"
    save_training_set(p, ts)
    with zipfile.ZipFile(p) as z, zipfile.ZipFile(tmp_path / "damaged.txt", "w") as out:
        for info in z.infolist():
            data = z.read(info)
            out.writestr(info.filename, data[:-8] if info.filename == "x.npy" else data)
    with pytest.raises(ConfigInvalid, match=r"damaged\.txt: not an invop container"):
        load_training_set(tmp_path / "damaged.txt")


def test_bare_array_or_object_array_rejected(tmp_path):
    p = tmp_path / "bare.txt"
    with open(p, "wb") as fh:
        np.save(fh, np.zeros(3))
    with pytest.raises(ConfigInvalid, match=r"bare\.txt: not an invop container"):
        load_training_set(p)
    with open(p, "wb") as fh:
        np.savez(fh, kind="TrainingSet", x=np.array([None, 1.0], dtype=object))
    with pytest.raises(ConfigInvalid, match=r"bare\.txt: not an invop container"):
        load_training_set(p)


def test_grids_on_different_meshes_rejected(pipeline, tmp_path):
    """Grid fields of one file whose last axes differ raise ConfigInvalid
    naming the file and the fields."""
    ts, ls, _, diag = pipeline
    p = tmp_path / "ts.txt"
    save_training_set(p, ts)
    x, y = read_fields(p)["x"], read_fields(p)["y"]
    for n_values in (N, N + 2):
        xy = {"x": np.resize(x, (len(x), n_values)), "y": np.resize(y, (len(y), n_values))}
        edit(p, xy)
        with pytest.raises(ConfigInvalid, match=r"ts\.txt: fields load, x, y lie on "
                                                r"different meshes"):
            load_training_set(p)
    edit(p, {"x": x[:, :1], "y": y[:, :1], "load": np.ones(1)})
    with pytest.raises(ConfigInvalid, match=r"ts\.txt: fields load"):
        load_training_set(p)
    q = tmp_path / "ls.txt"
    save_linear_surrogate(q, ls, diag)
    edit(q, {"load": np.ones(2 * N + 1)})
    with pytest.raises(ConfigInvalid, match=r"ls\.txt: fields load, basis, induced, center, "
                                            r"probes\.x, probes\.y lie on different meshes"):
        load_linear_surrogate(q)


_DISAGREE = [
    ("y", lambda a: a[:-1], r"fields x, y disagree in shape"),
    ("center", lambda a: a[:1], r"field 'center' holds shape \(1, 65\)"),
    ("induced", lambda a: a[:, :-1], r"fields basis, induced disagree in shape"),
    ("probes.y", lambda a: a[:0], r"fields probes\.x, probes\.y disagree in shape"),
    ("trunk.w", lambda a: a[:, :-1], r"fields trunk\.c, trunk\.w, trunk\.zeta disagree"),
    ("branch.theta", lambda a: a[:-1], r"fields branch\.\*"),
]


@pytest.mark.parametrize("name,value,match", _DISAGREE, ids=[name for name, _, _ in _DISAGREE])
def test_fields_whose_shapes_disagree_name_them(pipeline, tmp_path, name, value, match):
    ts, ls, coeffs, diag = pipeline
    saves = {"y": (save_training_set, load_training_set, (ts,)),
             "center": (save_linear_surrogate, load_linear_surrogate, (ls, diag)),
             "induced": (save_linear_surrogate, load_linear_surrogate, (ls, diag)),
             "probes.y": (save_linear_surrogate, load_linear_surrogate, (ls, diag)),
             "trunk.w": (save_structured, load_structured, (coeffs,)),
             "branch.theta": (save_structured, load_structured, (coeffs,))}
    save, load, args = saves[name]
    p = tmp_path / "f.txt"
    save(p, *args)
    edit(p, {name: value(read_fields(p)[name])})
    with pytest.raises(ConfigInvalid, match=r"f\.txt: .*" + match):
        load(p)


def test_non_finite_value_names_the_field(pipeline, tmp_path):
    ts, _, _, _ = pipeline
    p = tmp_path / "ts.txt"
    save_training_set(p, ts)
    y = read_fields(p)["y"].copy()
    y[1, 1] = np.inf
    edit(p, {"y": y})
    with pytest.raises(NonFiniteValue, match=r"ts\.txt: field 'y'"):
        load_training_set(p)


_STACKS = [
    ("x", lambda a: a[0], r"ts\.txt: fields x: expected .*shape"),
    ("x", lambda a: a[:, None, :], r"ts\.txt: fields x: expected .*shape"),
    ("basis", lambda a: a[0], r"ls\.txt: fields basis: expected .*shape"),
    ("basis", lambda a: a[:, None, :], r"ls\.txt: fields basis: expected .*shape"),
]


@pytest.mark.parametrize("name,reshape,match", _STACKS,
                         ids=["x-1d", "x-3d", "basis-1d", "basis-3d"])
def test_stacks_that_are_not_one_row_per_function_name_the_field(pipeline, tmp_path, name,
                                                                  reshape, match):
    # both fields of the family take the shape, so that they agree with each
    # other and with the load's mesh, and only the row layout is wrong
    ts, ls, _, diag = pipeline
    if name == "x":
        p, other = tmp_path / "ts.txt", "y"
        save_training_set(p, ts)
        load = load_training_set
    else:
        p, other = tmp_path / "ls.txt", "induced"
        save_linear_surrogate(p, ls, diag)
        load = load_linear_surrogate
    f = read_fields(p)
    edit(p, {name: reshape(f[name]), other: reshape(f[other])})
    with pytest.raises(ConfigInvalid, match=match):
        load(p)
