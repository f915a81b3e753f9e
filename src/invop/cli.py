"""Command-line harness for the inverse-problem experiments.

Subcommands
-----------
generate   sample a training set of coefficient/data pairs and save it
build      orthonormalize a saved training set and assemble the sigmoid
           surrogate, saving its coefficients
solve      run one regularized inversion and emit a CSV record
study      run a convergence-rate study and emit its CSV table
verify     run fast invariant checks and print one line per group

Global flags: ``--config PATH``, ``--seed INT``, ``--out PATH``, ``--quiet``.
Exit codes: 0 success, 1 invalid configuration or usage, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import serialize
from .config import REQUIRED, check_keys, load_config, problem_from_name, read_section, study_config
from .errors import ConfigInvalid, InvopError
from .fem import ProblemKind, solve_forward_fem, solve_forward_reference
from .grid import GridFunction, SpaceKind, inner, norm
from .mollify import mollification_report
from .studies import (
    SIZE_BOUNDS,
    RateTable,
    StudyConfig,
    analytic_cases,
    c_example_setup,
    run_study,
    source_target_a,
)
from .tikhonov import (
    RUN_COLUMNS,
    FemMap,
    NeuralMap,
    RankMap,
    TikhonovConfig,
    add_noise,
    solve_inverse_problem,
    tikhonov_value_and_gradient,
)
from .training import (
    PerturbationSpec,
    assemble_neural_surrogate,
    build_linear_surrogate,
    generate_training_set,
)


#: the keys each section of a generate, build or solve config accepts, with
#: their defaults; a given value is parsed as the type of its key's default
SECTION_KEYS = {
    "generate": {"problem": "a", "n_cells": 256, "load": 1.0, "center": 1.0},
    "perturbation": {"mode": "sine", "amplitude": 0.1, "count": 6},
    "build": {"training": REQUIRED, "n_quad": 512, "n_trunk": 14,
              "activation": "logistic", "seed": 1},
    "solve": {"problem": "a", "surrogate": "fem", "surrogate_file": None, "n_cells": 256,
              "load": 1.0, "center": 1.0, "delta": 1e-3, "xi": 0.0, "seed": 0,
              "target": "source", "constant": 1.0, "max_iterations": 4000},
}

#: keys that existing configs set but that take exactly one value, their default
PINNED = {"perturbation": ("mode",), "build": ("activation",)}


#: the config sections each subcommand reads
COMMAND_SECTIONS = {
    "generate": ("generate", "perturbation"),
    "build": ("build",),
    "solve": ("solve",),
    "study": ("study",),
}


def _load(args) -> dict:
    """The --config file; a section the subcommand does not read is an error."""
    cfg = load_config(_require(args, "config"))
    return check_keys(cfg, COMMAND_SECTIONS[args.command], f"{args.command} config",
                      "sections")


def _section(cfg: dict, name: str) -> dict:
    """Every key of the config's [name] section, parsed, or its default; the
    pinned keys are checked and left out."""
    sec = read_section(cfg, name, SECTION_KEYS[name])
    for key in PINNED.get(name, ()):
        if sec.pop(key) != SECTION_KEYS[name][key]:
            raise ConfigInvalid(f"[{name}] {key} takes only {SECTION_KEYS[name][key]!r}")
    return sec


def _say(args, text):
    if not args.quiet:
        print(text)


def _require(args, flag):
    val = getattr(args, flag)
    if val is None:
        raise ConfigInvalid(f"subcommand {args.command!r} requires --{flag}")
    return val


# ---------------------------------------------------------------------------
# subcommands


def _cmd_generate(args) -> int:
    cfg = _load(args)
    sec = _section(cfg, "generate")
    n = sec["n_cells"]
    ts = generate_training_set(problem_from_name(sec["problem"]),
                               GridFunction.constant(sec["load"], n),
                               GridFunction.constant(sec["center"], n),
                               PerturbationSpec(**_section(cfg, "perturbation")))
    out = _require(args, "out")
    serialize.save_training_set(out, ts)
    _say(args, f"wrote training set with {ts.n_train} pairs to {out}")
    return 0


def _cmd_build(args) -> int:
    cfg = _load(args)
    sec = _section(cfg, "build")
    for key in ("n_quad", "n_trunk"):
        if sec[key] < SIZE_BOUNDS[key]:
            raise ConfigInvalid(f"[build] {key} = {sec[key]}, but a build needs at least "
                                f"{SIZE_BOUNDS[key]}")
    ts = serialize.load_training_set(sec["training"])
    if sec["n_quad"] < ts.load.n_cells:  # a coarser branch misses nodal values
        raise ConfigInvalid(f"[build] n_quad = {sec['n_quad']}, but the training set has "
                            f"{ts.load.n_cells} cells; a build needs n_quad >= n_cells")
    ls = build_linear_surrogate(ts)
    seed = args.seed if args.seed is not None else sec["seed"]
    coeffs, diag = assemble_neural_surrogate(ls, sec["n_quad"], sec["n_trunk"], seed)
    out = _require(args, "out")
    serialize.save_structured(out, coeffs)
    serialize.save_linear_surrogate(str(out) + ".rank", ls, diag)
    if not args.quiet:  # rho costs a surrogate_error pass, which a quiet build skips
        print(f"wrote surrogate ({coeffs.n_terms} terms, "
              f"rho {NeuralMap(coeffs, ls).rho:.3e}) to {out}")
    return 0


def _cmd_solve(args) -> int:
    cfg = _load(args)
    sec = _section(cfg, "solve")
    prob = problem_from_name(sec["problem"])
    n, delta = sec["n_cells"], sec["delta"]
    if n < SIZE_BOUNDS["n_cells"]:
        raise ConfigInvalid(f"[solve] n_cells = {n}, but a solve needs at least "
                            f"{SIZE_BOUNDS['n_cells']} cells")
    if sec["center"] < prob.nu:  # the prior must be admissible
        raise ConfigInvalid(f"[solve] center = {sec['center']!r} lies below nu = {prob.nu}")
    f = GridFunction.constant(sec["load"], n)
    x0 = GridFunction.constant(sec["center"], n)
    seed = args.seed if args.seed is not None else sec["seed"]

    kind, base = sec["surrogate"], sec["surrogate_file"]
    if kind == "fem":
        if base is not None:
            raise ConfigInvalid(f"[solve] surrogate=fem reads no surrogate_file, not {base!r}")
        h = FemMap(prob, f, x0)
    elif kind in ("rank", "neural"):
        if base is None:
            raise ConfigInvalid(f"[solve] surrogate={kind} needs surrogate_file")
        ls, _ = serialize.load_linear_surrogate(base + ".rank")
        for key, same in (("problem", ls.problem is prob), ("n_cells", ls.center[0].n_cells == n),
                          ("load", np.array_equal(ls.load.values, f.values)),
                          ("center", np.array_equal(ls.center[0].values, x0.values))):
            if not same:
                raise ConfigInvalid(f"[solve] {key} = {sec[key]}, but {base}.rank was built "
                                    f"for another {key}")
        coeffs = serialize.load_structured(base) if kind == "neural" else None
        if coeffs is not None and coeffs.n_terms != ls.n_terms:
            raise ConfigInvalid(f"[solve] surrogate_file = {base} holds {coeffs.n_terms} "
                                f"terms, but {base}.rank holds {ls.n_terms}; rebuild both "
                                "with invop build")
        h = RankMap(ls) if coeffs is None else NeuralMap(coeffs, ls)
    else:
        raise ConfigInvalid(f"unknown surrogate {kind!r}")

    target = sec["target"]
    if target == "source":
        if sec["load"] == 0:  # zero data: the source direction is 0 / 0
            raise ConfigInvalid("[solve] load = 0.0 gives zero data, from which target = "
                                "source builds no target; set a nonzero load or target = prior")
        xt = source_target_a(prob, x0, f)
    elif target == "prior":
        xt = x0
    else:
        raise ConfigInvalid("target must be 'source' or 'prior'")
    run = solve_inverse_problem(h, xt, solve_forward_reference(prob, xt, f), delta, seed,
                                sec["constant"], sec["xi"], sec["max_iterations"])
    lines = [",".join(RUN_COLUMNS), run.csv_row()]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    _say(args, lines[0])
    _say(args, lines[1])
    return 0


def _cmd_study(args) -> int:
    cfg = _load(args)
    table = run_study(study_config(cfg, seed=args.seed, out=args.out))
    _say(args, f"fitted slope {table.fitted_slope:.6g} "
               f"(stderr {table.slope_stderr:.2g}, {len(table.rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# verify


def _verify_groups():
    n = 64
    prob_a = ProblemKind.A_EXAMPLE

    def grp_discretization():
        label, prob, x, f, y_exact = analytic_cases()[0]
        err = norm(
            solve_forward_fem(prob, GridFunction.from_callable(x, n),
                              GridFunction.from_callable(f, n))
            - GridFunction.from_callable(y_exact, n),
            SpaceKind.L2,
        )
        assert err < 5.0 / n ** 2, err

    def grp_noise():
        y = GridFunction.from_callable(lambda s: np.sin(np.pi * s), n)
        yd = add_noise(y, 1e-3, 5)
        lvl = norm(yd - y, SpaceKind.L2)
        assert abs(lvl - 1e-3) <= 1e-14 * 1e-3, lvl

    def grp_gradient():
        # a tiny alpha keeps the H1 penalty along the rough direction d from
        # hiding the misfit gradient; the directional derivatives are about
        # 1e-5, so the tolerance is relative to the analytic value
        f = GridFunction.constant(1.0, n)
        x0 = GridFunction.constant(1.0, n)
        ex = c_example_setup(StudyConfig("reg_rate", problem="c", surrogate="neural",
                                         n_cells=n, n_train=3, n_quad=n, n_trunk=8))
        y0 = ex.ls.center[1]
        cases = [(FemMap(prob_a, f, x0), solve_forward_fem(prob_a, x0, f)),
                 (RankMap(ex.ls), y0), (NeuralMap(ex.coeffs, ex.ls), y0)]
        rng = np.random.default_rng(2)
        x = GridFunction(1.0 + 0.05 * rng.standard_normal(n + 1))
        d = GridFunction(rng.standard_normal(n + 1))
        eps = 1e-5
        for h, y in cases:
            yd = add_noise(y, 1e-3, 1)
            cfg = TikhonovConfig(alpha=1e-8, eta=1e-6, xi=0.0)
            _, g = tikhonov_value_and_gradient(h, x, yd, cfg)
            fd = (tikhonov_value_and_gradient(h, x + eps * d, yd, cfg)[0]
                  - tikhonov_value_and_gradient(h, x - eps * d, yd, cfg)[0]) / (2 * eps)
            an = inner(GridFunction(g), d, h.problem.image_space)
            assert abs(fd - an) <= 1e-4 * abs(an), (h.label, fd, an)

    def grp_mollifier():
        x = GridFunction.from_callable(lambda s: np.sin(np.pi * s) ** 2, n)
        mollification_report(x, (0.2, 0.1, 0.05))

    def grp_schema():
        assert RUN_COLUMNS == (
            "problem", "surrogate", "n", "N", "delta", "alpha", "eta", "xi",
            "iterations", "gradient_norm", "error_X", "runtime_ms", "seed",
        )
        t = RateTable(("n", "error"), ((2, 1.0),), -2.0, 0.0)
        assert list(t.csv_lines())[0] == "n,error"

    def grp_determinism():
        cfg = StudyConfig("mollify_rate")
        a, b = run_study(cfg), run_study(cfg)
        assert a.rows == b.rows and a.fitted_slope == b.fitted_slope

    return [
        ("discretization", grp_discretization),
        ("noise", grp_noise),
        ("gradient", grp_gradient),
        ("mollifier", grp_mollifier),
        ("schema", grp_schema),
        ("determinism", grp_determinism),
    ]


def _cmd_verify(args) -> int:
    failures = 0
    for name, check in _verify_groups():
        try:
            check()
        except Exception as err:  # report and continue
            failures += 1
            print(f"FAIL {name}: {err}", file=sys.stderr)
            continue
        _say(args, f"ok {name}")
    return 2 if failures else 0


# ---------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="invop",
        description="Regularized inversion of 1-D elliptic coefficients "
                    "with learned forward surrogates.",
    )
    p.add_argument("command",
                   choices=["generate", "build", "solve", "study", "verify"])
    p.add_argument("--config", help="path to a key=value config file")
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.add_argument("--out", help="output path (CSV or coefficient file)")
    p.add_argument("--quiet", action="store_true", help="suppress status lines")
    return p


_COMMANDS = {
    "generate": _cmd_generate,
    "build": _cmd_build,
    "solve": _cmd_solve,
    "study": _cmd_study,
    "verify": _cmd_verify,
}


def cli_main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        return 1 if err.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ConfigInvalid, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except InvopError as err:
        print(f"numerical failure: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


def main():  # console-script entry point
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
