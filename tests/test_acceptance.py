"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest -v`` shows the same pass/fail status per test name.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import kakeya
from kakeya.cli import main as cli_main
from kakeya.certifier import (
    Constants,
    certify_multiscale,
    delta_for_epsilon,
    verify_step_inequality,
)
from kakeya.evaluator import (
    GridSpec,
    evaluate_overlap,
    evaluate_refined,
    exact_overlap_2d,
)
from kakeya.generators import (
    GeneralAngle,
    GenSpec,
    Lipschitz,
    SmallAngle,
    Weighted,
    generate,
    random_lw_instance,
)
from kakeya.geometry import (
    Cube,
    Direction,
    Line,
    LipschitzCurve,
    angle_from_axis,
)
from kakeya.loomis_whitney import unit_ball_volume, verify_lw
from kakeya.reduction import reduce_general_to_small_angle

from conftest import axis_tube_family, family, line_through
from lemmas import (
    enumerate_grid_axis_parallel,
    expand_integer_weights,
    genspec_to_json,
    weighted_multiplicity_check,
)


def report(criterion, message):
    print(f"PASS criterion {criterion}: {message}")


def test_criterion_01_loomis_whitney_suite():
    # 100 random grid-function instances per n in {2,3,4}:
    # ratio <= 1 + error estimate; equality case within 1%
    checked = 0
    worst = -math.inf
    for n in (2, 3, 4):
        for seed in range(100):
            fs, box, grid = random_lw_instance(n, 7000 * n + seed)
            check = verify_lw(fs, box, grid)
            if check.degenerate:
                continue
            checked += 1
            excess = check.ratio - 1.0 - check.error_estimate
            worst = max(worst, excess)
            assert excess <= 0.0, (n, seed, check.ratio, check.error_estimate)
    # equality case: product indicators
    from kakeya.loomis_whitney import Box, ProjectionFunction

    for n in (2, 3, 4):
        ind = ProjectionFunction(Box(np.zeros(n - 1), np.ones(n - 1)), np.ones((1,) * (n - 1)))
        eq = verify_lw([ind] * n, Box(np.zeros(n), np.ones(n)), GridSpec(12))
        assert abs(eq.ratio - 1.0) <= 0.01
    report(1, f"{checked} nondegenerate instances, worst ratio excess {worst:.2e}")


def test_criterion_02_axis_parallel_chain():
    # grid configurations: refined value <= prod_j (omega_{n-1} N_j)^(1/(n-1)) + tol,
    # with tol = 1% of the bound (matching the <1% quadrature requirement);
    # refinement starts deep because two-level differences alias to zero on
    # axis-parallel strip boundaries, which would stall a shallow start
    cases = [(2, 3, 4.0, 1024, 2), (2, 4, 3.3, 1024, 2), (3, 2, 4.0, 128, 1)]
    rel_margins = []
    for n, k, spacing, start, doublings in cases:
        fams = enumerate_grid_axis_parallel(n, k, spacing)
        count = k ** (n - 1)
        side = (k - 1) * spacing + 2.0 + 4.3
        cube = Cube.centered(np.full(n, 0.17), side)
        v = evaluate_refined(fams, cube, 1e-3, doublings, start_cells=start)
        bound = (unit_ball_volume(n - 1) * count) ** (n / (n - 1.0))
        tol = 0.01 * bound
        assert v.value <= bound + tol
        rel_margins.append((bound + tol - v.value) / bound)
        if n == 2:
            exact = exact_overlap_2d(fams, cube)
            assert abs(v.value - exact) / exact < 0.01
    report(2, f"{len(cases)} grid configs, min relative margin {min(rel_margins):.4f}")


def test_criterion_03_step_inequality():
    # 30 random small-angle configs (n in {2,3}, delta in {0.1, 0.05},
    # S = 1/delta): step ratio <= 1 + tol with the explicit c_step
    tol = 1e-2
    suite = [
        (2, 0.1, (8, 8), 256, range(8)),
        (2, 0.05, (10, 10), 256, range(7)),
        (3, 0.1, (10, 10, 10), 96, range(8)),
        (3, 0.05, (14, 14, 14), 96, range(7)),
    ]
    ratios = []
    total = 0
    for n, delta, counts, cells, seeds in suite:
        cube = Cube.centered(np.zeros(n), 1.0 / delta)
        for seed in seeds:
            fams = generate(GenSpec(n, counts, SmallAngle(delta), cube, seed=300 + seed))
            check = verify_step_inequality(fams, cube, delta, GridSpec(cells))
            total += 1
            if not check.degenerate:
                ratios.append(check.ratio)
                assert check.ratio <= 1.0 + tol, (n, delta, seed, check.ratio)
    assert total == 30
    assert ratios, "step suite was entirely degenerate"
    report(3, f"30 configs, {len(ratios)} nondegenerate, max ratio {max(ratios):.3e}")


def test_criterion_04_certificate_soundness():
    # 50 random configs across regimes: numeric value <= final_bound, always
    delta = 0.1
    violations = 0
    closest = math.inf
    total = 0

    def check(fams, cube, value, err):
        nonlocal violations, closest, total
        cert = certify_multiscale(fams, cube, delta)
        total += 1
        if value > cert.final_bound + err:
            violations += 1
        if cert.final_bound > 0:
            closest = min(closest, cert.final_bound / max(value, 1e-300))

    cube2 = Cube.centered([0.0, 0.0], 10.0)
    for seed in range(10):  # n=2 small-angle, exact oracle
        fams = generate(GenSpec(2, (6, 6), SmallAngle(delta), cube2, seed=400 + seed))
        check(fams, cube2, exact_overlap_2d(fams, cube2), 0.0)
    for seed in range(10):  # n=2 weighted, exact oracle
        fams = generate(GenSpec(2, (5, 5), Weighted(0.2, 3.0, delta), cube2, seed=420 + seed))
        check(fams, cube2, exact_overlap_2d(fams, cube2), 0.0)
    for seed in range(10):  # n=2 Lipschitz, refined quadrature
        fams = generate(GenSpec(2, (4, 4), Lipschitz(delta, 6), cube2, seed=440 + seed))
        v = evaluate_refined(fams, cube2, 2e-2, 5, start_cells=32)
        check(fams, cube2, v.value, v.error_estimate or 0.0)
    cube3 = Cube.centered([0.0, 0.0, 0.0], 10.0)
    for seed in range(10):  # n=3 small-angle, refined quadrature
        fams = generate(GenSpec(3, (5, 5, 5), SmallAngle(delta), cube3, seed=460 + seed))
        v = evaluate_refined(fams, cube3, 3e-2, 3, start_cells=24)
        check(fams, cube3, v.value, v.error_estimate or 0.0)
    for seed in range(10):  # n=3 weighted, refined quadrature
        fams = generate(GenSpec(3, (4, 4, 4), Weighted(0.2, 3.0, delta), cube3, seed=480 + seed))
        v = evaluate_refined(fams, cube3, 3e-2, 3, start_cells=24)
        check(fams, cube3, v.value, v.error_estimate or 0.0)
    assert total == 50
    assert violations == 0
    report(4, f"50 configs sound; smallest bound/value factor {closest:.3e}")


def test_criterion_05_epsilon_exponent_identity():
    # c_step^M = S^(log c_step / log delta^-1) for S = delta^-M, M = 1..5,
    # to 1e-12 relative; delta_for_epsilon yields the exponent exactly
    worst = 0.0
    for n in (2, 3):
        consts = Constants.for_dimension(n)
        for eps in (0.5, 1.0, 2.0, 4.0):
            delta = delta_for_epsilon(eps, consts)
            exponent = math.log(consts.c_step) / math.log(1.0 / delta)
            assert abs(exponent - eps) <= 1e-12 * eps
            for m in range(1, 6):
                s = delta ** (-m)
                lhs = consts.c_step**m
                rhs = s**exponent
                rel = abs(lhs - rhs) / lhs
                worst = max(worst, rel)
                assert rel <= 1e-12, (n, eps, m, rel)
    report(5, f"identities hold, worst relative error {worst:.2e}")


def test_criterion_06_reduction_end_to_end():
    # n=2 general-angle configs: sum of distortion x certificate dominates
    # the exact integral; transformed angles <= delta; frame distortions
    # within [1/2, 2] (length) and <= 2^n (volume)
    eps = 3.0
    margins = []
    for seed in range(6):
        cube = Cube.centered([0.0, 0.0], 8.0)
        fams = generate(GenSpec(2, (5, 5), GeneralAngle(), cube, seed=600 + seed))
        problems = reduce_general_to_small_angle(fams, cube, eps)
        total = 0.0
        for p in problems:
            lo, hi = p.map.length_distortion
            assert 0.5 <= lo <= hi <= 2.0
            assert p.map.volume_distortion <= 2.0**2
            for f in p.families:
                for m in f.members:
                    assert angle_from_axis(m.geometry.direction, f.axis) <= p.delta * (1 + 1e-9)
            total += p.distortion_factor * certify_multiscale(p.families, p.cube, p.delta).final_bound
        exact = exact_overlap_2d(fams, cube)
        assert total >= exact
        margins.append(total / max(exact, 1e-300))
    report(6, f"6 configs reassembled soundly, min bound/integral {min(margins):.3e}")


def test_criterion_07_weighted_equivalence():
    # integer weights evaluate bit-identically to multiplicity expansion;
    # rational weights match after scaling
    rng = np.random.default_rng(77)
    cube = Cube.centered([0.0, 0.0], 10.0)
    for trial in range(5):
        anchors = rng.uniform(-4, 4, (3, 2))
        weights = [float(w) for w in rng.integers(1, 5, 3)]
        fams = [
            axis_tube_family(0, 2, anchors, weights=weights),
            axis_tube_family(1, 2, anchors, weights=[1.0, 2.0, 1.0]),
        ]
        assert weighted_multiplicity_check(fams, cube, GridSpec(64))
    # rational p/q: scaled comparison matches the integer expansion
    anchors = rng.uniform(-4, 4, (2, 2))
    q = 8.0
    ps = [3.0, 5.0]
    rational = [
        axis_tube_family(0, 2, anchors, weights=[p / q for p in ps]),
        axis_tube_family(1, 2, anchors),
    ]
    integer = [
        axis_tube_family(0, 2, anchors, weights=ps),
        axis_tube_family(1, 2, anchors),
    ]
    g = GridSpec(64)
    v_rat = evaluate_overlap(rational, cube, g).value
    expanded = [expand_integer_weights(f) for f in integer]
    v_exp = evaluate_overlap(expanded, cube, g).value
    assert v_rat * q == v_exp
    report(7, "integer weights bit-identical, rational weights match after scaling")


def test_criterion_08_lipschitz_regime():
    # 20 random delta-Lipschitz polyline configs (n=2, delta=0.05):
    # quadrature value <= certificate bound; affine case matches tubes exactly
    delta = 0.05
    cube = Cube.centered([0.0, 0.0], 1.0 / delta)
    sound = 0
    for seed in range(20):
        fams = generate(GenSpec(2, (3, 3), Lipschitz(delta, 7), cube, seed=800 + seed))
        v = evaluate_refined(fams, cube, 2e-2, 5, start_cells=32)
        cert = certify_multiscale(fams, cube, delta)
        assert v.value <= cert.final_bound + (v.error_estimate or 0.0)
        sound += 1
    # affine special case: 2-breakpoint curve == straight tube, bit-identical
    slope = 0.03
    span = 500.0
    curve = LipschitzCurve(0, [-span, span], [[-span * slope], [span * slope]], slope)
    straight = line_through([0.0, 0.0], [1.0, slope])
    partner = family(1, 2, [line_through([0.5, 0.0], [0.0, 1.0])])
    g = GridSpec(128)
    vc = evaluate_overlap([family(0, 2, [curve]), partner], cube, g)
    vt = evaluate_overlap([family(0, 2, [straight]), partner], cube, g)
    assert vc.value == vt.value
    report(8, f"{sound} Lipschitz configs sound; affine case exact")


def test_criterion_09_known_value_quadrature():
    # perpendicular strips -> 4 +- 2%; tricylinder -> 8(2-sqrt(2)) +- 2%;
    # oblique strips at pi/6 -> 8 +- 1% against the exact oracle
    f1 = family(0, 2, [line_through([0.0, 0.0], [1.0, 0.0])])
    f2 = family(1, 2, [line_through([0.0, 0.0], [0.0, 1.0])])
    cube = Cube.centered([0.0, 0.0], 10.0)
    v = evaluate_overlap([f1, f2], cube, GridSpec(200))
    perp_err = abs(v.value - 4.0) / 4.0
    assert perp_err <= 0.02

    cube3 = Cube.centered([0.0, 0.0, 0.0], 10.0)
    fams3 = [
        family(j, 3, [Line(np.zeros(3), Direction.axis(3, j))]) for j in range(3)
    ]
    tricyl = 8.0 * (2.0 - math.sqrt(2.0))
    v3 = evaluate_overlap(fams3, cube3, GridSpec(256))
    tri_err = abs(v3.value - tricyl) / tricyl
    assert tri_err <= 0.02

    theta = math.pi / 6
    g1 = family(0, 2, [line_through([0.0, 0.0], [1.0, 0.0])])
    g2 = family(1, 2, [line_through([0.0, 0.0], [math.cos(theta), math.sin(theta)])])
    oracle_cube = Cube.centered([0.0, 0.0], 100.0)
    oracle = exact_overlap_2d([g1, g2], oracle_cube)
    assert abs(oracle - 8.0) < 1e-9
    quad_cube = Cube.centered([0.0, 0.0], 16.0)  # contains the whole crossing
    assert abs(exact_overlap_2d([g1, g2], quad_cube) - 8.0) < 1e-9
    vq = evaluate_overlap([g1, g2], quad_cube, GridSpec(1024))
    obl_err = abs(vq.value - oracle) / oracle
    assert obl_err <= 0.01
    report(
        9,
        f"perp {perp_err:.2%}, tricylinder {tri_err:.2%}, oblique {obl_err:.2%}",
    )


#: runs each JSON-listed argument list in turn as ``python -m kakeya.cli``
#: would, in one interpreter; the first failing command is echoed to stderr
#: and its exit code ends the child
_CLI_CHILD = """\
import json, runpy, sys
for argv in json.loads(sys.argv[1]):
    sys.argv = ["kakeya.cli", *argv]
    try:
        runpy.run_module("kakeya.cli", run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        if stop.code:
            print("failed:", *argv, file=sys.stderr)
            raise
"""


def _run_cli_commands(commands, cwd):
    """Run each of ``commands`` as ``python -m kakeya.cli`` would, in one new interpreter.

    The child's PYTHONPATH starts with the absolute directory that holds the
    imported ``kakeya`` (``src/`` or an editable install), so it runs the same
    package as this process from any working directory. A relative entry such
    as ``PYTHONPATH=src`` would not resolve from ``cwd``.
    """
    package_root = str(Path(kakeya.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    argvs = json.dumps([[str(a) for a in args] for args in commands])
    return subprocess.run(
        [sys.executable, "-c", _CLI_CHILD, argvs], capture_output=True, cwd=cwd, env=env
    )


def test_criterion_10_determinism(tmp_path, capsys):
    # every command byte-identical across two runs in this process and a third
    # through the ``python -m kakeya.cli`` entry point in a fresh interpreter
    # (its own hash seed and caches); --threads 8 is accepted and changes no byte
    from kakeya.serialization import dump_json

    gen_stanza = {
        "schema_version": 1,
        "gen": genspec_to_json(
            GenSpec(2, (4, 4), SmallAngle(0.08), Cube.centered([0.0, 0.0], 10.0), seed=10)
        ),
    }
    gen_general = {
        "schema_version": 1,
        "gen": genspec_to_json(
            GenSpec(2, (3, 3), GeneralAngle(), Cube.centered([0.0, 0.0], 8.0), seed=10)
        ),
    }
    sweep_stanza = {
        "schema_version": 1,
        "sweep": {
            "template": genspec_to_json(
                GenSpec(2, (3, 3), SmallAngle(0.08), Cube.centered([0.0, 0.0], 4.0), seed=5)
            ),
            "s_values": [2.0, 4.0],
            "delta": 0.1,
        },
    }
    search_stanza = {
        "schema_version": 1,
        "search": {
            "n": 2,
            "counts": [2, 2],
            "cube": {"min_corner": [-3.0, -3.0], "side": 6.0},
            "budget": 6,
            "seed": 3,
        },
    }
    dump_json(gen_stanza, tmp_path / "gen.json")
    dump_json(gen_general, tmp_path / "gen_general.json")
    dump_json(sweep_stanza, tmp_path / "sweep.json")
    dump_json(search_stanza, tmp_path / "search.json")

    def run_main(label, args):
        code = cli_main([str(a) for a in args])
        assert code == 0, f"{label}: exit {code}\n{capsys.readouterr().err}"

    run_main("gen", ["gen", "--config", tmp_path / "gen.json", "--out", tmp_path / "cfg.json"])
    run_main(
        "gen",
        ["gen", "--config", tmp_path / "gen_general.json", "--out", tmp_path / "cfg_gen.json"],
    )

    commands = {
        "gen": ["gen", "--config", tmp_path / "gen.json", "--seed", 77],
        "eval": ["eval", "--config", tmp_path / "cfg.json", "--grid", 64],
        "exact2d": ["exact2d", "--config", tmp_path / "cfg.json"],
        "certify": ["certify", "--config", tmp_path / "cfg.json", "--delta", 0.1],
        "verify-lw": ["verify-lw", "--n", 2, "--trials", 5, "--seed", 4],
        "verify-step": ["verify-step", "--config", tmp_path / "cfg.json", "--delta", 0.1, "--grid", 64],
        "reduce": ["reduce", "--config", tmp_path / "cfg_gen.json", "--epsilon", 3.0],
        "sweep": ["sweep", "--config", tmp_path / "sweep.json"],
        "search": ["search", "--config", tmp_path / "search.json", "--grid", 32],
    }
    for name, args in commands.items():
        a = tmp_path / f"{name}_a.json"
        b = tmp_path / f"{name}_b.json"
        run_main(name, [*args, "--out", a])
        run_main(name, [*args, "--out", b])
        assert a.read_bytes() == b.read_bytes(), name
    proc = _run_cli_commands(
        [[*args, "--out", tmp_path / f"{name}_fresh.json"] for name, args in commands.items()],
        tmp_path,
    )
    stderr = proc.stderr.decode("utf-8", errors="replace")
    assert proc.returncode == 0, f"python -m kakeya.cli: exit {proc.returncode}\n{stderr}"
    for name in commands:
        fresh = (tmp_path / f"{name}_fresh.json").read_bytes()
        assert fresh == (tmp_path / f"{name}_a.json").read_bytes(), name
    t1 = tmp_path / "threads1.json"
    t8 = tmp_path / "threads8.json"
    base = ["eval", "--config", tmp_path / "cfg.json", "--grid", 32]
    run_main("eval --threads 1", [*base, "--threads", 1, "--out", t1])
    run_main("eval --threads 8", [*base, "--threads", 8, "--out", t8])
    assert t1.read_bytes() == t8.read_bytes()
    report(
        10,
        f"{len(commands)} commands byte-identical in process and from a fresh interpreter; "
        "eval the same for --threads 1 and 8",
    )
