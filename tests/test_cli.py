import contextlib
import io
import json
import math
import tempfile
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kakeya import cli
from kakeya.cli import main
from kakeya.evaluator import GridSpec, evaluate_overlap
from kakeya.experiments import extremal_search
from kakeya.serialization import (
    config_from_json,
    config_to_json,
    dump_json,
    load_json,
    search_from_json,
    write_json,
)
from kakeya.generators import GeneralAngle, GenSpec, SmallAngle
from kakeya.reduction import reduce_general_to_small_angle, transversal_reduce
from kakeya.geometry import Cube

from lemmas import genspec_to_json


def genspec_file(tmp_path, seed=42, counts=(4, 4), delta=0.1, side=10.0):
    spec = GenSpec(2, counts, SmallAngle(delta), Cube.centered([0.0, 0.0], side), seed=seed)
    path = tmp_path / "gen.json"
    dump_json({"schema_version": 1, "gen": genspec_to_json(spec)}, path)
    return path


def run(args):
    return main([str(a) for a in args])


class TestGen:
    def test_roundtrip_bitwise(self, tmp_path):
        gen = genspec_file(tmp_path)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run(["gen", "--config", gen, "--out", out1]) == 0
        assert run(["gen", "--config", gen, "--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_parses_back_identically(self, tmp_path):
        gen = genspec_file(tmp_path)
        out = tmp_path / "cfg.json"
        run(["gen", "--config", gen, "--out", out])
        config = config_from_json(load_json(out))
        redumped = tmp_path / "redump.json"
        dump_json(config_to_json(config), redumped)
        assert out.read_bytes() == redumped.read_bytes()

    def test_seed_override(self, tmp_path):
        gen = genspec_file(tmp_path)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(["gen", "--config", gen, "--out", a, "--seed", 1])
        run(["gen", "--config", gen, "--out", b, "--seed", 2])
        assert a.read_bytes() != b.read_bytes()


class TestEval:
    def test_eval_and_threads_identical(self, tmp_path):
        gen = genspec_file(tmp_path)
        cfg = tmp_path / "cfg.json"
        run(["gen", "--config", gen, "--out", cfg])
        v1 = tmp_path / "v1.json"
        v8 = tmp_path / "v8.json"
        assert run(["eval", "--config", cfg, "--grid", 128, "--threads", 1, "--out", v1]) == 0
        assert run(["eval", "--config", cfg, "--grid", 128, "--threads", 8, "--out", v8]) == 0
        assert v1.read_bytes() == v8.read_bytes()

    def test_budget_exceeded_exit_3(self, tmp_path, capsys):
        gen = genspec_file(tmp_path)
        cfg = tmp_path / "cfg.json"
        run(["gen", "--config", gen, "--out", cfg])
        assert run(["eval", "--config", cfg, "--grid", 20000]) == 3

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2,,}')
        assert run(["eval", "--config", bad]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err


class TestCertifyFlow:
    def test_certify_then_eval_sound(self, tmp_path):
        gen = genspec_file(tmp_path)
        cfg = tmp_path / "cfg.json"
        run(["gen", "--config", gen, "--out", cfg])
        cert = tmp_path / "cert.json"
        val = tmp_path / "val.json"
        assert run(["certify", "--config", cfg, "--delta", 0.1, "--out", cert]) == 0
        assert run(["eval", "--config", cfg, "--grid", 256, "--out", val]) == 0
        bound = load_json(cert)["final_bound"]
        value = load_json(val)["value"]
        assert value <= bound

    def test_certify_check_flag(self, tmp_path):
        gen = genspec_file(tmp_path)
        cfg = tmp_path / "cfg.json"
        run(["gen", "--config", gen, "--out", cfg])
        assert run(["certify", "--config", cfg, "--delta", 0.1, "--check", "--grid", 128]) == 0

    def test_epsilon_flag(self, tmp_path):
        gen = genspec_file(tmp_path, delta=0.001, counts=(2, 2))
        cfg = tmp_path / "cfg.json"
        run(["gen", "--config", gen, "--out", cfg])
        cert = tmp_path / "cert.json"
        assert run(["certify", "--config", cfg, "--epsilon", 2.0, "--out", cert]) == 0
        data = load_json(cert)
        assert abs(data["epsilon_exponent"] - 2.0) < 1e-9


class TestVerifyCommands:
    def test_verify_lw_ok(self, tmp_path):
        out = tmp_path / "lw.json"
        assert run(["verify-lw", "--n", 3, "--trials", 10, "--seed", 0, "--out", out]) == 0
        data = load_json(out)
        assert data["max_excess"] <= 0.0

    def test_verify_step_ok(self, tmp_path):
        gen = genspec_file(tmp_path)
        cfg = tmp_path / "cfg.json"
        run(["gen", "--config", gen, "--out", cfg])
        out = tmp_path / "step.json"
        assert run(["verify-step", "--config", cfg, "--delta", 0.1, "--grid", 128, "--out", out]) == 0
        assert load_json(out)["ratio"] <= 1.0

    def test_reduce_outputs_problems(self, tmp_path):
        spec = GenSpec(
            2, (3, 3), SmallAngle(0.04), Cube.centered([0.0, 0.0], 8.0), seed=11
        )
        gen = tmp_path / "gen.json"
        dump_json({"schema_version": 1, "gen": genspec_to_json(spec)}, gen)
        cfg = tmp_path / "cfg.json"
        run(["gen", "--config", gen, "--out", cfg])
        out = tmp_path / "red.json"
        assert run(["reduce", "--config", cfg, "--epsilon", 3.0, "--out", out]) == 0
        data = load_json(out)
        assert data["problems"]
        for p in data["problems"]:
            assert p["distortion_factor"] >= 1.0


class TestSweepSearch:
    def test_sweep_deterministic_with_csv(self, tmp_path):
        stanza = {
            "schema_version": 1,
            "sweep": {
                "template": genspec_to_json(
                    GenSpec(2, (3, 3), SmallAngle(0.08), Cube.centered([0.0, 0.0], 4.0), seed=5)
                ),
                "s_values": [2.0, 4.0],
                "delta": 0.1,
            },
        }
        cfg = tmp_path / "sweep.json"
        dump_json(stanza, cfg)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.json"
            csv_out = tmp_path / f"{tag}.csv"
            assert run(["sweep", "--config", cfg, "--out", out, "--csv", csv_out]) == 0
            outs.append((out.read_bytes(), csv_out.read_bytes()))
        assert outs[0] == outs[1]
        header = outs[0][1].decode().splitlines()[0]
        assert header == "s,value,error_estimate,cells_per_side,converged,certified_bound,ratio,flagged"

    def test_search_deterministic(self, tmp_path):
        stanza = {
            "schema_version": 1,
            "search": {
                "n": 2,
                "counts": [2, 2],
                "cube": {"min_corner": [-3.0, -3.0], "side": 6.0},
                "budget": 8,
                "seed": 17,
            },
        }
        cfg = tmp_path / "search.json"
        dump_json(stanza, cfg)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run(["search", "--config", cfg, "--grid", 32, "--out", a]) == 0
        assert run(["search", "--config", cfg, "--grid", 32, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seeds_past_64_bits_are_accepted(self, tmp_path):
        # only a negative seed is bad input; numpy seeds from any size of integer
        big = 2**64 + 5
        out = tmp_path / "out.json"
        assert run(["search", "--config", search_file(tmp_path, seed=big), "--grid", 16,
                    "--out", out]) == 0
        assert run(["search", "--config", search_file(tmp_path), "--seed", big, "--grid", 16,
                    "--out", out]) == 0
        assert run(["verify-lw", "--seed", big, "--trials", 1, "--out", out]) == 0


class TestSerializationErrors:
    def test_unknown_schema_version(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        dump_json({"schema_version": 99, "n": 2, "cube": {}, "families": []}, cfg)
        assert run(["eval", "--config", cfg]) == 1

    def test_missing_file(self, tmp_path):
        assert run(["eval", "--config", tmp_path / "nope.json"]) == 1


SEARCH_STANZA = {
    "n": 2,
    "counts": [2, 2],
    "cube": {"min_corner": [-3.0, -3.0], "side": 6.0},
    "budget": 4,
    "seed": 17,
}


def generated_config(tmp_path):
    """A valid generated n=2 configuration."""
    cfg = tmp_path / "cfg.json"
    run(["gen", "--config", genspec_file(tmp_path), "--out", cfg])
    return cfg


def edited_config(tmp_path, edit):
    """A generated n=2 configuration with ``edit`` applied to its JSON."""
    cfg = generated_config(tmp_path)
    data = load_json(cfg)
    edit(data)
    dump_json(data, cfg)
    return cfg


def search_file(tmp_path, **changes):
    stanza = {k: v for k, v in {**SEARCH_STANZA, **changes}.items() if v is not None}
    path = tmp_path / "search.json"
    dump_json({"schema_version": 1, "search": stanza}, path)
    return path


def lw_file_without_functions(tmp_path):
    path = tmp_path / "lw.json"
    dump_json({"box": {"min_corner": [0.0, 0.0], "sides": [1.0, 1.0]}}, path)
    return path


def lw_file_escaping_box(tmp_path):
    """f_1 lives on [0, 1], but the integration box projects onto [0, 2] along axis 1."""
    unit = {"box": {"min_corner": [0.0], "sides": [1.0]}, "values": [1.0, 1.0]}
    wide = {"box": {"min_corner": [0.0], "sides": [2.0]}, "values": [1.0, 1.0]}
    path = tmp_path / "lw.json"
    dump_json({"functions": [wide, unit], "box": {"min_corner": [0.0, 0.0], "sides": [2.0, 1.0]}},
              path)
    return path


def gen_file(tmp_path, **changes):
    spec = genspec_to_json(GenSpec(2, (2, 2), SmallAngle(0.1), Cube.centered([0.0, 0.0], 4.0), 3))
    path = tmp_path / "gen.json"
    dump_json({"schema_version": 1, "gen": {**spec, **changes}}, path)
    return path


def _set_member_dir(data):
    data["families"][0]["members"][0]["dir"] = [1.0, 0.5]


def _set_family_axis(data):
    data["families"][1]["axis"] = 1.5


def _set_cube_side(data):
    data["cube"]["side"] = 0.0


def _set_cube_side_string(data):
    data["cube"]["side"] = "10"


def _set_radius_bool(data):
    data["families"][0]["radius"] = True


def _set_weight_string(data):
    data["families"][0]["members"][0]["weight"] = "2.5"


def _set_weight_infinite(data):
    data["families"][0]["members"][1]["weight"] = float("inf")


def _set_lip_string(data):
    # a flat axis-0 curve across the whole cube [-5, 5]^2
    polyline = {"breakpoints": [-5.0, 5.0], "values": [[0.0], [0.0]], "lip": "0.5"}
    data["families"][0]["members"][0] = {"polyline": polyline, "weight": 1.0}


def _set_min_corner_string_and_bool(data):
    data["cube"]["min_corner"] = ["-8", True]


def _set_min_corner_string(data):
    data["cube"]["min_corner"] = "-5, -5"


def _set_anchor_bool(data):
    data["families"][0]["members"][0]["anchor"] = [True, 0.0]


def _set_dir_nan(data):
    data["families"][1]["members"][0]["dir"] = [float("nan"), 1.0]


def _set_dir_empty(data):
    data["families"][0]["members"][1]["dir"] = []


def _set_dir_1e200(data):
    # |dir|^2 is past the float range
    data["families"][1]["members"][0]["dir"] = [1e200, 1.0]


def _set_breakpoints_string(data):
    polyline = {"breakpoints": ["-5", 5.0], "values": [[0.0], [0.0]], "lip": 0.5}
    data["families"][0]["members"][0] = {"polyline": polyline, "weight": 1.0}


def _set_polyline_values_ragged(data):
    polyline = {"breakpoints": [-5.0, 5.0], "values": [[0.0], [0.0, 1.0]], "lip": 0.5}
    data["families"][0]["members"][0] = {"polyline": polyline, "weight": 1.0}


def _set_direction_set_center_string(data):
    _add_direction_sets(data)
    data["direction_sets"][0]["center"] = ["1", 0.0]


def _set_direction_set_radius_string(data):
    _add_direction_sets(data)
    data["direction_sets"][1]["ang_radius"] = "0.2"


def _set_cube_side_huge(data):
    data["cube"]["side"] = 10**400  # an integer literal too large for a float


def _set_anchor_huge(data):
    data["families"][0]["members"][0]["anchor"][1] = 10**400


def _set_near_parallel_frame(data):
    """One tube per axis along [1, 0] and [1, 3e-13], in caps too small to hold another center.

    Their frame's |det| is 3e-13: above nu/2 for nu = 1e-13, but singular.
    """
    data["families"][0]["members"] = [{"anchor": [0.0, 0.0], "dir": [1.0, 0.0]}]
    data["families"][1]["members"] = [{"anchor": [0.0, 0.0], "dir": [1.0, 3e-13]}]
    data["direction_sets"] = [
        {"center": [1.0, 0.0], "ang_radius": 1e-17},
        {"center": [1.0, 3e-13], "ang_radius": 1e-17},
    ]


GOLDEN = Path(__file__).resolve().parent / "golden"


def edited_golden(tmp_path, name, edit):
    """``tests/golden/<name>`` with ``edit`` applied to its JSON."""
    data = load_json(GOLDEN / name)
    edit(data)
    path = tmp_path / name
    dump_json(data, path)
    return path


def edited_lw_golden(tmp_path, edit):
    """``tests/golden/lw_n3.input.json`` with ``edit`` applied to its JSON."""
    return edited_golden(tmp_path, "lw_n3.input.json", edit)


def _set_radius_huge(data):
    for f in data["families"]:
        f["radius"] = 1e200


def _set_radius_product_overflows(data):
    # each power (sigma_max W)^3 and W^3 is finite, their product is not
    for f in data["families"]:
        f["radius"] = 5.6e102


def _set_cube_past_the_float_range(data):
    data["cube"] = {"min_corner": [-1.79e308, -1.79e308, -1.79e308], "side": 1e308}


def _set_cube_side_1e300(data):
    # M = 430 steps at delta 0.2: c_step^M is past the float range
    data["cube"]["side"] = 1e300


def _set_weight_1e308(data):
    data["families"][0]["members"][0]["weight"] = 1e308


def _set_every_weight_1e308(data):
    # each family's counts reach inf, and inf times an empty cell's 0 is NaN
    for f in data["families"]:
        for member in f["members"]:
            member["weight"] = 1e308


def small_angle_weights_1e308(tmp_path):
    return edited_golden(tmp_path, "small_angle_n2.config.json", _set_every_weight_1e308)


def _set_every_lw_value_1e300(data):
    # each factor's square root is 1e150: the product of three is past the float range
    for f in data["functions"]:
        f["values"] = np.full(np.shape(f["values"]), 1e300).tolist()


def small_angle_check(command, *flags):
    """``command`` on ``tests/golden/small_angle_n2.config.json`` at delta 0.2 on a 32-cell grid."""
    config = GOLDEN / "small_angle_n2.config.json"
    return [command, "--config", config, "--delta", 0.2, "--grid", 32, *flags]


def _set_lw_min_corner_strings(data):
    data["box"]["min_corner"] = ["0.0", "0.0", "0.0"]


def _set_lw_sides_bool(data):
    data["box"]["sides"] = [True, 1.0, 1.0]


def _set_lw_function_sides_bool(data):
    data["functions"][1]["box"]["sides"] = [True, 1.0]


def _set_lw_values_string_and_bool(data):
    data["functions"][0]["values"][0][:2] = ["1.5", True]


def _set_lw_value_huge(data):
    data["functions"][2]["values"][1][0] = 10**400


def _set_lw_values_empty(data):
    data["functions"][1]["values"] = [[]]


def _add_direction_sets(data):
    data["direction_sets"] = [
        {"center": [1.0, 0.0], "ang_radius": 0.2},
        {"center": [0.0, 1.0], "ang_radius": 0.2},
    ]


SWEEP_STANZA = {
    "template": genspec_to_json(
        GenSpec(2, (3, 3), SmallAngle(0.08), Cube.centered([0.0, 0.0], 4.0), seed=5)
    ),
    "s_values": [2.0],
    "delta": 0.1,
}


def sweep_file(tmp_path, **changes):
    stanza = {k: v for k, v in {**SWEEP_STANZA, **changes}.items() if v is not None}
    path = tmp_path / "sweep.json"
    dump_json({"schema_version": 1, "sweep": stanza}, path)
    return path


BAD_INPUTS = {
    "non_unit_member_dir": lambda p: ["eval", "--config", edited_config(p, _set_member_dir)],
    "nonpositive_cube_side": lambda p: ["eval", "--config", edited_config(p, _set_cube_side)],
    "verify_lw_without_functions": lambda p: [
        "verify-lw", "--config", lw_file_without_functions(p)
    ],
    "verify_lw_zero_trials": lambda p: ["verify-lw", "--trials", 0],
    "verify_lw_dimension_9": lambda p: ["verify-lw", "--n", 9, "--trials", 1],
    "search_without_cube": lambda p: ["search", "--config", search_file(p, cube=None)],
    "search_zero_count": lambda p: [
        "search", "--config", search_file(p, counts=[0, 2]), "--grid", 16
    ],
    "search_n_not_int": lambda p: ["search", "--config", search_file(p, n="two")],
    "search_budget_fractional": lambda p: ["search", "--config", search_file(p, budget=12.7)],
    "search_budget_bool": lambda p: ["search", "--config", search_file(p, budget=True)],
    "search_count_fractional": lambda p: ["search", "--config", search_file(p, counts=[2, 1.5])],
    "search_annealing_string": lambda p: [
        "search", "--config", search_file(p, annealing="false")
    ],
    "search_n_one": lambda p: ["search", "--config", search_file(p, n=1)],
    "search_n_zero": lambda p: ["search", "--config", search_file(p, n=0)],
    "search_seed_flag_negative": lambda p: ["search", "--config", search_file(p), "--seed", -1],
    "search_seed_field_negative": lambda p: ["search", "--config", search_file(p, seed=-3)],
    "verify_lw_seed_negative": lambda p: ["verify-lw", "--seed", -5, "--trials", 2],
    "gen_n_fractional": lambda p: ["gen", "--config", gen_file(p, n=2.9)],
    "config_axis_fractional": lambda p: [
        "eval", "--config", edited_config(p, _set_family_axis)
    ],
    "verify_lw_box_escapes_function": lambda p: [
        "verify-lw", "--config", lw_file_escaping_box(p)
    ],
    "sweep_without_template": lambda p: ["sweep", "--config", sweep_file(p, template=None)],
    "sweep_delta_not_number": lambda p: ["sweep", "--config", sweep_file(p, delta="abc")],
    "sweep_s_value_not_number": lambda p: ["sweep", "--config", sweep_file(p, s_values=["x"])],
    "threads_zero": lambda p: ["eval", "--config", generated_config(p), "--threads", 0],
    "threads_negative": lambda p: ["eval", "--config", generated_config(p), "--threads", -3],
    "grid_not_int": lambda p: ["eval", "--config", generated_config(p), "--grid", "abc"],
    "refine_grid_zero": lambda p: [
        "eval", "--config", generated_config(p), "--refine", "--grid", 0
    ],
    "unknown_command": lambda p: ["evaluate", "--config", generated_config(p)],
    "reduce_nu_without_epsilon": lambda p: [
        "reduce", "--config", edited_config(p, _add_direction_sets), "--nu", 1.0
    ],
    "cube_side_string": lambda p: ["eval", "--config", edited_config(p, _set_cube_side_string)],
    "family_radius_bool": lambda p: ["eval", "--config", edited_config(p, _set_radius_bool)],
    "member_weight_string": lambda p: ["eval", "--config", edited_config(p, _set_weight_string)],
    "member_weight_infinite": lambda p: [
        "eval", "--config", edited_config(p, _set_weight_infinite)
    ],
    "polyline_lip_string": lambda p: ["eval", "--config", edited_config(p, _set_lip_string)],
    "direction_set_radius_string": lambda p: [
        "eval", "--config", edited_config(p, _set_direction_set_radius_string)
    ],
    "regime_delta_string": lambda p: [
        "gen", "--config", gen_file(p, regime={"kind": "small_angle", "delta": "0.1"})
    ],
    "regime_low_bool": lambda p: [
        "gen", "--config",
        gen_file(p, regime={"kind": "weighted", "low": True, "high": 3.0, "delta": 0.1}),
    ],
    "regime_high_string": lambda p: [
        "gen", "--config",
        gen_file(p, regime={"kind": "weighted", "low": 1.0, "high": "3", "delta": 0.1}),
    ],
    "gen_radius_string": lambda p: ["gen", "--config", gen_file(p, radius="1.0")],
    "sweep_delta_string": lambda p: ["sweep", "--config", sweep_file(p, delta="0.1")],
    "sweep_s_value_string": lambda p: ["sweep", "--config", sweep_file(p, s_values=["2.0"])],
    "reduce_nu_underflows": lambda p: [
        "reduce", "--config", edited_config(p, _add_direction_sets), "--nu", 1e-320,
        "--epsilon", 3.0,
    ],
    "cube_min_corner_string_and_bool": lambda p: [
        "eval", "--config", edited_config(p, _set_min_corner_string_and_bool)
    ],
    "cube_min_corner_not_array": lambda p: [
        "eval", "--config", edited_config(p, _set_min_corner_string)
    ],
    "member_anchor_bool": lambda p: ["eval", "--config", edited_config(p, _set_anchor_bool)],
    "member_dir_nan": lambda p: ["eval", "--config", edited_config(p, _set_dir_nan)],
    "member_dir_norm_overflows": lambda p: ["eval", "--config", edited_config(p, _set_dir_1e200)],
    "polyline_breakpoints_string": lambda p: [
        "eval", "--config", edited_config(p, _set_breakpoints_string)
    ],
    "polyline_values_ragged": lambda p: [
        "eval", "--config", edited_config(p, _set_polyline_values_ragged)
    ],
    "direction_set_center_string": lambda p: [
        "eval", "--config", edited_config(p, _set_direction_set_center_string)
    ],
    "reduce_singular_frame": lambda p: [
        "reduce", "--config", edited_config(p, _set_near_parallel_frame), "--nu", 1e-13,
        "--epsilon", 3.0,
    ],
    "cube_side_too_large_for_a_float": lambda p: [
        "eval", "--config", edited_config(p, _set_cube_side_huge)
    ],
    "member_anchor_too_large_for_a_float": lambda p: [
        "eval", "--config", edited_config(p, _set_anchor_huge)
    ],
    "verify_lw_box_min_corner_strings": lambda p: [
        "verify-lw", "--config", edited_lw_golden(p, _set_lw_min_corner_strings)
    ],
    "verify_lw_box_sides_bool": lambda p: [
        "verify-lw", "--config", edited_lw_golden(p, _set_lw_sides_bool)
    ],
    "verify_lw_function_box_sides_bool": lambda p: [
        "verify-lw", "--config", edited_lw_golden(p, _set_lw_function_sides_bool)
    ],
    "verify_lw_values_string_and_bool": lambda p: [
        "verify-lw", "--config", edited_lw_golden(p, _set_lw_values_string_and_bool)
    ],
    "verify_lw_value_too_large_for_a_float": lambda p: [
        "verify-lw", "--config", edited_lw_golden(p, _set_lw_value_huge)
    ],
    "refine_negative_doublings": lambda p: [
        "eval", "--config", generated_config(p), "--refine", "--max-doublings", -1
    ],
    "sweep_negative_doublings": lambda p: [
        "sweep", "--config", sweep_file(p), "--max-doublings", -1
    ],
    "sweep_grid_flag": lambda p: ["sweep", "--config", sweep_file(p), "--grid", 16],
    "search_tol_flag": lambda p: ["search", "--config", search_file(p), "--tol", 0.1],
    "certify_tol_nan": lambda p: small_angle_check("certify", "--check", "--tol", "nan"),
    "verify_step_tol_negative": lambda p: small_angle_check("verify-step", "--tol", -5),
    "verify_step_tol_nan": lambda p: small_angle_check("verify-step", "--tol", "nan"),
    "reduce_radius_overflows": lambda p: [
        "reduce", "--config", edited_golden(p, "general_n3.config.json", _set_radius_huge),
        "--epsilon", 3.75,
    ],
    "reduce_cube_past_the_float_range": lambda p: [
        "reduce", "--config",
        edited_golden(p, "general_n3.config.json", _set_cube_past_the_float_range),
        "--epsilon", 3.75,
    ],
    "certify_check_grid_zero": lambda p: small_angle_check("certify", "--check", "--grid", 0),
    "reduce_distortion_product_overflows": lambda p: [
        "reduce", "--config",
        edited_golden(p, "general_n3.config.json", _set_radius_product_overflows),
        "--epsilon", 3.75,
    ],
    "certify_step_power_overflows": lambda p: [
        "certify", "--config",
        edited_golden(p, "small_angle_n2.config.json", _set_cube_side_1e300), "--delta", 0.2,
    ],
    "certify_weight_product_overflows": lambda p: [
        "certify", "--config",
        edited_golden(p, "small_angle_n2.config.json", _set_weight_1e308), "--delta", 0.2,
        "--check", "--grid", 32,
    ],
    "eval_counts_overflow": lambda p: [
        "eval", "--config", small_angle_weights_1e308(p), "--grid", 8
    ],
    # four blocks, which must not warn either
    "eval_counts_overflow_over_four_blocks": lambda p: [
        "eval", "--config", small_angle_weights_1e308(p), "--grid", 512
    ],
    "eval_product_overflows": lambda p: [
        "eval", "--config", edited_golden(p, "small_angle_n2.config.json", _set_weight_1e308),
        "--grid", 8,
    ],
    "verify_step_counts_overflow": lambda p: [
        "verify-step", "--config", small_angle_weights_1e308(p), "--delta", 0.2, "--grid", 16
    ],
    "exact2d_terms_overflow": lambda p: ["exact2d", "--config", small_angle_weights_1e308(p)],
    "verify_lw_left_side_overflows": lambda p: [
        "verify-lw", "--config", edited_lw_golden(p, _set_every_lw_value_1e300)
    ],
    # a delta that no scale step takes: 1.0, or one past the step range
    "reduce_epsilon_infinite": lambda p: [
        "reduce", "--config", GOLDEN / "general_n3.config.json", "--epsilon", "inf"
    ],
    "reduce_epsilon_1e300": lambda p: [
        "reduce", "--config", GOLDEN / "general_n3.config.json", "--epsilon", 1e300
    ],
    "reduce_epsilon_past_the_step_range": lambda p: [
        "reduce", "--config", GOLDEN / "general_n3.config.json", "--epsilon", 200
    ],
    "reduce_nu_epsilon_infinite": lambda p: [
        "reduce", "--config", GOLDEN / "wedge_n2.config.json", "--nu", 1.0, "--epsilon", "inf"
    ],
    # negative numbers that argparse would take for flags
    "reduce_nu_negative_exponent": lambda p: [
        "reduce", "--config", GOLDEN / "wedge_n2.config.json", "--nu", "-1e300", "--epsilon", 3
    ],
    "certify_delta_negative_exponent": lambda p: [
        "certify", "--config", GOLDEN / "small_angle_n2.config.json", "--delta", "-1e-5"
    ],
    "reduce_epsilon_negative_infinity": lambda p: [
        "reduce", "--config", GOLDEN / "general_n3.config.json", "--epsilon", "-inf"
    ],
    "certify_tol_negative_exponent": lambda p: [
        "certify", "--config", GOLDEN / "small_angle_n2.config.json", "--delta", 0.2,
        "--tol", "-1e3",
    ],
    "member_dir_empty": lambda p: ["eval", "--config", edited_config(p, _set_dir_empty)],
    "reduce_member_dir_empty": lambda p: [
        "reduce", "--config", edited_golden(p, "general_n3.config.json", _set_dir_empty),
        "--epsilon", 3.75,
    ],
    "verify_lw_values_empty": lambda p: [
        "verify-lw", "--config", edited_lw_golden(p, _set_lw_values_empty)
    ],
    "verify_lw_dimension_53": lambda p: ["verify-lw", "--config", lw_file_of_dimension_53(p)],
}


# a numpy warning fails the case
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_1_with_message(case, tmp_path, capsys):
    argv = BAD_INPUTS[case](tmp_path)
    capsys.readouterr()
    assert run([*argv, "--out", tmp_path / "out.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "case, message",
    [
        ("search_n_not_int", "search.n must be an integer, got 'two'"),
        ("search_budget_fractional", "search.budget must be an integer, got 12.7"),
        ("search_budget_bool", "search.budget must be an integer, got True"),
        ("search_count_fractional", "search.counts[1] must be an integer, got 1.5"),
        ("search_annealing_string", "search.annealing must be a boolean, got 'false'"),
        ("search_n_one", "dimension must be >= 2"),
        ("search_n_zero", "dimension must be >= 2"),
        ("search_seed_flag_negative", "seed must be >= 0, got -1"),
        ("search_seed_field_negative", "seed must be >= 0, got -3"),
        ("verify_lw_seed_negative", "seed must be >= 0, got -5"),
        ("gen_n_fractional", "gen.n must be an integer, got 2.9"),
        ("config_axis_fractional", "families[1].axis must be an integer, got 1.5"),
        ("verify_lw_box_escapes_function", "projection of the integration box escapes f_1's box"),
        ("cube_side_string", "cube.side must be a finite number, got '10'"),
        ("family_radius_bool", "families[0].radius must be a finite number, got True"),
        ("member_weight_string",
         "families[0].members[0].weight must be a finite number, got '2.5'"),
        ("member_weight_infinite",
         "families[0].members[1].weight must be a finite number, got inf"),
        ("polyline_lip_string",
         "families[0].members[0].polyline.lip must be a finite number, got '0.5'"),
        ("direction_set_radius_string",
         "direction_sets[1].ang_radius must be a finite number, got '0.2'"),
        ("regime_delta_string", "gen.regime.delta must be a finite number, got '0.1'"),
        ("regime_low_bool", "gen.regime.low must be a finite number, got True"),
        ("regime_high_string", "gen.regime.high must be a finite number, got '3'"),
        ("gen_radius_string", "gen.radius must be a finite number, got '1.0'"),
        ("sweep_delta_string", "sweep.delta must be a finite number, got '0.1'"),
        ("sweep_s_value_string", "sweep.s_values[0] must be a finite number, got '2.0'"),
        ("reduce_nu_underflows", "nu 1e-320 is too small: the cap radius underflows to 0"),
        ("cube_min_corner_string_and_bool",
         "cube.min_corner[0] must be a finite number, got '-8'"),
        ("cube_min_corner_not_array", "cube.min_corner must be an array, got '-5, -5'"),
        ("member_anchor_bool",
         "families[0].members[0].anchor[0] must be a finite number, got True"),
        ("member_dir_nan", "families[1].members[0].dir[0] must be a finite number, got nan"),
        ("polyline_breakpoints_string",
         "families[0].members[0].polyline.breakpoints[0] must be a finite number, got '-5'"),
        ("polyline_values_ragged",
         "families[0].members[0].polyline.values must not be a ragged array"),
        ("direction_set_center_string",
         "direction_sets[0].center[0] must be a finite number, got '1'"),
        ("reduce_singular_frame", "cap tuple (0, 0) has a singular frame: |det| = 3.000e-13"),
        ("cube_side_too_large_for_a_float",
         "cube.side must be a finite number, got an integer of 401 digits"),
        ("member_anchor_too_large_for_a_float",
         "families[0].members[0].anchor[1] must be a finite number, got an integer of 401 digits"),
        ("verify_lw_box_min_corner_strings", "box.min_corner[0] must be a finite number, got '0.0'"),
        ("verify_lw_box_sides_bool", "box.sides[0] must be a finite number, got True"),
        ("verify_lw_function_box_sides_bool",
         "functions[1].box.sides[0] must be a finite number, got True"),
        ("verify_lw_values_string_and_bool",
         "functions[0].values must be an array of finite numbers"),
        ("verify_lw_value_too_large_for_a_float",
         "functions[2].values must be an array of finite numbers"),
        ("refine_negative_doublings", "max_doublings must be >= 0"),
        ("sweep_negative_doublings", "max_doublings must be >= 0"),
        ("sweep_grid_flag", "unrecognized arguments: --grid 16"),
        ("search_tol_flag", "unrecognized arguments: --tol 0.1"),
        ("certify_tol_nan", "--tol must be a finite number >= 0, got nan"),
        ("verify_step_tol_negative", "--tol must be a finite number >= 0, got -5.0"),
        ("verify_step_tol_nan", "--tol must be a finite number >= 0, got nan"),
        ("reduce_radius_overflows", "distortion factor (sigma_max W)^3 overflows at W = 1e+200"),
        ("reduce_cube_past_the_float_range",
         "the cube maps past the float range: non-finite coordinates"),
        ("certify_check_grid_zero", "cells_per_side must be >= 1"),
        ("reduce_distortion_product_overflows",
         "distortion factor (sigma_max W)^3 overflows at W = 5.6e+102"),
        ("eval_counts_overflow",
         "the overlap value at 8 cells per side is past the float range (nan)"),
        ("eval_counts_overflow_over_four_blocks",
         "the overlap value at 512 cells per side is past the float range (nan)"),
        ("eval_product_overflows",
         "the overlap value at 8 cells per side is past the float range (inf)"),
        ("verify_step_counts_overflow",
         "the overlap value at 16 cells per side is past the float range (nan)"),
        ("exact2d_terms_overflow", "the exact overlap value is past the float range (inf)"),
        ("verify_lw_left_side_overflows",
         "the Loomis-Whitney left side is past the float range (inf)"),
        ("member_dir_norm_overflows", "direction is not unit length: |v|-1 = inf"),
        ("reduce_epsilon_infinite", "epsilon must be a finite positive number, got inf"),
        ("reduce_epsilon_1e300", "step arguments require delta in (0, 0.9]; got 1.0"),
        ("reduce_epsilon_past_the_step_range",
         "step arguments require delta in (0, 0.9]; got 0.9227491573325611"),
        ("reduce_nu_epsilon_infinite", "epsilon must be a finite positive number, got inf"),
        ("reduce_nu_negative_exponent", "nu must lie in (0, 1]"),
        ("certify_delta_negative_exponent", "delta must lie in (0, 1)"),
        ("reduce_epsilon_negative_infinity",
         "epsilon must be a finite positive number, got -inf"),
        ("certify_tol_negative_exponent", "--tol must be a finite number >= 0, got -1000.0"),
        ("member_dir_empty", "families[0].members[1].dir must be an array of at least 2 numbers"),
        ("reduce_member_dir_empty",
         "families[0].members[1].dir must be an array of at least 2 numbers"),
        ("verify_lw_values_empty", "a value grid needs at least one cell"),
        ("verify_lw_dimension_53", "Loomis-Whitney checks take dimension <= 52"),
    ],
)
def test_bad_input_message_names_the_field(case, message, tmp_path, capsys):
    argv = BAD_INPUTS[case](tmp_path)
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_integral_float_fields_are_accepted(tmp_path):
    """A whole number written as a float still counts as an integer."""
    out = tmp_path / "cfg.json"
    assert run(["gen", "--config", gen_file(tmp_path, n=2.0, seed=3.0), "--out", out]) == 0
    ref = tmp_path / "ref.json"
    assert run(["gen", "--config", gen_file(tmp_path), "--out", ref]) == 0
    assert out.read_bytes() == ref.read_bytes()


def test_search_over_the_cell_budget_exits_3_before_allocating(tmp_path, capsys):
    golden = Path(__file__).resolve().parent / "golden" / "search_n2.input.json"
    out = tmp_path / "out.json"
    tracemalloc.start()
    try:
        assert run(["search", "--config", golden, "--grid", 20000, "--out", out]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("non-convergence: ") and len(err.splitlines()) == 1
    assert not out.exists()
    # one count field of 20000^2 cells would take 3.2 GB
    assert peak < 16 << 20


def test_reduce_over_the_cap_net_budget_exits_3_before_allocating(tmp_path, capsys):
    golden = Path(__file__).resolve().parent / "golden" / "general_n3.config.json"
    out = tmp_path / "out.json"
    tracemalloc.start()
    try:
        assert run(["reduce", "--config", golden, "--epsilon", 1.0, "--out", out]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("non-convergence: ") and len(err.splitlines()) == 1
    assert not out.exists()
    # the net would have about 2.1e13 tangent cells
    assert peak < 16 << 20


def lw_file_past_the_cell_budget(tmp_path):
    """n = 3: each axis takes 500 cells from one function, 1.25e8 cells in all."""
    unit = {"min_corner": [0.0, 0.0], "sides": [1.0, 1.0]}
    shapes = [(1, 500), (500, 1), (1, 500)]
    path = tmp_path / "lw.json"
    dump_json({"functions": [{"box": unit, "values": np.ones(s).tolist()} for s in shapes],
               "box": {"min_corner": [0.0] * 3, "sides": [1.0] * 3}}, path)
    return path


def lw_file_of_dimension_53(tmp_path):
    """53 one-cell functions on the unit cube's faces: one axis more than einsum labels."""
    values = [1.0]
    for _ in range(51):
        values = [values]
    face = {"box": {"min_corner": [0.0] * 52, "sides": [1.0] * 52}, "values": values}
    path = tmp_path / "lw.json"
    dump_json({"functions": [face] * 53, "box": {"min_corner": [0.0] * 53, "sides": [1.0] * 53}},
              path)
    return path


def test_verify_lw_over_the_cell_budget_exits_3_before_allocating(tmp_path, capsys):
    out = tmp_path / "out.json"
    tracemalloc.start()
    try:
        assert run(["verify-lw", "--config", lw_file_past_the_cell_budget(tmp_path),
                    "--out", out]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err == ("non-convergence: the Loomis-Whitney refinement has 125000000 cells, "
                   "exceeding the budget of 100000000\n")
    assert not out.exists()
    # one factor of 500^2 cells would take 2 MB
    assert peak < 1 << 20


def test_parser_built_once_and_calls_share_no_state(tmp_path, capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        cfg = generated_config(tmp_path)
        search = search_file(tmp_path)
        seeded = tmp_path / "seeded.json"
        argv = ["search", "--config", search, "--grid", 16, "--seed", 5, "--threads", 2]
        assert run([*argv, "--csv", tmp_path / "trace.csv", "--out", seeded]) == 0
        refined = tmp_path / "refined.json"
        assert run(["eval", "--config", cfg, "--grid", 8, "--refine", "--out", refined]) in (0, 3)
        plain = tmp_path / "plain.json"
        assert run(["eval", "--config", cfg, "--grid", 16, "--out", plain]) == 0
        unseeded = tmp_path / "unseeded.json"
        assert run(["search", "--config", search, "--grid", 16, "--out", unseeded]) == 0
        capsys.readouterr()
        assert run(["eval", "--config", cfg, "--bogus"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    # each call saw only its own flags
    config = config_from_json(load_json(cfg))
    value = evaluate_overlap(config.families, config.cube, GridSpec(16))
    assert load_json(plain) == {"schema_version": 1, **asdict(value)}
    result = extremal_search(**search_from_json(load_json(search)), grid=GridSpec(16))
    assert load_json(unseeded) == json.loads(json.dumps({"schema_version": 1, **asdict(result)}))
    assert load_json(seeded) != load_json(unseeded)


def problem_dict(p) -> dict:
    """The JSON fields of one problem, read from its row: what ``reduce`` writes for it."""
    return {
        "cap_indices": list(p.cap_indices),
        "delta": p.delta,
        "distortion_factor": p.distortion_factor,
        "matrix": [list(row) for row in p.matrix],
        "length_distortion": list(p.length_distortion),
        "volume_distortion": p.volume_distortion,
        "cube": {"min_corner": list(p.min_corner), "side": p.side},
        "member_counts": [f.size for f in p.sources],
    }


@pytest.mark.parametrize("case", ["general2", "general3", "general4", "wedge2"])
def test_reduce_writes_its_problems_as_the_generic_writer_writes_their_dicts(case, tmp_path):
    n, eps = {"general2": (2, 3.0), "general3": (3, 3.75), "general4": (4, 5.0),
              "wedge2": (2, 3.0)}[case]
    nu = ["--nu", 1.0] if case == "wedge2" else []
    if case in ("general3", "wedge2"):
        config = GOLDEN / ("general_n3.config.json" if n == 3 else "wedge_n2.config.json")
    else:
        spec = GenSpec(n, (3,) * n, GeneralAngle(), Cube.centered(np.zeros(n), 8.0), seed=11)
        gen, config = tmp_path / "gen.json", tmp_path / "cfg.json"
        dump_json({"schema_version": 1, "gen": genspec_to_json(spec)}, gen)
        assert run(["gen", "--config", gen, "--out", config]) == 0
    out = tmp_path / "out.json"
    assert run(["reduce", "--config", config, *nu, "--epsilon", eps, "--out", out]) == 0
    cfg = config_from_json(load_json(config))
    if nu:
        problems = transversal_reduce(cfg.families, cfg.cube, list(cfg.direction_sets), 1.0, eps)
    else:
        problems = reduce_general_to_small_angle(cfg.families, cfg.cube, eps)
    assert len(problems) > 1
    fh = io.StringIO()
    write_json({"schema_version": 1, "problems": [problem_dict(p) for p in problems]}, fh)
    assert out.read_text(encoding="utf-8") == fh.getvalue()


# ---------------------------------------------------------------------------
# reduce on mutated golden inputs: no traceback, one message line


def json_paths(node, path=()):
    """Every path into ``node``: the keys and indices down to each value."""
    yield path
    if isinstance(node, dict):
        for k, v in node.items():
            yield from json_paths(v, (*path, k))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from json_paths(v, (*path, i))


@st.composite
def mutated_json(draw, data):
    """``data`` after one or two mutations at drawn paths."""
    for _ in range(draw(st.integers(1, 2))):
        paths = list(json_paths(data))
        path = draw(st.sampled_from(paths[1:]))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        key, value = path[-1], parent[path[-1]]
        kind = draw(st.sampled_from(["scale", "retype", "drop", "empty", "ragged"]))
        if kind == "scale" and type(value) in (int, float):
            parent[key] = value * 10.0 ** draw(st.integers(-300, 300))
        elif kind == "retype" or (kind == "scale" and isinstance(value, str)):
            choices = [str(value), True, False, None, 0, -1, 2**70, 0.5]
            if type(value) is float and math.isfinite(value):
                choices.append(int(value))
            if type(value) is int:
                choices.append(float(value))
            parent[key] = draw(st.sampled_from(choices))
        elif kind == "drop" and isinstance(parent, dict):
            del parent[key]
        elif kind == "empty" and isinstance(value, (list, dict)):
            value.clear()
        elif kind == "ragged" and isinstance(value, list) and value:
            value.pop()
        else:
            parent[key] = []
    return data


FUZZ_NUMBERS = st.sampled_from(
    [0.0, -1.0, -1e300, math.nan, math.inf, -math.inf, 1e300, 1e-300, 0.5, 1.0, 3.0, 3.75]
)


@st.composite
def reduce_fuzz_cases(draw):
    name = draw(st.sampled_from(["general_n3.config.json", "wedge_n2.config.json"]))
    data = load_json(GOLDEN / name)
    if draw(st.booleans()):
        data = draw(mutated_json(data))
    # the golden flags, a drawn value or none
    nu = draw(st.just(1.0) | FUZZ_NUMBERS | st.none()) if name.startswith("wedge") else None
    flags = [] if nu is None else [f"--nu={nu!r}"]
    epsilon = draw(st.just(3.0) | FUZZ_NUMBERS | st.none())
    flags += [] if epsilon is None else [f"--epsilon={epsilon!r}"]
    return data, flags


# a numpy warning is a second line on stderr, and fails the case
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(reduce_fuzz_cases())
def test_reduce_on_mutated_inputs_exits_with_one_message(case):
    data, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "cfg.json", Path(tmp) / "out.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["reduce", "--config", str(config), *flags, "--out", str(out)])
    assert code in (0, 1, 2, 3)
    lines = err.getvalue().splitlines()
    if code:
        assert len(lines) == 1
        assert lines[0].startswith(("error: ", "violation: ", "non-convergence: "))
