"""Workloads of the benchmark: their configurations, job commands and output checks.

Every workload alternates two job slots, ``job1`` and ``job2``, in a fixed
order from one client in a closed loop.  Each slot cycles through a pool of
configurations whose seeds are derived from the workload seed, so the same
seed gives the same inputs.  The program only ever sees the generated files.

This module imports nothing from ``kakeya`` at import time: the set-up step
times the import of ``kakeya`` itself.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

#: configurations per job slot; job r of a slot uses configuration r mod POOL
POOL = 16

#: angle bound of the eval configurations, and of the certify configurations
EVAL_DELTA = 0.1
CERTIFY_DELTA = 0.2


@dataclass(frozen=True)
class Slot:
    name: str  # "job1" or "job2": the metric prefix
    kind: str  # the CLI command the slot runs


WORKLOADS = {
    # dense grid work in the evaluator, point distances and the LW left side
    "quadrature": (Slot("job1", "eval"), Slot("job2", "verify-lw")),
    # exact box distances in the certifier, cap covers in the reduction
    "certify": (Slot("job1", "certify"), Slot("job2", "reduce")),
    # ~100 small evaluator calls per job: per-call overhead and object building
    "search": (Slot("job1", "search"), Slot("job2", "search")),
}


def derive_seed(*parts) -> int:
    """A 63-bit seed determined by the workload seed and the job's place."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def config_path(outdir: Path, slot: Slot, index: int) -> Path:
    return outdir / f"{slot.name}-{slot.kind}-{index}.json"


def _cube(n: int, side: float) -> dict:
    return {"min_corner": [-side / 2.0] * n, "side": side}


def _small(delta: float) -> dict:
    return {"kind": "small_angle", "delta": delta}


def _genspec(n: int, counts, regime: dict, side: float, seed: int) -> dict:
    return {
        "schema_version": 1,
        "gen": {
            "n": n,
            "counts": list(counts),
            "regime": regime,
            "cube": _cube(n, side),
            "seed": seed,
            "radius": 1.0,
        },
    }


def _dump(obj: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _gen(cli, spec: dict, path: Path) -> None:
    spec_path = path.with_suffix(".gen.json")
    _dump(spec, spec_path)
    if cli.main(["gen", "--config", str(spec_path), "--out", str(path)]) != 0:
        raise RuntimeError(f"gen failed for {spec_path}")


def _lw_functions(config: dict, radius: float = 2.0, cells: int = 64) -> dict:
    """Loomis-Whitney input from a tube configuration.

    f_j is the radius-2 ball sum of family j's anchors projected along axis j,
    rasterised on the projected cube: the doubled-radius axis-parallel
    surrogates of the proof's per-subcube step.
    """
    import numpy as np

    from kakeya.loomis_whitney import BallSum, Box, ball_sum_to_grid

    n = config["n"]
    lo = np.asarray(config["cube"]["min_corner"], dtype=float)
    side = float(config["cube"]["side"])
    functions = []
    for family in sorted(config["families"], key=lambda f: f["axis"]):
        j = family["axis"]
        anchors = np.array([m["anchor"] for m in family["members"]], dtype=float)
        balls = BallSum(np.delete(anchors, j, axis=1), np.ones(len(anchors)), radius)
        box = Box(np.delete(lo, j), np.full(n - 1, side))
        grid = ball_sum_to_grid(balls, box, cells)
        functions.append(
            {
                "box": {"min_corner": box.min_corner.tolist(), "sides": box.sides.tolist()},
                "values": grid.values.tolist(),
            }
        )
    return {"functions": functions, "box": {"min_corner": lo.tolist(), "sides": [side] * n}}


def write_configs(workload: str, seed: int, outdir: Path) -> None:
    """Generate every configuration of the workload's pools into ``outdir``."""
    from kakeya import cli

    slots = WORKLOADS[workload]
    for slot in slots:
        for i in range(POOL):
            s = derive_seed(workload, seed, slot.name, i)
            path = config_path(outdir, slot, i)
            if slot.kind == "eval":
                _gen(cli, _genspec(3, (12, 12, 12), _small(EVAL_DELTA), 16.0, s), path)
            elif slot.kind == "verify-lw":
                # the same families as the eval slot's configuration i
                with open(config_path(outdir, slots[0], i), encoding="utf-8") as fh:
                    _dump(_lw_functions(json.load(fh)), path)
            elif slot.kind == "certify":
                _gen(cli, _genspec(2, (6, 6), _small(CERTIFY_DELTA), 16.0, s), path)
            elif slot.kind == "reduce":
                _gen(cli, _genspec(3, (6, 6, 6), {"kind": "general"}, 8.0, s), path)
            elif slot.kind == "search":
                stanza = {"n": 2, "counts": [6, 6], "cube": _cube(2, 16.0),
                          "budget": 100, "seed": s}
                _dump({"schema_version": 1, "search": stanza}, path)
            else:
                raise ValueError(f"unknown job kind {slot.kind!r}")


def job_argv(kind: str, config: Path, out: Path, threads: int = 1) -> list[str]:
    """CLI arguments of one job; ``--threads`` only where the command has it."""
    t = ["--threads", str(threads)]
    argv = {
        "eval": ["eval", "--grid", "56", *t],
        "verify-lw": ["verify-lw", "--grid", "80"],
        "certify": ["certify", "--delta", str(CERTIFY_DELTA), "--check",
                    "--grid", "128", *t],
        "reduce": ["reduce", "--epsilon", "3.75"],
        "search": ["search", "--grid", "64", *t],
    }[kind]
    return [*argv, "--config", str(config), "--out", str(out)]


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is correct, else a reason


def eval_upper_bound(config: dict) -> float:
    """volume * prod_j N_j^(1/(n-1)): each family sum is at most its weight."""
    n = config["n"]
    bound = float(config["cube"]["side"]) ** n
    for family in config["families"]:
        weight = math.fsum(m.get("weight", 1.0) for m in family["members"])
        bound *= weight ** (1.0 / (n - 1))
    return bound


def check_eval(out: dict, upper: float):
    v = out["value"]
    if not (math.isfinite(v) and 0.0 <= v <= upper):
        return f"value {v!r} outside [0, {upper!r}]"
    return None


def check_verify_lw(out: dict, _ref):
    if not out["max_excess"] <= 0.0:
        return f"Loomis-Whitney excess {out['max_excess']!r} > 0"
    return None


def check_certify(out: dict, exact: float):
    if not exact <= out["final_bound"]:
        return f"exact value {exact!r} exceeds final_bound {out['final_bound']!r}"
    return None


def check_reduce(out: dict, _ref):
    problems = out["problems"]
    if not problems:
        return "no subproblems"
    low = [p["distortion_factor"] for p in problems if not p["distortion_factor"] >= 1.0]
    if low:
        return f"{len(low)} distortion factors below 1, e.g. {low[0]!r}"
    return None


def check_search(out: dict, _ref):
    best = [t["best_ratio"] for t in out["trace"]]
    if not best:
        return "empty trace"
    drops = sum(b < a for a, b in zip(best, best[1:]))
    if drops:
        return f"best_ratio decreases {drops} times along the trace"
    if out["best_ratio"] != best[-1]:
        return "best_ratio differs from the trace's last best"
    return None


CHECKS = {
    "eval": check_eval,
    "verify-lw": check_verify_lw,
    "certify": check_certify,
    "reduce": check_reduce,
    "search": check_search,
}


def check_reference(cli, kind: str, config: Path, workdir: Path):
    """What a job's output is checked against, computed once per configuration."""
    if kind == "eval":
        with open(config, encoding="utf-8") as fh:
            return eval_upper_bound(json.load(fh))
    if kind == "certify":
        out = workdir / "exact2d.json"
        if cli.main(["exact2d", "--config", str(config), "--out", str(out)]) != 0:
            raise RuntimeError(f"exact2d failed on {config}")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)["value"]
    return None
