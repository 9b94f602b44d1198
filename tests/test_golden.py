"""Byte-for-byte golden outputs of the CLI.

Each case runs one command through ``kakeya.cli.main`` on inputs under
``tests/golden/`` and compares its ``--out`` file with the stored file of
the same name; without ``--out`` the same bytes go to stdout.  The ``--csv``
files of ``sweep`` and ``search`` are stored too.  A change to the program
that alters any of these bytes must say why in CHANGES.md;
``python tests/test_golden.py`` rewrites the stored outputs from the current
code, in the order below (``gen`` outputs first, since later cases read them).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from kakeya.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"

#: output file name -> CLI arguments; ``*.json`` arguments name files in GOLDEN
CASES = {
    "small_angle_n2.config.json": ["gen", "--config", "small_angle_n2.gen.json"],
    "small_angle_n3.config.json": ["gen", "--config", "small_angle_n3.gen.json"],
    "general_n3.config.json": ["gen", "--config", "general_n3.gen.json"],
    "lipschitz_n2.config.json": ["gen", "--config", "lipschitz_n2.gen.json"],
    "small_angle_n2.certify.json": [
        "certify", "--config", "small_angle_n2.config.json", "--delta", "0.2"
    ],
    "small_angle_n3.certify.json": [
        "certify", "--config", "small_angle_n3.config.json", "--delta", "0.1"
    ],
    "general_n3.reduce.json": [
        "reduce", "--config", "general_n3.config.json", "--epsilon", "3.75"
    ],
    "wedge_n2.reduce.json": [
        "reduce", "--config", "wedge_n2.config.json", "--nu", "1.0", "--epsilon", "3.0"
    ],
    # 300^2 and 48^3 cells: more than one 65,536-cell block, the last one partial
    "small_angle_n2.eval.json": [
        "eval", "--config", "small_angle_n2.config.json", "--grid", "300"
    ],
    "general_n3.eval.json": ["eval", "--config", "general_n3.config.json", "--grid", "48"],
    "lipschitz_n2.eval.json": [
        "eval", "--config", "lipschitz_n2.config.json", "--grid", "64"
    ],
    "small_angle_n2.refine.json": [
        "eval", "--config", "small_angle_n2.config.json", "--refine", "--grid", "16"
    ],
    "lw_n3.random.json": ["verify-lw", "--n", "3", "--trials", "4", "--seed", "3"],
    # 80^3 cells: eight blocks
    "lw_n3.verify.json": ["verify-lw", "--config", "lw_n3.input.json", "--grid", "80"],
    "small_angle_n2.step.json": [
        "verify-step", "--config", "small_angle_n2.config.json", "--delta", "0.2",
        "--grid", "128",
    ],
    "small_angle_n2.sweep.json": ["sweep", "--config", "small_angle_n2.sweep.input.json"],
    "search_n2.search.json": ["search", "--config", "search_n2.input.json", "--grid", "32"],
    "small_angle_n2.exact2d.json": ["exact2d", "--config", "small_angle_n2.config.json"],
}

#: CSV file name -> the case whose command also writes it with ``--csv``
CSV_CASES = {
    "small_angle_n2.sweep.csv": "small_angle_n2.sweep.json",
    "search_n2.search.csv": "search_n2.search.json",
}


def _argv(name: str) -> list[str]:
    return [str(GOLDEN / a) if a.endswith(".json") else a for a in CASES[name]]


def _run(name: str, out: Path, *extra: str) -> int:
    return main([*_argv(name), "--out", str(out), *extra])


@pytest.mark.parametrize("name", list(CASES))
def test_golden_bytes(name, tmp_path):
    out = tmp_path / name
    assert _run(name, out) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", list(CASES))
def test_golden_stdout(name, capsys):
    capsys.readouterr()
    assert main(_argv(name)) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", ["lw_n3.random.json", "lw_n3.verify.json"])
def test_verify_lw_bytes_do_not_depend_on_blas_threads(name):
    # a BLAS contraction may add in another order on another thread count
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    outputs = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        run = subprocess.run([sys.executable, "-m", "kakeya.cli", *_argv(name)],
                             env=env, capture_output=True, check=True)
        outputs.add(run.stdout)
    assert outputs == {(GOLDEN / name).read_bytes()}


@pytest.mark.parametrize("name", list(CSV_CASES))
def test_golden_csv_bytes(name, tmp_path):
    csv = tmp_path / name
    assert _run(CSV_CASES[name], tmp_path / "out.json", "--csv", str(csv)) == 0
    assert csv.read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    csv_of = {case: csv for csv, case in CSV_CASES.items()}
    for case in CASES:
        extra = ("--csv", str(GOLDEN / csv_of[case])) if case in csv_of else ()
        if _run(case, GOLDEN / case, *extra) != 0:
            raise SystemExit(f"{case}: command failed")
