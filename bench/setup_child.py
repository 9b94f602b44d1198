"""One set-up of a benchmark run, in a fresh interpreter.

Usage: python3 bench/setup_child.py ROOT OUTDIR WORKLOAD SEED

Times the import of ``kakeya`` from ROOT/src plus the generation of the
workload's configurations into OUTDIR, and prints {"setup_s": ...}.  A fresh
process is needed because an interpreter imports a module only once.
"""

import sys
import time
from pathlib import Path


def main(argv) -> int:
    root, outdir, workload, seed = Path(argv[0]), Path(argv[1]), argv[2], int(argv[3])
    src = root / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import kakeya.cli  # noqa: F401  (the import is what is timed)

    if Path(kakeya.__file__).resolve().parent != (src / "kakeya").resolve():
        print(f"kakeya imported from {kakeya.__file__}, not {src}", file=sys.stderr)
        return 2
    import jobs

    jobs.write_configs(workload, seed, outdir)
    elapsed = time.perf_counter() - t0
    print('{"setup_s": %r}' % elapsed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
