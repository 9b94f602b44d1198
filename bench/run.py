"""Benchmark of the kakeya CLI: one closed-loop client, three workloads.

Usage:
    python3 bench/run.py --workload {quadrature,certify,search} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src/`` (never from an installed copy) and driven in-process
through ``kakeya.cli.main``.  Each job starts when the previous one has
finished; the two job slots of a workload alternate in a fixed order (see
``jobs.WORKLOADS``).  Every job's output is checked; a failed check is
counted, never fatal.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` gives the
per-layer metrics instead: untraced rounds alternate with rounds in which
every hooked function is wrapped (see ``hooks.py``), and the difference
between the two is reported as the tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# one BLAS thread, set before numpy is imported; jobs run with --threads 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("KAKEYA_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import arith  # noqa: E402
import jobs  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: set-ups per run; setup_s is their median
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup(workload: str, seed: int, rundir: Path):
    """Set up SETUP_REPEATS times in fresh interpreters.

    Returns (median seconds, configuration directory, reason or None).  The
    repeats must write byte-identical configurations.
    """
    times, dirs = [], []
    for rep in range(SETUP_REPEATS):
        outdir = rundir / f"setup{rep}"
        outdir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_child.py"), str(ROOT), str(outdir),
             workload, str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        dirs.append(outdir)
    reason = None
    for path in sorted(dirs[0].iterdir()):
        for other in dirs[1:]:
            if (other / path.name).read_bytes() != path.read_bytes():
                reason = f"set-up is not deterministic: {path.name} differs in {other.name}"
    return arith.median(times), dirs[0], reason


class Runner:
    """Runs the jobs of one workload and keeps their times and failures."""

    def __init__(self, cli, workload: str, confdir: Path, rundir: Path):
        self.cli = cli
        self.slots = jobs.WORKLOADS[workload]
        self.rundir = rundir
        self.configs = {
            slot.name: [jobs.config_path(confdir, slot, i) for i in range(jobs.POOL)]
            for slot in self.slots
        }
        self.refs = {
            slot.name: [jobs.check_reference(cli, slot.kind, c, rundir)
                        for c in self.configs[slot.name]]
            for slot in self.slots
        }
        self.attempted = 0
        self.failed = 0
        self.tracer = None

    def job(self, slot, index: int, *, threads: int = 1, out: Path | None = None):
        """Run one job and check its output; returns its wall time in seconds."""
        config = self.configs[slot.name][index % jobs.POOL]
        out = out or self.rundir / f"out-{slot.name}.json"
        out.unlink(missing_ok=True)
        argv = jobs.job_argv(slot.kind, config, out, threads)
        if self.tracer is not None:
            self.tracer.job = self.attempted
        self.attempted += 1
        raised = None
        t0 = perf_counter()
        try:
            rc = self.cli.main(argv)
        except (Exception, SystemExit) as exc:
            rc, raised = None, exc
        elapsed = perf_counter() - t0
        reason = None
        if raised is not None:
            reason = "raised:\n" + "".join(traceback.format_exception(raised))
        elif rc != 0:
            reason = f"exit code {rc}"
        if reason is None:
            try:
                with open(out, encoding="utf-8") as fh:
                    data = json.load(fh)
                reason = jobs.CHECKS[slot.kind](data, self.refs[slot.name][index % jobs.POOL])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable output: {exc!r}"
        if reason is not None:
            self.failed += 1
            print(f"FAILED {slot.kind} {' '.join(argv)}: {reason}", file=sys.stderr)
        return elapsed

    def round(self, index: int, samples: dict) -> None:
        """One job per slot, each on configuration ``index`` of its pool."""
        for slot in self.slots:
            samples[slot.name].append(self.job(slot, index))

    def loop(self, seconds: float) -> dict:
        """Whole rounds until ``seconds`` have passed."""
        samples = {slot.name: [] for slot in self.slots}
        end = perf_counter() + seconds
        rnd = 0
        while rnd == 0 or perf_counter() < end:
            self.round(rnd, samples)
            rnd += 1
        return samples


def threads2_speedup(runner: Runner, pairs: int = 2) -> float:
    """Best --threads 1 time over best --threads 2 time on one eval config.

    The two outputs must be byte-identical; a difference is a failed job.
    """
    slot = runner.slots[0]
    one, two = runner.rundir / "threads1.json", runner.rundir / "threads2.json"
    t1 = t2 = float("inf")
    for _ in range(pairs):
        t1 = min(t1, runner.job(slot, 0, threads=1, out=one))
        t2 = min(t2, runner.job(slot, 0, threads=2, out=two))
        if one.exists() and two.exists() and one.read_bytes() != two.read_bytes():
            runner.failed += 1
            print("FAILED eval --threads 2 output differs from --threads 1", file=sys.stderr)
    return t1 / t2


def environment(args) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                    "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "commit": commit(),
    }


def commit() -> str:
    """HEAD of the checkout's git metadata, if it has any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def import_kakeya():
    sys.path.insert(0, str(SRC))
    import kakeya.cli

    if Path(kakeya.__file__).resolve().parent != (SRC / "kakeya").resolve():
        raise ImportError(f"kakeya imported from {kakeya.__file__}, not {SRC}")
    return kakeya.cli


def end_to_end(runner: Runner, samples: dict, setup_s: float) -> dict:
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for slot in runner.slots:
        xs = samples[slot.name]
        metrics[f"{slot.name}_s.p50"] = (arith.median(xs), "s")
        if slot.name == "job1":
            value, pct = arith.tail(xs)
            metrics["job1_s.tail"] = (value, "s")
            print(f"# job1_s.tail is p{pct:.0f} of {len(xs)} {slot.kind} jobs")
        print(f"# {slot.name} = {slot.kind}: {len(xs)} jobs")
    return metrics


def per_layer(runner: Runner, args) -> dict:
    from hooks import Tracer

    speedup = threads2_speedup(runner) if args.workload == "quadrature" else 0.0
    tracer = Tracer()
    plain = {slot.name: [] for slot in runner.slots}
    traced = {slot.name: [] for slot in runner.slots}
    traced_jobs = traced_failed = 0
    end = perf_counter() + args.seconds
    rnd = 0
    # untraced and traced rounds alternate on the same configurations, so a
    # drift of the machine's speed reaches both alike
    while rnd < 2 or perf_counter() < end:
        if rnd % 2 == 0:
            runner.round(rnd // 2, plain)
        else:
            attempted, failed = runner.attempted, runner.failed
            runner.tracer = tracer
            with tracer.installed():
                runner.round(rnd // 2, traced)
            runner.tracer = None
            traced_jobs += runner.attempted - attempted
            traced_failed += runner.failed - failed
        rnd += 1
    overhead = (sum(arith.median(traced[k]) for k in traced)
                / sum(arith.median(plain[k]) for k in plain)) - 1.0
    metrics = tracer.metrics(
        args.workload,
        jobs=traced_jobs,
        failed=traced_failed,
        job_wall_s=sum(sum(v) for v in traced.values()),
        overhead_frac=overhead,
        threads2_speedup=speedup,
    )
    missing = tracer.missing_hooks(args.workload)
    print("# missing hooks: " + (", ".join(missing) if missing else "none"))
    print("# no layer queues work, so no wait times are reported")
    if args.workload != "quadrature":
        print("# evaluator.threads2_speedup is measured on quadrature only; 0 here")
    path = ROOT / ".bench_out" / f"trace-{args.workload}.npz"
    tracer.write(path, {"environment": environment(args),
                        "metrics": {k: v[0] for k, v in metrics.items()}})
    print(f"# spans written to {path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kakeya" / "cli.py").is_file():
        print(f"error: no kakeya sources under {SRC}", file=sys.stderr)
        return 2
    rundir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        setup_s, confdir, setup_problem = setup(args.workload, args.seed, rundir)
        cli = import_kakeya()
        runner = Runner(cli, args.workload, confdir, rundir)
        print("# environment " + json.dumps(environment(args)))
        print(f"# {args.workload}: closed loop, 1 client, jobs alternate "
              + ", ".join(f"{s.name}={s.kind}" for s in runner.slots))
        if args.trace:
            metrics = per_layer(runner, args)
        else:
            samples = runner.loop(args.seconds)
            metrics = end_to_end(runner, samples, setup_s)
    except (RuntimeError, ImportError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    if setup_problem:
        print(f"FAILED {setup_problem}", file=sys.stderr)
    print(f"# failed_frac {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} jobs)")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0 and setup_problem is None,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
