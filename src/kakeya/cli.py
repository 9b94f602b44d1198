"""Command-line interface: config ingestion, pipeline orchestration, output.

Commands: gen, eval, exact2d, certify, verify-lw, verify-step, reduce, sweep,
search.  Exit codes: 0 success, 1 validation or usage error, 2 property
violation, 3 non-convergence / cell budget.  Every command runs on the
calling thread; ``--threads`` is accepted for compatibility, must be >= 1,
and changes nothing.

``certify --check`` tests ``value <= final_bound + --tol + error_estimate``.
At n = 2 with straight members the value is ``exact_overlap_2d``, with
error estimate 0; with polylines or at n >= 3 it is ``evaluate_overlap`` at
``--grid``, with the half-grid difference as its estimate.  The exact value
rounds to nearest, not outward, so that check is not yet a proof to the
last ulp.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from dataclasses import asdict, is_dataclass, replace
from functools import lru_cache

from . import certifier, experiments, reduction, serialization
from .errors import NonConvergence, PropertyViolation, ValidationError
from .evaluator import (
    GridSpec,
    OverlapValue,
    evaluate_overlap,
    evaluate_refined,
    exact_overlap_2d,
)
from .generators import generate, random_lw_instance
from .loomis_whitney import verify_lw

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VIOLATION = 2
EXIT_NONCONVERGENCE = 3

_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|-(inf|infinity|nan)$", re.I)


def _load_config_file(path: str) -> dict:
    try:
        return serialization.load_json(path)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )


def _write_output(result, out: str | None) -> None:
    """Write ``result`` as JSON: ``schema_version`` first, then the result's fields.

    A dataclass result's fields are ``dataclasses.asdict(result)`` in declaration
    order; a dict result is its own fields.  The JSON goes to the ``--out`` file
    through ``serialization.dump_json``, else the same bytes go to stdout.
    """
    fields = asdict(result) if is_dataclass(result) else result
    obj = {"schema_version": serialization.SCHEMA_VERSION, **fields}
    if out:
        serialization.dump_json(obj, out)
    else:
        serialization.write_json(obj, sys.stdout)


def _write_csv(path: str, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if v is None else repr(v) if isinstance(v, float) else v for v in row])


def _cmd_gen(args) -> int:
    data = _load_config_file(args.config)
    spec = serialization.genspec_from_json(data.get("gen", data))
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    families = generate(spec)
    config = serialization.Configuration(spec.n, spec.cube, tuple(families))
    _write_output(serialization.config_to_json(config), args.out)
    return EXIT_OK


def _cmd_eval(args) -> int:
    config = serialization.config_from_json(_load_config_file(args.config))
    if args.refine:
        value = evaluate_refined(
            config.families, config.cube, args.tol, args.max_doublings, start_cells=args.grid
        )
    else:
        value = evaluate_overlap(config.families, config.cube, GridSpec(args.grid))
    _write_output(value, args.out)
    if not value.converged:
        print("non-convergence: quadrature did not converge", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def _cmd_exact2d(args) -> int:
    config = serialization.config_from_json(_load_config_file(args.config))
    value = exact_overlap_2d(config.families, config.cube)
    _write_output({"value": value}, args.out)
    return EXIT_OK


def _resolve_delta(args, n: int) -> float:
    if args.delta is not None:
        if not (0.0 < args.delta < 1.0):
            raise ValidationError("delta must lie in (0, 1)")
        return args.delta
    if args.epsilon is not None:
        consts = certifier.Constants.for_dimension(n)
        return certifier.delta_for_epsilon(args.epsilon, consts)
    raise ValidationError("need --delta or --epsilon")


def _cmd_certify(args) -> int:
    config = serialization.config_from_json(_load_config_file(args.config))
    delta = _resolve_delta(args, config.n)
    # a bad --grid fails before the certificate is written
    grid = GridSpec(args.grid) if args.check else None
    certificate = certifier.certify_multiscale(config.families, config.cube, delta)
    _write_output(certificate, args.out)
    if args.check:
        if config.n == 2 and not any(f.has_curves() for f in config.families):
            kind = "exact value"
            # no grid: no error estimate and no cells per side
            value = OverlapValue(exact_overlap_2d(config.families, config.cube), 0.0, 0)
        else:
            kind = f"grid-{grid.cells_per_side} value"
            value = evaluate_overlap(config.families, config.cube, grid)
        if not certifier.check_certificate_soundness(certificate, value, tol=args.tol):
            print(
                f"violation: {kind} {value.value!r} exceeds bound {certificate.final_bound!r}",
                file=sys.stderr,
            )
            return EXIT_VIOLATION
    return EXIT_OK


def _cmd_verify_lw(args) -> int:
    results = []
    if args.config:
        fns, box = serialization.lw_inputs_from_json(_load_config_file(args.config))
        results.append(verify_lw(fns, box, GridSpec(args.grid)))
    else:
        if args.trials < 1:
            raise ValidationError("--trials must be >= 1")
        for trial in range(args.trials):
            fns, box, grid = random_lw_instance(args.n, args.seed + trial)
            results.append(verify_lw(fns, box, grid))
    worst = max(r.ratio - 1.0 - r.error_estimate for r in results)
    _write_output({"checks": [asdict(r) for r in results], "max_excess": worst}, args.out)
    if worst > 0.0:
        print(f"violation: Loomis-Whitney ratio excess {worst!r}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_verify_step(args) -> int:
    config = serialization.config_from_json(_load_config_file(args.config))
    delta = _resolve_delta(args, config.n)
    grid = GridSpec(args.grid)
    check = certifier.verify_step_inequality(config.families, config.cube, delta, grid)
    _write_output(check, args.out)
    if check.ratio > 1.0 + args.tol:
        print(f"violation: step ratio {check.ratio!r} > 1 + {args.tol!r}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_reduce(args) -> int:
    config = serialization.config_from_json(_load_config_file(args.config))
    if args.epsilon is None:
        raise ValidationError("need --epsilon")
    if args.nu is not None:
        if config.direction_sets is None:
            raise ValidationError("transversal reduction needs direction_sets in the config")
        problems = reduction.transversal_reduce(
            config.families, config.cube, list(config.direction_sets), args.nu, args.epsilon
        )
    else:
        problems = reduction.reduce_general_to_small_angle(
            config.families, config.cube, args.epsilon
        )
    _write_output({"problems": serialization.Records.from_columns(problems.columns())}, args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    template, s_values, delta = serialization.sweep_from_json(
        _load_config_file(args.config), args.delta
    )
    if args.seed is not None:
        template = replace(template, seed=args.seed)
    result = experiments.sweep_scale(
        template, s_values, delta, tol=args.tol, max_doublings=args.max_doublings
    )
    _write_output(result, args.out)
    if args.csv:
        _write_csv(
            args.csv,
            experiments.SWEEP_CSV_COLUMNS,
            [r.csv_fields() for r in result.rows],
        )
    violated = [
        r
        for r in result.rows
        if not r.flagged
        and not certifier.check_certificate_soundness(r.certificate, r.value)
    ]
    if violated:
        print(f"violation: {len(violated)} sweep rows exceed their certificates", file=sys.stderr)
        return EXIT_VIOLATION
    if any(r.flagged for r in result.rows):
        print("non-convergence: some sweep rows did not converge", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def _cmd_search(args) -> int:
    search = serialization.search_from_json(_load_config_file(args.config), args.seed)
    result = experiments.extremal_search(**search, grid=GridSpec(args.grid))
    columns = experiments.SEARCH_CSV_COLUMNS
    rows = [(t.iteration, t.restart, t.accepted_ratio, t.best_ratio) for t in result.trace]
    # the trace points' fields, in declaration order, are the CSV columns
    trace = [dict(zip(columns, row)) for row in rows]
    _write_output({"best_ratio": result.best_ratio, "trace": trace}, args.out)
    if args.csv:
        _write_csv(args.csv, columns, rows)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as bad input: one ``error: ...`` line, exit 1.

    A negative number in any form ``float`` reads (``-1e300``, ``-inf``) is a
    flag's value, not a flag, so it reaches the flag's own range check.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kakeya",
        description="Tube-family overlap integrals and multiscale bound certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups shared by several commands, each a parent parser
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="input JSON path")
    common.add_argument("--out", help="output JSON path (stdout if omitted)")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; changes nothing (must be >= 1)")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid", type=int, default=128, help="cells per side")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=1e-2)

    p = sub.add_parser("gen", help="generate a configuration from a GenSpec")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("eval", parents=[common, grid, tol],
                       help="quadrature value of the overlap integral")
    p.add_argument("--refine", action="store_true", help="double the grid until --tol")
    p.add_argument("--max-doublings", type=int, default=6)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("exact2d", help="exact n=2 polygon-clipping oracle")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_exact2d)

    p = sub.add_parser("certify", parents=[common, grid, tol],
                       help="emit a multiscale bound certificate")
    p.add_argument("--delta", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--check", action="store_true",
                   help="also verify value <= bound: the exact value at n=2 with "
                        "straight members, else the --grid value")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify-lw", help="check the Loomis-Whitney inequality")
    p.add_argument("--config", help="explicit grid functions (JSON)")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_lw)

    p = sub.add_parser("verify-step", parents=[common, grid, tol],
                       help="check the one-step scale inequality")
    p.add_argument("--delta", type=float)
    p.add_argument("--epsilon", type=float)
    p.set_defaults(func=_cmd_verify_step)

    p = sub.add_parser("reduce", help="split into certified small-angle subproblems")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--nu", type=float, help="transversality parameter (wedge mode)")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("sweep", parents=[common, tol],
                       help="scale sweep with certificates and slope fit")
    p.add_argument("--seed", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--max-doublings", type=int, default=5)
    p.add_argument("--csv", help="also write rows as CSV")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("search", parents=[common, grid],
                       help="extremal-ratio perturbation search")
    p.add_argument("--seed", type=int)
    p.add_argument("--csv", help="also write the trace as CSV")
    p.set_defaults(func=_cmd_search)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process; each parse gets a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if hasattr(args, "threads") and args.threads < 1:
            raise ValidationError(f"--threads must be >= 1, got {args.threads}")
        if hasattr(args, "tol") and not 0.0 <= args.tol < float("inf"):
            raise ValidationError(f"--tol must be a finite number >= 0, got {args.tol!r}")
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PropertyViolation as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except NonConvergence as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    raise SystemExit(main())
