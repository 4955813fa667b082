"""Command-line front end.

One subcommand per pipeline stage: ``gen`` writes a planted instance,
``solve-exact`` runs the brute-force oracle, ``solve-reduce`` runs the
learning reduction, ``decide`` runs the threshold decision, ``verify``
rechecks a certificate, and ``selftest`` runs the lemma suites.

Machine-readable results (solutions, YES/NO, per-criterion lines) go to
stdout; a key=value run report always goes to stderr, so pipelines can
consume stdout alone.  Exit codes: 0 success or Yes, 1 No or invalid
certificate, 2 input error (for ``decide`` also thresholds that cannot
separate planted from far instances), 3 exact solver found nothing,
4 reduction failure.  All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

from .dtree import format_tree
from .f2 import FormatError, format_vector, parse_vector
from .instance import (
    brute_force_nearest,
    load_instance,
    random_planted,
    write_syndrome_instance,
)
from .learners import exhaustive_parity_learner
from .reduction import ReductionConfig, decide, search, verify_certificate
from .selftest import FAULT_IDS, run_all

__all__ = ["main"]


def _fraction_arg(text: str) -> Fraction:
    """Parse 'N', 'N/D' or a decimal string into an exact Fraction."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from e


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncplift",
        description="Sparse nearest-codeword instances via decision-tree learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a seeded planted instance")
    p.add_argument("--n", type=int, required=True, help="number of coordinates")
    p.add_argument("--m", type=int, required=True, help="number of parity checks")
    p.add_argument("--k", type=int, required=True, help="planted sparsity")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--alpha", type=_fraction_arg, default=Fraction(1),
                   help="approximation factor to stamp on the instance (default 1)")
    p.add_argument("--out", required=True, help="output path; planted vector goes to <out>.planted")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve-exact", help="brute-force sparsest solution")
    p.add_argument("instance")
    p.add_argument("--k-max", type=int, default=None,
                   help="sparsity cap (default: the instance's k)")
    p.set_defaults(func=_cmd_solve_exact)

    p = sub.add_parser("solve-reduce", help="solve through the learning reduction")
    p.add_argument("instance")
    _reduction_flags(p)
    p.add_argument("--dump-hypothesis", default=None, metavar="PATH",
                   help="write the (pruned) learned tree in prefix notation")
    p.set_defaults(func=_cmd_solve_reduce)

    p = sub.add_parser(
        "decide",
        help="threshold decision: Yes (exit 0) or No (exit 1); exit 2 when the "
             "thresholds cannot separate the cases",
    )
    p.add_argument("instance")
    _reduction_flags(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("verify", help="recheck a certificate exactly")
    p.add_argument("instance")
    p.add_argument("solution", help="vector in matrix text format (1 row)")
    p.add_argument("--k-max", type=int, default=None,
                   help="sparsity cap (default: the instance's k)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("selftest", help="run the lemma suites")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.add_argument("--inject-fault", choices=FAULT_IDS, default=None,
                   help="corrupt one computed value; the matching suite must fail")
    p.set_defaults(func=_cmd_selftest)

    return parser


def _reduction_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ell", type=int, default=2, help="gadget block width (default 2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=2000, help="learner sample budget")


def _report(**fields) -> None:
    for key, value in fields.items():
        if value is not None:
            print(f"{key}={value}", file=sys.stderr)


def _instance_fields(inst) -> dict:
    return {"n": inst.n, "m": inst.m, "k": inst.k, "alpha": inst.alpha}


def _config(args) -> ReductionConfig:
    return ReductionConfig(ell=args.ell, learner_samples=args.samples)


def _cmd_gen(args, started: float) -> int:
    from dataclasses import replace

    inst, planted = random_planted(args.n, args.m, args.k, args.seed)
    if args.alpha != 1:
        inst = replace(inst, alpha=args.alpha)
    out = Path(args.out)
    out.write_text(write_syndrome_instance(inst))
    sidecar = Path(str(out) + ".planted")
    sidecar.write_text(format_vector(planted))
    _report(
        command="gen", **_instance_fields(inst), seed=args.seed,
        outcome="written", out=out, planted=sidecar,
        wall_time=f"{time.monotonic() - started:.3f}",
    )
    return 0


def _cmd_solve_exact(args, started: float) -> int:
    inst = load_instance(Path(args.instance).read_text())
    k_max = inst.k if args.k_max is None else args.k_max
    x = brute_force_nearest(inst, k_max)
    _report(
        command="solve-exact", **_instance_fields(inst), k_max=k_max,
        outcome="solution" if x is not None else "none",
        sparsity=None if x is None else x.sparsity,
        wall_time=f"{time.monotonic() - started:.3f}",
    )
    if x is None:
        print("NONE")
        return 3
    print(x.to01())
    return 0


def _cmd_solve_reduce(args, started: float) -> int:
    inst = load_instance(Path(args.instance).read_text())
    report = search(inst, _config(args), exhaustive_parity_learner, Random(args.seed))
    if args.dump_hypothesis and report.hypothesis is not None:
        Path(args.dump_hypothesis).write_text(format_tree(report.hypothesis) + "\n")
    _report(
        command="solve-reduce", **_instance_fields(inst), ell=args.ell, seed=args.seed,
        outcome="solution" if report.ok else f"failure:{report.reason}",
        sparsity=None if report.solution is None else report.solution.sparsity,
        hypothesis_size=report.hypothesis_size, candidates=report.candidates,
        wall_time=f"{time.monotonic() - started:.3f}",
    )
    if not report.ok:
        print("FAIL")
        return 4
    print(report.solution.to01())
    return 0


def _cmd_decide(args, started: float) -> int:
    inst = load_instance(Path(args.instance).read_text())
    report = decide(inst, _config(args), exhaustive_parity_learner, Random(args.seed))
    vacuous = report.reason == "vacuous-gate"
    _report(
        command="decide", **_instance_fields(inst), ell=args.ell, seed=args.seed,
        outcome="error" if vacuous else "Yes" if report.accepted else f"No:{report.reason}",
        reason=report.reason if vacuous else None,
        error=(
            "vacuous decision gate: needs gate+tolerance > 0 (is "
            f"{report.error_gate + report.tolerance:.4g}) and size_cap >= 2**(ell*k) = "
            f"{1 << (args.ell * inst.k)} (is {report.size_cap})"
            if vacuous else None
        ),
        hypothesis_size=report.hypothesis_size,
        distance=report.distance,
        size_cap=report.size_cap,
        wall_time=f"{time.monotonic() - started:.3f}",
    )
    if vacuous:
        return 2
    if report.accepted:
        print("YES")
        return 0
    print("NO")
    return 1


def _cmd_verify(args, started: float) -> int:
    inst = load_instance(Path(args.instance).read_text())
    x = parse_vector(Path(args.solution).read_text())
    k_max = inst.k if args.k_max is None else args.k_max
    ok = verify_certificate(inst, x, k_max)
    _report(
        command="verify", **_instance_fields(inst), k_max=k_max,
        outcome="valid" if ok else "invalid", sparsity=x.sparsity,
        wall_time=f"{time.monotonic() - started:.3f}",
    )
    print("OK" if ok else "INVALID")
    return 0 if ok else 1


def _cmd_selftest(args, started: float) -> int:
    results = run_all(args.level, args.inject_fault)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name}: {status} ({r.seconds:.2f}s) {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    _report(
        command="selftest", level=args.level, fault=args.inject_fault,
        outcome="pass" if failed == 0 else f"fail:{failed}",
        wall_time=f"{time.monotonic() - started:.3f}",
    )
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse already printed usage
        return int(e.code or 0)
    started = time.monotonic()
    try:
        return args.func(args, started)
    except (FormatError, OSError, ValueError) as e:
        _report(
            command=args.command, outcome="error", error=e,
            wall_time=f"{time.monotonic() - started:.3f}",
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
