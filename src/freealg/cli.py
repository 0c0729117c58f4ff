"""Command-line entry points.

    freealg free VARIETY.var SORT=N[,SORT=N...]   build a free algebra
    freealg certify VARIETY.var CERT.cert         check a certificate
    freealg check VARIETY.var ALGEBRA.alg.json    identity satisfaction
    freealg corpus [NAME...]                      run the bundled examples

Exit codes: 0 success/certified, 1 input error, 2 unknown or budget
exhausted, 3 refuted or counterexample found, 141 standard output closed
by its reader (the shell's code for a process ended by SIGPIPE), with
nothing printed.

Budgets come from --budget-classes/--budget-rounds, falling back to the
VF_BUDGET_CLASSES/VF_BUDGET_ROUNDS environment variables, then defaults.
Reports are bit-stable for fixed inputs and budgets; wall-clock timings
live in a separate non-canonical section.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import corpus as corpus_mod
from .certify import REFUTED, run_certificate
from .egraph import Budget, BudgetExceeded, BuildStats, build_free_algebra
from .files import (
    load_algebra_json,
    load_certificate,
    load_variety,
    parse_decimal,
    parse_profile_spec,
)
from .finalg import satisfies_all
from .sexpr import InputError
from .terms import GeneratorProfile

SCHEMA_VERSION = "1"

_INPUT_ERRORS = (InputError, OSError, UnicodeError, json.JSONDecodeError)
EXIT_BROKEN_PIPE = 141


def _budget(args) -> Budget:
    """Each limit from its flag, else its environment variable, else the
    default; an explicit 0 is passed on, and rejected, like any other value."""
    default = Budget()

    def limit(flag, env, fallback):
        if flag is not None:
            return flag
        if env not in os.environ:
            return fallback
        try:
            return parse_decimal(os.environ[env])
        except ValueError:
            raise InputError(f"{env} must be an integer, not {os.environ[env]!r}") from None

    return Budget(
        max_classes=limit(args.budget_classes, "VF_BUDGET_CLASSES", default.max_classes),
        max_rounds=limit(args.budget_rounds, "VF_BUDGET_ROUNDS", default.max_rounds),
    )


def _emit(report: dict, timings: dict, json_path: str | None) -> None:
    report = dict(report)
    report["schema_version"] = SCHEMA_VERSION
    report["timings"] = {k: round(v, 6) for k, v in timings.items()}
    if json_path:
        Path(json_path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def cmd_free(args) -> int:
    budget = _budget(args)
    if args.max_reps < 0:
        raise InputError("--max-reps must not be negative")
    v = load_variety(args.variety)
    counts = parse_profile_spec(args.profile, v.sig)
    described = ",".join(f"{name}={n}" for name, n in counts.items())
    generators = sum(counts.values())
    t0 = time.perf_counter()
    if generators > budget.max_classes:
        # each generator is a class: trip before making a single one
        res = BudgetExceeded(generators, 0, "classes", BuildStats())
    else:
        res = build_free_algebra(v, GeneratorProfile.from_counts(v.sig, counts), budget)
    elapsed = time.perf_counter() - t0
    if isinstance(res, BudgetExceeded):
        report = {
            "command": "free",
            "variety": v.name,
            "profile": described,
            "status": "budget_exceeded",
            **res.to_json_dict(),
        }
        _emit(report, {"build_seconds": elapsed}, args.json)
        print(f"{v.name} on [{described}]: budget exceeded ({res.limit})")
        print(f"  classes: {res.classes}, rounds: {res.rounds}")
        return 2
    sizes = {s.name: res.algebra.sizes[s.id] for s in v.sig.sorts}
    reps = res.rep_strings(cap=args.max_reps)
    gen_images = {var.name: res.gen_images[var] for var in res.profile.variables()}
    report = {
        "command": "free",
        "variety": v.name,
        "profile": described,
        "status": "saturated",
        "sizes": sizes,
        "total_size": res.algebra.total_size(),
        "generator_images": gen_images,
        "representatives": reps,
        "stats": res.stats.to_json_dict(),
    }
    _emit(report, {"build_seconds": elapsed}, args.json)
    print(f"{v.name} on [{described}]: saturated in {len(res.stats.rounds)} rounds")
    for s in v.sig.sorts:
        print(f"  |{s.name}| = {res.algebra.sizes[s.id]}")
    for s in v.sig.sorts:
        for t in reps[s.name]:
            print(f"  {s.name}: {t}")
    return 0


def cmd_certify(args) -> int:
    budget = _budget(args)
    v = load_variety(args.variety)
    cert = load_certificate(args.certificate, v)
    t0 = time.perf_counter()
    report = run_certificate(v, cert, budget, rank_cap=args.rank)
    elapsed = time.perf_counter() - t0
    body = {"command": "certify", **report.to_json_dict()}
    _emit(body, {"certify_seconds": elapsed}, args.json)
    print(f"{v.name}: {report.status}" + (f" (rank {report.rank})" if report.rank else ""))
    if report.detail:
        print(f"  {report.detail}")
    for a in report.assumptions:
        print(f"  assumption: {a}")
    if report.certified:
        return 0
    if report.status == REFUTED:
        return 3
    return 2


def cmd_check(args) -> int:
    v = load_variety(args.variety)
    alg = load_algebra_json(args.algebra, v.sig)
    verdict = satisfies_all(alg, v.axioms)
    if verdict is True:
        report = {"command": "check", "variety": v.name, "status": "satisfied"}
        _emit(report, {}, args.json)
        print(f"{v.name}: all {len(v.axioms)} axioms satisfied")
        return 0
    report = {
        "command": "check",
        "variety": v.name,
        "status": "counterexample",
        "identity": repr(verdict.identity),
        "assignment": {var.name: e for var, e in verdict.assignment.items()},
        "lhs": verdict.lhs_value,
        "rhs": verdict.rhs_value,
    }
    _emit(report, {}, args.json)
    print(f"{v.name}: counterexample: {verdict.describe()}")
    return 3


def _corpus_error(message: str, available) -> int:
    """Reject the named entries before any of them runs."""
    print(f"error: {message}; available: {', '.join(available)}", file=sys.stderr)
    return 1


def cmd_corpus(args) -> int:
    budget = _budget(args)
    available = corpus_mod.entry_names()
    names = list(args.names or [])
    if args.filter:
        matched = [n for n in available if args.filter in n]
        if not matched:
            return _corpus_error(f"no corpus entry matches '{args.filter}'", available)
        names += matched
    names = list(dict.fromkeys(names))  # each entry once, in first-named order
    unknown = [n for n in names if n not in available]
    if unknown:
        noun = "entries" if len(unknown) > 1 else "entry"
        return _corpus_error(f"unknown corpus {noun} {', '.join(map(repr, unknown))}", available)
    t0 = time.perf_counter()
    report = corpus_mod.run_corpus(names or None, budget)
    elapsed = time.perf_counter() - t0
    body = {"command": "corpus", **report.to_json_dict()}
    _emit(body, {"corpus_seconds": elapsed}, args.json)
    for entry in report.entries:
        mark = "ok" if entry.ok else "FAIL"
        sizes = "; ".join(
            f"{r.counts}->{r.got if isinstance(r.got, str) else list(r.got)}"
            + ("" if r.ok else f" (expected {r.expected})")
            for r in entry.sizes
        )
        print(f"[{mark}] {entry.name}: {sizes}; certificate {entry.certificate_status}")
        for msg in entry.messages:
            print(f"       {msg}")
    demo = report.setcoup_demo
    if demo is not None:
        mark = "ok" if demo.ok else "FAIL"
        print(
            f"[{mark}] setcoup swap demo: {demo.objects_checked} objects, "
            f"{demo.morphisms_checked} morphisms, "
            f"asymmetry {'held' if demo.asymmetry_noniso else 'FAILED'}"
        )
    print("corpus: " + ("all entries pass" if report.ok else "FAILURES PRESENT"))
    return 0 if report.ok else 3


def _int_flag(text: str) -> int:
    """An integer flag's value, read by ``parse_decimal``; a bad one is
    reported as argparse reports a bad ``int``."""
    try:
        return parse_decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freealg",
        description="finite free algebras and invariant-basis-number certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json_flag(p):
        p.add_argument("--json", default=None, help="write a JSON report to this path")

    def add_budget_flags(p):
        p.add_argument("--budget-classes", type=_int_flag, default=None)
        p.add_argument("--budget-rounds", type=_int_flag, default=None)
        add_json_flag(p)

    p_free = sub.add_parser("free", help="build the free algebra on a profile")
    p_free.add_argument("variety")
    p_free.add_argument("profile", help="per-sort generator counts, e.g. elem=3 or a=2,b=1")
    p_free.add_argument(
        "--max-reps", type=_int_flag, default=20, help="representatives to print and report per sort"
    )
    add_budget_flags(p_free)
    p_free.set_defaults(func=cmd_free)

    p_cert = sub.add_parser("certify", help="check an invariant-basis-number certificate")
    p_cert.add_argument("variety")
    p_cert.add_argument("certificate")
    p_cert.add_argument("--rank", type=_int_flag, default=None, help="lower the certificate ranks")
    add_budget_flags(p_cert)
    p_cert.set_defaults(func=cmd_certify)

    p_check = sub.add_parser("check", help="test a finite algebra against a variety")
    p_check.add_argument("variety")
    p_check.add_argument("algebra")
    add_json_flag(p_check)
    p_check.set_defaults(func=cmd_check)

    p_corpus = sub.add_parser("corpus", help="run the bundled example corpus")
    p_corpus.add_argument("names", nargs="*")
    p_corpus.add_argument("--filter", default=None)
    add_budget_flags(p_corpus)
    p_corpus.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # an OSError, but not the input's: the reader of standard output
        # is gone, so the rest goes to devnull, and so does the flush at
        # exit, as the Python signal docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RecursionError:
        # a term or JSON value nested past the interpreter's recursion limit
        print("error: the input nests too deeply", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
