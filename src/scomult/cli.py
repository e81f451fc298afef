"""Command-line front end: check predicates, run the suite, enumerate.

Exit codes are the only machine contract: 0 = true/pass, 1 = false/fail,
2 = precondition failure, 3 = input error.  `verify --mutation` passes when
every mutant fails exactly its expected statements (`mutations.KILLS`).
Human-readable text may change freely; `verify --report` writes the
machine-readable JSON document.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import morphisms as mor
from . import s_theory as st
from .catalog import MAX_RING_ORDER, CatalogParams, generate_catalog
from .errors import DisjointnessFailure, PreconditionUnmet, ScomultError, UnknownStatement
from .instancefile import parse_instance_file
from .modules import enumerate_submodules, is_torsion
from .mutations import (
    kill_mismatches,
    mutation_catalog_params,
    run_mutation_suite,
)
from .rings import DEFAULT_CAP, enumerate_ideals, enumerate_mcs, validate_mcs
from .statements import STATEMENTS, verify_all
from .witnesses import Witness

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_PRECONDITION = 2
EXIT_INPUT = 3

# name -> (subject, needs --mcs, library function).  The function takes the
# subject's arguments, then the m.c.s. when it needs one.
PREDICATES = {
    "s-comultiplication": ("module", True, st.is_s_comultiplication),
    "comultiplication": ("module", False, st.comultiplication_result),
    "multiplication": ("module", False, st.is_multiplication),
    "s-multiplication": ("module", True, st.is_s_multiplication),
    "s-cyclic": ("module", True, st.is_s_cyclic),
    "cyclic": ("module", False, st.is_cyclic),
    "torsion": ("module", False, is_torsion),
    "s-torsion-free": ("module", True, st.is_s_torsion_free),
    "prime-module": ("module", False, st.is_prime_module),
    "s-prime": ("submodule", True, st.is_s_prime_submodule),
    "s-second": ("submodule", True, st.is_s_second),
    "s-minimal": ("submodule", True, st.is_s_minimal),
    "s-finite": ("submodule", True, st.is_s_finite),
    "s-zero": ("hom", True, mor.is_s_zero),
    "s-monic": ("hom", True, mor.is_s_monic),
    "s-epic": ("hom", True, mor.is_s_epic),
}

# subject kind -> the subject flags its predicates read; any other subject
# flag, or --mcs on a predicate that takes no m.c.s., is an input error
SUBJECT_FLAGS = {"module": ("module",), "submodule": ("module", "submodule"),
                 "hom": ("hom",)}


def _parse_mcs_argument(instance, text):
    if text is None:
        return None
    if text in instance.mcs:
        return instance.mcs[text]
    cleaned = text.replace("{", " ").replace("}", " ").replace(",", " ")
    try:
        elements = [int(tok) for tok in cleaned.split()]
    except ValueError:
        raise ScomultError(f"--mcs must name an [mcs] block or list elements, got {text!r}")
    if not elements:
        raise ScomultError("--mcs needs at least one element")
    return validate_mcs(instance.ring, elements)


def _pick(mapping, name, what):
    if name is None:
        if not mapping:
            raise ScomultError(f"instance file defines no {what}")
        return next(iter(mapping.values()))
    if name not in mapping:
        raise ScomultError(f"unknown {what} {name!r}")
    return mapping[name]


def _subject(instance, kind, args):
    """The predicate's arguments before the m.c.s., picked by the flags.

    A submodule is read in the module its `[submodule]` block names.
    """
    if kind == "hom":
        return (_pick(instance.homs, args.hom, "hom"),)
    if kind == "module":
        return (_pick(instance.modules, args.module, "module"),)
    if args.submodule is None:
        raise ScomultError(f"{args.predicate} needs a submodule (--submodule)")
    module_name, sub = _pick(instance.submodules, args.submodule, "submodule")
    if args.module not in (None, module_name):
        raise ScomultError(f"submodule {args.submodule!r} lies in module "
                           f"{module_name!r}, not {args.module!r}")
    return instance.modules[module_name], sub


def _report(header, result):
    """Print a verdict and its evidence; the exit code for the verdict.

    `result` is a Witness or None, a ForEachResult, or a bool.
    """
    holds = bool(result)
    print(f"{header}: {holds}")
    if isinstance(result, Witness):
        print(f"  witness: {result.describe()}")
    elif isinstance(result, st.ForEachResult) and holds:
        for item, w in result.witnesses:
            print(f"  {item.describe()}: s={w.get('module').ring.label(w.get('s'))}")
    elif isinstance(result, st.ForEachResult):
        print(f"  failing submodule: {result.failing.describe()}")
    return EXIT_TRUE if holds else EXIT_FALSE


def cmd_check(args):
    instance = parse_instance_file(args.instance)
    if args.predicate not in PREDICATES:
        raise ScomultError(f"unknown predicate {args.predicate!r}; choose from: "
                           f"{', '.join(PREDICATES)}")
    kind, needs_mcs, fn = PREDICATES[args.predicate]
    mcs = _parse_mcs_argument(instance, args.mcs)
    read = SUBJECT_FLAGS[kind] + (("mcs",) if needs_mcs else ())
    for flag in ("module", "submodule", "hom", "mcs"):
        if flag not in read and getattr(args, flag) is not None:
            raise ScomultError(f"{args.predicate} does not read --{flag}")
    subject = _subject(instance, kind, args)
    if needs_mcs and mcs is None:
        raise ScomultError(f"{args.predicate} needs an m.c.s. (--mcs)")
    tail = (mcs,) if needs_mcs else ()
    shown = [subject[-1].describe()] + [f"S={m.describe()}" for m in tail]
    return _report(f"{args.predicate}({', '.join(shown)})", fn(*subject, *tail))


def _require_range(flag, value, low, high):
    if not low <= value <= high:
        raise ScomultError(f"{flag} must be in {low}..{high}, got {value}")


def _catalog_params(args):
    """The catalog `verify` checks: the reduced mutation catalog under
    --mutation, which takes no size flag, else the default catalog with the
    size flags given."""
    if args.mutation:
        if (args.max_ring, args.max_module) != (None, None):
            raise ScomultError("--max-ring and --max-module cannot be combined "
                               "with --mutation, which checks its own reduced catalog")
        return mutation_catalog_params()
    params = CatalogParams()
    max_ring = params.max_ring_order if args.max_ring is None else args.max_ring
    max_module = params.max_module_carrier if args.max_module is None else args.max_module
    _require_range("--max-ring", max_ring, 2, MAX_RING_ORDER)
    _require_range("--max-module", max_module, 1, DEFAULT_CAP)
    return params._replace(max_ring_order=max_ring, max_module_carrier=max_module)


def cmd_verify(args):
    params = _catalog_params(args)
    statement_ids = None
    if args.statements is not None:
        statement_ids = [tok.strip() for tok in args.statements.split(",") if tok.strip()]
        if not statement_ids:
            raise ScomultError("--statements names no statement")
        repeated = sorted({s for s in statement_ids if statement_ids.count(s) > 1})
        if repeated:
            raise ScomultError(f"--statements repeats {', '.join(repeated)}")
        for statement_id in statement_ids:
            if statement_id not in STATEMENTS:
                raise UnknownStatement(statement_id, STATEMENTS)
    document = {
        "run": {
            "params": {
                "max_ring": params.max_ring_order,
                "max_module": params.max_module_carrier,
                "statements": statement_ids,
                "mutation": args.mutation,
            },
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "statements": [],
    }

    catalog = generate_catalog(params)
    if args.mutation:
        outcomes = run_mutation_suite(catalog, statement_ids)
        document["mutants"] = []
        for name, failed in outcomes:
            document["mutants"].append({"name": name, "failed": failed})
            marker = "killed" if failed else "ESCAPED"
            print(f"mutant {name}: {marker} ({', '.join(failed) or 'no failures'})")
        if args.report:
            _write_report(args.report, document)
        mismatches = kill_mismatches(outcomes, statement_ids)
        for name, failed, expected in mismatches:
            print(f"mutant {name}: failed {', '.join(failed) or 'nothing'}, "
                  f"expected {', '.join(expected) or 'nothing'}", file=sys.stderr)
        return EXIT_FALSE if mismatches else EXIT_TRUE
    reports = verify_all(catalog, statement_ids)
    fails = 0
    nonvacuous = 0
    for report in reports:
        document["statements"].append(report.to_json())
        line = (f"{report.verdict.upper():8s} {report.statement_id:8s} "
                f"instances={report.instances} ({report.ms:.0f} ms)")
        print(line)
        if report.verdict == "fail":
            fails += 1
            print(f"  counterexample: {json.dumps(report.counterexample)}")
        if report.verdict != "vacuous":
            nonvacuous += 1
    if args.report:
        _write_report(args.report, document)
    if fails == 0 and nonvacuous > 0:
        return EXIT_TRUE
    return EXIT_FALSE


def _write_report(path, document):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def cmd_enumerate(args):
    instance = parse_instance_file(args.instance)
    ring = instance.ring
    if args.what == "ideals":
        for ideal in enumerate_ideals(ring):
            print(ideal.describe())
    elif args.what == "submodules":
        module = _pick(instance.modules, args.module, "module")
        for sub in enumerate_submodules(module):
            print(sub.describe())
    else:
        for mcs in enumerate_mcs(ring):
            print(mcs.describe())
    return EXIT_TRUE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="scomult",
        description="Finite computational algebra for S-comultiplication "
                    "module theory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="evaluate one predicate on an instance file")
    check.add_argument("instance", help="path to an instance file")
    check.add_argument("predicate", help=f"one of: {', '.join(PREDICATES)}")
    check.add_argument("--module", help="module name (default: first in file, or "
                                        "the one a --submodule lies in)")
    check.add_argument("--submodule", help="submodule name from the file")
    check.add_argument("--hom", help="hom name (default: first in file)")
    check.add_argument("--mcs", help="mcs name from the file, or elements like '1 3'")
    check.set_defaults(func=cmd_check)

    verify = sub.add_parser("verify", help="run the statement suite over a catalog")
    verify.add_argument("--statements", help="comma-separated statement ids")
    default_module = CatalogParams().max_module_carrier
    verify.add_argument("--max-ring", type=int,
                        help=f"largest ring order in the catalog, 2..{MAX_RING_ORDER} "
                             f"(default {MAX_RING_ORDER}; not with --mutation)")
    verify.add_argument("--max-module", type=int,
                        help=f"largest module carrier, 1..{DEFAULT_CAP} "
                             f"(default {default_module}; not with --mutation)")
    verify.add_argument("--report", help="write the JSON report document here")
    verify.add_argument("--mutation", action="store_true",
                        help="run the deliberately broken predicate variants")
    verify.set_defaults(func=cmd_verify)

    enum = sub.add_parser("enumerate", help="list ideals, submodules, or m.c.s.")
    enum.add_argument("instance", help="path to an instance file")
    enum.add_argument("what", choices=("ideals", "submodules", "mcs"))
    enum.add_argument("--module", help="module name (default: first in file)")
    enum.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_TRUE
    try:
        return args.func(args)
    except (DisjointnessFailure, PreconditionUnmet) as err:
        print(f"precondition failure: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ScomultError, OSError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
