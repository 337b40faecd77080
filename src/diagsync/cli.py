"""Command-line interface.

Exit codes: 0 = definitive verdict (or successful subcommand),
2 = an UNKNOWN residue remains, 1 = internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .certify import BRACKET, generate_translate_rows, solve_cover_ilp
from .feasibility import enumerate_feasible_pairs, family_description, putative_table
from .gf import MAX_Q, factor_prime_power
from .graphs import InvalidClassSet, build_graph, complement_classes, export_dimacs, resolve_classes
from .pipeline import (
    PipelineConfig,
    analyze,
    sealed,
    verify_report,
    write_report,
)
from .psl2 import build_group, dihedral_subgroup, sylow_subgroup
from .scheme import NonSymmetricScheme, group_scheme, rational_fusion_scheme
from .search import Budget, algebraic_clique_seeds, find_clique_of_size, max_clique, max_coclique
from .witnesses import (
    find_exact_factorisation,
    find_sharply_transitive_set,
    index_six_subgroup,
    spreading_witness,
)


def _classes_arg(value: str) -> list[str]:
    return [tok.strip() for tok in value.split(",") if tok.strip()]


def _budget(args) -> Budget:
    return Budget(max_nodes=args.budget_nodes, max_seconds=args.budget_secs)


def _emit(data, args):
    text = json.dumps(data, sort_keys=True, indent=1)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _error(message: str) -> int:
    print(f"diagsync: error: {message}", file=sys.stderr)
    return 1


def _add_common(p, budget=False):
    """--q and --out, and the budget flags when the subcommand reads them."""
    p.add_argument("--q", type=int, required=True)
    if budget:
        p.add_argument("--budget-secs", type=float, default=Budget.max_seconds)
        p.add_argument("--budget-nodes", type=int, default=Budget.max_nodes)
    p.add_argument("--out")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagsync",
        description="synchronisation analysis of the diagonal action of "
                    "PSL(2,q) x PSL(2,q) on PSL(2,q)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline with certified verdict")
    _add_common(p, budget=True)
    p.add_argument("--cache-dir")

    p = sub.add_parser("scheme", help="exact eigenmatrices of the fused scheme")
    _add_common(p)
    p.add_argument("--unfused", action="store_true")

    p = sub.add_parser("feasibility", help="inner-distribution analysis")
    _add_common(p)
    p.add_argument("--classes", type=_classes_arg,
                   help="clique-side class set, e.g. 3,7 (default: full table)")

    p = sub.add_parser("search", help="exact clique/coclique computations")
    _add_common(p, budget=True)
    p.add_argument("--classes", type=_classes_arg, required=True)
    p.add_argument("--mode", choices=["clique", "coclique", "decide"],
                   default="clique")
    p.add_argument("--size", type=int, help="target size for decide mode")

    p = sub.add_parser("certify", help="exact-hit covering program from clique translates")
    _add_common(p, budget=True)
    p.add_argument("--classes", type=_classes_arg, required=True)
    p.add_argument("--base-clique", choices=["from-search", "sylow", "dihedral"],
                   default="from-search")

    p = sub.add_parser("witness", help="group-theoretic witnesses")
    _add_common(p)
    p.add_argument("--kind", choices=["factorisation", "sharp", "spreading"],
                   required=True)

    p = sub.add_parser("graph", help="build and export a class-union graph")
    _add_common(p)
    p.add_argument("--classes", type=_classes_arg, required=True)
    p.add_argument("--dimacs", help="path for DIMACS export")

    p = sub.add_parser("verify", help="replay the certificates of a report")
    p.add_argument("report")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        return 1
    except OSError as exc:      # an --out, --dimacs or --cache-dir path
        return _error(f"{exc.filename}: {exc.strerror}")


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "verify":
        try:
            with open(args.report) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            return _error(f"cannot read report {args.report}: {exc}")
        ok, problems = verify_report(report)
        print(json.dumps({"ok": ok, "problems": problems}, indent=1))
        return 0 if ok else 1

    if factor_prime_power(args.q) is None or not 4 <= args.q <= MAX_Q:
        return _error(f"--q {args.q} is not a prime power from 4 to {MAX_Q}")

    if cmd == "analyze":
        if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            return _error(f"--out {args.out}: no such directory")
        config = PipelineConfig(
            budget_secs=args.budget_secs, budget_nodes=args.budget_nodes,
            cache_dir=args.cache_dir)
        verdict, report = analyze(args.q, config)
        if args.out:
            write_report(report, args.out)
        else:
            print(json.dumps(report["verdict"], sort_keys=True, indent=1))
        return verdict.exit_code()

    group = build_group(args.q)
    if cmd in ("search", "certify", "graph"):
        try:
            resolve_classes(group, args.classes)
        except InvalidClassSet as err:
            return _error(f"--classes: {err}")

    if cmd == "scheme":
        try:
            scheme = group_scheme(group) if args.unfused else rational_fusion_scheme(group)
        except NonSymmetricScheme as err:
            return _error(f"--unfused at q={args.q}: {err}")
        _emit({"q": args.q, **scheme.payload(), "diagnostic": scheme.eigen_diagnostic},
              args)
        return 0

    if cmd == "feasibility":
        scheme = rational_fusion_scheme(group)
        labels = scheme.labels()
        if args.classes:
            if not set(args.classes) < set(scheme.nontrivial_labels()):
                return _error("--classes must be a proper subset of the fused classes")
            fams = enumerate_feasible_pairs(scheme, args.classes)
            _emit({"q": args.q, "classes": args.classes,
                   "families": [family_description(f, labels) for f in fams]}, args)
        else:
            _emit({"q": args.q,
                   "rows": [r.payload(labels) for r in putative_table(scheme)]}, args)
        return 0

    if cmd == "search":
        graph = build_graph(group, args.classes)
        if args.mode != "decide":
            search = max_clique if args.mode == "clique" else max_coclique
            cert = search(graph, _budget(args))
            _emit(sealed(cert.payload()), args)
            return 0 if cert.exhaustive else 2
        if args.size is None or not 1 <= args.size <= graph.vertex_count:
            return _error(f"decide mode requires --size from 1 to {graph.vertex_count}")
        status, cert = find_clique_of_size(graph, args.size, budget=_budget(args))
        _emit(sealed({"status": status, **cert.payload()}), args)
        return 0 if status != "BUDGET_EXHAUSTED" else 2

    if cmd == "certify":
        graph = build_graph(group, args.classes)
        base = None
        if args.base_clique != "from-search":
            make = sylow_subgroup if args.base_clique == "sylow" else dihedral_subgroup
            sub = make(group, group.field.p)
            base = None if sub is None else sub.tolist()
        else:
            seeds = algebraic_clique_seeds(graph)
            if seeds:
                base = list(seeds[0])
        if not base:
            return _error("no base clique available")
        # the equality case: a coclique of size |T|/|C| meets every row once
        target, rest = divmod(group.order, len(base))
        if rest:
            return _error(f"base clique size {len(base)} does not divide the group order "
                          f"{group.order}")
        try:
            system = generate_translate_rows(graph, base)
        except ValueError as err:
            return _error(f"--base-clique {args.base_clique}: {err}")
        result = solve_cover_ilp(system, target, budget=_budget(args))
        _emit(sealed(result.payload()), args)
        return 2 if result.status == BRACKET else 0

    if cmd == "witness":
        if args.kind == "factorisation":
            fac = find_exact_factorisation(group)
            if fac is None:
                _emit({"q": args.q, "found": False,
                       "note": "no exact factorisation found"}, args)
                return 2
            _emit(sealed(fac.payload()), args)
            return 0
        if args.kind == "sharp":
            sub = index_six_subgroup(group)
            wit = find_sharply_transitive_set(group, sub) if sub is not None else None
            if wit is None:
                _emit({"q": args.q, "found": False}, args)
                return 2
            _emit(sealed(wit.payload()), args)
            return 0
        if args.q % 4 != 1:
            return _error("the spreading witness needs q = 1 mod 4")
        wit = spreading_witness(group)
        _emit(sealed(wit.payload()), args)
        return 0

    if cmd == "graph":
        graph = build_graph(group, args.classes)
        info = graph.descriptor()
        info["complement"] = list(complement_classes(group, args.classes))
        if args.dimacs:
            with open(args.dimacs, "wb") as fh:
                fh.write(export_dimacs(graph))
            info["dimacs"] = args.dimacs
        _emit(info, args)
        return 0

    raise AssertionError(f"unhandled command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
