"""Command-line interface.

Exit codes: 0 = definitive verdict (or successful subcommand),
2 = an UNKNOWN residue remains, 1 = internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .certify import BRACKET, generate_translate_rows, solve_cover_ilp
from .feasibility import enumerate_feasible_pairs, family_description, putative_table
from .graphs import build_graph, complement_classes, export_dimacs
from .pipeline import (
    PipelineConfig,
    analyze,
    sealed,
    verify_report,
    write_report,
)
from .psl2 import build_group, dihedral_subgroup, mask_elements, sylow_subgroup
from .scheme import group_scheme, rational_fusion_scheme
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


def _add_common(p, budget=False, seed=False, threads=False):
    """--q and --out, and the run-control flags the subcommand reads."""
    p.add_argument("--q", type=int, required=True)
    if budget:
        p.add_argument("--budget-secs", type=float, default=1800.0)
        p.add_argument("--budget-nodes", type=int, default=10 ** 9)
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if threads:
        p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagsync",
        description="synchronisation analysis of the diagonal action of "
                    "PSL(2,q) x PSL(2,q) on PSL(2,q)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline with certified verdict")
    _add_common(p, budget=True, seed=True)
    p.add_argument("--direct-search-secs", type=float, default=900.0,
                   help="clock of each nonexistence decision search")
    p.add_argument("--cache-dir")

    p = sub.add_parser("scheme", help="exact eigenmatrices of the fused scheme")
    _add_common(p)
    p.add_argument("--unfused", action="store_true")

    p = sub.add_parser("feasibility", help="inner-distribution analysis")
    _add_common(p)
    p.add_argument("--classes", type=_classes_arg,
                   help="clique-side class set, e.g. 3,7 (default: full table)")

    p = sub.add_parser("search", help="exact clique/coclique computations")
    _add_common(p, budget=True, threads=True)
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
    _add_common(p, seed=True)
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


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "verify":
        with open(args.report) as fh:
            report = json.load(fh)
        ok, problems = verify_report(report)
        print(json.dumps({"ok": ok, "problems": problems}, indent=1))
        return 0 if ok else 1

    if cmd == "analyze":
        config = PipelineConfig(
            budget_secs=args.budget_secs, budget_nodes=args.budget_nodes,
            direct_search_secs=args.direct_search_secs, seed=args.seed,
            cache_dir=args.cache_dir)
        verdict, report = analyze(args.q, config)
        if args.out:
            write_report(report, args.out)
        else:
            print(json.dumps(report["verdict"], sort_keys=True, indent=1))
        return verdict.exit_code()

    group = build_group(args.q)

    if cmd == "scheme":
        scheme = group_scheme(group) if args.unfused else rational_fusion_scheme(group)
        eigen = scheme.eigen
        _emit({
            "q": args.q, "relations": scheme.labels(), "sizes": scheme.sizes(),
            "multiplicities": eigen.multiplicities if eigen else None,
            "P": [[str(x) for x in row] for row in eigen.P] if eigen else None,
            "Q": [[str(x) for x in row] for row in eigen.Q] if eigen else None,
            "diagnostic": scheme.eigen_diagnostic,
        }, args)
        return 0

    if cmd == "feasibility":
        scheme = rational_fusion_scheme(group)
        labels = scheme.labels()
        if args.classes:
            fams = enumerate_feasible_pairs(scheme, args.classes)
            _emit({"q": args.q, "classes": args.classes,
                   "families": [family_description(f, labels) for f in fams]}, args)
        else:
            rows = putative_table(scheme)
            _emit({"q": args.q, "rows": [
                {"clique_classes": list(r.clique_classes),
                 "coclique_classes": list(r.coclique_classes),
                 "omega_target": r.omega_target, "alpha_target": r.alpha_target,
                 "novel": r.novel,
                 "families": [family_description(f, labels) for f in r.families]}
                for r in rows]}, args)
        return 0

    if cmd == "search":
        graph = build_graph(group, args.classes)
        if args.mode == "clique":
            cert = max_clique(graph, _budget(args), args.threads)
            _emit(sealed(cert.payload()), args)
            return 0 if cert.exhaustive else 2
        if args.mode == "coclique":
            cert = max_coclique(graph, _budget(args), args.threads)
            _emit(sealed(cert.payload()), args)
            return 0 if cert.exhaustive else 2
        if args.size is None:
            print("decide mode requires --size", file=sys.stderr)
            return 1
        status, cert = find_clique_of_size(graph, args.size, budget=_budget(args))
        _emit(sealed({"status": status, **cert.payload()}), args)
        return 0 if status != "BUDGET_EXHAUSTED" else 2

    if cmd == "certify":
        graph = build_graph(group, args.classes)
        base = None
        if args.base_clique == "sylow":
            base = mask_elements(sylow_subgroup(group, group.field.p))
        elif args.base_clique == "dihedral":
            base = mask_elements(dihedral_subgroup(group, group.field.p))
        else:
            seeds = algebraic_clique_seeds(graph)
            if seeds:
                base = list(seeds[0])
        if not base:
            print("no base clique available", file=sys.stderr)
            return 1
        # the equality case: a coclique of size |T|/|C| meets every row once
        target, rest = divmod(group.order, len(base))
        if rest:
            print(f"base clique size {len(base)} does not divide the group order "
                  f"{group.order}", file=sys.stderr)
            return 1
        system = generate_translate_rows(graph, base)
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
            wit = find_sharply_transitive_set(group, sub) if sub else None
            if wit is None:
                _emit({"q": args.q, "found": False}, args)
                return 2
            _emit(sealed(wit.payload()), args)
            return 0
        wit = spreading_witness(group, args.seed)
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
