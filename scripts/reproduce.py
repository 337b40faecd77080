"""Full certified analysis at one q, the headline results at q = 13 and 17.

    python scripts/reproduce.py Q [BUDGET_SECS]

Every decision and covering program gets BUDGET_SECS seconds (default: the
search budget's, 1800 s).  Writes report_qQ.json next to this script, prints
the per-graph verdict table and replays the report's certificates.  The
results are kept in .cache-qQ/ next to this script, so a re-run reuses them
and writes the same report.  Exit code 0 for a definitive verdict, 2 while a
row the budget left open remains.
"""

import pathlib
import sys
import time

from diagsync.pipeline import PipelineConfig, analyze, verify_report, write_report

HERE = pathlib.Path(__file__).resolve().parent


def main() -> int:
    if not 2 <= len(sys.argv) <= 3:
        print("usage: python scripts/reproduce.py Q [BUDGET_SECS]", file=sys.stderr)
        return 1
    q = int(sys.argv[1])
    budget = float(sys.argv[2]) if len(sys.argv) > 2 else PipelineConfig.budget_secs
    t0 = time.time()
    config = PipelineConfig(cache_dir=str(HERE / f".cache-q{q}"), budget_secs=budget)
    verdict, report = analyze(q, config)
    out = HERE / f"report_q{q}.json"
    write_report(report, out)
    print(f"q={q}: separating={verdict.separating}  spreading={verdict.spreading}  "
          f"({time.time() - t0:.0f}s)")
    resolved = [gv for gv in verdict.graphs if gv.status != "UNRESOLVED"]
    print(f"resolved {len(resolved)} of {len(verdict.graphs)} graph pairs")
    for gv in verdict.graphs:
        print(f"  {','.join(gv.clique_classes):14s} "
              f"({gv.omega_target:3d},{gv.alpha_target:3d})  {gv.status}")
    ok, problems = verify_report(report)
    print("replay:", "ok" if ok else problems)
    print("report:", out)
    return verdict.exit_code()


if __name__ == "__main__":
    sys.exit(main())
