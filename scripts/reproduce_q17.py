"""Analysis at q = 17 under an explicit per-task time budget.

The covering program runs on every realized star first; a decision runs
only for a row that is still open and has no clique star, and a clique it
finds becomes a covering base.  Every task gets the given budget in seconds
(the first argument, default 900).  Under the default every one of the 23
rows is settled and the verdict is separating YES (exit code 0); rows that a
smaller budget leaves open are reported honestly: exit code 2 while any
remains.  Writes report_q17.json next to this script, prints the per-graph
verdict table and replays the report's certificates.
"""

import pathlib
import sys
import time

from diagsync.pipeline import PipelineConfig, analyze, verify_report, write_report

HERE = pathlib.Path(__file__).resolve().parent


def main() -> int:
    budget = float(sys.argv[1]) if len(sys.argv) > 1 else 900.0
    t0 = time.time()
    config = PipelineConfig(cache_dir=str(HERE / ".cache-q17"), budget_secs=budget)
    verdict, report = analyze(17, config)
    out = HERE / "report_q17.json"
    write_report(report, out)
    print(f"q=17: separating={verdict.separating}  spreading={verdict.spreading}  "
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
