"""Best-effort analysis at q = 17 under explicit budgets.

Each row gets a nonexistence decision when no seed realizes its clique
target, and a covering program on every realized or decision-found star, all
under the given per-task budget in seconds (the first argument, default 900).
Rows that stay open are reported honestly: exit code 2 while any remains.
"""

import pathlib
import sys
import time

from diagsync.pipeline import PipelineConfig, analyze, write_report

HERE = pathlib.Path(__file__).resolve().parent


def main() -> int:
    budget = float(sys.argv[1]) if len(sys.argv) > 1 else 900.0
    t0 = time.time()
    config = PipelineConfig(
        cache_dir=str(HERE / ".cache-q17"),
        budget_secs=budget,
        direct_search_secs=budget,
    )
    verdict, report = analyze(17, config)
    write_report(report, HERE / "report_q17.json")
    print(f"q=17: separating={verdict.separating}  spreading={verdict.spreading}  "
          f"({time.time() - t0:.0f}s)")
    resolved = [gv for gv in verdict.graphs if gv.status != "UNRESOLVED"]
    print(f"resolved {len(resolved)} of {len(verdict.graphs)} graph pairs")
    for gv in verdict.graphs:
        print(f"  {','.join(gv.clique_classes):14s} "
              f"({gv.omega_target:3d},{gv.alpha_target:3d})  {gv.status}")
    return verdict.exit_code()


if __name__ == "__main__":
    sys.exit(main())
