"""Full certified analysis at q = 13.

Writes report_q13.json next to this script and prints the per-graph verdict
table. Re-running reuses the cache directory, so the report is byte-stable.
"""

import pathlib
import sys
import time

from diagsync.pipeline import PipelineConfig, analyze, verify_report, write_report

HERE = pathlib.Path(__file__).resolve().parent


def main() -> int:
    t0 = time.time()
    config = PipelineConfig(cache_dir=str(HERE / ".cache-q13"), budget_secs=4 * 3600)
    verdict, report = analyze(13, config)
    out = HERE / "report_q13.json"
    write_report(report, out)
    print(f"q=13: separating={verdict.separating}  spreading={verdict.spreading}  "
          f"({time.time() - t0:.0f}s)")
    for gv in verdict.graphs:
        print(f"  {','.join(gv.clique_classes):8s} "
              f"targets ({gv.omega_target:3d},{gv.alpha_target:3d})  {gv.status}")
    ok, problems = verify_report(report)
    print("replay:", "ok" if ok else problems)
    print("report:", out)
    return verdict.exit_code()


if __name__ == "__main__":
    sys.exit(main())
