"""Benchmark of the diagsync verdict pipeline: set-up, analyze cold and warm, verify.

    python3 perfbench/run.py --workload q13-budgeted --seed 1 --seconds 20 --trace 0

Runs whole rounds of one workload until --seconds have passed (at least the
workload's min_rounds; a traced run makes exactly one), checks every report
apart from the program, and prints one JSON object as the last line of
standard output.  With --trace 0 it holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a run whose layer calls are wrapped in
spans.  The program is
imported from the ``src`` directory of the checkout the benchmark sits in.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import layers
from checks import (CheckFailed, PrimePSL2, check_pairwise, check_q13_paper,
                    check_verdict, check_witnesses, claims, is_prime, outcome)
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


@dataclass(frozen=True)
class Workload:
    qs: tuple[int, ...]
    budget_nodes: int
    budget_secs: float
    min_rounds: int                # rounds per run at least, however long they take
    setup_reps: int                # set-ups per round; setup_s is their median
    verify_reps: int               # verify_report passes per report; verify_s is their mean
    separating: frozenset[str]     # verdicts the paper allows under this budget


WORKLOADS = {
    # The q=13 pipeline under a node budget that settles three nonexistence
    # rows and two covering refutations; the other decisions, covering
    # programs and the {3,13} coclique search stop at the budget.  Time
    # budgets never bind, so the work is the same on every run.  A round
    # takes 40-50 s; two of them put the samples of every metric in two
    # places of the run, which the machine's speed swings move less than one.
    "q13-budgeted": Workload((13,), 2000, 3600.0, 2, 3, 50, frozenset({"YES", "UNKNOWN"})),
    # Prime powers 4 <= q <= 31 whose verdict comes from the witness stage.
    # 25 crashes (see CHANGES.md); 13 and 17 reach the search stages; 32, 43
    # and 47 are left out to keep a run short (they add 5-9 s a round each).
    "q-sweep": Workload((4, 5, 7, 8, 9, 11, 16, 19, 23, 27, 29, 31),
                        100, 1.0, 1, 1, 1, frozenset({"NO"})),
}


class Bench:
    def __init__(self, workload: Workload, seed: int):
        from diagsync import pipeline, psl2, scheme

        self.pipeline, self.psl2, self.scheme = pipeline, psl2, scheme
        self.build_group = psl2.build_group        # the cached original
        self.wl = workload
        self.seed = seed
        self.cache_root = OUT / f"cache-{os.getpid()}"
        self.setup_s: list[float] = []
        # seconds per metric and q, one sample per call
        self.times = {name: {q: [] for q in workload.qs}
                      for name in ("analyze_s", "analyze_warm_s", "verify_s")}
        self.claims: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    # -- one round ----------------------------------------------------------

    def setup(self) -> float:
        """Group, classes and (where a table exists) the fused scheme, all q."""
        self.build_group.cache_clear()
        t0 = time.perf_counter()
        for q in self.wl.qs:
            group = self.psl2.build_group(q)
            group.conjugacy_classes()
            try:
                group.mult_table()
            except ValueError:
                continue            # no table: the scheme cannot be built
            self.scheme.rational_fusion_scheme(group)
        return time.perf_counter() - t0

    def timed(self, metric: str, q: int, fn, *args):
        """One operation: its result, or None when it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            self.times[metric][q].append(time.perf_counter() - t0)

    def round(self, index: int) -> None:
        self.setup_s += [self.setup() for _ in range(self.wl.setup_reps)]
        cache = self.cache_root / f"round-{index}"
        cfg = self.pipeline.PipelineConfig(
            budget_secs=self.wl.budget_secs, budget_nodes=self.wl.budget_nodes,
            direct_search_secs=self.wl.budget_secs, seed=self.seed, threads=1,
            cache_dir=str(cache))
        analyze, verify = self.pipeline.analyze, self.pipeline.verify_report
        reports = {}
        # verifying each report right after its analyze spreads the verify
        # samples over the round
        for metric in ("analyze_s", "analyze_warm_s"):
            reports[metric] = {}
            for q in self.wl.qs:
                result = self.timed(metric, q, analyze, q, cfg)
                if result is not None:
                    reports[metric][q] = result[1]
                for _ in range(self.wl.verify_reps):
                    # a q whose analyze failed has no report: its verify fails too
                    ok, problems = self.timed("verify_s", q, verify,
                                              reports[metric].get(q)) or (True, [])
                    if not ok:
                        self.problems.append(f"q={q}: verify_report: {problems}")
        shutil.rmtree(cache, ignore_errors=True)
        self.claims.append(self.check(reports["analyze_s"], reports["analyze_warm_s"]))

    # -- checks -------------------------------------------------------------

    def check(self, cold: dict, warm: dict) -> int:
        total = 0
        for q, report in cold.items():
            try:
                group = PrimePSL2(q) if is_prime(q) else None
                if q == 13:
                    check_pairwise(report, group)
                    check_q13_paper(report)
                check_witnesses(report, group)
                check_verdict(report, self.wl.separating)
                if q in warm and outcome(warm[q]) != outcome(report):
                    raise CheckFailed(f"q={q}: warm re-run changed the outcome")
            except CheckFailed as exc:
                self.problems.append(str(exc))
            total += claims(report)
        return total

    # -- metrics ------------------------------------------------------------

    def end_to_end(self) -> dict:
        """Per q the median (verify: the mean) of its samples, summed over q;
        set-up's median.

        The machine's speed flips between a fast and a slow phase lasting
        seconds to minutes.  A median of many short verify calls takes the phase that
        held most of them and jumps between the two from run to run; their
        mean weighs each phase by its share of the time."""
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        out = {"setup_s": {"value": statistics.median(self.setup_s), "unit": "s"}}
        for name, per_q in self.times.items():
            average = statistics.fmean if name == "verify_s" else statistics.median
            out[name] = {"value": sum(map(average, per_q.values())), "unit": "s"}
        out["claims_certified"] = {"value": statistics.median(self.claims), "unit": "count"}
        out["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "diagsync" / "__init__.py").is_file():
        print(f"diagsync sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT.mkdir(exist_ok=True)

    bench = Bench(WORKLOADS[args.workload], args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    start = time.monotonic()
    try:
        index = 0
        while True:
            bench.round(index)
            index += 1
            if tracer is not None or (index >= bench.wl.min_rounds
                                      and time.monotonic() - start >= args.seconds):
                break
    finally:
        shutil.rmtree(bench.cache_root, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()

    if tracer is None:
        metrics = bench.end_to_end()
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.layer_metrics(tracer).items()}
        metrics["pipeline.analyze_s"] = bench.end_to_end()["analyze_s"]
        tracer.write(str(OUT / f"trace-{args.workload}-{args.seed}.jsonl"))
    for problem in bench.problems:
        print("CHECK FAILED:", problem, file=sys.stderr)
    print(json.dumps({"correct": not bench.problems, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
