"""Acceptance suite: one test per criterion, each printing a PASS line.

The decision and the covering program of criteria 5 and 6 are cached in a
session-scoped directory that the end-to-end analysis of criterion 10 shares.
"""

import itertools
import json
import multiprocessing
import random
import time
from functools import reduce
from operator import or_

import pytest

from diagsync.certify import PROVEN_INFEASIBLE, generate_translate_rows, solve_cover_ilp
from diagsync.cli import main as cli_main
from diagsync.feasibility import putative_table
from diagsync.graphs import build_graph, complement_graph
from diagsync.pipeline import Analyzer, PipelineConfig, analyze, verify_report
from diagsync.psl2 import build_group, sylow_subgroup
from diagsync.scheme import design_orthogonal, rational_fusion_scheme
from diagsync.search import (
    Budget,
    NONE,
    max_clique,
    max_coclique,
    verify_clique,
    verify_coclique,
)
from diagsync.witnesses import spreading_witness
from masks import mask_from, mask_of
from scheme_matrices import adjacency_matrices


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("diagsync-cache"))


@pytest.fixture(scope="session")
def an13(cache_dir):
    return Analyzer(13, PipelineConfig(cache_dir=cache_dir, budget_secs=14400))


def _report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


# -- 1. scheme exactness ---------------------------------------------------------


TARGET_DUAL_EIGENMATRIX = {
    # rows by class label, in the reference relation order (1, 6, 2, 3, 7, 13)
    "1": [1, 98, 432, 169, 196, 196],
    "6": [1, -14, 0, 13, -14, 14],
    "2": [1, -14, 0, 13, 28, -28],
    "3": [1, 14, 0, 13, -14, -14],
    "7": [1, 0, 12, -13, 0, 0],
    "13": [1, 7, -36, 0, 14, 14],
}


def test_criterion_1_scheme_exactness():
    t0 = time.time()
    scheme = rational_fusion_scheme(build_group(13))
    q_mine = scheme.eigen.Q
    labels = scheme.labels()
    # find the column permutation matching the reference matrix exactly
    n = len(labels)
    reference_rows = [TARGET_DUAL_EIGENMATRIX[lab] for lab in labels]
    perm = None
    for candidate in itertools.permutations(range(n)):
        if all(q_mine[r][candidate[c]] == reference_rows[r][c]
               for r in range(n) for c in range(n)):
            perm = candidate
            break
    assert perm is not None, "no column permutation matches the reference matrix"
    for r in range(n):
        for c in range(n):
            value = q_mine[r][perm[c]]
            assert value.denominator == 1
            assert int(value) == reference_rows[r][c]
    elapsed = time.time() - t0
    assert elapsed < 10
    _report("1 (dual eigenmatrix, q=13)",
            f"integer-exact up to column permutation {perm}, {elapsed:.2f}s")


# -- 2/3. feasibility tables -----------------------------------------------------


def test_criterion_2_feasibility_q13():
    t0 = time.time()
    scheme = rational_fusion_scheme(build_group(13))
    rows = putative_table(scheme)
    novel = [r for r in rows if r.novel]
    assert len(novel) == 6
    targets = sorted((r.omega_target, r.alpha_target) for r in novel)
    assert targets == sorted([(13, 84), (14, 78), (39, 28), (42, 26), (26, 42), (28, 39)])
    ranges = {}
    for r in novel:
        for fam in r.families:
            if fam.coclique.dim == 1:
                ranges[(r.omega_target, r.alpha_target)] = fam.coclique.entry_range
    assert ranges[(39, 28)] == (0, 7)
    assert ranges[(42, 26)] == (0, 13)
    assert ranges[(26, 42)] == (0, 14)
    assert ranges[(28, 39)] == (0, 26)
    elapsed = time.time() - t0
    assert elapsed < 10
    _report("2 (feasibility table, q=13)",
            f"6 families, parameter ranges 0..7, 0..13, 0..14, 0..26, {elapsed:.2f}s")


EXPECTED_TABLE_Q17 = {
    frozenset(["2", "4", "8", "9", "17"]): (9, 272),
    frozenset(["2", "3", "4", "8", "9"]): (17, 144),
    frozenset(["2", "3", "4", "8", "17"]): (18, 136),
    frozenset(["2", "8", "9", "17"]): (18, 136),
    frozenset(["2", "3", "8", "9"]): (34, 72),
    frozenset(["2", "3", "8", "17"]): (36, 68),
    frozenset(["2", "4", "9", "17"]): (18, 136),
    frozenset(["4", "8", "9", "17"]): (18, 136),
    frozenset(["2", "4", "8", "17"]): (18, 136),
    frozenset(["2", "3", "4", "9"]): (34, 72),
    frozenset(["2", "3", "4", "17"]): (36, 68),
    frozenset(["3", "4", "8", "9"]): (34, 72),
    frozenset(["2", "3", "4", "8"]): (34, 72),
    frozenset(["3", "4", "8", "17"]): (36, 68),
    frozenset(["2", "9", "17"]): (36, 68),
    frozenset(["8", "9", "17"]): (36, 68),
    frozenset(["2", "8", "17"]): (36, 68),
    frozenset(["2", "3", "9"]): (68, 36),
    frozenset(["2", "3", "17"]): (72, 34),
    frozenset(["3", "8", "9"]): (68, 36),
    frozenset(["2", "3", "8"]): (68, 36),
    frozenset(["3", "8", "17"]): (72, 34),
    frozenset(["3", "4", "17"]): (72, 34),
}


def test_criterion_3_feasibility_q17():
    t0 = time.time()
    scheme = rational_fusion_scheme(build_group(17))
    rows = putative_table(scheme)
    assert len(rows) == 23
    all_labels = frozenset(scheme.nontrivial_labels())
    mine = {frozenset(r.clique_classes): (r.omega_target, r.alpha_target)
            for r in rows}
    assert len(mine) == 23
    for key, (alpha_t, omega_t) in EXPECTED_TABLE_Q17.items():
        comp = all_labels - key
        direct = mine.get(key) == (omega_t, alpha_t)
        swapped = mine.get(comp) == (alpha_t, omega_t)
        assert direct or swapped, f"row {sorted(key)} missing or wrong targets"
    elapsed = time.time() - t0
    assert elapsed < 30
    _report("3 (feasibility table, q=17)", f"23 class sets match, {elapsed:.2f}s")


# -- 4/5. exact searches, q=13 ----------------------------------------------------


def _coclique_q13(labels):
    return max_coclique(build_graph(build_group(13), labels), Budget(max_seconds=3600))


@pytest.mark.slow
def test_criterion_4_cocliques_q13():
    t0 = time.time()
    group = build_group(13)
    # the two serial searches run side by side, one per process
    with multiprocessing.get_context("fork").Pool(processes=2) as pool:
        res_a, res_b = pool.map(_coclique_q13, [("6", "13"), ("3", "13")], chunksize=1)
    assert res_a.exhaustive and res_a.size == 25
    assert res_b.exhaustive and res_b.size == 22
    for res, labels in ((res_a, ("6", "13")), (res_b, ("3", "13"))):
        graph = build_graph(group, labels)
        assert verify_coclique(graph, res.vertices)
    _report("4 (coclique numbers, q=13)",
            f"alpha[6,13]=25, alpha[3,13]=22, exhaustive, {time.time()-t0:.0f}s")


def test_criterion_5_no_14_clique_q13(an13):
    t0 = time.time()
    res = an13.cached_decision(("7",), 14)
    assert res["status"] == NONE
    _report("5 (order-7 graph, q=13)",
            f"14-clique proven nonexistent, nodes={res['nodes']}, {time.time()-t0:.0f}s")


# -- 6. covering program, q=13 ----------------------------------------------------


def test_criterion_6_cover_program_q13(an13, cache_dir):
    t0 = time.time()
    g = an13.group
    graph = build_graph(g, ["13"])
    base = sylow_subgroup(g, 13).tolist()
    system = generate_translate_rows(graph, base)
    assert len(system.rows) == 1176 and system.edges_covered
    # the 84 right cosets of the base are rows and partition G
    cosets = {mask_from(g.mul(h, t) for h in base) for t in range(g.order)}
    assert len(cosets) == 84 and cosets <= set(map(mask_from, system.rows))
    assert sum(m.bit_count() for m in cosets) == g.order
    assert reduce(or_, cosets) == (1 << g.order) - 1
    # proven optimum <= 83: the partition caps packings at 84 and size 84 is
    # proven infeasible by the exact-hit search
    res = an13.cached_csp(("13",), base, 84)
    assert res["status"] == PROVEN_INFEASIBLE
    optimum_upper = 83  # = 84 (partition bound) refined by the infeasibility proof
    # the separation conclusion: alpha(G_13) * 13 != 1092
    assert optimum_upper * 13 != 1092 and 84 * 13 == 1092
    _report("6 (covering program, q=13)",
            f"84 infeasible (proven), optimum <= 83, alpha*13 != 1092, "
            f"{time.time()-t0:.0f}s")


# -- 7. q=17 spot searches ----------------------------------------------------------


def test_criterion_7_q17_spot_values():
    t0 = time.time()
    group = build_group(17)
    expected = [
        ("coclique", ("2", "4", "8", "9", "17"), 3),
        ("coclique", ("2", "8", "9", "17"), 6),
        ("coclique", ("2", "3", "8", "17"), 18),
        ("clique", ("2", "3", "9"), 18),
        ("clique", ("2", "3", "8"), 13),
    ]
    values = []
    for mode, labels, want in expected:
        graph = build_graph(group, labels)
        search = max_coclique if mode == "coclique" else max_clique
        res = search(graph, Budget(max_seconds=2400))
        assert res.exhaustive, f"{mode} {labels} not exhaustive"
        assert res.size == want, f"{mode} {labels}: {res.size} != {want}"
        checker = verify_coclique if mode == "coclique" else verify_clique
        assert checker(graph, res.vertices)
        values.append(res.size)
    _report("7 (spot searches, q=17)",
            f"values {values} all exhaustive, {time.time()-t0:.0f}s")


# -- 8/9. witnesses ------------------------------------------------------------------


def test_criterion_8_negative_witnesses():
    t0 = time.time()
    verdict, report = analyze(9, PipelineConfig())
    assert verdict.separating == "NO" and verdict.exit_code() == 0
    assert any(w["kind"] == "sharply_transitive" for w in report["witnesses"])
    details = ["q=9 sharp"]
    for q in (7, 8, 11, 29):
        tq = time.time()
        verdict, report = analyze(q, PipelineConfig())
        assert verdict.separating == "NO" and verdict.exit_code() == 0
        assert any(w["kind"] == "exact_factorisation" for w in report["witnesses"])
        assert time.time() - tq < 300
        details.append(f"q={q} factorisation")
    assert time.time() - t0 < 1500
    _report("8 (non-synchronising witnesses)", ", ".join(details))


def test_criterion_9_non_spreading():
    from diagsync.psl2 import PSL2
    expect_lambda = {13: 78, 17: 136, 25: 300, 29: 406}
    details = []
    for q, lam in expect_lambda.items():
        t0 = time.time()
        group = build_group(q) if q <= 17 else PSL2(q)
        wit = spreading_witness(group)
        elapsed = time.time() - t0
        assert wit.verified and wit.lam == lam
        assert wit.total == group.order
        assert wit.distinct_images == (q + 1) ** 2
        assert elapsed < 600
        details.append(f"q={q}: lambda={lam} ({elapsed:.0f}s)")
    _report("9 (non-spreading witnesses)", "; ".join(details))


# -- 10. end to end -------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_10_end_to_end(cache_dir, capsys, tmp_path):
    t0 = time.time()
    report13 = tmp_path / "report13.json"
    code = cli_main(["analyze", "--q", "13", "--cache-dir", cache_dir,
                     "--budget-secs", "14400",
                     "--out", str(report13)])
    assert code == 0
    report = json.loads(report13.read_text())
    assert report["verdict"]["separating"] == "YES"
    assert report["verdict"]["synchronising"] == "YES"
    assert report["verdict"]["spreading"] == "NO"
    ok, problems = verify_report(report)
    assert ok, problems
    # statuses of every feasible graph are definitive, each settled by a
    # nonexistence decision or a covering refutation
    assert all(gv["status"] != "UNRESOLVED" for gv in report["graphs"])
    assert {gv["status"] for gv in report["graphs"]} <= {
        "SEPARATING_BY_NONEXISTENCE", "SEPARATING_BY_CSP"}
    capsys.readouterr()
    assert cli_main(["analyze", "--q", "9"]) == 0
    capsys.readouterr()
    assert cli_main(["analyze", "--q", "29"]) == 0
    capsys.readouterr()
    # q=17 under a tiny budget must come back UNKNOWN (exit 2), never wrong
    code = cli_main(["analyze", "--q", "17", "--budget-secs", "1",
                     "--budget-nodes", "50"])
    assert code == 2
    capsys.readouterr()
    # idempotence: re-running over the same cache yields byte-identical output
    config = PipelineConfig(cache_dir=cache_dir, budget_secs=14400)
    _, rerun_a = analyze(13, config)
    _, rerun_b = analyze(13, config)
    assert json.dumps(rerun_a, sort_keys=True) == json.dumps(rerun_b, sort_keys=True)
    _report("10 (end-to-end verdicts)",
            f"q=13 YES, q=9 NO, q=29 NO, q=17 UNKNOWN(2), replay ok, "
            f"cached rerun byte-identical, {time.time()-t0:.0f}s")


# -- 11. always-on property suites ------------------------------------------------------


def test_criterion_11a_scheme_axioms_all_q():
    t0 = time.time()
    for q in (5, 7, 8, 9, 11, 13, 17):
        scheme = rational_fusion_scheme(build_group(q))
        eigen = scheme.eigen
        n = len(scheme.relations)
        omega = scheme.omega
        for a in range(n):
            for b in range(n):
                val = sum(eigen.P[a][j] * eigen.Q[j][b] for j in range(n))
                assert val == (omega if a == b else 0)
        assert sum(eigen.multiplicities) == omega
        if omega <= 600:
            adj = adjacency_matrices(scheme)
            for i in range(n):
                for j in range(n):
                    prod = adj[i] @ adj[j]
                    expected = sum(scheme.p[i][j][k] * adj[k] for k in range(n))
                    assert (prod == expected).all()
    _report("11a (scheme axioms, q in 5..17)", f"{time.time()-t0:.0f}s")


def test_criterion_11b_delsarte_random_pairs():
    t0 = time.time()
    rng = random.Random(113)
    g = build_group(13)
    scheme = rational_fusion_scheme(g)
    rows = putative_table(scheme)
    checked = 0
    for row in rows:
        graph = build_graph(g, row.clique_classes)
        co = complement_graph(graph)
        for _ in range(1000):
            clique = _random_greedy(graph, rng)
            coclique = _random_greedy(co, rng)
            assert len(clique) * len(coclique) <= g.order
            checked += 1
    _report("11b (random clique/coclique bound)",
            f"{checked} pairs across {len(rows)} graphs, {time.time()-t0:.0f}s")


def _random_greedy(graph, rng):
    out = []
    n = graph.vertex_count
    allowed = (1 << n) - 1
    for _ in range(40):
        v = rng.randrange(n)
        if (allowed >> v) & 1:
            out.append(v)
            allowed &= mask_of(graph.neighbors(v))
        if not allowed:
            break
    return out


def test_criterion_11c_equality_pairs_meet_once():
    # a certified equality pair: the order-5 clique and the A4 coclique in
    # PSL(2,5), with |C| * |S| = 60
    t0 = time.time()
    g = build_group(5)
    scheme = rational_fusion_scheme(g)
    graph = build_graph(g, ["5"])
    base = sylow_subgroup(g, 5).tolist()
    system = generate_translate_rows(graph, base)
    res = solve_cover_ilp(system, 12, budget=Budget(max_seconds=120))
    assert res.status == "FEASIBLE"
    clique, coclique = list(base), list(res.witness)
    assert len(clique) * len(coclique) == g.order
    assert design_orthogonal(clique, coclique, scheme)
    rng = random.Random(5)
    for _ in range(50):
        x, y = rng.randrange(g.order), rng.randrange(g.order)
        xi = g.inv(x)
        image = {g.mul(g.mul(xi, v), y) for v in clique}
        assert len(image & set(coclique)) == 1
    _report("11c (equality case meets once)",
            f"50 sampled translates, {time.time()-t0:.0f}s")


def test_criterion_11d_tamper_rejection():
    t0 = time.time()
    verdict, report = analyze(9, PipelineConfig())
    ok, _ = verify_report(report)
    assert ok
    import copy
    for mutate in (
        lambda r: r["witnesses"][0]["elements"].__setitem__(0, 359),
        lambda r: r["witnesses"][0].__setitem__("degree", 5),
    ):
        bad = copy.deepcopy(report)
        mutate(bad)
        ok, problems = verify_report(bad)
        assert not ok and problems
    _report("11d (certificate tamper rejection)", f"{time.time()-t0:.0f}s")
