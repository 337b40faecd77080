import itertools
import multiprocessing
import random

import pytest

from diagsync import search
from diagsync.graphs import build_graph, complement_graph
from diagsync.psl2 import (
    alternating_type_subgroup,
    borel_subgroup,
    build_group,
    cyclic_subgroup,
    dihedral_subgroup,
    mask_elements,
    stabilizer_torus_element,
    sylow_subgroup,
    unipotent_subgroup,
)
from diagsync.search import (
    Budget,
    EXHAUSTED,
    FOUND,
    NONE,
    algebraic_clique_seeds,
    find_clique_of_size,
    max_clique,
    max_coclique,
    verify_clique,
    verify_coclique,
)


@pytest.fixture(scope="module")
def g13():
    return build_group(13)


def test_seeds_find_algebraic_extremes(g13):
    expectations = {
        ("13",): 13,      # cyclic of prime order
        ("3", "13"): 39,  # order-39 subgroup
        ("2", "13"): 26,  # dihedral of order 26
        ("6", "13"): 26,  # two cosets of the order-13 subgroup
    }
    for labels, size in expectations.items():
        graph = build_graph(g13, labels)
        seeds = algebraic_clique_seeds(graph)
        assert seeds and len(seeds[0]) >= size
        assert verify_clique(graph, seeds[0][:size])


def test_max_clique_small_graphs_exact(g13):
    cert = max_clique(build_graph(g13, ["13"]), Budget(max_seconds=120))
    assert cert.size == 13 and cert.exhaustive and cert.verified
    cert = max_clique(build_graph(g13, ["2", "13"]), Budget(max_seconds=300))
    assert cert.size == 26 and cert.exhaustive


def _brute_force_max_clique(graph) -> int:
    """Plain Bron-Kerbosch with pivoting: an oracle independent of the solver."""
    n = graph.vertex_count
    adj = [graph.neighbors(v) for v in range(n)]
    best = 0

    def bk(r, p, x):
        nonlocal best
        if not p and not x:
            best = max(best, r)
            return
        u = (p | x)
        u = (u & -u).bit_length() - 1
        cand = p & ~adj[u]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            bk(r + 1, p & adj[v], x & adj[v])
            p &= ~low
            x |= low
            cand ^= low

    bk(0, (1 << n) - 1, 0)
    return best


def test_max_clique_q9_exhaustive_cross_checked():
    g = build_group(9)
    graph = build_graph(g, ["5"])
    cert = max_clique(graph, Budget(max_seconds=120))
    assert cert.exhaustive
    assert verify_clique(graph, cert.vertices)
    assert cert.size == _brute_force_max_clique(graph) == 9


def test_max_coclique_matches_complement_clique():
    g = build_group(9)
    graph = build_graph(g, ["2", "4"])
    co = max_coclique(graph, Budget(max_seconds=120))
    cl = max_clique(complement_graph(graph), Budget(max_seconds=120))
    assert co.exhaustive and cl.exhaustive
    assert co.size == cl.size
    assert verify_coclique(graph, co.vertices)


def test_translation_closure_of_witness(g13):
    graph = build_graph(g13, ["3", "13"])
    cert = max_clique(graph, Budget(max_seconds=60))
    rng = random.Random(17)
    for _ in range(5):
        x, y = rng.randrange(g13.order), rng.randrange(g13.order)
        xi = g13.inv(x)
        image = [g13.mul(g13.mul(xi, v), y) for v in cert.vertices]
        assert verify_clique(graph, image)


def test_decision_search_trivial_and_found(g13):
    graph = build_graph(g13, ["13"])
    status, cert = find_clique_of_size(graph, 1)
    assert status == FOUND and cert.size == 1
    status, cert = find_clique_of_size(graph, 13)
    assert status == FOUND and cert.size == 13 and cert.verified
    status, cert = find_clique_of_size(graph, 14, budget=Budget(max_seconds=300))
    assert status == NONE  # the order-13 graph has no 14-clique


def test_decision_with_distribution(g13):
    graph = build_graph(g13, ["2", "13"])
    # the dihedral witness has 169 involution pairs and 156 order-13 pairs
    dist = {"2": 169, "13": 156, "3": 0, "6": 0, "7": 0}
    status, cert = find_clique_of_size(graph, 26, distribution=dist,
                                       budget=Budget(max_seconds=120))
    assert status == FOUND and cert.size == 26


def test_budget_exhaustion_is_flagged(g13):
    graph = build_graph(g13, ["2", "3", "7"])
    cert = max_clique(graph, Budget(max_nodes=200, max_seconds=60))
    assert not cert.exhaustive
    assert cert.verified  # witness itself still valid


def test_monotonicity_on_computed_values():
    g = build_group(9)
    values = {}
    for labels in (("2",), ("2", "4"), ("2", "4", "5")):
        cert = max_clique(build_graph(g, labels), Budget(max_seconds=120))
        assert cert.exhaustive
        values[labels] = cert.size
    assert values[("2",)] <= values[("2", "4")] <= values[("2", "4", "5")]


def test_parallel_matches_serial(g13, monkeypatch):
    # G[2,13] has a single pinned task after its seeds, too few for the pool;
    # G[3,13] has 8 and G[7] 55
    pools = []
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: pools.append(method) or get_context(method))
    for labels, size, pooled_nodes in ((["3", "13"], 39, 8), (["7"], 9, 386)):
        graph = build_graph(g13, labels)
        serial = max_clique(graph, Budget(max_seconds=300), threads=1)
        assert not pools
        parallel = max_clique(graph, Budget(max_seconds=300), threads=2)
        assert pools == ["fork"]
        pools.clear()
        assert serial.exhaustive and parallel.exhaustive
        assert serial.size == parallel.size == size
        # the workers start from the incumbent of the first task, so their
        # node count is fixed too
        assert parallel.vertices == serial.vertices and parallel.nodes == pooled_nodes


@pytest.mark.slow
def test_delsarte_product_bound_on_search_results():
    g = build_group(9)
    for labels in (("2",), ("4",), ("5",), ("2", "5")):
        graph = build_graph(g, labels)
        cl = max_clique(graph, Budget(max_seconds=120))
        co = max_coclique(graph, Budget(max_seconds=120))
        if cl.exhaustive and co.exhaustive:
            assert cl.size * co.size <= g.order


# -- differential check of the coset-union seeds -------------------------------------


def reference_best_coset_union(graph, h):
    """Coset representatives and pairwise compatibility one group.mul at a time.

    Plain reference for search._best_coset_union.
    """
    group = graph.group
    conn = graph.connection
    reps, seen = [], set()
    for x in range(group.order):
        if x not in seen:
            seen.update(group.mul(hh, x) for hh in h)
            reps.append(x)

    def compatible(x, y):
        z = group.mul(x, group.inv(y))
        return all((conn >> group.mul(group.mul(h1, z), h2)) & 1 for h1 in h for h2 in h)

    adj = [0] * len(reps)
    for i, j in itertools.combinations(range(len(reps)), 2):
        if compatible(reps[i], reps[j]):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    best_size, best_mask, _ = search._bb_max_clique(
        adj, 1, search._Meter(200000, float("inf")))
    if best_size <= 1:
        return None
    out = tuple(sorted(group.mul(hh, reps[i]) for i in range(len(reps))
                       if (best_mask >> i) & 1 for hh in h))
    return out if verify_clique(graph, out) else None


def _class_union_label_sets(group):
    """Every proper class-union connection set, as unfused class labels."""
    classes = group.conjugacy_classes()
    units = {tuple(sorted({c.label, classes[c.inverse_class].label}))
             for c in classes if c.element_order > 1}
    units = sorted(units)
    for k in range(1, len(units)):
        for pick in itertools.combinations(units, k):
            yield [label for unit in pick for label in unit]


def _seed_cases():
    for q in (7, 11):
        for labels in _class_union_label_sets(build_group(q)):
            yield q, labels
    for labels in (["13"], ["6", "13"], ["3", "13"]):
        yield 13, labels


@pytest.mark.parametrize("q,labels", list(_seed_cases()),
                         ids=lambda v: "-".join(v) if isinstance(v, list) else str(v))
def test_seeds_match_reference(q, labels, monkeypatch):
    graph = build_graph(build_group(q), labels)
    seeds = algebraic_clique_seeds(graph)
    # memoized on the group, per connection set, as an immutable value
    assert algebraic_clique_seeds(build_graph(build_group(q), labels)) is seeds
    assert isinstance(seeds, tuple) and all(isinstance(s, tuple) for s in seeds)
    assert seeds == search._clique_seeds(graph)
    monkeypatch.setattr(search, "_best_coset_union", reference_best_coset_union)
    assert seeds == search._clique_seeds(graph)


def test_pool_solve_reports_a_clock_stop(g13, monkeypatch):
    graph = complement_graph(build_graph(g13, ["3", "13"]))
    rep, v, cand = max(search._pinned_tasks(graph, 0), key=lambda t: t[2].bit_count())
    monkeypatch.setattr(search, "_POOL_GRAPH", graph)
    *_, ok, nodes, timed_out = search._pool_solve((rep, v, cand, 0, 10 ** 6, -1.0))
    assert not ok and timed_out and nodes == 2048
    *_, ok, nodes, timed_out = search._pool_solve((rep, v, cand, 0, 100, 3600.0))
    assert not ok and not timed_out and nodes == 101


# -- the seed subgroups against the library they replaced -----------------------------


def reference_candidate_subgroups(group):
    """The seed subgroup list before psl2.subgroup_library, without its cache."""
    def _pow_elt(group, g, n):
        out = group.identity
        x = g
        while n:
            if n & 1:
                out = group.mul(out, x)
            x = group.mul(x, x)
            n >>= 1
        return out

    subs = set()
    seen_cyclic = set()
    for g in range(group.order):
        if g == group.identity:
            continue
        mask = cyclic_subgroup(group, g)
        if mask not in seen_cyclic:
            seen_cyclic.add(mask)
            subs.add(mask)
    for m in sorted({group.element_order(g) for g in range(group.order)} - {1, 2}):
        d = dihedral_subgroup(group, m)
        if d:
            subs.add(d)
    n = group.order
    r = 2
    while r <= n:
        if n % r == 0:
            s = sylow_subgroup(group, r)
            if s:
                subs.add(s)
            while n % r == 0:
                n //= r
        r += 1
    borel = borel_subgroup(group)
    subs.add(borel)
    torus = stabilizer_torus_element(group)
    m1 = group.element_order(torus)
    uni = mask_elements(unipotent_subgroup(group))
    for k in range(1, m1 + 1):
        if m1 % k == 0:
            step = _pow_elt(group, torus, m1 // k)
            sub = set(uni)
            frontier = list(uni)
            gens = uni + [step]
            while frontier:
                new = []
                for x in frontier:
                    for gg in gens:
                        y = group.mul(x, gg)
                        if y not in sub:
                            sub.add(y)
                            new.append(y)
                frontier = new
            m = 0
            for x in sub:
                m |= 1 << x
            subs.add(m)
    for kind in ("A4", "S4", "A5"):
        a = alternating_type_subgroup(group, kind)
        if a:
            subs.add(a)
    return sorted(subs)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 17])
def test_seed_subgroups_are_the_old_library(q):
    group = build_group(q)
    seeds = search._seed_subgroups(group)
    assert set(seeds) == set(reference_candidate_subgroups(group))
    assert seeds == sorted(seeds)
    assert search._seed_subgroups(group) is seeds


# -- golden certificates of the pinned searches ----------------------------------------

# (size, vertices, nodes, exhaustive), and the status for decisions, recorded
# before the serial loop, the pool workers and the decision search shared one
# pinned-task solver; a change to the branching or the task order moves them
GOLDEN = [
    ("clique", 7, ("2", "4", "7"), 5000, None,
     (12, (0, 2, 21, 29, 31, 41, 43, 53, 55, 56, 148, 153), 281, True)),
    ("clique", 11, ("3", "5"), 5000, None,
     (22, (1, 12, 41, 47, 55, 96, 125, 181, 187, 255, 271, 311, 357, 376, 418, 443,
           455, 483, 540, 559, 588, 638), 415, True)),
    ("clique", 11, ("11", "3", "6"), 300, None,
     (12, (1, 2, 55, 147, 191, 394, 432, 464, 472, 521, 524, 652), 301, False)),
    ("clique", 13, ("7",), 3000, None,
     (9, (3, 78, 92, 214, 357, 385, 747, 877, 1048), 384, True)),
    ("coclique", 11, ("11", "3", "6"), 5000, None,
     (17, (0, 11, 30, 55, 159, 175, 180, 264, 280, 296, 389, 505, 526, 546, 572, 602,
           608), 217, True)),
    ("coclique", 13, ("3", "13"), 300, None,
     (22, (0, 13, 78, 98, 240, 283, 337, 339, 393, 605, 659, 693, 747, 816, 843, 847,
           874, 923, 942, 986, 1042, 1086), 301, False)),
    ("decision", 7, ("3", "4"), 5000, 13, (NONE, 0, (), 96, True)),
    ("decision", 11, ("5", "6"), 5000, 14,
     (FOUND, 14, (3, 14, 36, 52, 55, 113, 276, 350, 449, 472, 476, 597, 612, 635),
      106, False)),
    ("decision", 11, ("2", "5", "6"), 5000, 25,
     (FOUND, 25, (0, 11, 28, 55, 71, 131, 157, 171, 194, 215, 245, 350, 376, 436, 442,
                  457, 463, 487, 555, 569, 592, 595, 618, 631, 655), 2555, False)),
    ("decision", 11, ("11", "2", "3", "6"), 300, 16, (EXHAUSTED, 0, (), 301, False)),
    ("decision", 13, ("7",), 3000, 14, (NONE, 0, (), 61, True)),
]


@pytest.mark.parametrize("kind,q,labels,cap,k,expected", GOLDEN,
                         ids=[f"{case[0]}-{case[1]}-{','.join(case[2])}-{case[3]}"
                              for case in GOLDEN])
def test_search_certificates_are_golden(kind, q, labels, cap, k, expected):
    graph = build_graph(build_group(q), labels)
    budget = Budget(max_nodes=cap)
    if kind == "decision":
        status, cert = find_clique_of_size(graph, k, budget=budget)
        got = (status, cert.size, cert.vertices, cert.nodes, cert.exhaustive)
    else:
        cert = (max_clique if kind == "clique" else max_coclique)(graph, budget)
        got = (cert.size, cert.vertices, cert.nodes, cert.exhaustive)
    assert got == expected

