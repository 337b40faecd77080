import itertools
import random

import pytest

from diagsync import search
from diagsync.graphs import build_graph, complement_graph
from diagsync.psl2 import build_group
from diagsync.search import (
    Budget,
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


def test_parallel_matches_serial(g13):
    graph = build_graph(g13, ["2", "13"])
    serial = max_clique(graph, Budget(max_seconds=300), threads=1)
    parallel = max_clique(graph, Budget(max_seconds=300), threads=2)
    assert serial.exhaustive and parallel.exhaustive
    assert serial.size == parallel.size == 26


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
    *_, ok, nodes, timed_out = search._pool_solve((rep, v, cand, 0, None, 10 ** 6, -1.0))
    assert not ok and timed_out and nodes == 2048
    *_, ok, nodes, timed_out = search._pool_solve((rep, v, cand, 0, None, 100, 3600.0))
    assert not ok and not timed_out and nodes == 101
