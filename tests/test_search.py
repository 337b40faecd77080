import itertools
import random
import time
from types import SimpleNamespace

import numpy as np
import pytest

from diagsync import search
from diagsync.graphs import build_graph, complement_graph
from diagsync.psl2 import (
    alternating_type_subgroup,
    borel_subgroup,
    build_group,
    cyclic_subgroup,
    dihedral_subgroup,
    stabilizer_torus_element,
    sylow_subgroup,
    unipotent_subgroup,
)
from diagsync.scheme import rational_fusion_scheme
from masks import mask_array, mask_elements, mask_from, mask_of
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
    cert = max_clique(build_graph(g13, ["3", "13"]), Budget(max_seconds=300))
    assert cert.size == 39 and cert.exhaustive


def _brute_force_max_clique(graph) -> int:
    """Plain Bron-Kerbosch with pivoting: an oracle independent of the solver."""
    n = graph.vertex_count
    adj = [mask_of(graph.neighbors(v)) for v in range(n)]
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
    # the dihedral witness of order 26 has 169 involution pairs and 156
    # order-13 pairs; the decision search finds it without being told so
    status, cert = find_clique_of_size(graph, 26, budget=Budget(max_seconds=120))
    assert status == FOUND and cert.size == 26 and cert.verified


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


def test_delsarte_product_bound_on_search_results():
    # omega * alpha <= |T|: with omega exact, no coclique has |T| // omega + 1 vertices
    g = build_group(9)
    for labels in (("2",), ("4",), ("5",), ("2", "5")):
        graph = build_graph(g, labels)
        cl = max_clique(graph, Budget(max_nodes=10_000))
        assert cl.exhaustive
        status, _ = find_clique_of_size(complement_graph(graph), g.order // cl.size + 1,
                                        Budget(max_nodes=10_000))
        assert status == NONE


# -- differential check of the coset-union seeds -------------------------------------


def reference_best_coset_union(graph, h):
    """Coset representatives and pairwise compatibility one group.mul at a time.

    Plain reference for search._best_coset_union: the union or None, and
    whether its search was exhaustive.
    """
    group = graph.group
    conn = mask_of(graph.connection)
    reps, seen = [], set()
    for x in range(group.order):
        if x not in seen:
            seen.update(group.mul(hh, x) for hh in h)
            reps.append(x)

    def compatible(x, y):
        z = group.mul(x, group.inv(y))
        return all((conn >> group.mul(group.mul(h1, z), h2)) & 1 for h1 in h for h2 in h)

    adj = np.zeros((len(reps), len(reps)), dtype=bool)
    for i, j in itertools.combinations(range(len(reps)), 2):
        if compatible(reps[i], reps[j]):
            adj[i, j] = adj[j, i] = True
    best_size, members, complete = search._bb_max_clique(
        adj, 1, search._Meter(200000, float("inf")))
    if best_size <= 1:
        return None, complete
    out = tuple(sorted(group.mul(hh, reps[i]) for i in members.tolist() for hh in h))
    return (out if verify_clique(graph, out) else None), complete


def _class_units(group):
    """The nontrivial classes as inverse-closed units: a class with its inverse class."""
    classes = group.conjugacy_classes()
    return sorted({tuple(sorted({c.label, classes[c.inverse_class].label}))
                   for c in classes if c.element_order > 1})


def _class_union_label_sets(group):
    """Every proper class-union connection set, as unfused class labels."""
    units = _class_units(group)
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


def reference_clique_seeds(graph):
    """The seeds with a coset-union search on every large subgroup clique,
    none carried over by conjugation."""
    group = graph.group
    allowed = mask_of(graph.connection) | 1 << group.identity
    cliques = [m for m in map(mask_from, search._seed_subgroups(group)) if not m & ~allowed]
    seeds = [tuple(mask_elements(m)) for m in cliques]
    for mask in cliques:
        h = np.array(mask_elements(mask))
        if len(h) >= 7 and group.order // len(h) <= 120:
            union, _ = search._best_coset_union(graph, h)
            if union and len(union) > len(h):
                seeds.append(union)
    return sorted(seeds, key=len, reverse=True)


def _fused_union_graphs(qs):
    for q in qs:
        group = build_group(q)
        labels = rational_fusion_scheme(group).nontrivial_labels()
        for k in range(1, len(labels)):
            for pick in itertools.combinations(labels, k):
                yield build_graph(group, list(pick))


@pytest.mark.parametrize("q", [7, 8, 11, 13])
def test_seeds_searched_once_per_subgroup_class_match_a_search_per_member(q):
    # conjugates have coset unions of equal size, so the first seed (the only
    # one the pipeline, the searches and the certify command read) and every
    # seed size are those of a search per member
    carried = 0
    for graph in _fused_union_graphs([q]):
        seeds, reference = search._clique_seeds(graph), reference_clique_seeds(graph)
        assert seeds[:1] == tuple(reference[:1])
        assert [len(s) for s in seeds] == [len(s) for s in reference]
        assert all(verify_clique(graph, s) for s in seeds)
        carried += list(seeds) != reference
    # each class's representative comes first in seed order, and g carries it
    # onto the member: H = g^-1 rep g
    group = build_group(q)
    order = search._seed_subgroups(group)
    for i, (rep, g) in search._union_classes(group).items():
        assert rep <= i
        assert np.array_equal(np.sort(group.conjugate(order[rep], g)), order[i])
    # later seeds do differ somewhere, so the conjugation path is exercised
    assert carried


def test_a_stopped_class_search_is_repeated_per_member(g13, monkeypatch):
    # when the representative's search stops at its node meter, each member
    # of its class is searched itself
    graph = build_graph(g13, ["13"])
    searched = []
    real = search._best_coset_union

    def stopped(graph, h):
        searched.append(tuple(h))
        return real(graph, h)[0], False
    monkeypatch.setattr(search, "_best_coset_union", stopped)
    seeds = search._clique_seeds(graph)
    sylow13 = [search._seed_subgroups(g13)[i] for i in search._union_classes(g13)]
    sylow13 = [h for h in sylow13 if len(h) == 13]
    assert len(sylow13) == 14
    assert {tuple(h.tolist()) for h in sylow13} <= set(searched)
    assert seeds == tuple(reference_clique_seeds(graph))


def _reduction_cases():
    for q in (4, 5):
        for labels in _class_union_label_sets(build_group(q)):
            yield q, labels, True
    for q in (7, 8):
        for unit in _class_units(build_group(q)):
            yield q, list(unit), False


@pytest.mark.parametrize("q,labels,cocliques", list(_reduction_cases()),
                         ids=lambda v: "-".join(v) if isinstance(v, list) else str(v))
def test_symmetry_reductions_match_unreduced_oracle(q, labels, cocliques, monkeypatch):
    # the pin, the class representatives and the centralizer orbits against plain
    # Bron-Kerbosch on the whole graph, with the seeds and without them (then
    # the pinned search alone must find an optimum)
    graph = build_graph(build_group(q), labels)
    searches = [(max_clique, _brute_force_max_clique(graph))]
    if cocliques:
        searches.append((max_coclique, _brute_force_max_clique(complement_graph(graph))))
    for seeded in (True, False):
        if not seeded:
            monkeypatch.setattr(search, "algebraic_clique_seeds", lambda graph: ())
        for run, size in searches:
            cert = run(graph, Budget(max_nodes=10 ** 6))
            assert cert.exhaustive and cert.size == size


@pytest.mark.parametrize("kind,labels,cap,later_tasks_run", [
    # the first pinned task alone spends the cap
    ("coclique", ["13"], 300, False),
    # the first pinned task finishes inside the cap and later ones spend the rest
    ("clique", ["7"], 200, True),
])
def test_node_cap_bounds_a_parallel_search(g13, monkeypatch, kind, labels, cap,
                                           later_tasks_run):
    # the cap stops the pinned-task search at the first node past it, whichever
    # task that node falls in, and a capped result repeats exactly
    tasks = []
    solve_task = search._solve_task
    monkeypatch.setattr(search, "_solve_task",
                        lambda *args, **kw: tasks.append(args[1:3]) or solve_task(*args, **kw))
    graph = build_graph(g13, labels)
    run = max_clique if kind == "clique" else max_coclique
    cert = run(graph, Budget(max_nodes=cap))
    assert (len(tasks) > 1) == later_tasks_run
    again = run(graph, Budget(max_nodes=cap))
    assert not cert.exhaustive and not cert.timed_out and cert.verified
    assert cert.nodes == cap + 1
    assert (again.vertices, again.nodes) == (cert.vertices, cert.nodes)


def test_clock_stops_a_search(g13):
    # a deadline already past stops the search at its first clock reading
    cert = max_clique(complement_graph(build_graph(g13, ["3", "13"])), Budget(max_seconds=-1))
    assert cert.timed_out and not cert.exhaustive and cert.nodes == 2048


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
        mask = mask_from(cyclic_subgroup(group, g))
        if mask not in seen_cyclic:
            seen_cyclic.add(mask)
            subs.add(mask)
    for m in sorted({group.element_order(g) for g in range(group.order)} - {1, 2}):
        d = dihedral_subgroup(group, m)
        if d is not None:
            subs.add(mask_from(d))
    n = group.order
    r = 2
    while r <= n:
        if n % r == 0:
            s = sylow_subgroup(group, r)
            if s is not None:
                subs.add(mask_from(s))
            while n % r == 0:
                n //= r
        r += 1
    subs.add(mask_from(borel_subgroup(group)))
    torus = stabilizer_torus_element(group)
    m1 = group.element_order(torus)
    uni = unipotent_subgroup(group).tolist()
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
        if a is not None:
            subs.add(mask_from(a))
    return sorted(subs)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 17])
def test_seed_subgroups_are_the_old_library(q):
    # the same sets, in the order of the ints with their bits set
    group = build_group(q)
    seeds = search._seed_subgroups(group)
    assert [mask_from(h) for h in seeds] == reference_candidate_subgroups(group)
    assert all(np.array_equal(h, np.sort(h)) for h in seeds)
    assert search._seed_subgroups(group) is seeds


# -- golden certificates of the pinned searches ----------------------------------------

# (size, vertices, nodes, exhaustive), and the status for decisions, recorded
# before the maximum and the decision searches shared one pinned-task solver
# and one task loop; a change to the branching or the task order moves them
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


@pytest.mark.parametrize("q", [7, 8])
def test_a_found_decision_has_exactly_k_vertices(q):
    # the branch and bound records a hit at a leaf, so its first hit may be a
    # larger clique; the witness is cut to k vertices.  omega is exact where
    # 5,000 nodes end the search, else the largest clique found bounds it below
    group = build_group(q)
    labels = rational_fusion_scheme(group).nontrivial_labels()
    for subset in (s for r in range(1, len(labels))
                   for s in itertools.combinations(labels, r)):
        graph = build_graph(group, subset)
        for k in range(4, max_clique(graph, Budget(max_nodes=5000)).size):
            status, cert = find_clique_of_size(graph, k)
            assert status == FOUND and cert.size == len(cert.vertices) == k, (subset, k)
            assert verify_clique(graph, cert.vertices)


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


# -- array-native task set-up against the bit loops it replaced -----------------------


def reference_degeneracy_order(adj):
    """The degeneracy order one bit at a time, over adjacency masks.

    Plain reference for search._degeneracy_order.
    """
    n = len(adj)
    alive = (1 << n) - 1
    order = []
    for _ in range(n):
        best_v, best_d = -1, None
        m = alive
        while m:
            low = m & -m
            v = low.bit_length() - 1
            d = (adj[v] & alive).bit_count()
            if best_d is None or d < best_d:
                best_v, best_d = v, d
            m ^= low
        order.append(best_v)
        alive &= ~(1 << best_v)
    return order


def _random_graph(rng, n, density):
    upper = np.triu(rng.random((n, n)) < density, k=1)
    return upper | upper.T


def test_degeneracy_order_matches_bit_loop():
    rng = np.random.default_rng(3)
    graphs = [np.zeros((0, 0), dtype=bool), np.zeros((9, 9), dtype=bool),
              ~np.eye(9, dtype=bool)]
    # few vertices and mid densities give many equal degrees
    graphs += [_random_graph(rng, n, density) for n in (1, 2, 5, 12, 40, 90)
               for density in (0.1, 0.5, 0.9)]
    for adj in graphs:
        got = search._degeneracy_order(adj)
        assert got.tolist() == reference_degeneracy_order([mask_of(row) for row in adj])


def reference_localize(graph, cand_mask):
    """The candidates and their local adjacency masks from the neighbour masks."""
    verts = mask_elements(cand_mask)
    index = {v: i for i, v in enumerate(verts)}
    adj = []
    for v in verts:
        local = 0
        for u in mask_elements(mask_of(graph.neighbors(v)) & cand_mask):
            local |= 1 << index[u]
        adj.append(local)
    return verts, adj


_LOCAL_CASES = [(7, ["3", "4"]), (11, ["5", "6"]), (13, ["7"]), (13, ["2", "3", "13"]),
                (19, ["9", "19"])]


@pytest.mark.parametrize("q,labels", _LOCAL_CASES, ids=lambda v: str(v))
def test_localize_matches_neighbour_masks(q, labels):
    graph = build_graph(build_group(q), labels)
    n = graph.vertex_count
    rng = random.Random(q)
    nbrs = [mask_of(graph.neighbors(v)) for v in (0, 5)]
    masks = [0, 1 << (n - 1), nbrs[0], nbrs[0] & nbrs[1]]
    masks += [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(4)]
    masks += [sum(1 << v for v in rng.sample(range(n), min(n, 150))) for _ in range(2)]
    for cand in masks:
        verts, adj = search._localize(graph, mask_array(cand, n))
        ref_verts, ref_adj = reference_localize(graph, cand)
        assert verts.tolist() == ref_verts
        assert adj.shape == (len(ref_verts), len(ref_verts)) and adj.dtype == bool
        assert [mask_of(row) for row in adj] == ref_adj


def reference_orbits(maps, mask):
    """The orbits of the rows of maps on a vertex mask by a bit walk:
    (least vertex, orbit mask) pairs, least vertex first."""
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        orbit = mask_from(maps[:, v].tolist()) & mask
        out.append((v, orbit))
        mask &= ~orbit
    return out


def reference_pinned_tasks(graph, floor_size):
    """The pinned tasks as (rep, v, candidate mask), from neighbour bitmasks,
    class member masks and the bitmask orbit walk."""
    group = graph.group
    classes = group.conjugacy_classes()
    every = np.arange(group.order)
    tasks, excluded = [], 0
    for rep in search._class_reps_in_connection(graph):
        cls = classes[group.class_of(rep)]
        pair = mask_of(graph.neighbors(group.identity)) & mask_of(graph.neighbors(rep))
        pair &= ~(1 << group.identity | 1 << rep | excluded)
        excluded |= mask_of(np.isin(group.class_of_array(), [cls.id, cls.inverse_class]))
        if pair.bit_count() + 2 <= floor_size:
            continue
        cent = [g for g in range(group.order) if group.mul(g, rep) == group.mul(rep, g)]
        processed = 0
        for v, orbit in reference_orbits(group.conjugate(every, np.array(cent)[:, None]), pair):
            tasks.append((rep, v, pair & ~processed & mask_of(graph.neighbors(v))))
            processed |= orbit
    return tasks


def _fused_union_cases():
    for q in (4, 5, 7, 8, 9, 11, 13):
        labels = [o.label for o in build_group(q).fusion_orbits() if o.element_order > 1]
        for k in range(1, len(labels)):
            for pick in itertools.combinations(labels, k):
                yield q, list(pick)


@pytest.mark.parametrize("q,labels", list(_fused_union_cases()), ids=lambda v: str(v))
def test_pinned_tasks_match_bitmask_reference(q, labels):
    graph = build_graph(build_group(q), labels)
    for floor_size in (0, 3, 6, 10, 14):
        tasks = search._pinned_tasks(graph, floor_size)
        assert all(cand.dtype == bool and cand.shape == (graph.vertex_count,)
                   for _, _, cand in tasks)
        got = [(rep, v, mask_of(cand)) for rep, v, cand in tasks]
        assert got == reference_pinned_tasks(graph, floor_size), floor_size


def reference_pairwise(graph, vertices, adjacent):
    """verify_clique / verify_coclique by the scalar adjacency oracle."""
    verts = list(vertices)
    if len(set(verts)) != len(verts) or any(not 0 <= v < graph.vertex_count for v in verts):
        return False
    return all(graph.adjacent(u, v) == adjacent for u, v in itertools.combinations(verts, 2))


def _greedy_clique(graph, rng, adjacent):
    """A random maximal-ish clique (or coclique) grown by the scalar oracle."""
    n = graph.vertex_count
    out = [rng.randrange(n)]
    for v in rng.sample(range(n), min(n, 400)):
        if v not in out and all(graph.adjacent(u, v) == adjacent for u in out):
            out.append(v)
    return out


@pytest.mark.parametrize("q,labels", _LOCAL_CASES, ids=lambda v: str(v))
def test_verify_by_gather_matches_scalar_oracle(q, labels):
    graph = build_graph(build_group(q), labels)
    n = graph.vertex_count
    rng = random.Random(7 * q)
    for adjacent, check in ((True, verify_clique), (False, verify_coclique)):
        lists = [[], [0], [0, 0], [-1], [n], [0, n + 3]]
        for _ in range(6):
            found = _greedy_clique(graph, rng, adjacent)
            assert len(found) >= 2 and check(graph, found) and check(graph, tuple(found))
            lists += [found, found[::-1], found + [found[0]], found[:-1] + [n],
                      found[:-1] + [-found[-1] or -1], found + [rng.randrange(n)]]
            lists.append(rng.sample(range(n), rng.randrange(2, 12)))    # a non-clique, mostly
        for verts in lists:
            assert check(graph, verts) == reference_pairwise(graph, verts, adjacent), verts


def test_task_setup_makes_no_per_vertex_mask_loops(g13, monkeypatch):
    # the bit-loop codec serves only cold paths: here one orbit mask per task
    from diagsync import graphs, psl2
    graph = build_graph(g13, ["7"])
    algebraic_clique_seeds(graph)           # memoized on the group before counting
    tasks = len(search._pinned_tasks(graph, 0))
    assert tasks >= 50
    calls = []
    real = psl2.mask_elements
    for module in (psl2, graphs, search):
        if getattr(module, "mask_elements", None) is real:
            monkeypatch.setattr(module, "mask_elements",
                                lambda *a: calls.append(1) or real(*a))
    cert = max_clique(graph, Budget(max_seconds=300))
    assert cert.exhaustive and cert.size == 9
    assert len(calls) <= 2 * tasks, (len(calls), tasks)


@pytest.mark.parametrize("labels", [["13"], ["2", "3", "7", "13"], ["2", "3", "6", "7"]])
def test_seeds_do_not_depend_on_the_clock(g13, labels, monkeypatch):
    graph = build_graph(g13, labels)
    seeds = search._clique_seeds(graph)
    start = time.monotonic()
    calls = itertools.count(1)
    # every reading of the clock is an hour later than the one before
    monkeypatch.setattr(search, "time", SimpleNamespace(
        monotonic=lambda: start + 3600.0 * next(calls)))
    assert search._clique_seeds(graph) == seeds
