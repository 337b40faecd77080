import itertools
import random
from collections import Counter
from functools import reduce
from operator import or_

import numpy as np
import pytest

from diagsync import certify
from diagsync.certify import PROVEN_INFEASIBLE, generate_translate_rows, solve_cover_ilp
from diagsync.gf import factor_prime_power
from diagsync.graphs import ClassUnionGraph, build_graph
from diagsync.pipeline import Analyzer, PipelineConfig
from diagsync.psl2 import PSL2, build_group, outer_maps, sylow_subgroup
from diagsync.scheme import rational_fusion_scheme
from diagsync.search import Budget, algebraic_clique_seeds, verify_clique, verify_coclique
from masks import mask_elements, mask_from, mask_of


@pytest.fixture(scope="module")
def sys13():
    g = build_group(13)
    graph = build_graph(g, ["13"])
    base = sylow_subgroup(g, 13).tolist()
    return generate_translate_rows(graph, base)


def _row_masks(system) -> list[int]:
    """The rows as bitmasks, in row order."""
    return [mask_from(row) for row in system.rows]


def _families(system) -> list[list[int]]:
    """The rows grouped into right-translation families {R t}.

    R and R t have the same translates through the identity, the columns
    R v^-1 (v in R) of the quotient matrix, so the least of them names the
    family of R.
    """
    group = system.graph.group
    inv = group.inverses()
    families: dict[tuple, list[int]] = {}
    for mask in _row_masks(system):
        verts = mask_elements(mask)
        quotients = group.mul_rows(verts)[:, inv[verts]]    # u * v^-1
        key = min(tuple(sorted(col)) for col in quotients.T.tolist())
        families.setdefault(key, []).append(mask)
    return list(families.values())


def _partitions_of_g(system) -> list[list[int]]:
    """The families whose rows partition the vertex set."""
    n = system.graph.vertex_count
    return [family for family in _families(system)
            if sum(mask.bit_count() for mask in family) == n
            and reduce(or_, family) == (1 << n) - 1]


def test_row_generation_structure(sys13):
    # 14 conjugate subgroups, 84 cosets each, all verified cliques
    assert len(sys13.rows) == 1176
    families = _families(sys13)
    assert len(families) == 14 and all(len(family) == 84 for family in families)
    assert sys13.edges_covered
    rows = _row_masks(sys13)
    assert all(mask.bit_count() == 13 for mask in rows)
    base_mask = 0
    for v in sys13.base_clique:
        base_mask |= 1 << v
    assert base_mask in rows
    # rows pairwise distinct
    assert len(set(rows)) == len(rows)


def test_row_generation_rejects_non_clique():
    g = build_group(13)
    graph = build_graph(g, ["13"])
    involution = next(i for i in range(g.order) if g.element_order(i) == 2)
    with pytest.raises(ValueError):
        generate_translate_rows(graph, [g.identity, involution])


def _spoil(graph, row, keep_identity) -> list[int]:
    """The row with one vertex other than the identity replaced, so that it
    is no clique; the identity stays in the row when keep_identity is set."""
    g = graph.group
    others = [v for v in row if v != g.identity]
    kept = [g.identity] * (keep_identity and g.identity in row) + others[1:]
    w = next(w for w in range(g.order) if w != g.identity and w not in row
             and not verify_clique(graph, sorted(kept + [w])))
    return sorted(kept + [w])


@pytest.mark.parametrize("where", ["identity-row", "other-row", "whole-family"])
def test_corrupted_translate_row_is_rejected(where, monkeypatch):
    # the first family gets a row that is no clique: a row through the
    # identity fails its pairwise re-check, any other row is no right
    # translate of a row through the identity, and the translates of a shape
    # that is no clique fail the pairwise re-check of the rows through the
    # identity however consistent they are
    g = build_group(13)
    graph = build_graph(g, ["13"])
    real = certify._right_translates
    first = []

    def corrupted(group, shape):
        if first:
            return real(group, shape)
        first.append(shape)
        if where == "whole-family":
            return real(group, np.array(_spoil(graph, shape.tolist(), True), dtype=shape.dtype))
        family = real(group, shape).copy()
        through_identity = where == "identity-row"
        r = next(i for i, row in enumerate(family.tolist())
                 if (g.identity in row) == through_identity)
        family[r] = _spoil(graph, family[r].tolist(), through_identity)
        return family

    monkeypatch.setattr(certify, "_right_translates", corrupted)
    with pytest.raises(AssertionError, match="translate image failed clique re-verification"):
        generate_translate_rows(graph, sylow_subgroup(g, 13).tolist())


def test_partitions_partition(sys13):
    # the cosets of each Sylow 13-subgroup partition G
    assert len(_partitions_of_g(sys13)) == 14


def test_exactly_one_84_proven_infeasible(sys13):
    res = solve_cover_ilp(sys13, 84, budget=Budget(max_nodes=10 ** 8, max_seconds=600))
    assert res.status == PROVEN_INFEASIBLE
    assert res.target == 84
    assert res.nodes == 367


def test_choosing_a_vertex_removes_its_neighbours_and_rows(sys13):
    # the solver removes K0 v by one gather; the reference is the union of
    # v, its neighbour mask and the bitmasks of the rows through it
    graph = sys13.graph
    n = graph.vertex_count
    rows = _row_masks(sys13)
    for v in [graph.group.identity, 0, n - 1] + random.Random(13).sample(range(n), 8):
        solver = certify._CoverSolver(sys13, Budget().start())
        solver.choose(v)
        through = [ri for ri, mask in enumerate(rows) if mask >> v & 1]
        kill = reduce(or_, (rows[ri] for ri in through), 1 << v | mask_of(graph.neighbors(v)))
        assert mask_from(np.flatnonzero(~solver.alive).tolist()) == kill
        # the rows through v are done, every other row counts its alive vertices
        assert np.flatnonzero(solver.row_alive == solver.closed).tolist() == through
        assert all(solver.row_alive[ri] == (mask & ~kill).bit_count()
                   for ri, mask in enumerate(rows) if ri not in through)


def test_solver_reads_no_neighbour_mask_and_no_row_bitmask(monkeypatch):
    g = build_group(13)
    system = generate_translate_rows(build_graph(g, ["13"]),
                                     sylow_subgroup(g, 13).tolist())

    def refuse(self, v):
        raise AssertionError("the solver read a neighbour mask")
    monkeypatch.setattr(ClassUnionGraph, "neighbors", refuse)
    res = solve_cover_ilp(system, 84, budget=Budget(max_nodes=10 ** 8, max_seconds=600))
    assert res.status == PROVEN_INFEASIBLE and res.nodes == 367
    assert res.system["rows"] == 1176
    assert system.rows.shape == (1176, 13)     # the rows are one vertex array


def test_q17_g_2_4_17_proven_infeasible():
    # the 68-clique that the pipeline realizes from a seed: no 36-coclique
    # meets each of its 648 translate rows exactly once
    graph = build_graph(build_group(17), ["2", "4", "17"])
    base = next(s[:68] for s in algebraic_clique_seeds(graph) if len(s) >= 68)
    system = generate_translate_rows(graph, base)
    assert len(system.rows) == 648
    res = solve_cover_ilp(system, 36, budget=Budget(max_nodes=10 ** 6, max_seconds=600))
    assert res.status == PROVEN_INFEASIBLE and res.nodes == 14752


def test_exactly_one_feasible_small_case():
    # PSL(2,5) = A4 * C5 exactly, so a 12-element coclique of the order-5
    # graph meets every coset of every Sylow-5 subgroup exactly once
    g = build_group(5)
    graph = build_graph(g, ["5"])
    base = sylow_subgroup(g, 5).tolist()
    system = generate_translate_rows(graph, base)
    assert len(_partitions_of_g(system)) == 6          # one per Sylow 5-subgroup
    res = solve_cover_ilp(system, 12,
                          budget=Budget(max_nodes=10 ** 7, max_seconds=120))
    assert res.status == "FEASIBLE"
    assert len(res.witness) == 12
    assert verify_coclique(graph, res.witness)


# -- differential check of row generation -------------------------------------------


def reference_index(group):
    """The element index of both signs of every matrix, read from the entries."""
    neg = group.field.neg
    index = {}
    for i, m in enumerate(group.entries.T.tolist()):
        index[tuple(m)] = index[tuple(neg(x) for x in m)] = i
    return index


def reference_frobenius_perm(group):
    """x -> x^p on every entry, one scalar dict lookup per element."""
    f = group.field
    if f.e == 1:
        return None
    index = reference_index(group)
    return [index[tuple(f.pow(x, f.p) for x in m)] for m in group.entries.T.tolist()]


def reference_diagonal_outer_perm(group):
    """Conjugation by diag(nu, 1) for the least non-square nu, element by element."""
    f = group.field
    squares = f.squares()
    nu = next(z for z in range(1, f.q) if z not in squares)
    nu_inv = f.inv(nu)
    index = reference_index(group)
    return [index[(a, f.mul(b, nu_inv), f.mul(c, nu), d)]
            for a, b, c, d in group.entries.T.tolist()]


@pytest.mark.parametrize("q", [q for q in range(4, 50) if factor_prime_power(q)])
def test_outer_maps_match_reference(q):
    g = build_group(q)
    expected = []
    if g.field.e > 1:
        expected.append(("field automorphisms", reference_frobenius_perm(g)))
    if q % 2:
        expected.append(("diagonal outer", reference_diagonal_outer_perm(g)))
    assert [(name, perm.tolist()) for name, perm in outer_maps(g)] == expected


def reference_rows(graph, clique):
    """Every conjugate shape times every translate, each new image re-checked.

    Plain reference for generate_translate_rows: group.mul per element, no
    family reuse.  Returns (rows, edges_covered, shape count).
    """
    group = graph.group
    n = group.order
    conn = set(graph.connection_elements().tolist())
    base = tuple(sorted(clique))
    gens = group.generators()
    outer = [reference_frobenius_perm(group)]
    if group.q % 2:
        outer.append(reference_diagonal_outer_perm(group))
    perms = [p for p in outer if p and {p[s] for s in conn} == conn]
    seen = {frozenset(base)}
    shapes = [base]
    frontier = [base]
    while frontier:
        new = []
        for shape in frontier:
            images = [tuple(group.mul(group.mul(group.inv(g), x), g) for x in shape)
                      for g in gens]
            images += [tuple(p[x] for x in shape) for p in perms]
            images.append(tuple(group.inv(x) for x in shape))
            for img in images:
                if frozenset(img) not in seen:
                    seen.add(frozenset(img))
                    shapes.append(img)
                    new.append(img)
        frontier = new
    rows, known = [], set()
    for shape in shapes:
        for t in range(n):
            img = [group.mul(x, t) for x in shape]
            mask = mask_from(img)
            if mask not in known:
                assert verify_clique(graph, img)
                known.add(mask)
                rows.append(mask)
    cov = [0] * n
    for mask in rows:
        for v in mask_elements(mask):
            cov[v] |= mask
    edges_covered = all(
        mask_from(group.mul(s, v) for s in conn) & ~cov[v] == 0 for v in range(n))
    return rows, edges_covered, len(shapes)


def _coset(group, sub, a):
    return [group.mul(h, a) for h in sub.tolist()]


def _spy_translates(monkeypatch) -> list:
    """Record the shapes that generate_translate_rows translates."""
    calls = []
    real = certify._right_translates
    monkeypatch.setattr(certify, "_right_translates",
                        lambda group, shape: calls.append(shape) or real(group, shape))
    return calls


@pytest.mark.parametrize("q,labels,base_kind", [
    (7, ["7"], "sylow"), (8, ["2"], "sylow"), (11, ["11"], "sylow"),
    (7, ["3", "4"], "seed"), (8, ["3", "7"], "seed"), (11, ["2", "5"], "seed"),
], ids=lambda v: "-".join(v) if isinstance(v, list) else str(v))
def test_rows_match_reference(q, labels, base_kind, monkeypatch):
    g = build_group(q)
    graph = build_graph(g, labels)
    if base_kind == "sylow":
        base = sylow_subgroup(g, g.field.p).tolist()
    else:
        base = list(algebraic_clique_seeds(graph)[0])
    calls = _spy_translates(monkeypatch)
    system = generate_translate_rows(graph, base)
    rows, edges_covered, shapes = reference_rows(graph, base)
    assert _row_masks(system) == rows
    assert system.edges_covered == edges_covered
    assert len(calls) <= shapes
    # q=8 exercises the field automorphism, odd q the diagonal outer map
    assert ("field automorphisms" in system.generator_note) == (q == 8)
    assert ("diagonal outer" in system.generator_note) == (q % 2 == 1)


def test_rows_match_reference_on_every_fused_union():
    covered = Counter()
    for graph, seeds in _fused_unions((5, 7, 8)):
        if seeds:
            system = generate_translate_rows(graph, seeds[0])
            rows, edges_covered, _ = reference_rows(graph, seeds[0])
            assert _row_masks(system) == rows and system.edges_covered == edges_covered
            covered[edges_covered] += 1
    # both outcomes of the coverage test by the rows through the identity occur
    assert covered == {True: 19, False: 13}


def test_incidence_lists_the_rows_through_each_vertex(sys13):
    solver = certify._CoverSolver(sys13, Budget().start())
    n = sys13.graph.vertex_count
    # every vertex lies in 1176 * 13 / 1092 rows
    assert solver.incidence.shape == (n, 14)
    rows = _row_masks(sys13)
    for v in (0, sys13.graph.group.identity, n - 1):
        assert solver.incidence[v].tolist() == [
            ri for ri, mask in enumerate(rows) if mask >> v & 1]
    # a system that is not closed under right translation is refused
    cut = certify.TranslateRowSystem(sys13.graph, sys13.base_clique, sys13.rows[1:],
                                     sys13.generator_note, sys13.edges_covered)
    with pytest.raises(AssertionError):
        certify._CoverSolver(cut, Budget().start())


def test_family_reuse_fires_on_a_coset_base(monkeypatch):
    # the conjugates of a right coset Ha by the normaliser of H are right
    # translates of Ha: those shapes reuse the family of Ha
    g = build_group(7)
    graph = build_graph(g, ["7"])
    sylow = sylow_subgroup(g, 7)
    a = next(x for x in range(g.order) if x not in sylow)
    base = _coset(g, sylow, a)
    calls = _spy_translates(monkeypatch)
    system = generate_translate_rows(graph, base)
    rows, _, shapes = reference_rows(graph, base)
    # one family per Sylow 7-subgroup, each its 24 right cosets
    assert len(calls) == 8 < shapes
    assert _row_masks(system) == rows and len(rows) == 8 * 24
    assert len(_families(system)) == 8


def test_rows_without_multiplication_table():
    # a group built without its table computes product rows from field
    # arithmetic; the rows must be the same
    fresh = PSL2(7)
    base = sylow_subgroup(fresh, 7).tolist()
    system = generate_translate_rows(build_graph(fresh, ["7"]), base)
    tabled = generate_translate_rows(build_graph(build_group(7), ["7"]), base)
    assert fresh._table is None
    assert np.array_equal(system.rows, tabled.rows)
    assert system.edges_covered and len(system.rows) == 8 * 24


def test_q9_unfused_class_rows_are_cliques():
    # the diagonal outer map swaps 3A and 3B, so it must not act on G[3A]
    g = build_group(9)
    graph = build_graph(g, ["3A"])
    base = algebraic_clique_seeds(graph)[0]
    system = generate_translate_rows(graph, base)
    assert "diagonal outer" not in system.generator_note
    assert len(system.rows)
    assert all(verify_clique(graph, row.tolist()) for row in system.rows)


def test_q9_seed_rows_are_cliques():
    g = build_group(9)
    graph = build_graph(g, ["5"])
    system = generate_translate_rows(graph, algebraic_clique_seeds(graph)[0])
    assert len(system.rows)
    assert all(len(row) == system.row_size
               and verify_clique(graph, row.tolist()) for row in system.rows)


# -- differential check of the exact-hit solver -------------------------------------


def reference_exactly_one(system, target, meter):
    """Exact-hit search on a trail of undo entries, one vertex and row at a time.

    Unreduced reference for _CoverSolver.exactly_one: the identity pin, then
    plain row branching with the same propagation, and no orbital branching.
    Returns (status, witness).
    """
    graph = system.graph
    group = graph.group
    n = group.order
    rows = _row_masks(system)
    n_rows = len(rows)
    alive = (1 << n) - 1
    row_alive = [r.bit_count() for r in rows]
    row_done = [False] * n_rows
    vrows = [[] for _ in range(n)]
    for ri, mask in enumerate(rows):
        for v in mask_elements(mask):
            vrows[v].append(ri)
    chosen, trail = [], []

    def eliminate(vmask):
        nonlocal alive
        vmask &= alive
        alive &= ~vmask
        removed = mask_elements(vmask)
        for v in removed:
            for ri in vrows[v]:
                row_alive[ri] -= 1
        trail.append(("elim", removed))

    def choose(v):
        chosen.append(v)
        trail.append(("chosen",))
        kill = mask_of(graph.neighbors(v))
        for ri in vrows[v]:
            assert not row_done[ri]
            row_done[ri] = True
            kill |= rows[ri]
        trail.append(("done", list(vrows[v])))
        eliminate(kill & ~(1 << v))
        eliminate(1 << v)

    def undo(mark):
        nonlocal alive
        while len(trail) > mark:
            entry = trail.pop()
            if entry[0] == "elim":
                for v in entry[1]:
                    alive |= 1 << v
                    for ri in vrows[v]:
                        row_alive[ri] += 1
            elif entry[0] == "done":
                for ri in entry[1]:
                    row_done[ri] = False
            else:
                chosen.pop()

    def propagate():
        while True:
            forced = None
            for ri in range(n_rows):
                if not row_done[ri]:
                    if row_alive[ri] == 0:
                        return False
                    if row_alive[ri] == 1:
                        forced = ri
                        break
            if forced is None:
                return True
            m = rows[forced] & alive
            choose((m & -m).bit_length() - 1)

    def search():
        if meter.tick():
            return "exhausted"
        if len(chosen) == target:
            return "found" if all(row_done) else "dead"
        best_ri, best_c = -1, None
        for ri in range(n_rows):
            if not row_done[ri]:
                c = row_alive[ri]
                if c == 0:
                    return "dead"
                if best_c is None or c < best_c:
                    best_ri, best_c = ri, c
                    if c == 1:
                        break
        if best_ri < 0:
            return "dead"
        for v in mask_elements(rows[best_ri] & alive):
            mark = len(trail)
            choose(v)
            if propagate():
                out = search()
                if out != "dead":
                    return out
            undo(mark)
        return "dead"

    choose(group.identity)
    if not propagate():
        return PROVEN_INFEASIBLE, ()
    out = search()
    if out == "found":
        return "FEASIBLE", tuple(sorted(chosen))
    if out == "exhausted":
        return certify.BRACKET, ()
    return PROVEN_INFEASIBLE, ()


def _sylow_system(q, labels):
    g = build_group(q)
    graph = build_graph(g, labels)
    return generate_translate_rows(graph, sylow_subgroup(g, g.field.p).tolist())


@pytest.fixture(scope="module")
def sys_6_13():
    """The pipeline's covering program on G[6,13], on its realized clique."""
    analyzer = Analyzer(13, PipelineConfig())
    analyzer.feasibility_stage()
    analyzer.realization_stage()
    gv = next(gv for gv in analyzer.verdict.graphs if gv.clique_classes == ("6", "13"))
    graph = build_graph(analyzer.group, gv.clique_classes)
    system = generate_translate_rows(graph, gv.stars["omega"]["witness"])
    return system, gv.alpha_target


def _exact_hit(system, witness) -> bool:
    """witness is a coclique of the graph that meets every row exactly once."""
    chosen = mask_from(witness)
    return (len(set(witness)) == len(witness)
            and verify_coclique(system.graph, list(witness))
            and all((mask & chosen).bit_count() == 1 for mask in _row_masks(system)))


def _differential(system, target, nodes=10 ** 6):
    """The solver against the unreduced reference: the same status, and for
    FEASIBLE a witness of the target size re-checked row by row.  The orbit
    deletions change the search trace, so node counts are not compared."""
    res = solve_cover_ilp(system, target, budget=Budget(max_nodes=nodes, max_seconds=3600))
    meter = Budget(max_nodes=nodes, max_seconds=3600).start()
    status, witness = reference_exactly_one(system, target, meter)
    assert res.status == status
    if status == "FEASIBLE":
        assert len(res.witness) == target and _exact_hit(system, res.witness)
        assert _exact_hit(system, witness)
    return res


def test_invalid_witness_is_rejected(monkeypatch):
    system = _sylow_system(5, ["5"])
    good = solve_cover_ilp(system, 12).witness
    dependent = (int(np.flatnonzero(system.graph.neighbors(good[1]))[0]),) + good[1:]
    # the A4 witness also meets every row of G[2,5] once, but there its
    # involutions make edges that no row covers
    wider = _sylow_system(5, ["2", "5"])
    assert not wider.edges_covered
    # too short to hit every row, a dependent set, a repeated vertex, and a
    # dependent set that hits every row once
    for system, target, bad in ((system, 11, good[:11]), (system, 12, dependent),
                                (system, 12, good[1:2] + good[1:]), (wider, 12, good)):
        monkeypatch.setattr(certify._CoverSolver, "exactly_one",
                            lambda self, size, bad=bad: ("FEASIBLE", bad))
        with pytest.raises(AssertionError):
            solve_cover_ilp(system, target)


def test_solver_matches_reference_q5():
    res = _differential(_sylow_system(5, ["5"]), 12)
    assert res.status == "FEASIBLE"


def test_solver_matches_reference_g6_13(sys_6_13):
    res = _differential(*sys_6_13)
    assert res.status == PROVEN_INFEASIBLE and res.nodes == 23


def test_solver_matches_reference_on_budget(sys13):
    # the solver refutes this program in 367 nodes, the reference in 15,390
    res = _differential(sys13, 84, nodes=200)
    assert res.status == certify.BRACKET and res.nodes == 201


@pytest.mark.parametrize("q,labels,base_kind,nodes", [
    (7, ["7"], "sylow", 10 ** 6), (8, ["2"], "sylow", 5000), (11, ["2", "5"], "seed", 10 ** 6),
], ids=lambda v: "-".join(v) if isinstance(v, list) else str(v))
def test_solver_matches_reference_small_q(q, labels, base_kind, nodes):
    if base_kind == "sylow":
        system = _sylow_system(q, labels)
    else:
        graph = build_graph(build_group(q), labels)
        system = generate_translate_rows(graph, algebraic_clique_seeds(graph)[0])
    _differential(system, system.graph.vertex_count // system.row_size, nodes=nodes)


def _fused_unions(qs):
    """Every proper fused class-union graph at each q, with its seed cliques."""
    for q in qs:
        group = build_group(q)
        labels = rational_fusion_scheme(group).nontrivial_labels()
        for k in range(1, len(labels)):
            for pick in itertools.combinations(labels, k):
                graph = build_graph(group, list(pick))
                yield graph, algebraic_clique_seeds(graph)


def _fused_union_programs():
    """Every proper fused class-union graph at q = 5, 7, 8, 9 and 11 with each of
    its two largest seed cliques whose size divides |T|, and that target."""
    for graph, seeds in _fused_unions((5, 7, 8, 9, 11)):
        order = graph.vertex_count
        seeds = [s for s in seeds if order % len(s) == 0]
        for seed in sorted(seeds, key=len, reverse=True)[:2]:
            yield graph, seed, order // len(seed)


def test_solver_matches_reference_on_every_fused_union():
    statuses = Counter()
    for graph, seed, target in _fused_union_programs():
        res = _differential(generate_translate_rows(graph, seed), target, nodes=10 ** 7)
        statuses[res.status] += 1
    # both outcomes occur, so the comparison is not vacuous
    assert statuses == {"FEASIBLE": 35, PROVEN_INFEASIBLE: 145}
