"""Exact maximum clique / coclique search on class-union Cayley graphs.

The solver is a bitset branch-and-bound with greedy-coloring bounds.  Vertex
transitivity is exploited twice: every search is pinned to cliques through
the identity (any clique translates to one), and the second vertex ranges
over one representative per conjugacy class of the connection set (the
stabilizer of the identity vertex induces conjugation, and inversion is also
an automorphism fixing the identity).  Algebraic seeds (cliques among the
subgroups of ``psl2.subgroup_library`` and every cyclic subgroup, and unions
of their cosets) provide strong incumbents before any branching.  Coset
unions are searched once per conjugacy class of subgroup and carried to the
other members by conjugation, an automorphism of the graph; conjugates have
unions of equal size, so only seeds after the first may differ from a search
per member.  One serial loop, ``_pinned_search``, solves the pinned
subproblems in order through ``_solve_task`` for both the maximum and the
decision searches.  A subproblem's local graph is one boolean matrix, built by
one product gather (u ~ v exactly when u*v^-1 lies in the connection set);
the degeneracy order comes from a degree vector over it, and its relabelled
rows are packed into bitsets by one packbits call.

Certificates record the witness and whether the search was exhaustive; an
independent pairwise verifier re-checks every witness by the same gather
over all its pairs, so a defective search can never produce an accepted
certificate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .graphs import ClassUnionGraph, complement_graph
from .psl2 import PSL2, cyclic_subgroup, distinct_sets, mask_elements, orbits, subgroup_library


@dataclass
class Budget:
    max_nodes: int = 10 ** 9
    max_seconds: float = 1800.0

    def start(self) -> "_Meter":
        return _Meter(self.max_nodes, time.monotonic() + self.max_seconds)


@dataclass
class _Meter:
    max_nodes: int
    deadline: float
    nodes: int = 0
    exhausted: bool = False
    timed_out: bool = False        # the deadline, not the node cap, set exhausted

    def tick(self) -> bool:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            self.exhausted = True
        elif self.nodes % 2048 == 0 and time.monotonic() > self.deadline:
            self.exhausted = self.timed_out = True
        return self.exhausted


@dataclass
class SearchCertificate:
    kind: str                      # "clique" or "coclique"
    graph: dict
    vertices: tuple[int, ...]
    size: int
    exhaustive: bool
    nodes: int
    method: str
    target: int | None = None      # decision searches only
    verified: bool = field(default=False)
    timed_out: bool = False        # stopped by the clock: not reproducible

    def payload(self) -> dict:
        return {
            "kind": self.kind, "graph": self.graph,
            "vertices": list(self.vertices), "size": self.size,
            "exhaustive": self.exhaustive, "nodes": self.nodes,
            "method": self.method, "target": self.target,
        }


FOUND = "FOUND"
NONE = "NONE"
EXHAUSTED = "BUDGET_EXHAUSTED"


def _local_adjacency(graph: ClassUnionGraph, verts: np.ndarray) -> np.ndarray:
    """adj[i, j]: verts[i] ~ verts[j], that is verts[i] * verts[j]^-1 lies in
    the connection set; one product gather, false on the diagonal."""
    group = graph.group
    return graph.connection[group.mul_outer(verts, group.inverses()[verts])]


def _pairwise(graph: ClassUnionGraph, vertices, adjacent: bool) -> bool:
    """Whether the vertices are distinct group elements, every two of them
    adjacent (or, with adjacent False, every two non-adjacent)."""
    verts = list(vertices)
    n = graph.vertex_count
    if len(set(verts)) != len(verts) or not all(
            isinstance(u, (int, np.integer)) and 0 <= u < n for u in verts):
        return False            # checked first: numpy wraps negative indices
    pairs = _local_adjacency(graph, np.array(verts, dtype=np.intp))
    np.fill_diagonal(pairs, adjacent)
    return bool(pairs.all()) if adjacent else not pairs.any()


def verify_clique(graph: ClassUnionGraph, vertices) -> bool:
    return _pairwise(graph, vertices, True)


def verify_coclique(graph: ClassUnionGraph, vertices) -> bool:
    return _pairwise(graph, vertices, False)


# -- algebraic seeds --------------------------------------------------------------


def _seed_subgroups(group: PSL2) -> list[np.ndarray]:
    """The subgroup library and every cyclic subgroup in psl2.distinct_sets
    order; cached on the group."""
    cached = getattr(group, "_seed_subgroups", None)
    if cached is None:
        cyclic = [cyclic_subgroup(group, g) for g in range(group.order) if g != group.identity]
        cached = group._seed_subgroups = distinct_sets(cyclic + list(subgroup_library(group)))
    return cached


def _union_classes(group: PSL2) -> dict[int, tuple[int, int]]:
    """(rep, g) with H = g^-1 rep g for each seed subgroup H large enough for a
    coset-union search, rep the first of its conjugacy class in seed order,
    subgroups by their index in seed order; cached on the group."""
    if getattr(group, "_union_classes", None) is None:
        group._union_classes, found = {}, {}    # found: each conjugate of a rep: (rep, g)
        every = np.arange(group.order)
        for i, h in enumerate(_seed_subgroups(group)):
            if len(h) >= 7 and group.order // len(h) <= 120:
                if h.tobytes() not in found:      # row g: sorted g^-1 H g, least g first
                    conj = np.sort(group.conjugate(h, every[:, None]), axis=1).astype(h.dtype)
                    found.update((conj[g].tobytes(), (i, g)) for g in every[::-1].tolist())
                group._union_classes[i] = found[h.tobytes()]
    return group._union_classes


def algebraic_clique_seeds(graph: ClassUnionGraph) -> tuple[tuple[int, ...], ...]:
    """Verified cliques from subgroups and unions of subgroup cosets, largest first.

    Memoized per class set on the group, like its subgroup library.
    """
    memo = getattr(graph.group, "_clique_seeds", None)
    if memo is None:
        memo = graph.group._clique_seeds = {}
    seeds = memo.get(graph.class_ids)
    if seeds is None:
        seeds = memo[graph.class_ids] = _clique_seeds(graph)
    return seeds


def _clique_seeds(graph: ClassUnionGraph) -> tuple[tuple[int, ...], ...]:
    group = graph.group
    subgroups = _seed_subgroups(group)
    # the subgroups inside the connection set and the identity, in one gather
    allowed = graph.connection.copy()
    allowed[group.identity] = True
    starts = np.cumsum([0] + [len(h) for h in subgroups[:-1]])
    cliques = np.flatnonzero(np.logical_and.reduceat(allowed[np.concatenate(subgroups)],
                                                     starts)).tolist()
    seeds = [tuple(subgroups[i].tolist()) for i in cliques]
    # coset-union extension on the larger subgroup cliques, searched once per
    # class: conjugation by g carries the representative's union to H's
    classes, unions = _union_classes(group), {}     # unions[H]: (union, exhaustive)
    for i in filter(classes.__contains__, cliques):
        rep, g = classes[i]
        if i == rep or not unions[rep][1]:      # a class's first, or its search stopped
            unions[i] = _best_coset_union(graph, subgroups[i])
            union = unions[i][0]
        elif union := unions[rep][0]:
            union = tuple(sorted(group.conjugate(np.array(union), g).tolist()))
            union = union if verify_clique(graph, union) else None
        if union and len(union) > len(subgroups[i]):
            seeds.append(union)
    seeds.sort(key=len, reverse=True)
    return tuple(seeds)


def _best_coset_union(graph: ClassUnionGraph, h: np.ndarray):
    """Largest union of right cosets of H that forms a clique (exact, small),
    or None, and whether the search was exhaustive.

    Cosets Hx and Hy are compatible when H(xy^-1)H lies in the connection
    set; each coset is represented by its least element.  The connection set
    is a union of conjugacy classes, so h1 z h2 lies in it exactly when its
    conjugate z h2 h1 does: HzH lies in it exactly when zH does.
    """
    group = graph.group
    n = group.order
    conn = graph.connection
    inv = group.inverses()
    left = group.mul_rows(h)                  # left[i, x] = h_i * x: column x is Hx
    reps = np.flatnonzero(left.min(axis=0) == np.arange(n))
    # column z runs over zH, as (h_i z^-1)^-1 = z h_i^-1
    ok = conn[inv[left[:, inv]]].all(axis=0)   # ok[z]: HzH inside the connection set
    quotients = group.mul_rows(reps)[:, inv[reps]]    # reps[i] * reps[j]^-1
    # symmetric, as the connection set is inverse-closed, and false on the
    # diagonal, as it misses the identity
    # no clock: the seeds, and the capped searches they start, must not
    # depend on the machine's speed
    meter = _Meter(200000, math.inf)
    best_size, members, complete = _bb_max_clique(ok[quotients], 1, meter)
    if best_size <= 1:
        return None, complete
    out = tuple(sorted(left[:, reps[members]].ravel().tolist()))
    return out if verify_clique(graph, out) else None, complete


# -- core branch and bound ---------------------------------------------------------


class _Hit(Exception):
    pass


def _bb_max_clique(adj: np.ndarray, lower: int, meter: _Meter,
                   target: int | None = None):
    """Max clique on a small graph given as a symmetric boolean matrix.

    Returns (best_size, members, complete), members the sorted matrix indices
    of the best clique found.  With target set, stops at the first clique of
    at least that size, and complete is False.
    """
    n = len(adj)
    order = _degeneracy_order(adj)
    packed = np.packbits(adj[np.ix_(order, order)], axis=1, bitorder="little")
    radj = [int.from_bytes(row, "little") for row in packed]
    state = {"best": lower if target is None else min(lower, target - 1),
             "mask": 0, "complete": True}
    full = (1 << n) - 1

    def expand(rsize: int, rmask: int, cand: int):
        if meter.tick():
            state["complete"] = False
            return
        best = state["best"]
        if rsize + cand.bit_count() <= best:
            return
        if not cand:
            if rsize > best:
                state["best"] = rsize
                state["mask"] = rmask
                if target is not None and rsize >= target:
                    raise _Hit
            return
        adj_l = radj
        order_v = []
        bounds = []
        append_v = order_v.append
        append_b = bounds.append
        m = cand
        color = 0
        while m:
            color += 1
            avail = m
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                avail &= ~(adj_l[v] | b)
                m ^= b
                append_v(v)
                append_b(color)
        p = cand
        for i in range(len(order_v) - 1, -1, -1):
            if rsize + bounds[i] <= state["best"]:
                return
            v = order_v[i]
            bit = 1 << v
            sub = p & adj_l[v]
            if sub:
                expand(rsize + 1, rmask | bit, sub)
                if meter.exhausted:
                    state["complete"] = False
                    return
            elif rsize + 1 > state["best"]:
                state["best"] = rsize + 1
                state["mask"] = rmask | bit
                if target is not None and rsize + 1 >= target:
                    raise _Hit
            p &= ~bit
    try:
        expand(0, 0, full)
    except _Hit:
        state["complete"] = False     # state already holds the hit
    members = np.sort(order[mask_elements(state["mask"])])
    return state["best"], members, state["complete"]


def _degeneracy_order(adj: np.ndarray) -> np.ndarray:
    """Vertices by repeatedly removing one of least remaining degree, the
    lowest index among ties."""
    n = len(adj)
    deg = adj.sum(axis=1, dtype=np.int64)
    order = np.empty(n, dtype=np.intp)
    for k in range(n):
        v = int(deg.argmin())
        order[k] = v
        deg -= adj[v]
        deg[v] = 2 * n      # a removed vertex loses at most n - 1 more
    return order


# -- pinned searches over the whole Cayley graph -------------------------------------


def _class_reps_in_connection(graph: ClassUnionGraph) -> list[int]:
    group = graph.group
    classes = group.conjugacy_classes()
    reps = []
    seen = set()
    for cid in graph.class_ids:
        key = min(cid, classes[cid].inverse_class)
        if key not in seen:
            seen.add(key)
            reps.append(classes[key].rep)
    return reps


def _localize(graph: ClassUnionGraph, cand: np.ndarray):
    """The candidates in increasing order and the subgraph they induce."""
    verts = np.flatnonzero(cand)
    return verts, _local_adjacency(graph, verts)


def _pinned_tasks(graph: ClassUnionGraph, floor_size: int):
    """Deterministic list of (rep, v, candidates) subproblems covering the search,
    the candidates a boolean vertex array.

    Branching at level two runs over class representatives in order; branch i
    commits to a clique meeting class i, so later branches exclude the whole
    class (any clique through the identity conjugates to one whose
    least-ranked class vertex is the representative).  Level three applies
    the same idea to orbits of the centralizer of rep: conjugation by it
    fixes both the identity vertex and rep, so one vertex per orbit is tried.
    """
    group = graph.group
    classes, class_of = group.conjugacy_classes(), group.class_of_array()
    conn = graph.connection
    every, inv = np.arange(group.order), group.inverses()
    tasks = []
    excluded = np.zeros(group.order, dtype=bool)
    for rep in _class_reps_in_connection(graph):
        # the common neighbours of the identity and rep (u ~ x when u * x^-1
        # lies in the connection set), which include neither of them
        pair = conn & conn[group.mul_pairs(every, inv[rep])] & ~excluded
        cid = class_of[rep]
        excluded |= (class_of == cid) | (class_of == classes[cid].inverse_class)
        if np.count_nonzero(pair) + 2 <= floor_size:
            continue
        processed = np.zeros(group.order, dtype=bool)
        cent = np.flatnonzero(group.mul_pairs(every, rep) == group.mul_pairs(rep, every))
        for v, orbit in orbits(group.conjugate(every, cent[:, None]), pair):
            tasks.append((rep, v, pair & ~processed & conn[group.mul_pairs(every, inv[v])]))
            processed |= orbit
    return tasks


def _solve_task(graph: ClassUnionGraph, rep: int, v: int, cand: np.ndarray, lower: int,
                meter: _Meter, target: int | None = None):
    """Search one pinned subproblem for a clique through the identity, rep and v.

    Returns (witness, complete): the sorted clique when it has more than
    lower + 3 vertices, else None.
    """
    verts, adj = _localize(graph, cand)
    size, members, complete = _bb_max_clique(adj, lower, meter, target)
    if size <= lower:
        return None, complete
    found = [graph.group.identity, rep, v] + verts[members].tolist()
    return tuple(sorted(found)), complete


def _pinned_search(graph: ClassUnionGraph, size: int, meter: _Meter,
                   target: int | None = None):
    """Solve the pinned subproblems in order, each from the largest clique so
    far, at first one of the given size found elsewhere.

    Returns (witness, complete): the largest clique found with more than size
    vertices, else None.  With target set, stops at the first clique of at
    least target vertices, and complete is then False.
    """
    witness, complete = None, True
    for rep, v, cand in _pinned_tasks(graph, size):
        if np.count_nonzero(cand) + 3 <= size:
            continue
        found, ok = _solve_task(graph, rep, v, cand, size - 3, meter,
                                None if target is None else target - 3)
        complete = complete and ok
        if found:
            witness, size = found, len(found)
            if target is not None:
                return witness, False
        if meter.exhausted:
            return witness, False
    return witness, complete


def max_clique(graph: ClassUnionGraph, budget: Budget | None = None) -> SearchCertificate:
    """Exact maximum clique; exhaustive unless the budget runs out."""
    meter = (budget or Budget()).start()
    best = max(algebraic_clique_seeds(graph), key=len, default=(graph.group.identity,))
    witness, complete = _pinned_search(graph, len(best), meter)
    best = witness or best
    cert = SearchCertificate(
        kind="clique", graph=graph.descriptor(), vertices=tuple(sorted(best)),
        size=len(best), exhaustive=complete, nodes=meter.nodes,
        method="pinned-bb", timed_out=meter.timed_out)
    cert.verified = verify_clique(graph, cert.vertices)
    if not cert.verified:
        raise AssertionError("search produced an invalid clique witness")
    return cert


def max_coclique(graph: ClassUnionGraph, budget: Budget | None = None) -> SearchCertificate:
    """Exact maximum coclique via the complement graph's cliques."""
    cert = max_clique(complement_graph(graph), budget)
    out = SearchCertificate(
        kind="coclique", graph=graph.descriptor(), vertices=cert.vertices,
        size=cert.size, exhaustive=cert.exhaustive, nodes=cert.nodes,
        method=cert.method, timed_out=cert.timed_out)
    out.verified = verify_coclique(graph, out.vertices)
    if not out.verified:
        raise AssertionError("search produced an invalid coclique witness")
    return out


def find_clique_of_size(graph: ClassUnionGraph, k: int,
                        budget: Budget | None = None):
    """Decision search: a clique of size exactly k, a proven NONE, or EXHAUSTED."""
    meter = (budget or Budget()).start()
    group = graph.group
    if k <= 0 or k > graph.vertex_count:
        raise ValueError("clique size out of range")
    if k == 1:
        return FOUND, _decision_cert(graph, (group.identity,), True, meter, k)
    for seed_clique in algebraic_clique_seeds(graph):
        if len(seed_clique) >= k and verify_clique(graph, seed_clique[:k]):
            return FOUND, _decision_cert(graph, seed_clique[:k], False, meter, k)
    if k == 2:
        reps = _class_reps_in_connection(graph)
        if reps:
            return FOUND, _decision_cert(graph, (group.identity, reps[0]), False, meter, k)
        return NONE, _decision_cert(graph, (), True, meter, k)
    if k == 3:      # each pinned task is a triangle through the identity
        tasks = _pinned_tasks(graph, 2)
        hit = tuple(sorted((group.identity, *tasks[0][:2]))) if tasks else ()
        return FOUND if hit else NONE, _decision_cert(graph, hit, not hit, meter, k)
    witness, complete = _pinned_search(graph, k - 1, meter, target=k)
    status = FOUND if witness else NONE if complete else EXHAUSTED
    # a hit is recorded at a leaf, so it may pass k: any k of its vertices are a clique
    return status, _decision_cert(graph, (witness or ())[:k], complete, meter, k)


def _decision_cert(graph, vertices, exhaustive, meter, k):
    cert = SearchCertificate(
        kind="clique", graph=graph.descriptor(), vertices=tuple(vertices),
        size=len(vertices), exhaustive=exhaustive, nodes=meter.nodes,
        method="pinned-bb-decision", target=k, timed_out=meter.timed_out)
    if vertices:
        cert.verified = verify_clique(graph, cert.vertices)
        if not cert.verified:
            raise AssertionError("decision search produced an invalid witness")
    else:
        cert.verified = True
    return cert
