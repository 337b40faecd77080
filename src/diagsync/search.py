"""Exact maximum clique / coclique search on class-union Cayley graphs.

The solver is a bitset branch-and-bound with greedy-coloring bounds.  Vertex
transitivity is exploited twice: every search is pinned to cliques through
the identity (any clique translates to one), and the second vertex ranges
over one representative per conjugacy class of the connection set (the
stabilizer of the identity vertex induces conjugation, and inversion is also
an automorphism fixing the identity).  Algebraic seeds (cliques among the
subgroups of ``psl2.subgroup_library`` and every cyclic subgroup, and unions
of their cosets) provide strong incumbents before any branching.  Every
pinned subproblem, serial or in a worker process, goes through
``_solve_task``.

Certificates record the witness and whether the search was exhaustive; an
independent pairwise verifier re-checks every witness against the adjacency
oracle, so a defective search can never produce an accepted certificate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .graphs import ClassUnionGraph, complement_graph
from .psl2 import PSL2, cyclic_subgroup, mask_elements, mask_from, subgroup_library


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
    elapsed: float
    seed: int
    method: str
    target: int | None = None      # decision searches only
    verified: bool = field(default=False)
    timed_out: bool = False        # stopped by the clock: not reproducible

    def payload(self) -> dict:
        return {
            "kind": self.kind, "graph": self.graph,
            "vertices": list(self.vertices), "size": self.size,
            "exhaustive": self.exhaustive, "nodes": self.nodes,
            "elapsed": round(self.elapsed, 3), "seed": self.seed,
            "method": self.method, "target": self.target,
        }


FOUND = "FOUND"
NONE = "NONE"
EXHAUSTED = "BUDGET_EXHAUSTED"


def verify_clique(graph: ClassUnionGraph, vertices) -> bool:
    verts = list(vertices)
    if len(set(verts)) != len(verts):
        return False
    return all(graph.adjacent(u, v)
               for i, u in enumerate(verts) for v in verts[i + 1:])


def verify_coclique(graph: ClassUnionGraph, vertices) -> bool:
    verts = list(vertices)
    if len(set(verts)) != len(verts):
        return False
    return all(not graph.adjacent(u, v)
               for i, u in enumerate(verts) for v in verts[i + 1:])


# -- algebraic seeds --------------------------------------------------------------


def _seed_subgroups(group: PSL2) -> list[int]:
    """The subgroup library and every cyclic subgroup, by mask; cached on the group."""
    cached = getattr(group, "_seed_subgroups", None)
    if cached is None:
        cyclic = {cyclic_subgroup(group, g) for g in range(group.order) if g != group.identity}
        cached = group._seed_subgroups = sorted(cyclic.union(subgroup_library(group)))
    return cached


def algebraic_clique_seeds(graph: ClassUnionGraph) -> tuple[tuple[int, ...], ...]:
    """Verified cliques from subgroups and unions of subgroup cosets, largest first.

    Memoized per connection set on the group, like its subgroup library.
    """
    memo = getattr(graph.group, "_clique_seeds", None)
    if memo is None:
        memo = graph.group._clique_seeds = {}
    seeds = memo.get(graph.connection)
    if seeds is None:
        seeds = memo[graph.connection] = _clique_seeds(graph)
    return seeds


def _clique_seeds(graph: ClassUnionGraph) -> tuple[tuple[int, ...], ...]:
    group = graph.group
    conn = graph.connection
    idbit = 1 << group.identity
    seeds: list[tuple[int, ...]] = []
    subgroup_cliques: list[int] = []
    for mask in _seed_subgroups(group):
        if mask & ~(conn | idbit):
            continue
        subgroup_cliques.append(mask)
        seeds.append(tuple(mask_elements(mask)))
    # coset-union extension on the larger subgroup cliques
    for mask in subgroup_cliques:
        h = mask_elements(mask)
        if len(h) < 7 or group.order // len(h) > 120:
            continue
        union = _best_coset_union(graph, h)
        if union and len(union) > len(h):
            seeds.append(union)
    seeds.sort(key=len, reverse=True)
    return tuple(seeds)


def _best_coset_union(graph: ClassUnionGraph, h: list[int]):
    """Largest union of right cosets of H that forms a clique (exact, small).

    Cosets Hx and Hy are compatible when H(xy^-1)H lies in the connection
    set; each coset is represented by its least element.  The connection set
    is a union of conjugacy classes, so h1 z h2 lies in it exactly when its
    conjugate z h2 h1 does: HzH lies in it exactly when zH does.
    """
    group = graph.group
    n = group.order
    conn = np.zeros(n, dtype=bool)
    conn[graph.connection_elements()] = True
    inv = np.array([group.inv(x) for x in range(n)])
    left = group.mul_rows(h)                  # left[i, x] = h_i * x: column x is Hx
    reps = np.flatnonzero(left.min(axis=0) == np.arange(n))
    # column z runs over zH, as (h_i z^-1)^-1 = z h_i^-1
    ok = conn[inv[left[:, inv]]].all(axis=0)   # ok[z]: HzH inside the connection set
    quotients = group.mul_rows(reps)[:, inv[reps]]    # reps[i] * reps[j]^-1
    # symmetric, as the connection set is inverse-closed, and false on the
    # diagonal, as it misses the identity
    adj = [mask_from(np.flatnonzero(line).tolist()) for line in ok[quotients]]
    meter = _Meter(200000, time.monotonic() + 5.0)
    best_size, best_mask, _ = _bb_max_clique(adj, 1, meter)
    if best_size <= 1:
        return None
    out = tuple(sorted(left[:, reps[mask_elements(best_mask)]].ravel().tolist()))
    return out if verify_clique(graph, out) else None


# -- core branch and bound ---------------------------------------------------------


class _Hit(Exception):
    pass


def _bb_max_clique(adj: list[int], lower: int, meter: _Meter,
                   target: int | None = None):
    """Max clique on a small graph given as local adjacency masks.

    Returns (best_size, best_mask, complete).  With target set, stops at the
    first clique of at least that size, and complete is False.
    """
    n = len(adj)
    order = _degeneracy_order(adj)
    pos = {v: i for i, v in enumerate(order)}
    radj = [0] * n
    for v in range(n):
        radj[pos[v]] = mask_from(pos[u] for u in mask_elements(adj[v]))
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
    out = mask_from(order[i] for i in mask_elements(state["mask"]))
    return state["best"], out, state["complete"]


def _degeneracy_order(adj: list[int]) -> list[int]:
    n = len(adj)
    alive = (1 << n) - 1
    deg = [adj[v].bit_count() for v in range(n)]
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


def _centralizer_orbits(group: PSL2, rep: int, cand_mask: int) -> list[tuple[int, int]]:
    """Orbits of the centralizer of rep (acting by conjugation) on a vertex set.

    Conjugation by a centralizer element fixes both the identity vertex and
    rep, so within the pinned search the candidates can be explored one orbit
    representative at a time.  Returns (min_vertex, orbit_mask) pairs.
    """
    cent = [c for c in range(group.order)
            if group.mul(c, rep) == group.mul(rep, c)]
    orbits: list[tuple[int, int]] = []
    remaining = cand_mask
    while remaining:
        low = remaining & -remaining
        v = low.bit_length() - 1
        omask = mask_from(group.conj(v, c) for c in cent) & cand_mask
        orbits.append((v, omask))
        remaining &= ~omask
    return orbits


def _localize(graph: ClassUnionGraph, cand_mask: int):
    verts = mask_elements(cand_mask)
    index = {v: i for i, v in enumerate(verts)}
    adj = [mask_from(index[u] for u in mask_elements(graph.neighbors(v) & cand_mask))
           for v in verts]
    return verts, adj


def _pinned_tasks(graph: ClassUnionGraph, floor_size: int):
    """Deterministic list of (rep, v, cand_mask) subproblems covering the search.

    Branching at level two runs over class representatives in order; branch i
    commits to a clique meeting class i, so later branches exclude the whole
    class (any clique through the identity conjugates to one whose
    least-ranked class vertex is the representative).  Level three applies
    the same idea to centralizer orbits.
    """
    group = graph.group
    classes = group.conjugacy_classes()
    tasks = []
    excluded = 0
    for rep in _class_reps_in_connection(graph):
        cid = group.class_of(rep)
        pair_mask = graph.neighbors(group.identity) & graph.neighbors(rep)
        pair_mask &= ~((1 << group.identity) | (1 << rep) | excluded)
        excluded |= classes[cid].members | classes[classes[cid].inverse_class].members
        if pair_mask.bit_count() + 2 <= floor_size:
            continue
        processed = 0
        for v, omask in _centralizer_orbits(group, rep, pair_mask):
            cand_mask = pair_mask & ~processed & graph.neighbors(v)
            processed |= omask
            tasks.append((rep, v, cand_mask))
    return tasks


def _solve_task(graph: ClassUnionGraph, rep: int, v: int, cand_mask: int, lower: int,
                meter: _Meter, target: int | None = None):
    """Search one pinned subproblem for a clique through the identity, rep and v.

    Returns (witness, complete): the sorted clique when it has more than
    lower + 3 vertices, else None.
    """
    verts, adj = _localize(graph, cand_mask)
    size, mask, complete = _bb_max_clique(adj, lower, meter, target)
    if size <= lower:
        return None, complete
    found = [graph.group.identity, rep, v] + [verts[i] for i in mask_elements(mask)]
    return tuple(sorted(found)), complete


_POOL_GRAPH: ClassUnionGraph | None = None


def _pool_solve(args):
    rep, v, cand_mask, lower, max_nodes, seconds = args
    meter = _Meter(max_nodes, time.monotonic() + seconds)
    witness, complete = _solve_task(_POOL_GRAPH, rep, v, cand_mask, lower, meter)
    return witness, complete, meter.nodes, meter.timed_out


def max_clique(graph: ClassUnionGraph, budget: Budget | None = None,
               seed: int = 0, threads: int = 1) -> SearchCertificate:
    """Exact maximum clique; exhaustive unless the budget runs out.

    With threads > 1 and at least four pinned subproblems, the first runs
    here to warm the incumbent and the rest run in worker processes, each
    under the whole budget; the proven optimum does not depend on the worker
    count.
    """
    budget = budget or Budget()
    t0 = time.monotonic()
    meter = budget.start()
    group = graph.group
    best = max(algebraic_clique_seeds(graph), key=len, default=(group.identity,))
    complete = True
    pending = [task for task in _pinned_tasks(graph, len(best))
               if task[2].bit_count() + 3 > len(best)]
    pooled = pending[1:] if threads > 1 and len(pending) >= 4 else []
    for rep, v, cand_mask in pending[:len(pending) - len(pooled)]:
        if cand_mask.bit_count() + 3 <= len(best):
            continue
        witness, ok = _solve_task(graph, rep, v, cand_mask, len(best) - 3, meter)
        complete = complete and ok
        best = witness or best
        if meter.exhausted:
            complete = False
            break
    if pooled:
        import multiprocessing as mp
        remaining = max(5.0, budget.max_seconds - (time.monotonic() - t0))
        global _POOL_GRAPH
        _POOL_GRAPH = graph
        graph.neighbors(group.identity)  # ensure caches exist before fork
        args = [(rep, v, cand, len(best) - 3, budget.max_nodes, remaining)
                for rep, v, cand in pooled]
        with mp.get_context("fork").Pool(processes=threads) as pool:
            for witness, ok, nodes, timed_out in pool.imap(_pool_solve, args):
                meter.nodes += nodes
                meter.timed_out |= timed_out
                complete = complete and ok
                if witness and len(witness) > len(best) and verify_clique(graph, witness):
                    best = witness
        _POOL_GRAPH = None
    cert = SearchCertificate(
        kind="clique", graph=graph.descriptor(), vertices=tuple(sorted(best)),
        size=len(best), exhaustive=complete, nodes=meter.nodes,
        elapsed=time.monotonic() - t0, seed=seed,
        method="pinned-bb" + (f"-x{threads}" if threads > 1 else ""),
        timed_out=meter.timed_out)
    cert.verified = verify_clique(graph, cert.vertices)
    if not cert.verified:
        raise AssertionError("search produced an invalid clique witness")
    return cert


def max_coclique(graph: ClassUnionGraph, budget: Budget | None = None,
                 seed: int = 0, threads: int = 1) -> SearchCertificate:
    """Exact maximum coclique via the complement graph's cliques."""
    cert = max_clique(complement_graph(graph), budget, seed, threads)
    out = SearchCertificate(
        kind="coclique", graph=graph.descriptor(), vertices=cert.vertices,
        size=cert.size, exhaustive=cert.exhaustive, nodes=cert.nodes,
        elapsed=cert.elapsed, seed=seed, method=cert.method,
        timed_out=cert.timed_out)
    out.verified = verify_coclique(graph, out.vertices)
    if not out.verified:
        raise AssertionError("search produced an invalid coclique witness")
    return out


def find_clique_of_size(graph: ClassUnionGraph, k: int,
                        distribution: dict[str, int] | None = None,
                        budget: Budget | None = None, seed: int = 0):
    """Decision search: a clique of size exactly k, a proven NONE, or EXHAUSTED.

    distribution, when given, maps class labels to the exact number of
    unordered within-clique pairs whose quotient lies in that class; found
    witnesses are filtered against it.
    """
    budget = budget or Budget()
    t0 = time.monotonic()
    meter = budget.start()
    group = graph.group
    if k <= 0 or k > graph.vertex_count:
        raise ValueError("clique size out of range")
    if k == 1:
        cert = _decision_cert(graph, (group.identity,), True, meter, t0, seed, k)
        return FOUND, cert
    for seed_clique in algebraic_clique_seeds(graph):
        if len(seed_clique) >= k:
            for sub in (seed_clique[:k],):
                if verify_clique(graph, sub) and _matches(graph, sub, distribution):
                    return FOUND, _decision_cert(graph, sub, False, meter, t0, seed, k)
    if k == 2:
        reps = _class_reps_in_connection(graph)
        if reps:
            return FOUND, _decision_cert(graph, (group.identity, reps[0]), False,
                                         meter, t0, seed, k)
        return NONE, _decision_cert(graph, (), True, meter, t0, seed, k)
    complete = True
    for rep, v, cand_mask in _pinned_tasks(graph, k - 1 if k > 3 else 2):
        if k == 3:
            witness = tuple(sorted((group.identity, rep, v)))
            if _matches(graph, witness, distribution):
                return FOUND, _decision_cert(graph, witness, False, meter, t0, seed, k)
            complete = False
            continue
        if cand_mask.bit_count() + 3 < k:
            continue
        witness, ok = _solve_task(graph, rep, v, cand_mask, k - 4, meter, target=k - 3)
        if witness:
            if _matches(graph, witness, distribution):
                return FOUND, _decision_cert(graph, witness, False, meter, t0, seed, k)
            complete = False  # witness rejected by distribution: not exhaustive
        complete = complete and ok
        if meter.exhausted:
            complete = False
            break
    if complete:
        return NONE, _decision_cert(graph, (), True, meter, t0, seed, k)
    return EXHAUSTED, _decision_cert(graph, (), False, meter, t0, seed, k)


def _matches(graph: ClassUnionGraph, vertices, distribution) -> bool:
    if distribution is None:
        return True
    group = graph.group
    fused = group.fusion_orbits()
    counts: dict[str, int] = {}
    verts = list(vertices)
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            lab = fused[group.conjugacy_classes()[
                group.class_of(group.mul(u, group.inv(v)))].fusion_orbit].label
            counts[lab] = counts.get(lab, 0) + 1
    return counts == {k: v for k, v in distribution.items() if v}


def _decision_cert(graph, vertices, exhaustive, meter, t0, seed, k):
    cert = SearchCertificate(
        kind="clique", graph=graph.descriptor(), vertices=tuple(vertices),
        size=len(vertices), exhaustive=exhaustive, nodes=meter.nodes,
        elapsed=time.monotonic() - t0, seed=seed, method="pinned-bb-decision",
        target=k, timed_out=meter.timed_out)
    if vertices:
        cert.verified = verify_clique(graph, cert.vertices)
        if not cert.verified:
            raise AssertionError("decision search produced an invalid witness")
    else:
        cert.verified = True
    return cert
