"""Exact-hit covering programs built from clique translates.

Given a verified clique C of a class-union graph, the automorphisms generated
by two-sided translations, inversion, and those outer maps (diagonal PGL
conjugation, field automorphisms) that fix the connection set move C around
the vertex set; each image is again a clique and becomes a row.  In the
equality case of the clique-coclique bound a coclique of size |T|/|C| meets
every row exactly once, so the program asks one question: is there an
independent set of the target size that hits every row exactly once?  Its
proven infeasibility refutes that size.

Rows come in right-translation families {S t : t in T}, one per conjugate
shape S of C, and are held as one array of sorted vertex rows, like every
element set outside the two bit-parallel searches (see ``psl2``).  S t = S t'
exactly when t' lies in the coset H t of the right stabilizer H of S, so a
family keeps the t that are least in their cosets: an exact dedup with no
hashing.  Two families are equal or disjoint, and S is a row of an earlier
family exactly when S s^-1 (s in S) is one of its rows through the identity;
such a shape adds no rows and is skipped.  Each new family is re-verified
from its rows through the identity: those are checked pair by pair against
the connection set, and every row r must give one of them as r r0^-1, r0
its first vertex.  Then r = (r r0^-1) r0 is a right translate of a checked
clique, and right translation preserves adjacency, (u t)(v t)^-1 = u v^-1,
so r is a clique too.  For the same reason an edge {u, v} lies in a row
exactly when u v^-1 lies in a row through the identity, so the rows through
the identity decide whether the rows cover every edge.

The solver is a propagation-based exact branch-and-bound over binary choices
(no floating point).  The row system is closed under right translation, which
preserves adjacency and pair labels, so every solution has a translate through
the identity and the search pins it first.  The state lives in arrays: an
alive flag per vertex, the chosen vertices and the alive count of every row,
a done row raised above every open count so one argmin finds the least open
row.  Choosing v removes K0 v, K0 being what choosing the identity removes
(itself, its neighbours and its rows): right translation by v maps these onto
v's.  Removing vertices subtracts one bincount over their vertex-row
incidence from the row counts.  Every vertex lies in the same number of rows,
so the incidence is one stable argsort of the vertex array, reshaped to a row
of row indices per vertex.  Each branch is undone by restoring the snapshot
taken at its node.

Branching is orbital (Ostrowski, Linderoth, Rossi & Smriglio, "Orbital
branching", Math. Programming 2011).  Conjugation by any group element maps
the rows and the edges onto themselves, so the state also holds Gamma, the
elements that commute with every chosen vertex (all of them after the
identity pin).  Each branch takes the first not-done row of least alive
count, after forcing every row left with one alive vertex.  While Gamma is
nontrivial it takes the row's lowest alive vertex v and branches two ways:
choose v, which shrinks Gamma to the elements that also commute with v, or
delete v's Gamma-orbit.  That is sound because every deleted set is
Gamma-invariant: a kill set is fixed by whatever fixes its chosen vertex,
and a deleted orbit is an orbit of a group that contains the current Gamma.
The alive vertices are therefore Gamma-invariant, and an element of Gamma
carrying a solution through the orbit onto v gives one that chooses v.
Once Gamma is trivial each branch takes the row's alive vertices in
ascending order.  A returned witness is re-checked as a coclique that hits
every row exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import ClassUnionGraph
from .psl2 import PSL2, outer_maps
from .search import Budget, verify_clique, verify_coclique

PROVEN_INFEASIBLE = "PROVEN_INFEASIBLE"
FEASIBLE = "FEASIBLE"
BRACKET = "BUDGET_BRACKET"


@dataclass(eq=False)
class TranslateRowSystem:
    graph: ClassUnionGraph
    base_clique: tuple[int, ...]
    rows: np.ndarray                     # (rows, row size): sorted vertices per row
    generator_note: str
    edges_covered: bool

    @property
    def row_size(self) -> int:
        return len(self.base_clique)

    def descriptor(self) -> dict:
        return {
            "graph": self.graph.descriptor(),
            "base_clique": list(self.base_clique),
            "rows": len(self.rows),
            "row_size": self.row_size,
            "edges_covered": self.edges_covered,
            "generators": self.generator_note,
        }


@dataclass
class CoverBound:
    status: str
    target: int
    witness: tuple[int, ...]
    nodes: int
    system: dict
    notes: list[str] = field(default_factory=list)
    timed_out: bool = False        # stopped by the clock: not reproducible

    def payload(self) -> dict:
        return {
            "kind": "exact_hit", "status": self.status, "target": self.target,
            "witness": list(self.witness), "nodes": self.nodes,
            "system": self.system, "notes": self.notes,
        }


# -- row generation ----------------------------------------------------------------


def _automorphism_perms(graph: ClassUnionGraph) -> tuple[np.ndarray, str]:
    """Vertex permutations that move the conjugate shapes of a base clique.

    Conjugation by each generator and inversion fix every inverse-closed
    union of classes; the outer maps (field automorphisms, diagonal PGL
    conjugation) may permute classes, so each is kept only when it maps the
    connection set onto itself.  Returns the permutations, one row each, and
    the note that names the maps used.
    """
    group = graph.group
    every = np.arange(group.order)
    perms = [group.conjugate(every, g) for g in group.generators()]
    note = "two-sided translations, inversion"
    conn = graph.connection_elements()
    for name, perm in outer_maps(group):
        if graph.connection[perm[conn]].all():       # a bijection into the set is onto it
            perms.append(perm)
            note += ", " + name
    perms.append(group.inverses())
    return np.stack(perms), note


def _right_translates(group: PSL2, shape: np.ndarray) -> np.ndarray:
    """The distinct translates shape*t as sorted vertex rows, in order of their first t.

    shape*t = shape*t' exactly when t' lies in the coset H t of the right
    stabilizer H = {h : shape*h = shape}, so the first t of each translate
    is the least element of its coset.
    """
    keys = np.sort(group.mul_rows(shape), axis=0)      # column t: sorted shape*t
    stab = np.flatnonzero((keys == keys[:, [group.identity]]).all(axis=0))
    first = group.mul_rows(stab).min(axis=0) == np.arange(group.order)
    return np.ascontiguousarray(keys[:, first].T)


def _recheck_cliques(group: PSL2, family: np.ndarray, ident: np.ndarray,
                     conn: np.ndarray) -> None:
    """Check u * v^-1 against the connection set for every ordered pair of
    every row through the identity, and that every row r of the family gives
    one of those rows as r * r[0]^-1."""
    k = family.shape[1]
    inv = group.inverses()
    quotients = group.mul_pairs(ident[:, :, None], inv[ident][:, None, :])
    rebased = np.sort(group.mul_pairs(family, inv[family[:, :1]]), axis=1)
    if ((np.count_nonzero(conn[quotients], axis=(1, 2)) != k * (k - 1)).any()
            or not np.isin(_row_keys(rebased), _row_keys(ident)).all()):
        raise AssertionError("translate image failed clique re-verification")


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row, equal exactly when the rows are equal."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


def generate_translate_rows(graph: ClassUnionGraph, clique) -> TranslateRowSystem:
    """Distinct images of a verified clique under translations and outer maps.

    One family of right translates per conjugate shape that is not yet a
    row, each re-checked from its rows through the identity; see the module
    docstring.
    """
    group = graph.group
    base = tuple(sorted(clique))
    if not verify_clique(graph, base):
        raise ValueError("base set is not a clique of the graph")
    perms, note = _automorphism_perms(graph)
    inv = group.inverses()
    k = len(base)

    # conjugates of the base set (orbit under conjugation and outer maps),
    # each a sorted vertex row keyed by its bytes
    frontier = np.array([base], dtype=inv.dtype)
    seen = {frontier[0].tobytes()}
    shapes = [frontier]
    while len(frontier):
        images = np.sort(perms[:, frontier], axis=2).swapaxes(0, 1).reshape(-1, k)
        fresh = []
        for i, img in enumerate(images):
            key = img.tobytes()
            if key not in seen:
                seen.add(key)
                fresh.append(i)
        frontier = images[fresh]
        shapes.append(frontier)

    # right translates of every conjugate shape, one family per new shape
    conn = graph.connection
    families, through_identity = [], []
    known: set[bytes] = set()            # the rows through the identity
    shapes = np.concatenate(shapes)
    keys = np.sort(group.mul_pairs(shapes, inv[shapes[:, :1]]), axis=1)
    for shape, key in zip(shapes, keys):
        if key.tobytes() in known:
            continue
        family = _right_translates(group, shape)
        ident = family[(family == group.identity).any(axis=1)]
        _recheck_cliques(group, family, ident, conn)
        known.update(row.tobytes() for row in ident)
        families.append(family)
        through_identity.append(ident)
    # an edge {u, v} lies in a row exactly when u v^-1 lies in a row through the identity
    edges_covered = bool(np.isin(graph.connection_elements(),
                                 np.concatenate(through_identity)).all())
    return TranslateRowSystem(graph, base, np.concatenate(families), note, edges_covered)


# -- exact solving ------------------------------------------------------------------


def solve_cover_ilp(system: TranslateRowSystem, target_size: int,
                    budget: Budget | None = None) -> CoverBound:
    """Decide whether an independent set of target_size meets every row exactly once.

    Budget exhaustion yields a BRACKET status, never a silent answer.
    """
    budget = budget or Budget()
    meter = budget.start()
    solver = _CoverSolver(system, meter)
    status, witness = solver.exactly_one(target_size)
    if status == FEASIBLE:
        # independent re-verification of the returned transversal
        hits = np.bincount(solver.incidence[list(witness)].ravel(),
                           minlength=len(system.rows))
        if (len(witness) != target_size or not verify_coclique(system.graph, witness)
                or (hits != 1).any()):
            raise AssertionError("solver returned an invalid exact-hit witness")
    notes = []
    if not system.edges_covered:
        notes.append("rows do not cover all edges; independence enforced directly")
    return CoverBound(status, target_size, witness, meter.nodes, system.descriptor(),
                      notes, meter.timed_out)


class _CoverSolver:
    """Depth-first search for an independent transversal of the rows.

    The state is the alive flag of every vertex, the alive count of every
    row (closed once done), the chosen vertices and Gamma, the index array of
    the elements that commute with each of them; each branch restores a
    snapshot of it taken at its node.  The search is made of methods, not
    nested closures, so a finished solver holds no reference cycle and is
    freed at once.
    """

    def __init__(self, system: TranslateRowSystem, meter):
        self.group = system.graph.group
        self.meter = meter
        self.n = self.group.order
        self.rows = system.rows
        # the rows through each vertex, ascending: every vertex lies in the
        # same number of rows, since each family is closed under right translation
        n_rows, k = system.rows.shape
        width = n_rows * k // self.n
        if (np.bincount(system.rows.ravel(), minlength=self.n) != width).any():
            raise AssertionError("rows do not meet every vertex equally often")
        order = np.argsort(system.rows.ravel(), kind="stable")
        self.incidence = (order // k).reshape(self.n, width)
        # what choosing the identity removes: its rows, which hold it, and its
        # neighbours; right translation by v carries it to what choosing v removes
        self.kill0 = np.union1d(system.graph.connection_elements(),
                                system.rows[self.incidence[self.group.identity]])
        self.closed = k + 1                  # a done row's count, above every open one
        self.alive = np.ones(self.n, dtype=bool)
        self.row_alive = np.full(n_rows, k, dtype=np.int32)
        self.chosen: list[int] = []
        self.gamma = np.arange(self.n)

    def remove(self, verts: np.ndarray):
        """Delete the alive vertices among verts (no repeats) and take them
        off their rows' counts."""
        removed = verts[self.alive[verts]]
        self.alive[removed] = False
        self.row_alive -= np.bincount(self.incidence[removed].ravel(),
                                      minlength=len(self.row_alive))

    def choose(self, v: int):
        self.chosen.append(v)
        through = self.incidence[v]
        if (self.row_alive[through] >= self.closed).any():
            # two chosen in one row is impossible: v was alive
            raise AssertionError("row chosen twice")
        # every vertex of these rows dies with v, so each ends at closed
        self.row_alive[through] += self.closed
        self.remove(self.group.mul_pairs(self.kill0, v))
        if len(self.gamma) > 1:
            self.gamma = self.gamma[self.group.conjugate(v, self.gamma) == v]

    def first_open_min(self) -> tuple[int, int]:
        """The first row of least alive count, and that count: closed when every row is done."""
        ri = int(self.row_alive.argmin())
        return ri, int(self.row_alive[ri])

    def alive_in(self, ri: int) -> np.ndarray:     # ascending
        return self.rows[ri][self.alive[self.rows[ri]]]

    def propagate(self) -> bool:
        """Choose the last alive vertex of every row left with one; False on a dead row."""
        while True:
            ri, c = self.first_open_min()
            if c == 0:
                return False
            if c != 1:
                return True
            self.choose(int(self.alive_in(ri)[0]))

    def search(self, target: int) -> str:
        if self.meter.tick():
            return EXHAUSTED_LOCAL
        best_ri, best_c = self.first_open_min()
        if len(self.chosen) == target:
            return FOUND_LOCAL if best_c == self.closed else DEAD_LOCAL
        if best_c in (0, self.closed):
            return DEAD_LOCAL  # a dead row, or all rows done but size short
        snapshot = (self.alive.copy(), self.row_alive.copy(), len(self.chosen), self.gamma)
        row = self.alive_in(best_ri).tolist()
        if len(self.gamma) > 1:
            # choose the lowest alive v, or delete its whole Gamma-orbit
            v = row[0]
            orbit = np.unique(self.group.conjugate(v, self.gamma))
            branches = [(self.choose, v), (self.remove, orbit)]
        else:
            branches = [(self.choose, v) for v in row]
        for step, arg in branches:
            step(arg)
            if self.propagate():
                out = self.search(target)
                if out in (FOUND_LOCAL, EXHAUSTED_LOCAL):
                    return out
            self.alive[:] = snapshot[0]
            self.row_alive[:] = snapshot[1]
            del self.chosen[snapshot[2]:]
            self.gamma = snapshot[3]
        return DEAD_LOCAL

    def exactly_one(self, target: int):
        """Search for an independent transversal of size target.

        The identity is chosen first: the rows are closed under right
        translation, so some translate of any solution contains it.
        """
        self.choose(self.group.identity)
        if not self.propagate():
            return PROVEN_INFEASIBLE, ()
        out = self.search(target)
        if out == FOUND_LOCAL:
            return FEASIBLE, tuple(sorted(self.chosen))
        if out == EXHAUSTED_LOCAL:
            return BRACKET, ()
        return PROVEN_INFEASIBLE, ()


FOUND_LOCAL = "found"
DEAD_LOCAL = "dead"
EXHAUSTED_LOCAL = "exhausted"
