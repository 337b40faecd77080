"""Class-union Cayley graphs on T = PSL(2,q).

A graph here is determined by a set I of class labels (fused orbit labels
such as "13", or unfused class labels such as "7A"): vertices are the group
elements, and u ~ v iff u*v^-1 lies in the union of the selected classes.
Adjacency is answered from the connection-set bitmap; per-vertex neighbor
bitmaps are materialized lazily and cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .psl2 import PSL2, label_sort_key, mask_elements, mask_from


class InvalidClassSet(ValueError):
    pass


def resolve_classes(group: PSL2, labels) -> tuple[tuple[str, ...], int, tuple[int, ...]]:
    """Normalize a collection of class/orbit labels.

    Returns (sorted fused-or-class labels, connection mask, unfused class ids).
    Fused labels expand to their member classes; the result must be
    inverse-closed and exclude the identity.
    """
    classes = group.conjugacy_classes()
    by_label = {c.label: c for c in classes}
    fused = {o.label: o for o in group.fusion_orbits()}
    ids: set[int] = set()
    for raw in labels:
        name = str(raw)
        if name in fused:
            ids.update(fused[name].class_ids)
        elif name in by_label:
            ids.add(by_label[name].id)
        else:
            raise InvalidClassSet(f"unknown class label {name!r} for q={group.q}")
    if not ids:
        raise InvalidClassSet("empty class set")
    identity_class = group.class_of(group.identity)
    if identity_class in ids:
        raise InvalidClassSet("connection set must not contain the identity class")
    if len(ids) == len(classes) - 1:
        raise InvalidClassSet("connection set of all nontrivial classes is degenerate")
    for c in ids:
        if classes[c].inverse_class not in ids:
            raise InvalidClassSet(f"class set not inverse-closed at {classes[c].label}")
    mask = 0
    for c in ids:
        mask |= classes[c].members
    canonical = sorted({_canonical_label(group, c, ids) for c in ids},
                       key=label_sort_key)
    return tuple(canonical), mask, tuple(sorted(ids))


def _canonical_label(group: PSL2, class_id: int, chosen: set[int]) -> str:
    orbit = group.fusion_orbits()[group.conjugacy_classes()[class_id].fusion_orbit]
    if set(orbit.class_ids) <= chosen:
        return orbit.label
    return group.conjugacy_classes()[class_id].label


@dataclass
class ClassUnionGraph:
    group: PSL2
    class_labels: tuple[str, ...]
    connection: int
    class_ids: tuple[int, ...]
    _neighbors: dict[int, int] = field(default_factory=dict, repr=False)
    _conn_elements: list[int] | None = field(default=None, repr=False)

    @property
    def q(self) -> int:
        return self.group.q

    @property
    def vertex_count(self) -> int:
        return self.group.order

    @property
    def degree(self) -> int:
        return self.connection.bit_count()

    def adjacent(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return bool((self.connection >> self.group.mul(u, self.group.inv(v))) & 1)

    def connection_elements(self) -> list[int]:
        if self._conn_elements is None:
            self._conn_elements = mask_elements(self.connection)
        return self._conn_elements

    def neighbors(self, v: int) -> int:
        """Neighborhood of v as a bitmask: {s*v : s in connection set}."""
        cached = self._neighbors.get(v)
        if cached is None:
            cached = mask_from(self.group.mul_column(self.connection_elements(), v))
            self._neighbors[v] = cached
        return cached

    def descriptor(self) -> dict:
        return {"q": self.q, "classes": list(self.class_labels),
                "degree": self.degree, "vertexCount": self.vertex_count}

    def label(self) -> str:
        return "G[" + ",".join(self.class_labels) + "]"


def build_graph(group: PSL2, labels) -> ClassUnionGraph:
    canonical, mask, ids = resolve_classes(group, labels)
    return ClassUnionGraph(group, canonical, mask, ids)


def complement_classes(group: PSL2, labels) -> tuple[str, ...]:
    """Labels of the complementary class-union graph (within fused labels)."""
    canonical, _, ids = resolve_classes(group, labels)
    chosen = set(ids)
    rest = [c.id for c in group.conjugacy_classes()
            if c.id not in chosen and c.element_order > 1]
    if not rest:
        raise InvalidClassSet("complement is empty")
    out = sorted({_canonical_label(group, c, set(rest)) for c in rest},
                 key=label_sort_key)
    return tuple(out)


def complement_graph(graph: ClassUnionGraph) -> ClassUnionGraph:
    return build_graph(graph.group, complement_classes(graph.group, graph.class_labels))


def export_dimacs(graph: ClassUnionGraph) -> bytes:
    """DIMACS undirected graph, 1-based vertex ids, each edge listed once."""
    n = graph.vertex_count
    lines = [f"c class-union Cayley graph on PSL(2,{graph.q}), classes "
             + ",".join(graph.class_labels)]
    edges = [(u + 1, v + 1) for u in range(n)
             for v in mask_elements(graph.neighbors(u) >> (u + 1) << (u + 1))]  # v > u
    lines.append(f"p edge {n} {len(edges)}")
    lines.extend(f"e {u} {v}" for u, v in edges)
    return ("\n".join(lines) + "\n").encode("ascii")
