"""Class-union Cayley graphs on T = PSL(2,q).

A graph here is determined by a set I of class labels (fused orbit labels
such as "13", or unfused class labels such as "7A"): vertices are the group
elements, and u ~ v iff u*v^-1 lies in the union of the selected classes.
A graph holds one element set, its connection set, as a read-only boolean
array over the elements, built once per class set and kept in the group's
store; adjacency, the degree and a vertex's neighbourhood (a boolean vertex
array computed on each call, for the DIMACS export and the tests' oracles)
are read from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .psl2 import PSL2, label_sort_key


class InvalidClassSet(ValueError):
    pass


def resolve_classes(group: PSL2, labels) -> tuple[tuple[str, ...], np.ndarray, tuple[int, ...]]:
    """Normalize a collection of class/orbit labels.

    Returns (sorted fused-or-class labels, connection set as a boolean vertex
    array, unfused class ids).
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
    key = tuple(sorted(ids))

    def connection(group):
        chosen = np.zeros(len(classes), dtype=bool)
        chosen[list(ids)] = True
        flags = chosen[group.class_of_array()]
        flags.flags.writeable = False
        return flags
    canonical = sorted({_canonical_label(group, c, ids) for c in ids},
                       key=label_sort_key)
    return tuple(canonical), group.derived(("connection", key), connection), key


def _canonical_label(group: PSL2, class_id: int, chosen: set[int]) -> str:
    orbit = group.fusion_orbits()[group.conjugacy_classes()[class_id].fusion_orbit]
    if set(orbit.class_ids) <= chosen:
        return orbit.label
    return group.conjugacy_classes()[class_id].label


@dataclass(eq=False)
class ClassUnionGraph:
    group: PSL2
    class_labels: tuple[str, ...]
    connection: np.ndarray               # the connection set, boolean over the elements
    class_ids: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.group.q

    @property
    def vertex_count(self) -> int:
        return self.group.order

    @property
    def degree(self) -> int:
        return int(np.count_nonzero(self.connection))

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.connection[self.group.mul(u, self.group.inv(v))])

    def connection_elements(self) -> np.ndarray:
        return np.flatnonzero(self.connection)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighborhood of v as a boolean vertex array: {s*v : s in connection set}."""
        flags = np.zeros(self.group.order, dtype=bool)
        flags[self.group.mul_pairs(self.connection_elements(), v)] = True
        return flags

    def descriptor(self) -> dict:
        return {"q": self.q, "classes": list(self.class_labels),
                "degree": self.degree, "vertexCount": self.vertex_count}


def build_graph(group: PSL2, labels) -> ClassUnionGraph:
    return ClassUnionGraph(group, *resolve_classes(group, labels))


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
             for v in (np.flatnonzero(graph.neighbors(u)[u + 1:]) + u + 1).tolist()]  # v > u
    lines.append(f"p edge {n} {len(edges)}")
    lines.extend(f"e {u} {v}" for u, v in edges)
    return ("\n".join(lines) + "\n").encode("ascii")
