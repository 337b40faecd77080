import gc
import hashlib
import random
import weakref

import numpy as np
import pytest

from diagsync.certify import generate_translate_rows, solve_cover_ilp
from diagsync.graphs import (
    InvalidClassSet,
    build_graph,
    complement_classes,
    complement_graph,
    export_dimacs,
)
from diagsync.psl2 import PSL2, build_group, sylow_subgroup


def test_build_graph_q13_order13():
    g = build_group(13)
    gr = build_graph(g, ["13"])
    assert gr.degree == 168
    assert gr.vertex_count == 1092
    # neighbors of the identity are exactly the elements of order 13
    nbrs = gr.neighbors(g.identity)
    assert nbrs.dtype == bool and nbrs.shape == (g.order,)
    count = 0
    for i in range(g.order):
        if nbrs[i]:
            assert g.element_order(i) == 13
            count += 1
    assert count == 168


def test_build_graph_rejections():
    g = build_group(13)
    with pytest.raises(InvalidClassSet):
        build_graph(g, [])
    with pytest.raises(InvalidClassSet):
        build_graph(g, ["2", "3", "6", "7", "13"])
    with pytest.raises(InvalidClassSet):
        build_graph(g, ["1"])
    with pytest.raises(InvalidClassSet):
        build_graph(g, ["25"])


def test_unfused_labels_accepted_and_inverse_closure_enforced():
    g13 = build_group(13)
    gr = build_graph(g13, ["7A"])  # order-7 classes are real for q=13
    assert gr.degree == 156
    g7 = build_group(7)
    with pytest.raises(InvalidClassSet):
        build_graph(g7, ["7A"])  # 7A^-1 = 7B when q = 7
    assert build_graph(g7, ["7A", "7B"]).degree == 48


def test_complement_classes_q13():
    g = build_group(13)
    assert complement_classes(g, ["3", "7"]) == ("2", "6", "13")
    assert complement_classes(g, ["13"]) == ("2", "3", "6", "7")
    assert complement_classes(g, complement_classes(g, ["3", "7"])) == ("3", "7")


def test_adjacency_symmetric_and_translation_invariant():
    g = build_group(9)
    gr = build_graph(g, ["4", "5"])
    rng = random.Random(11)
    for _ in range(200):
        u, v = rng.randrange(g.order), rng.randrange(g.order)
        assert gr.adjacent(u, v) == gr.adjacent(v, u)
        x, y = rng.randrange(g.order), rng.randrange(g.order)
        xu = g.mul(g.mul(g.inv(x), u), y)
        xv = g.mul(g.mul(g.inv(x), v), y)
        assert gr.adjacent(u, v) == gr.adjacent(xu, xv)
    assert not gr.adjacent(5, 5)


def test_graph_and_complement_partition_pairs():
    g = build_group(9)
    gr = build_graph(g, ["2", "4"])
    co = complement_graph(gr)
    rng = random.Random(12)
    for _ in range(300):
        u, v = rng.sample(range(g.order), 2)
        assert gr.adjacent(u, v) != co.adjacent(u, v)
    assert gr.degree + co.degree == g.order - 1


def test_dropped_group_is_freed_without_a_cycle_collection():
    # the group keeps no graphs: a graph-group cycle would keep it; the
    # exact-hit solver reaches the group through its graph, so a cycle
    # in the solver would keep it too
    gc.disable()
    try:
        group = PSL2(5)
        graph = build_graph(group, ["5"])
        graph.neighbors(group.identity)
        system = generate_translate_rows(graph, sylow_subgroup(group, 5).tolist())
        assert solve_cover_ilp(system, 12).status == "FEASIBLE"
        ref = weakref.ref(group)
        del group, graph, system
        assert ref() is None
    finally:
        gc.enable()


def test_regularity():
    g = build_group(13)
    gr = build_graph(g, ["3", "13"])
    assert gr.degree == 182 + 168
    rng = random.Random(13)
    for _ in range(10):
        v = rng.randrange(g.order)
        assert np.count_nonzero(gr.neighbors(v)) == gr.degree


def test_export_dimacs_q13():
    g = build_group(13)
    data = export_dimacs(build_graph(g, ["13"]))
    lines = data.decode().splitlines()
    assert lines[1] == "p edge 1092 91728"  # 1092 * 168 / 2
    first = lines[2].split()
    assert first[0] == "e" and 1 <= int(first[1]) < int(first[2]) <= 1092
    assert len(lines) == 2 + 91728
    # deterministic byte-exact re-export
    assert data == export_dimacs(build_graph(g, ["13"]))


# sha256 of the export, recorded while neighbourhoods were int bitmasks
DIMACS_DIGESTS = {
    (7, "7"): "80c0f6b1e0cc9d57b0790f7c53864d0252468e1f469689984b6353a9c88f9358",
    (13, "13"): "41d4907ee044274bf32f2344c526ef63fa873b5447776ae2fb82aa12c6827e13",
}


@pytest.mark.parametrize("q,label", sorted(DIMACS_DIGESTS))
def test_export_dimacs_is_pinned(q, label):
    data = export_dimacs(build_graph(build_group(q), [label]))
    assert hashlib.sha256(data).hexdigest() == DIMACS_DIGESTS[q, label]


def test_dimacs_small_graph_roundtrip():
    g = build_group(5)
    gr = build_graph(g, ["2"])
    data = export_dimacs(gr).decode()
    lines = data.splitlines()
    _, _, n, m = lines[1].split()
    edges = {tuple(map(int, ln.split()[1:])) for ln in lines[2:]}
    assert int(n) == 60 and len(edges) == int(m)
    for u, v in edges:
        assert gr.adjacent(u - 1, v - 1) and u < v
    assert len(edges) == gr.vertex_count * gr.degree // 2
