"""Which public calls of diagsync are traced, and under which layer name.

Span and counter names are ``<layer>.<what>``; the layer is the diagsync
module the call belongs to.  ``layer_metrics`` turns a finished trace into
the per-layer metrics that BENCHMARK.json lists.
"""

from __future__ import annotations

LAYERS = ("gf", "psl2", "scheme", "feasibility", "graphs", "search",
          "certify", "witnesses", "pipeline")


def install(tracer) -> None:
    from diagsync import certify, feasibility, gf, graphs, pipeline, psl2, scheme
    from diagsync import search, witnesses

    class_sets: set = set()

    def graph_built(counts, graph):
        counts["graphs.builds"] += 1
        class_sets.add((graph.q, graph.class_labels))
        counts["graphs.distinct"] = len(class_sets)

    def searched(counts, cert):
        counts["search.nodes"] += cert.nodes
        counts["search.exhaustive"] += cert.exhaustive

    def decided(counts, result):
        status, cert = result
        counts["search.nodes"] += cert.nodes
        counts["search.exhaustive"] += status != search.EXHAUSTED

    def add(key, value_of):
        def on_result(counts, result):
            counts[key] += value_of(result)
        return on_result

    span, leaf, patch = tracer.span, tracer.leaf, tracer.patch
    patch(gf.Field, "mul", tracer.counter("gf.mul_calls", gf.Field.mul))
    patch(psl2.PSL2, "mul", tracer.counter("psl2.mul_calls", psl2.PSL2.mul))
    patch(psl2.PSL2, "conjugacy_classes",
          leaf("psl2.classes", psl2.PSL2.conjugacy_classes))
    patch(psl2, "build_group", span("psl2.build", psl2.build_group))
    patch(scheme, "rational_fusion_scheme",
          span("scheme.build", scheme.rational_fusion_scheme))
    patch(feasibility, "putative_table",
          span("feasibility.table", feasibility.putative_table,
               add("feasibility.rows", len)))
    for name in ("build_graph", "complement_graph"):
        patch(graphs, name, span("graphs.build", getattr(graphs, name), graph_built))
    patch(graphs.ClassUnionGraph, "neighbors",
          leaf("graphs.neighbors", graphs.ClassUnionGraph.neighbors))
    patch(search, "algebraic_clique_seeds",
          span("search.seeds", search.algebraic_clique_seeds))
    patch(search, "max_clique", span("search.clique", search.max_clique, searched))
    # max_coclique calls max_clique, which counts the nodes
    patch(search, "max_coclique", span("search.clique", search.max_coclique))
    patch(search, "find_clique_of_size",
          span("search.decision", search.find_clique_of_size, decided))
    for name in ("verify_clique", "verify_coclique"):
        patch(search, name, leaf("search.verify", getattr(search, name)))
    patch(certify, "generate_translate_rows",
          span("certify.rows", certify.generate_translate_rows,
               add("certify.rows", lambda system: len(system.rows))))
    patch(certify, "solve_cover_ilp",
          span("certify.solve", certify.solve_cover_ilp,
               add("certify.solver_nodes", lambda res: res.nodes)))
    for name in ("find_exact_factorisation", "verify_exact_factorisation"):
        patch(witnesses, name, span("witnesses.factorisation", getattr(witnesses, name)))
    for name in ("index_six_subgroup", "find_sharply_transitive_set", "coset_action"):
        patch(witnesses, name, span("witnesses.sharp", getattr(witnesses, name)))
    patch(witnesses, "spreading_witness",
          span("witnesses.spreading", witnesses.spreading_witness))
    patch(pipeline, "analyze", span("pipeline.analyze", pipeline.analyze))
    patch(pipeline, "verify_report", span("pipeline.verify", pipeline.verify_report))
    patch(pipeline.Cache, "get",
          span("pipeline.cache", pipeline.Cache.get,
               add("pipeline.cache_hits", lambda hit: hit is not None)))
    patch(pipeline.Cache, "put",
          span("pipeline.cache", pipeline.Cache.put,
               add("pipeline.cache_writes", lambda _: 1)))


def layer_metrics(tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)} from one traced run."""
    c = tracer.counts
    self_t = tracer.self_times()
    total = tracer.totals()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, secs in self_t.items():
        layer_self[name.partition(".")[0]] += secs
    for leaf in ("psl2.classes", "graphs.neighbors", "search.verify"):
        layer_self[leaf.partition(".")[0]] += c[leaf + "_s"]
    analyze_s = total["pipeline.analyze"]
    pipeline_self = self_t["pipeline.analyze"] + self_t["pipeline.cache"]
    search_s = total["search.clique"] + total["search.decision"]
    out = {
        "psl2.build_s": (total["psl2.build"], "s"),
        "psl2.classes_s": (c["psl2.classes_s"], "s"),
        "psl2.mul_calls": (c["psl2.mul_calls"], "count"),
        "gf.mul_calls": (c["gf.mul_calls"], "count"),
        "scheme.build_s": (total["scheme.build"], "s"),
        "feasibility.table_s": (total["feasibility.table"], "s"),
        "feasibility.rows": (c["feasibility.rows"], "count"),
        "graphs.builds": (c["graphs.builds"], "count"),
        "graphs.distinct_per_build": (
            c["graphs.distinct"] / c["graphs.builds"] if c["graphs.builds"] else 0.0,
            "ratio"),
        "graphs.neighbors_calls": (c["graphs.neighbors_calls"], "count"),
        "graphs.neighbors_s": (c["graphs.neighbors_s"], "s"),
        "search.seeds_s": (total["search.seeds"], "s"),
        "search.clique_s": (total["search.clique"], "s"),
        "search.decision_s": (total["search.decision"], "s"),
        "search.nodes": (c["search.nodes"], "count"),
        "search.nodes_per_s": (c["search.nodes"] / search_s if search_s else 0.0, "1/s"),
        "search.exhaustive": (c["search.exhaustive"], "count"),
        "certify.rows_s": (total["certify.rows"], "s"),
        "certify.rows": (c["certify.rows"], "count"),
        "certify.solve_s": (total["certify.solve"], "s"),
        "certify.solver_nodes": (c["certify.solver_nodes"], "count"),
        "certify.ms_per_node": (
            1000 * total["certify.solve"] / c["certify.solver_nodes"]
            if c["certify.solver_nodes"] else 0.0, "ms"),
        "witnesses.factorisation_s": (total["witnesses.factorisation"], "s"),
        "witnesses.sharp_s": (total["witnesses.sharp"], "s"),
        "witnesses.spreading_s": (total["witnesses.spreading"], "s"),
        "pipeline.self_s": (pipeline_self, "s"),
        "pipeline.covered_share": (
            1 - pipeline_self / analyze_s if analyze_s else 0.0, "ratio"),
        "pipeline.cache_hits": (c["pipeline.cache_hits"], "count"),
        "pipeline.cache_writes": (c["pipeline.cache_writes"], "count"),
    }
    for layer in LAYERS[1:-1]:      # gf is counted only; pipeline.self_s is above
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
    return out
