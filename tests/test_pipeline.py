import copy
import json
import time
from collections import Counter

import pytest

from diagsync import cli, pipeline, search
from diagsync.certify import generate_translate_rows, solve_cover_ilp
from diagsync.graphs import build_graph
from diagsync.psl2 import build_group, mask_elements, sylow_subgroup
from diagsync.pipeline import (
    Analyzer,
    Cache,
    FactBase,
    NO,
    PipelineConfig,
    UNKNOWN,
    analyze,
    certificate_digest,
    sealed,
    verify_report,
    write_report,
)


def test_factbase_monotonicity():
    fb = FactBase(("2", "3", "6", "7", "13"))
    fb.set_omega_upper(("2", "6", "7"), 22, "search")
    # omega(G_{2,6,7}) = alpha(G_{3,13}) <= 22 propagates to subsets
    up = fb.omega_upper(("6", "7"))
    assert up is not None and up[0] == 22
    up = fb.omega_upper(("2", "6", "7"))
    assert up is not None and up[0] == 22
    assert fb.omega_upper(("2", "3")) is None
    fb.set_omega_upper(("2", "3", "7"), 25, "search")
    assert fb.alpha_upper(("6", "13"))[0] == 25
    up = fb.omega_upper(("3", "7"))
    assert up is not None and up[0] == 25
    assert "omega[3,7] <= omega[2,3,7]" in up[1]


def test_analyze_q9_negative_witness():
    verdict, report = analyze(9, PipelineConfig())
    assert verdict.separating == NO and verdict.synchronising == NO
    assert verdict.spreading == NO
    assert verdict.exit_code() == 0
    kinds = {w["kind"] for w in report["witnesses"]}
    assert "sharply_transitive" in kinds and "non_spreading_multiset" in kinds


def test_analyze_q7_factorisation_witness():
    verdict, report = analyze(7, PipelineConfig())
    assert verdict.separating == NO and verdict.exit_code() == 0
    assert report["witnesses"][0]["kind"] == "exact_factorisation"
    # q = 3 mod 4: non-spreading by hierarchy, no multiset witness needed
    assert verdict.spreading == NO


def test_report_replay_and_tamper_rejection(tmp_path):
    verdict, report = analyze(9, PipelineConfig())
    ok, problems = verify_report(report)
    assert ok, problems
    # flipping a single element of a witness makes replay fail
    bad = copy.deepcopy(report)
    wit = bad["witnesses"][0]
    wit["elements"][0] = (wit["elements"][0] + 1) % 360
    ok, problems = verify_report(bad)
    assert not ok and problems
    # digest alone catches any single-field tamper
    bad2 = copy.deepcopy(report)
    bad2["witnesses"][0]["degree"] = 7
    ok, problems = verify_report(bad2)
    assert not ok


def _resealed_multiset(report, edit):
    """The report with its multiset witness edited and its digest recomputed."""
    bad = copy.deepcopy(report)
    k = next(i for i, w in enumerate(bad["witnesses"])
             if w["kind"] == "non_spreading_multiset")
    wit = {key: v for key, v in bad["witnesses"][k].items() if key != "digest"}
    edit(wit)
    bad["witnesses"][k] = sealed(wit)
    return bad


def _move_a_square(wit):
    # swap one square for the least non-square element of the stabilizer
    group = build_group(wit["q"])
    stab = group.point_stabilizer(wit["stabilizer_point"])
    other = next(x for x in range(group.order)
                 if (stab >> x) & 1 and x not in wit["squares"])
    wit["squares"] = sorted(wit["squares"][1:] + [other])


@pytest.mark.parametrize("edit", [
    lambda w: w.update(squares=w["squares"][:5]),
    lambda w: w.update(stabilizer_point=0),
    _move_a_square,
    lambda w: w.update(distinct_images=w["distinct_images"] + 1),
    lambda w: w.update(total=w["total"] - 1),
    lambda w: w.pop("kind"),
], ids=["cut_squares", "other_point", "moved_square", "images", "total", "no_kind"])
def test_resealed_multiset_edit_fails_replay(edit):
    _, report = analyze(9, PipelineConfig())
    assert verify_report(_resealed_multiset(report, lambda w: None))[0]
    ok, problems = verify_report(_resealed_multiset(report, edit))
    assert not ok and problems


def test_report_determinism(tmp_path):
    _, report1 = analyze(9, PipelineConfig())
    _, report2 = analyze(9, PipelineConfig())
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_report(report1, p1)
    write_report(report2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_digest_is_content_addressed():
    payload = {"kind": "clique", "vertices": [1, 2, 3]}
    d1 = certificate_digest(payload)
    d2 = certificate_digest({"vertices": [1, 2, 3], "kind": "clique"})
    assert d1 == d2
    assert d1 != certificate_digest({"kind": "clique", "vertices": [1, 2, 4]})


def test_feasibility_stage_q13_rows():
    analyzer = Analyzer(13, PipelineConfig())
    rows = analyzer.feasibility_stage()
    assert len(rows) == 8
    novel = [r for r in rows if r.novel]
    assert len(novel) == 6
    analyzer.realization_stage()
    stars = {tuple(gv.clique_classes): set(gv.stars) for gv in rows}
    # each row has exactly one realized side, matching the star pattern
    assert stars[("13",)] == {"omega"}
    assert stars[("7",)] == {"alpha"}
    assert stars[("3", "13")] == {"omega"}
    assert stars[("3", "7")] == {"alpha"}
    assert stars[("2", "13")] == {"omega"}
    assert stars[("2", "7")] == {"alpha"}
    assert stars[("6", "13")] == {"omega"}
    assert stars[("6", "7")] == {"alpha"}


def test_inference_resolves_rows_from_planted_facts():
    analyzer = Analyzer(13, PipelineConfig())
    analyzer.feasibility_stage()
    # alpha(G_{6,13}) <= 25 and alpha(G_{3,13}) <= 22, on the complements
    analyzer.facts.set_omega_upper(("2", "3", "7"), 25, "planted")
    analyzer.facts.set_omega_upper(("2", "6", "7"), 22, "planted")
    analyzer.inference_pass()
    status = {tuple(gv.clique_classes): gv.status for gv in analyzer.verdict.graphs}
    assert status[("3", "7")] == "SEPARATING_BY_INFERENCE"
    assert status[("2", "7")] == "SEPARATING_BY_INFERENCE"
    assert status[("6", "7")] == "SEPARATING_BY_INFERENCE"
    assert status[("3", "13")] == "SEPARATING_BY_INFERENCE"  # 22 != 28
    assert status[("6", "13")] == "SEPARATING_BY_INFERENCE"  # 25 != 42
    assert status[("13",)] == "UNRESOLVED"
    assert status[("2", "13")] == "UNRESOLVED"
    assert status[("7",)] == "UNRESOLVED"


def test_decision_found_clique_becomes_a_covering_base():
    # q=17 G[8,17]: no seed realizes its 34-clique, the decision search finds
    # one, and the covering program on it refutes the 72-coclique
    analyzer = Analyzer(17, PipelineConfig(budget_nodes=20000))
    rows = analyzer.feasibility_stage()
    [gv] = analyzer.verdict.graphs = [r for r in rows if r.clique_classes == ("8", "17")]
    analyzer.realization_stage()
    assert not gv.stars
    analyzer.nonexistence_pass(3600)
    [realized] = gv.certificates
    assert realized["kind"] == "realized_clique" and realized["size"] == 34
    assert gv.stars["omega"]["witness"] == realized["vertices"]
    analyzer.csp_pass(3600)
    assert gv.status == "SEPARATING_BY_CSP"
    [cover] = [c for c in gv.certificates if c["kind"] == "exact_hit"]
    assert cover["status"] == "PROVEN_INFEASIBLE" and cover["target"] == 72
    assert cover["system"]["base_clique"] == realized["vertices"]


@pytest.mark.slow
def test_unknown_exit_code_when_unresolved():
    cfg = PipelineConfig(budget_secs=0.5, direct_search_secs=0.5, budget_nodes=100)
    verdict, report = analyze(17, cfg)
    assert verdict.separating == UNKNOWN
    assert verdict.exit_code() == 2
    assert verdict.spreading == NO  # the multiset witness is cheap and exact
    assert report["verdict"]["exit_code"] == 2


# -- cache-through reuse ------------------------------------------------------------


def _count_calls(monkeypatch, calls: Counter):
    """Count every search, decision, row generation and covering solve."""
    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            graph = getattr(args[0], "graph", args[0])    # a row system's graph
            labels = graph.class_labels
            calls[name, labels] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    for name in ("find_clique_of_size", "generate_translate_rows", "solve_cover_ilp"):
        counted(pipeline, name)
    # the pipeline imports neither: a call would come through search
    for name in ("max_clique", "max_coclique"):
        counted(search, name)


def _budgeted(tmp_path, **overrides):
    """The q13-budgeted benchmark config: 2000 nodes, seed 1, one worker;
    no cache when tmp_path is None."""
    settings = dict(budget_secs=3600.0, budget_nodes=2000, direct_search_secs=3600.0,
                    seed=1, threads=1, cache_dir=tmp_path and str(tmp_path))
    return PipelineConfig(**{**settings, **overrides})


def test_budgeted_analyze_reuses_every_capped_result(tmp_path, monkeypatch):
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls)
    cfg = _budgeted(tmp_path)
    _, cold = analyze(13, cfg)
    # rows are settled by decisions and covering programs, never by a search
    assert not any(name in ("max_clique", "max_coclique") for name, _ in calls)
    assert max(calls.values()) == 1
    calls.clear()
    _, warm = analyze(13, cfg)
    assert not calls
    assert cold["verdict"]["separating"] == UNKNOWN
    assert cold == warm
    assert verify_report(warm)[0]


@pytest.fixture(scope="module")
def budgeted13():
    """A cold q=13 report under the q13-budgeted config, without a cache."""
    return analyze(13, _budgeted(None))[1]


def test_cold_budgeted_reports_are_byte_identical(budgeted13):
    _, again = analyze(13, _budgeted(None))
    assert json.dumps(again, sort_keys=True) == json.dumps(budgeted13, sort_keys=True)
    assert verify_report(again) == (True, [])


def _resealed(report, kind, edit):
    """The report with its first certificate of the kind edited and its
    digest recomputed; a report holds only refuting covering certificates."""
    bad = copy.deepcopy(report)
    for gv in bad["graphs"]:
        for i, cert in enumerate(gv["certificates"]):
            if cert.get("kind") == kind:
                payload = {k: v for k, v in cert.items() if k != "digest"}
                edit(payload)
                gv["certificates"][i] = sealed(payload)
                return bad
    raise AssertionError(f"the report has no {kind} certificate")


def test_verify_rechecks_covering_certificates(budgeted13):
    def resealed(edit):
        return _resealed(budgeted13, "exact_hit", edit)
    assert verify_report(resealed(lambda c: None)) == (True, [])
    ok, problems = verify_report(resealed(lambda c: c.update(target=1)))
    assert not ok and problems
    ok, problems = verify_report(resealed(lambda c: c.pop("kind")))
    assert not ok and "certificate of unknown kind None" in problems


@pytest.mark.parametrize("kind, field", [("exact_hit", "target"),
                                         ("realized_clique", "vertices")])
def test_verify_names_a_missing_field(budgeted13, tmp_path, capsys, kind, field):
    bad = _resealed(budgeted13, kind, lambda c: c.pop(field))
    ok, problems = verify_report(bad)
    assert not ok and f"missing field {field!r}" in problems
    path = tmp_path / "bad.json"
    write_report(bad, path)
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False and f"missing field {field!r}" in out["problems"]


def test_verify_rejects_another_format_version(budgeted13):
    old = copy.deepcopy(budgeted13)
    old["meta"]["version"] = "0.1.0"
    ok, problems = verify_report(old)
    assert not ok and len(problems) == 1
    assert "0.1.0" in problems[0] and pipeline.__version__ in problems[0]


def test_verify_rechecks_a_feasible_covering_witness():
    # PSL(2,5) = A4 * C5: an A4 meets every coset of every Sylow 5-subgroup once
    group = build_group(5)
    graph = build_graph(group, ["5"])
    system = generate_translate_rows(graph, mask_elements(sylow_subgroup(group, 5)))
    cert = solve_cover_ilp(system, 12).payload()
    assert cert["status"] == "FEASIBLE"
    gv = {"clique_classes": ["5"]}
    assert pipeline._verify_certificate(group, gv, sealed(cert), [])
    # the witness holds the identity, and every vertex off it has order 5
    witness, base = cert["witness"], cert["system"]["base_clique"]
    outside = next(v for v in range(group.order) if v not in witness)
    other = next(v for v in witness if v != group.identity)
    swapped = sorted(set(witness) - {other} | {outside})
    for edit in (dict(witness=witness[1:]), dict(witness=swapped),
                 dict(system=dict(cert["system"], base_clique=base[1:]))):
        assert not pipeline._verify_certificate(group, gv, sealed(dict(cert, **edit)), [])


def test_warm_analyze_reuses_the_feasibility_table(tmp_path, monkeypatch):
    group = build_group(13)
    monkeypatch.delattr(group, "_putative_table", raising=False)
    tables = []
    real = pipeline.putative_table
    monkeypatch.setattr(pipeline, "putative_table",
                        lambda scheme: tables.append(scheme) or real(scheme))
    cfg = _budgeted(tmp_path, budget_nodes=100)
    _, cold = analyze(13, cfg)
    assert len(tables) == 1
    memo = group._putative_table
    assert isinstance(memo, tuple) and len(memo) == len(cold["feasibility"])
    _, warm = analyze(13, cfg)
    assert len(tables) == 1 and group._putative_table is memo
    assert warm["feasibility"] == cold["feasibility"]
    assert cold == warm


# a 28-clique of G[2,6,7] is a 28-coclique of G[3,13]: none exists (alpha = 22),
# and no cap below 5,000 nodes settles the decision
DECISION = ("2", "6", "7"), 28


def test_capped_entry_is_keyed_by_node_cap(tmp_path, monkeypatch):
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls)
    labels, k = DECISION
    first = Analyzer(13, _budgeted(tmp_path, budget_nodes=50)).cached_decision(labels, k, 60)
    assert first["status"] == search.EXHAUSTED
    again = Analyzer(13, _budgeted(tmp_path, budget_nodes=50)).cached_decision(labels, k)
    assert again == first and calls["find_clique_of_size", labels] == 1
    larger = Analyzer(13, _budgeted(tmp_path, budget_nodes=100)).cached_decision(labels, k)
    assert calls["find_clique_of_size", labels] == 2 and larger["nodes"] > first["nodes"]
    # no decision reads the seed or the worker count: both reuse the capped entry
    reseeded = Analyzer(13, _budgeted(tmp_path, budget_nodes=50, seed=2))
    assert reseeded.cached_decision(labels, k) == first
    threaded = Analyzer(13, _budgeted(tmp_path, budget_nodes=50, threads=2))
    assert threaded.cached_decision(labels, k) == first
    assert calls["find_clique_of_size", labels] == 2


def test_a_cache_entry_of_another_format_is_a_miss(tmp_path, monkeypatch):
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls)
    labels = ("3", "7")
    # a final entry as the 0.1.0 format kept it: no version in the key, and
    # elapsed and seed sealed in the payload; it claims no 21-clique exists
    old_key = {"op": "decision", "q": 7, "classes": sorted(labels), "k": 21}
    Cache(str(tmp_path)).put(old_key, sealed({
        "status": "NONE", "kind": "clique", "graph": {"q": 7, "classes": list(labels)},
        "vertices": [], "size": 0, "exhaustive": True, "nodes": 1, "elapsed": 0.0,
        "seed": 0, "method": "pinned-bb-decision", "target": 21}))
    fresh = Analyzer(7, PipelineConfig(cache_dir=str(tmp_path))).cached_decision(labels, 21)
    assert calls["find_clique_of_size", labels] == 1
    assert fresh["status"] == "FOUND" and fresh["size"] == 21
    assert "elapsed" not in fresh and "seed" not in fresh
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_clock_stopped_result_is_not_stored(tmp_path, monkeypatch):
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls)
    labels, k = DECISION
    an = Analyzer(13, _budgeted(tmp_path, budget_nodes=5000))
    # a deadline already past stops the decision at its first clock check
    stopped = an.cached_decision(labels, k, secs=-1.0)
    assert stopped["status"] == search.EXHAUSTED and stopped["nodes"] <= 2048
    assert not an.cache.memory and not list(tmp_path.iterdir())
    capped = an.cached_decision(labels, k)
    assert calls["find_clique_of_size", labels] == 2 and capped["nodes"] > 2048
    assert an.cached_decision(labels, k, secs=-1.0) == capped
    assert calls["find_clique_of_size", labels] == 2


def test_meter_tells_the_clock_from_the_node_cap():
    capped = search._Meter(5, time.monotonic() + 3600)
    while not capped.tick():
        pass
    assert capped.exhausted and not capped.timed_out
    late = search._Meter(10 ** 6, time.monotonic() - 1)
    while not late.tick():
        pass
    assert late.nodes == 2048 and late.exhausted and late.timed_out


def _cached_file(tmp_path):
    [path] = tmp_path.glob("*.json")
    return path


def test_cache_treats_truncated_file_as_miss(tmp_path):
    key = {"op": "max_clique", "q": 7, "classes": ["7"]}
    Cache(str(tmp_path)).put(key, sealed({"size": 7, "exhaustive": True}))
    assert not list(tmp_path.glob("*.tmp"))
    path = _cached_file(tmp_path)
    assert Cache(str(tmp_path)).get(key)["size"] == 7
    path.write_text(path.read_text()[:10])
    assert Cache(str(tmp_path)).get(key) is None


def test_cache_treats_tampered_size_as_miss(tmp_path, monkeypatch):
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls)
    cfg = PipelineConfig(cache_dir=str(tmp_path))
    labels = ("3", "7")
    # omega(G[3,7]) = 21 at q=7: no 22-clique exists
    honest = Analyzer(7, cfg).cached_decision(labels, 22)
    assert honest["exhaustive"] and calls["find_clique_of_size", labels] == 1
    path = _cached_file(tmp_path)
    payload = json.loads(path.read_text())
    payload["size"] += 1
    path.write_text(json.dumps(payload))
    rerun = Analyzer(7, cfg).cached_decision(labels, 22)
    assert calls["find_clique_of_size", labels] == 2 and rerun == honest
    assert json.loads(path.read_text()) == rerun


def test_covering_key_names_the_base_clique(tmp_path):
    an = Analyzer(7, PipelineConfig(cache_dir=str(tmp_path)))
    graph = build_graph(an.group, ["7"])
    bases = [list(s) for s in search.algebraic_clique_seeds(graph) if len(s) == 7][:2]
    assert len(bases) == 2
    for base in bases:
        assert an.cached_csp(("7",), base, 24)["system"]["base_clique"] == base
