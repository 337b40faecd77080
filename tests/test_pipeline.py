import copy
import json
import time
from collections import Counter

import numpy as np
import pytest

from diagsync import cli, pipeline, search, witnesses
from diagsync.certify import generate_translate_rows, solve_cover_ilp
from diagsync.graphs import build_graph
from diagsync.psl2 import (borel_subgroup, build_group, dihedral_subgroup,
                           sylow_subgroup)
from diagsync.pipeline import (
    Analyzer,
    Cache,
    FactBase,
    NO,
    PipelineConfig,
    UNKNOWN,
    UNRESOLVED,
    YES,
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


def _resealed_multiset(report, edit, kind="non_spreading_multiset"):
    """The report with its witness of the kind (the multiset witness by
    default) edited and its digest recomputed."""
    bad = copy.deepcopy(report)
    k = next(i for i, w in enumerate(bad["witnesses"]) if w["kind"] == kind)
    wit = {key: v for key, v in bad["witnesses"][k].items() if key != "digest"}
    edit(wit)
    bad["witnesses"][k] = sealed(wit)
    return bad


def _move_a_square(wit):
    # swap one square for the least non-square element of the stabilizer
    group = build_group(wit["q"])
    stab = group.point_stabilizer(wit["stabilizer_point"])
    other = next(x for x in stab.tolist() if x not in wit["squares"])
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


@pytest.mark.parametrize("q, kind, field, value", [
    (9, "sharply_transitive", "elements", 10 ** 6),
    (9, "sharply_transitive", "elements", "x"),
    (9, "sharply_transitive", "elements", -1),
    (9, "sharply_transitive", "subgroup", -1),
    (7, "exact_factorisation", "A", -1),
    (7, "exact_factorisation", "B", "x"),
], ids=["elements_large", "elements_str", "elements_negative", "subgroup_negative",
        "A_negative", "B_str"])
def test_malformed_witness_is_one_problem(q, kind, field, value, tmp_path, capsys):
    # each element list must hold distinct elements of the group before use:
    # numpy would wrap a negative index to another element
    _, report = analyze(q, PipelineConfig())
    bad = _resealed_multiset(report, lambda w: w[field].__setitem__(0, value), kind)
    ok, problems = verify_report(bad)
    assert not ok and problems == [
        f"malformed report: {field!r} is not a list of distinct group elements",
        f"witness {kind}: verification failed"]
    _verify_cli_rejects(bad, tmp_path, capsys)


def _verify_cli_rejects(report, tmp_path, capsys):
    """diagsync verify on the report: exit 1, ok false, nothing on stderr."""
    path = tmp_path / "bad.json"
    write_report(report, path)
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["ok"] is False and captured.err == ""


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
    novel = [r for r in analyzer._table_rows if r.novel]
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
    analyzer.facts.infer(analyzer.verdict.graphs)
    status = {tuple(gv.clique_classes): gv.status for gv in analyzer.verdict.graphs}
    assert status[("3", "7")] == "SEPARATING_BY_INFERENCE"
    assert status[("2", "7")] == "SEPARATING_BY_INFERENCE"
    assert status[("6", "7")] == "SEPARATING_BY_INFERENCE"
    assert status[("3", "13")] == "SEPARATING_BY_INFERENCE"  # 22 != 28
    assert status[("6", "13")] == "SEPARATING_BY_INFERENCE"  # 25 != 42
    assert status[("13",)] == "UNRESOLVED"
    assert status[("2", "13")] == "UNRESOLVED"
    assert status[("7",)] == "UNRESOLVED"


def _one_row(clique_classes, config):
    """A q=17 analyzer whose table is the one row on the clique classes, with
    the stars of that row realized."""
    analyzer = Analyzer(17, config)
    rows = analyzer.feasibility_stage()
    [gv] = analyzer.verdict.graphs = [r for r in rows if r.clique_classes == clique_classes]
    analyzer.realization_stage()
    return analyzer, gv


def test_decision_found_clique_becomes_a_covering_base(monkeypatch):
    # q=17 G[8,17]: no seed realizes its 34-clique, the decision search finds
    # one, and the covering program on it refutes the 72-coclique
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls)
    analyzer, gv = _one_row(("8", "17"), PipelineConfig(budget_nodes=20000))
    assert not gv.stars
    analyzer.settle_stage()
    assert calls["find_clique_of_size", ("8", "17")] == 1
    realized, cover = gv.certificates
    assert realized["kind"] == "realized_clique" and realized["size"] == 34
    assert gv.stars["omega"]["witness"] == realized["vertices"]
    assert gv.status == "SEPARATING_BY_CSP"
    assert cover["kind"] == "exact_hit"
    assert cover["status"] == "PROVEN_INFEASIBLE" and cover["target"] == 72
    assert cover["system"]["base_clique"] == realized["vertices"]


def test_a_realized_star_is_refuted_before_any_decision(monkeypatch):
    # q=17 G[4,8,9]: no seed realizes its 72-clique, and a decision for one
    # does not end within 1,000,000 nodes; its realized 34-coclique star is
    # refuted in 166 nodes, so the row needs no decision
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls)
    analyzer, gv = _one_row(("4", "8", "9"), PipelineConfig(budget_nodes=20000))
    assert set(gv.stars) == {"alpha"}
    analyzer.settle_stage()
    assert gv.status == "SEPARATING_BY_CSP"
    [cover] = [c for c in gv.certificates if c["kind"] == "exact_hit"]
    assert cover["status"] == "PROVEN_INFEASIBLE" and cover["nodes"] == 166
    assert not any(name == "find_clique_of_size" for name, _ in calls)


@pytest.mark.slow
def test_unknown_exit_code_when_unresolved():
    cfg = PipelineConfig(budget_secs=0.5, budget_nodes=100)
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
    settings = dict(budget_secs=3600.0, budget_nodes=2000, seed=1, threads=1,
                    cache_dir=tmp_path and str(tmp_path))
    return PipelineConfig(**{**settings, **overrides})


def test_budgeted_analyze_reuses_every_capped_result(tmp_path, monkeypatch):
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls)
    # 300 nodes stop the covering program on G[2,13], which needs 473
    cfg = _budgeted(tmp_path, budget_nodes=300)
    analyzer = Analyzer(13, cfg)
    cold = pipeline.emit_report(analyzer, analyzer.run())
    # rows are settled by decisions and covering programs, never by a search
    assert not any(name in ("max_clique", "max_coclique") for name, _ in calls)
    assert max(calls.values()) == 1
    capped = [json.loads(name) for name, hit in analyzer.cache.memory.items()
              if hit["status"] == "BUDGET_BRACKET"]
    assert any(key["op"] == "exact_hit_csp" and key["node_cap"] == 300 for key in capped)
    # each capped entry is on disk, under the key with the cap
    assert all(Cache(str(tmp_path)).get(key) is not None for key in capped)
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


def test_budgeted_analyze_settles_every_row(budgeted13):
    assert budgeted13["verdict"]["separating"] == YES
    assert [gv["status"] for gv in budgeted13["graphs"]].count(UNRESOLVED) == 0
    assert len(budgeted13["graphs"]) == 8
    assert verify_report(budgeted13) == (True, [])


def test_budgeted_analyze_refutes_every_row_by_covering(budgeted13, tmp_path, monkeypatch):
    # every q=13 row has a realized star, and its covering program refutes
    # the row, so no decision runs
    assert {gv["status"] for gv in budgeted13["graphs"]} == {"SEPARATING_BY_CSP"}
    nodes = [c["nodes"] for gv in budgeted13["graphs"] for c in gv["certificates"]
             if c["kind"] == "exact_hit"]
    assert nodes == [24, 372, 5, 473, 9, 267, 39, 23]
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls)
    _, cold = analyze(13, _budgeted(tmp_path))
    assert cold == budgeted13
    assert not any(name == "find_clique_of_size" for name, _ in calls)
    calls.clear()
    _, warm = analyze(13, _budgeted(tmp_path))
    assert warm == cold and not calls


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


def test_verify_rejects_a_plain_coclique_certificate(budgeted13):
    # only a standalone coclique search writes this kind; an empty one would
    # pass unchecked
    def plain(cert):
        cert.update(kind="coclique", graph={"classes": cert["classes"]}, vertices=[])
    ok, problems = verify_report(_resealed(budgeted13, "realized_coclique", plain))
    assert not ok and "certificate of unknown kind 'coclique'" in problems


def test_verify_builds_no_scheme(monkeypatch):
    # a NO report has no rows, so verify reads no feasibility table
    _, report = analyze(5, PipelineConfig())
    assert report["verdict"]["separating"] == NO and not report["graphs"]
    group = build_group(5)
    for name in ("_putative_table", "_fusion_scheme"):
        monkeypatch.delattr(group, name, raising=False)

    def refuse(group):
        raise AssertionError("verify_report built the fused scheme")
    monkeypatch.setattr(pipeline, "rational_fusion_scheme", refuse)
    assert verify_report(report) == (True, [])


@pytest.fixture(scope="module")
def open13():
    """A q=13 report at 100 nodes: UNKNOWN, three rows left open."""
    return analyze(13, _budgeted(None, budget_nodes=100))[1]


def _claim_yes(report, keep_row=lambda gv: True, keep_witness=lambda wit: True):
    """The report with the rows and witnesses the filters keep, claiming YES."""
    bad = copy.deepcopy(report)
    bad["graphs"] = [gv for gv in bad["graphs"] if keep_row(gv)]
    bad["witnesses"] = [wit for wit in bad["witnesses"] if keep_witness(wit)]
    bad["verdict"].update(separating=YES, synchronising=YES, exit_code=0)
    return bad


TABLE_MISMATCH = "graph rows differ from the group's feasibility table"


def test_verify_rejects_yes_with_its_open_rows_deleted(open13):
    assert open13["verdict"]["separating"] == "UNKNOWN"
    assert [gv["status"] for gv in open13["graphs"]].count(UNRESOLVED) == 3
    assert verify_report(open13) == (True, [])
    bad = _claim_yes(open13, keep_row=lambda gv: gv["status"] != UNRESOLVED)
    assert verify_report(bad) == (False, [TABLE_MISMATCH])


def test_verify_rejects_yes_with_no_rows(open13):
    assert verify_report(_claim_yes(open13, keep_row=lambda gv: False)) == (
        False, [TABLE_MISMATCH])


def test_verify_rejects_yes_on_a_no_report_without_its_witness():
    # PSL(2,5) has an exact factorisation: the paper's q=5 is not synchronising
    _, report = analyze(5, PipelineConfig())
    assert report["witnesses"][0]["kind"] == "exact_factorisation"
    bad = _claim_yes(report, keep_witness=lambda wit: wit["kind"] != "exact_factorisation")
    assert verify_report(bad) == (False, [TABLE_MISMATCH])


def test_verify_rejects_yes_past_the_table_limit():
    _, report = analyze(19, PipelineConfig())
    assert not build_group(19).table_fits() and not report["graphs"]
    ok, problems = verify_report(_claim_yes(report, keep_witness=lambda wit: False))
    assert not ok and "table limit" in problems[0]


def test_verify_rejects_reordered_or_retargeted_rows(open13):
    rows = open13["graphs"]
    for graphs in (rows[::-1], rows[:1] * len(rows),
                   [dict(rows[0], omega_target=rows[0]["omega_target"] - 1)] + rows[1:]):
        assert TABLE_MISMATCH in verify_report(dict(open13, graphs=graphs))[1]


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


def test_verify_requires_the_certificate_that_settles_each_row(budgeted13, report17):
    statuses = Counter(gv["status"] for gv in budgeted13["graphs"])
    assert statuses == {"SEPARATING_BY_CSP": 8}
    # every certificate of every settled row deleted
    bad = copy.deepcopy(budgeted13)
    for gv in bad["graphs"]:
        gv["certificates"] = []
    ok, problems = verify_report(bad)
    assert not ok and len(problems) == 8
    assert all("without a certificate that settles it" in p for p in problems)
    # q=17 G[2,3] has no star, and a decision proves in 2 nodes that its
    # clique target is out of reach
    analyzer, gv = _one_row(("2", "3"), PipelineConfig())
    analyzer.settle_stage()
    assert gv.status == "SEPARATING_BY_NONEXISTENCE"
    [decision] = gv.certificates
    assert decision["status"] == "NONE" and decision["nodes"] == 2
    # the whole table's report carries that row and its decision
    [row] = [gv for gv in report17["graphs"] if gv["clique_classes"] == ["2", "3"]]
    assert row["status"] == "SEPARATING_BY_NONEXISTENCE" and decision in row["certificates"]
    assert verify_report(report17) == (True, [])
    # only the settling certificate deleted, one row of each kind
    for report, status, kind in ((budgeted13, "SEPARATING_BY_CSP", "exact_hit"),
                                 (report17, "SEPARATING_BY_NONEXISTENCE", "clique")):
        bad = copy.deepcopy(report)
        gv = next(gv for gv in bad["graphs"] if gv["status"] == status)
        gv["certificates"] = [c for c in gv["certificates"] if c["kind"] != kind]
        ok, problems = verify_report(bad)
        assert not ok and problems == [
            f"graph {gv['clique_classes']}: {status} without a certificate that settles it"]
    # two covering rows that trade their refutations: each carries a valid
    # certificate, but of the other row's graph
    bad = copy.deepcopy(budgeted13)
    first, second = [gv for gv in bad["graphs"] if gv["status"] == "SEPARATING_BY_CSP"][:2]
    first["certificates"], second["certificates"] = (second["certificates"],
                                                     first["certificates"])
    ok, problems = verify_report(bad)
    assert not ok and sum("without a certificate" in p for p in problems) == 2


@pytest.mark.parametrize("field", ["status", "omega_target", "certificates",
                                   "clique_classes"])
def test_verify_names_a_missing_row_field(budgeted13, tmp_path, capsys, field):
    bad = copy.deepcopy(budgeted13)
    bad["graphs"][0].pop(field)
    assert verify_report(bad) == (False, [f"missing field {field!r}"])
    _verify_cli_rejects(bad, tmp_path, capsys)


@pytest.mark.parametrize("row", [5, "row", [1, 2]], ids=["int", "str", "list"])
def test_verify_rejects_a_row_that_is_not_an_object(budgeted13, tmp_path, capsys, row):
    bad = copy.deepcopy(budgeted13)
    bad["graphs"][3] = row
    assert verify_report(bad) == (False, ["malformed report: a graph row is not an object"])
    _verify_cli_rejects(bad, tmp_path, capsys)


# -- the verifier replays each row's status ------------------------------------------


@pytest.fixture(scope="module")
def report17():
    """A q=17 report at 500 nodes: 10 NONE rows, 8 covering rows, one
    inference row and 4 unresolved rows."""
    return analyze(17, PipelineConfig(budget_nodes=500))[1]


def _row(report, *classes):
    return next(gv for gv in report["graphs"] if gv["clique_classes"] == list(classes))


def _unsettled(gv, status):
    return f"graph {gv['clique_classes']}: {status} without a certificate that settles it"


STATUSES = ("SEPARATING_BY_NONEXISTENCE", "SEPARATING_BY_CSP",
            "SEPARATING_BY_INFERENCE", UNRESOLVED)


def test_replay_gives_every_row_the_pipeline_status(report17):
    assert verify_report(report17) == (True, [])
    assert Counter(gv["status"] for gv in report17["graphs"]) == dict(
        zip(STATUSES, (10, 8, 1, 4)))
    assert _row(report17, "2", "8", "9")["status"] == "SEPARATING_BY_INFERENCE"
    # any other status on any one row is refuted by the replay, on that row alone
    for i, gv in enumerate(report17["graphs"]):
        for status in set(STATUSES) - {gv["status"]}:
            bad = copy.deepcopy(report17)
            bad["graphs"][i]["status"] = status
            assert verify_report(bad) == (False, [_unsettled(gv, status)])


@pytest.mark.parametrize("q, nodes", [(13, 100), (17, 500)])
def test_verify_rejects_unresolved_rows_claimed_by_inference(q, nodes, report17):
    report = report17 if q == 17 else analyze(q, PipelineConfig(budget_nodes=nodes))[1]
    bad = copy.deepcopy(report)
    edited = [gv for gv in bad["graphs"] if gv["status"] == UNRESOLVED]
    assert edited and report["verdict"]["separating"] == UNKNOWN
    for gv in edited:
        gv["status"] = "SEPARATING_BY_INFERENCE"
    bad["verdict"]["separating"] = YES
    ok, problems = verify_report(bad)
    assert not ok and problems == [_unsettled(gv, "SEPARATING_BY_INFERENCE")
                                   for gv in edited]


def test_dropping_a_covering_certificate_fails_the_rows_inferred_from_it(report17):
    # G[4,17]'s refutation spans all edges: it bounds omega(G[2,3,8,9]), which
    # puts G[2,8,9]'s 72-clique out of reach
    bad = copy.deepcopy(report17)
    row = _row(bad, "4", "17")
    row["certificates"] = [c for c in row["certificates"] if c["kind"] != "exact_hit"]
    assert verify_report(bad) == (False, [
        _unsettled(row, "SEPARATING_BY_CSP"),
        _unsettled(_row(bad, "2", "8", "9"), "SEPARATING_BY_INFERENCE")])


def test_an_inferred_row_relabelled_as_covered_fails(report17):
    bad = copy.deepcopy(report17)
    row = _row(bad, "2", "8", "9")
    row["status"] = "SEPARATING_BY_CSP"
    assert verify_report(bad) == (False, [_unsettled(row, "SEPARATING_BY_CSP")])


def test_verify_rejects_another_format_version(budgeted13):
    old = copy.deepcopy(budgeted13)
    old["meta"]["version"] = "0.1.0"
    ok, problems = verify_report(old)
    assert not ok and len(problems) == 1
    assert "0.1.0" in problems[0] and pipeline.__version__ in problems[0]


NO_WITHOUT_WITNESS = "verdict NO without a negative witness"


def test_verify_rejects_a_no_verdict_without_a_negative_witness(budgeted13, tmp_path,
                                                                  capsys):
    # every row is settled and the report holds no witness: NO has nothing to rest on
    bad = copy.deepcopy(budgeted13)
    bad["verdict"]["separating"] = NO
    assert verify_report(bad) == (False, [NO_WITHOUT_WITNESS])
    _verify_cli_rejects(bad, tmp_path, capsys)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 16, 19, 23, 27, 29, 31])
def test_every_witness_verdict_verifies(q):
    # the q-sweep benchmark's prime powers: NO on a verified negative witness
    _, report = analyze(q, PipelineConfig(budget_nodes=100, budget_secs=1.0))
    assert report["verdict"]["separating"] == NO
    assert verify_report(report) == (True, [])


def _regular_action(wit):
    """Forge a sharply transitive witness: the trivial subgroup, whose coset
    action is the regular action, with every element as the set."""
    group = build_group(wit["q"])
    wit.update(subgroup=[group.identity], elements=list(range(group.order)),
               degree=group.order)


def test_a_regular_action_witness_fails():
    _, report = analyze(9, PipelineConfig())
    honest = _resealed_multiset(report, lambda w: None, "sharply_transitive")
    assert verify_report(honest) == (True, [])
    forged = _resealed_multiset(report, _regular_action, "sharply_transitive")
    # NO stands only on a witness that verifies: here the one that fails is the problem
    assert verify_report(forged) == (False, ["witness sharply_transitive: verification failed"])
    # a subgroup of index 6 with a degree that does not match it
    wit = next(w for w in report["witnesses"] if w["kind"] == "sharply_transitive")
    assert len(wit["subgroup"]) * wit["degree"] == 360
    for degree in (5, 7, 360):
        bad = _resealed_multiset(report, lambda w: w.update(degree=degree),
                                 "sharply_transitive")
        assert not verify_report(bad)[0]
    # a non-subgroup of the same size
    bad = _resealed_multiset(report, lambda w: w["subgroup"].__setitem__(
        -1, next(x for x in range(360) if x not in w["subgroup"])), "sharply_transitive")
    assert not verify_report(bad)[0]


def test_a_regular_action_witness_fails_in_a_no_report(budgeted13):
    # the forgery inserted into the q=13 report, its rows removed, verdict NO
    wit = {"kind": "sharply_transitive", "q": 13, "verified": True}
    _regular_action(wit)
    bad = copy.deepcopy(budgeted13)
    bad["graphs"], bad["witnesses"] = [], [sealed(wit)]
    bad["verdict"]["separating"] = NO
    assert verify_report(bad) == (False, ["witness sharply_transitive: verification failed"])


def test_verify_rechecks_a_feasible_covering_witness():
    # PSL(2,5) = A4 * C5: an A4 meets every coset of every Sylow 5-subgroup once
    group = build_group(5)
    graph = build_graph(group, ["5"])
    system = generate_translate_rows(graph, sylow_subgroup(group, 5).tolist())
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


def _report_text(report) -> str:
    return json.dumps(report, sort_keys=True, indent=1)


def _raises(name):
    def finder(*args, **kwargs):
        raise AssertionError(f"{name} ran on a warm cache")
    return finder


@pytest.mark.parametrize("q", [5, 9, 13, 29])
def test_warm_analyze_searches_for_no_witness(q, tmp_path, monkeypatch):
    cfg = _budgeted(tmp_path)
    _, cold = analyze(q, cfg)
    with monkeypatch.context() as patched:
        for name in ("find_exact_factorisation", "find_sharply_transitive_set",
                     "spreading_witness", "coset_halving_check"):
            patched.setattr(pipeline, name, _raises(name))
            patched.setattr(witnesses, name, _raises(name))
        _, warm = analyze(q, cfg)
        assert _report_text(warm) == _report_text(cold)
        # a new process: the group rebuilt, every witness read from the files
        build_group.cache_clear()
        fresh = Analyzer(q, cfg)
        assert not fresh.cache.memory
        assert _report_text(pipeline.emit_report(fresh, fresh.run())) == _report_text(cold)
    # verify re-checks every witness in full, on every call
    calls: Counter = Counter()
    for name in ("verify_exact_factorisation", "verify_sharply_transitive",
                 "verify_spreading_multiset", "coset_halving_check"):
        real = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, lambda *a, _real=real, _name=name:
                            calls.update([_name]) or _real(*a))
    assert verify_report(warm) == verify_report(warm) == (True, [])
    kinds = Counter(wit["kind"] for wit in warm["witnesses"])
    assert calls == {name: 2 * kinds[kind] for name, kind in (
        ("verify_exact_factorisation", "exact_factorisation"),
        ("verify_sharply_transitive", "sharply_transitive"),
        ("verify_spreading_multiset", "non_spreading_multiset"),
        ("coset_halving_check", "non_spreading_multiset")) if kinds[kind]}


def _witness_key(op, q, version=pipeline.__version__):
    return {"op": op, "q": q, "classes": [], "version": version}


def test_a_cached_witness_adds_no_trust(tmp_path):
    # PSL(2,13) has no exact factorisation; the forgery is a Borel subgroup
    # and a dihedral subgroup of order 14, whose product is not the group
    group = build_group(13)
    a, b = borel_subgroup(group), dihedral_subgroup(group, 7)
    assert len(a) * len(b) == group.order and len(np.intersect1d(a, b)) > 1
    forged = sealed({"kind": "exact_factorisation", "q": 13, "A": a.tolist(),
                     "B": b.tolist(), "verified": True, "checks": {}})
    Cache(str(tmp_path)).put(_witness_key("exact_factorisation", 13),
                             sealed({"status": "FOUND", "witness": forged}))
    verdict, report = analyze(13, PipelineConfig(cache_dir=str(tmp_path)))
    assert verdict.separating == NO and report["witnesses"][0] == forged
    assert verify_report(report) == (False, ["witness exact_factorisation: verification failed"])


def _count_witness_searches(monkeypatch, calls: Counter):
    for name in ("find_exact_factorisation", "spreading_witness"):
        real = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, lambda group, _real=real, _name=name:
                            calls.update([_name]) or _real(group))


def test_a_witness_entry_of_another_version_is_a_miss(tmp_path, monkeypatch):
    calls: Counter = Counter()
    _count_witness_searches(monkeypatch, calls)
    # an entry of the 0.2.0 format that claims PSL(2,5) has no exact factorisation
    Cache(str(tmp_path)).put(_witness_key("exact_factorisation", 5, "0.2.0"),
                             sealed({"status": "NONE", "witness": None}))
    _, report = analyze(5, PipelineConfig(cache_dir=str(tmp_path)))
    assert calls["find_exact_factorisation"] == 1
    assert report["witnesses"][0]["kind"] == "exact_factorisation"
    assert verify_report(report) == (True, [])


def test_a_witness_file_with_a_broken_digest_is_a_miss(tmp_path, monkeypatch):
    calls: Counter = Counter()
    _count_witness_searches(monkeypatch, calls)
    cfg = PipelineConfig(cache_dir=str(tmp_path))
    _, cold = analyze(5, cfg)
    [path] = [path for path in tmp_path.glob("*.json")
              if (json.loads(path.read_text())["witness"] or {}).get("lambda")]
    honest = json.loads(path.read_text())
    entry = copy.deepcopy(honest)
    entry["witness"]["lambda"] += 1
    path.write_text(json.dumps(entry))
    _, warm = analyze(5, cfg)
    assert calls == {"find_exact_factorisation": 1, "spreading_witness": 2}
    assert warm == cold and json.loads(path.read_text()) == honest


# a 28-clique of G[2,6,7] is a 28-coclique of G[3,13]: none exists (alpha = 22),
# and no cap below 5,000 nodes settles the decision
DECISION = ("2", "6", "7"), 28


def test_capped_entry_is_keyed_by_node_cap(tmp_path, monkeypatch):
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls)
    labels, k = DECISION
    first = Analyzer(13, _budgeted(tmp_path, budget_nodes=50)).cached_decision(labels, k)
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


def test_a_covering_entry_of_another_format_is_a_miss(tmp_path, monkeypatch):
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls)
    group = build_group(5)
    labels = ("5",)
    base = sylow_subgroup(group, 5).tolist()
    # a final entry as the 0.2.0 format kept it, with a node count of the
    # solver before orbital branching; it claims that no transversal exists,
    # though an A4 is one
    old_key = {"op": "exact_hit_csp", "q": 5, "classes": list(labels), "version": "0.2.0",
               "base": base, "target": 12}
    system = generate_translate_rows(build_graph(group, labels), base)
    Cache(str(tmp_path)).put(old_key, sealed({
        "kind": "exact_hit", "status": "PROVEN_INFEASIBLE", "target": 12, "witness": [],
        "nodes": 99, "system": system.descriptor(), "notes": []}))
    calls.clear()
    fresh = Analyzer(5, PipelineConfig(cache_dir=str(tmp_path))).cached_csp(labels, base, 12)
    assert calls["solve_cover_ilp", labels] == 1
    assert fresh["status"] == "FEASIBLE" and len(fresh["witness"]) == 12
    assert len(list(tmp_path.glob("*.json"))) == 2
    # the planted key is the one the 0.2.0 format read
    monkeypatch.setattr(pipeline, "__version__", "0.2.0")
    stale = Analyzer(5, PipelineConfig(cache_dir=str(tmp_path))).cached_csp(labels, base, 12)
    assert stale["nodes"] == 99 and calls["solve_cover_ilp", labels] == 1


def test_clock_stopped_result_is_not_stored(tmp_path, monkeypatch):
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls)
    labels, k = DECISION
    # a deadline already past stops the decision at its first clock check
    late = Analyzer(13, _budgeted(tmp_path, budget_nodes=5000, budget_secs=-1.0))
    stopped = late.cached_decision(labels, k)
    assert stopped["status"] == search.EXHAUSTED and stopped["nodes"] <= 2048
    assert not late.cache.memory and not list(tmp_path.iterdir())
    capped = Analyzer(13, _budgeted(tmp_path, budget_nodes=5000)).cached_decision(labels, k)
    assert calls["find_clique_of_size", labels] == 2 and capped["nodes"] > 2048
    assert late.cached_decision(labels, k) == capped
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
