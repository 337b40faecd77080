import copy

import pytest

from diagsync.pipeline import (
    Analyzer,
    FactBase,
    NO,
    PipelineConfig,
    UNKNOWN,
    analyze,
    certificate_digest,
    verify_report,
    write_report,
)


def test_factbase_monotonicity():
    fb = FactBase(("2", "3", "6", "7", "13"))
    fb.set_alpha_exact(("3", "13"), 22, "search")
    # alpha(G_{3,13}) = omega(G_{2,6,7}) = 22 propagates to subsets
    up = fb.omega_upper(("6", "7"))
    assert up is not None and up[0] == 22
    up = fb.omega_upper(("2", "6", "7"))
    assert up is not None and up[0] == 22
    assert fb.omega_upper(("2", "3")) is None
    fb.set_alpha_exact(("6", "13"), 25, "search")
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
    analyzer.facts.set_alpha_exact(("6", "13"), 25, "planted")
    analyzer.facts.set_alpha_exact(("3", "13"), 22, "planted")
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


@pytest.mark.slow
def test_unknown_exit_code_when_unresolved():
    cfg = PipelineConfig(budget_secs=0.5, direct_search_secs=0.5, witness_secs=0.5,
                         budget_nodes=100)
    verdict, report = analyze(17, cfg)
    assert verdict.separating == UNKNOWN
    assert verdict.exit_code() == 2
    assert verdict.spreading == NO  # the multiset witness is cheap and exact
    assert report["verdict"]["exit_code"] == 2
