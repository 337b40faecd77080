import json
import re
import shlex
from pathlib import Path

import pytest

from diagsync import cli
from diagsync.cli import main
from diagsync.pipeline import GroupVerdict


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_scheme_subcommand(capsys):
    code, out = run_cli(capsys, "scheme", "--q", "13")
    assert code == 0
    data = json.loads(out)
    assert data["relations"] == ["1", "2", "3", "6", "7", "13"]
    assert data["sizes"] == [1, 91, 182, 182, 468, 168]
    assert sorted(map(int, data["multiplicities"])) == [1, 98, 169, 196, 196, 432]


def test_scheme_unfused_diagnostic(capsys):
    code, out = run_cli(capsys, "scheme", "--q", "13", "--unfused")
    data = json.loads(out)
    assert code == 0 and data["Q"] is None and "irrational" in data["diagnostic"]


def test_feasibility_subcommand(capsys):
    code, out = run_cli(capsys, "feasibility", "--q", "13", "--classes", "3,7")
    assert code == 0
    data = json.loads(out)
    fam = data["families"][0]
    assert fam["clique"]["size"] == 42 and fam["coclique"]["size"] == 26
    assert fam["coclique"]["entry_range"] == ["0", "13"]


def test_feasibility_table(capsys):
    code, out = run_cli(capsys, "feasibility", "--q", "13")
    data = json.loads(out)
    assert code == 0 and len(data["rows"]) == 8
    assert sum(1 for r in data["rows"] if r["novel"]) == 6


def test_search_subcommand(capsys):
    code, out = run_cli(capsys, "search", "--q", "13", "--classes", "13",
                        "--mode", "clique", "--budget-secs", "60")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 13 and data["exhaustive"]
    assert "digest" in data


def test_search_decide_requires_size(capsys):
    code = main(["search", "--q", "13", "--classes", "13", "--mode", "decide"])
    assert code == 1


def test_graph_subcommand(capsys, tmp_path):
    path = tmp_path / "g.dimacs"
    code, out = run_cli(capsys, "graph", "--q", "13", "--classes", "13",
                        "--dimacs", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 168 and data["complement"] == ["2", "3", "6", "7"]
    assert path.read_bytes().splitlines()[1] == b"p edge 1092 91728"


def test_witness_subcommand(capsys):
    code, out = run_cli(capsys, "witness", "--q", "7", "--kind", "factorisation")
    data = json.loads(out)
    assert code == 0 and data["verified"]
    code, out = run_cli(capsys, "witness", "--q", "13", "--kind", "spreading")
    data = json.loads(out)
    assert code == 0 and data["lambda"] == 78


def test_certify_exact_hit_feasible(capsys):
    # PSL(2,5) = A4 * C5: the target is 60/5 = 12 and an A4 meets every coset
    code, out = run_cli(capsys, "certify", "--q", "5", "--classes", "5",
                        "--base-clique", "sylow")
    data = json.loads(out)
    assert code == 0 and data["status"] == "FEASIBLE" and data["kind"] == "exact_hit"
    assert data["target"] == 12 and len(data["witness"]) == 12


def test_certify_exact_hit_on_budget(capsys):
    code, out = run_cli(capsys, "certify", "--q", "13", "--classes", "13",
                        "--base-clique", "sylow", "--budget-nodes", "50")
    data = json.loads(out)
    assert code == 2 and data["status"] == "BUDGET_BRACKET"
    assert data["target"] == 84 and data["nodes"] == 51


def test_certify_rejects_a_base_that_does_not_divide(capsys, monkeypatch):
    monkeypatch.setattr(cli, "algebraic_clique_seeds", lambda graph: [tuple(range(7))])
    code = main(["certify", "--q", "5", "--classes", "5"])
    assert code == 1 and "does not divide" in capsys.readouterr().err


def test_analyze_and_verify_roundtrip(capsys, tmp_path):
    report_path = tmp_path / "report9.json"
    code = main(["analyze", "--q", "9", "--out", str(report_path)])
    assert code == 0
    capsys.readouterr()
    code, out = run_cli(capsys, "verify", str(report_path))
    assert code == 0 and json.loads(out)["ok"]
    # tamper with the stored report: replay must reject it
    report = json.loads(report_path.read_text())
    report["witnesses"][0]["elements"][0] ^= 1
    report_path.write_text(json.dumps(report))
    code, out = run_cli(capsys, "verify", str(report_path))
    assert code == 1 and not json.loads(out)["ok"]


def test_search_threads_match_serial(capsys):
    # G[3,7] at q=8 has enough pinned subproblems to fan out to workers
    results = []
    for threads in ("1", "2"):
        code, out = run_cli(capsys, "search", "--q", "8", "--classes", "3,7",
                            "--mode", "clique", "--threads", threads)
        data = json.loads(out)
        results.append((code, data["size"], data["exhaustive"]))
    assert results[0] == results[1] == (0, 11, True)
    assert data["method"] == "pinned-bb-x2"


def test_analyze_beyond_table_limit_is_unknown(capsys, tmp_path):
    # PSL(2,25) has no multiplication table: the scheme stages are skipped,
    # and the spreading witness still proves non-spreading
    report_path = tmp_path / "report25.json"
    code = main(["analyze", "--q", "25", "--out", str(report_path)])
    assert code == 2
    report = json.loads(report_path.read_text())
    verdict = report["verdict"]
    assert verdict["separating"] == "UNKNOWN" and verdict["spreading"] == "NO"
    assert "table limit" in verdict["notes"][0]
    assert report["graphs"] == []
    capsys.readouterr()
    code, out = run_cli(capsys, "verify", str(report_path))
    assert code == 0 and json.loads(out)["ok"]


def test_analyze_budget_flag_beats_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("DIAGSYNC_BUDGET_SECS", "1")
    monkeypatch.setenv("DIAGSYNC_BUDGET_NODES", "1")
    seen = []

    def fake_analyze(q, config):
        seen.append(config)
        return GroupVerdict(q), {"verdict": {}}

    monkeypatch.setattr(cli, "analyze", fake_analyze)
    main(["analyze", "--q", "13", "--budget-secs", "7"])
    assert seen[0].budget_secs == 7 and seen[0].budget_nodes == 10 ** 9


@pytest.mark.parametrize("argv", [
    ["scheme", "--q", "13", "--threads", "2"],
    ["feasibility", "--q", "13", "--seed", "1"],
    ["graph", "--q", "13", "--classes", "13", "--budget-secs", "5"],
    ["witness", "--q", "7", "--kind", "sharp", "--budget-nodes", "5"],
    ["certify", "--q", "5", "--classes", "5", "--seed", "1"],
    ["certify", "--q", "5", "--classes", "5", "--threads", "2"],
    ["search", "--q", "13", "--classes", "13", "--seed", "1"],
    ["analyze", "--q", "13", "--threads", "2"],
])
def test_subcommands_reject_flags_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line.split("#")[0] for line in readme.splitlines()
             if line.startswith("diagsync ")]
    assert len(lines) >= 10
    for line in lines:
        # an optional [--flag value] is parsed both without and with it
        for text in (re.sub(r"\[[^]]*\]", "", line), re.sub(r"[][]", "", line)):
            cli._parser().parse_args(shlex.split(text)[1:])
