"""End-to-end orchestration: from the group to a certified verdict.

Stages run in order: negative witnesses -> scheme and feasibility ->
realization -> settle -> spreading.  The settle stage runs the covering
program on every realized star, then inference, then a decision for each row
still open with no clique star; a clique it finds becomes that row's star
and is refuted at once.  A row is settled by a covering refutation, a NONE
decision or inference, and every definitive claim is backed by a certificate
in the report; budget-exhausted attempts leave a row UNRESOLVED and the group
verdict UNKNOWN (exit code 2), never a silent guess.

Monotonicity: for I inside J, omega(G_I) <= omega(G_J) and
alpha(G_I) >= alpha(G_J); complementation gives omega(G_I) = alpha(G_{I^c}).
A row is separating as soon as one of its two targets is proven unreachable.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .certify import (BRACKET, FEASIBLE, PROVEN_INFEASIBLE, generate_translate_rows,
                      solve_cover_ilp)
from .feasibility import putative_table
from .gf import MAX_Q, factor_prime_power
from .graphs import build_graph, complement_graph
from .psl2 import TABLE_LIMIT, PSL2, build_group, is_subgroup
from .scheme import rational_fusion_scheme
from .search import (
    Budget,
    EXHAUSTED,
    FOUND,
    NONE,
    algebraic_clique_seeds,
    find_clique_of_size,
    verify_clique,
    verify_coclique,
)
from .witnesses import (
    coset_action,
    coset_halving_check,
    find_exact_factorisation,
    find_sharply_transitive_set,
    index_six_subgroup,
    spreading_witness,
    verify_exact_factorisation,
    verify_sharply_transitive,
    verify_spreading_multiset,
)

ELIMINATED_FEASIBILITY = "ELIMINATED_FEASIBILITY"
SEPARATING_BY_CSP = "SEPARATING_BY_CSP"
SEPARATING_BY_INFERENCE = "SEPARATING_BY_INFERENCE"
SEPARATING_BY_NONEXISTENCE = "SEPARATING_BY_NONEXISTENCE"
UNRESOLVED = "UNRESOLVED"

YES, NO, UNKNOWN = "YES", "NO", "UNKNOWN"


@dataclass
class PipelineConfig:
    budget_secs: float = Budget.max_seconds  # clock of each decision and covering program
    budget_nodes: int = Budget.max_nodes
    direct_search_secs: float = 900.0    # read by no stage; perfbench/run.py passes it
    seed: int = 0                        # read by no stage; perfbench/run.py passes it
    threads: int = 1                     # read by no stage; perfbench/run.py passes it
    cache_dir: str | None = None


@dataclass
class GraphVerdict:
    clique_classes: tuple[str, ...]
    coclique_classes: tuple[str, ...]
    omega_target: int
    alpha_target: int
    status: str = UNRESOLVED
    reason: str = ""
    inference_edge: str = ""
    certificates: list[dict] = field(default_factory=list)
    stars: dict = field(default_factory=dict)

    def payload(self) -> dict:
        return {
            "clique_classes": list(self.clique_classes),
            "coclique_classes": list(self.coclique_classes),
            "omega_target": self.omega_target, "alpha_target": self.alpha_target,
            "status": self.status, "reason": self.reason,
            "inference_edge": self.inference_edge,
            "certificates": self.certificates, "stars": self.stars,
        }


@dataclass
class GroupVerdict:
    q: int
    separating: str = UNKNOWN            # YES / NO / UNKNOWN; = synchronising
    spreading: str = UNKNOWN             # NO / UNKNOWN
    witnesses: list[dict] = field(default_factory=list)
    graphs: list[GraphVerdict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def synchronising(self) -> str:
        return self.separating

    def exit_code(self) -> int:
        return 0 if self.separating in (YES, NO) else 2


# -- fact base and monotonicity ------------------------------------------------------


class FactBase:
    """Proven upper bounds on omega per fused class set, with monotone propagation."""

    def __init__(self, all_labels: tuple[str, ...]):
        self.all_labels = frozenset(all_labels)
        self.upper: dict[frozenset, tuple[int, str]] = {}

    def set_omega_upper(self, classes, value: int, why: str):
        key = frozenset(classes)
        if key not in self.upper or self.upper[key][0] > value:
            self.upper[key] = (value, why)

    def omega_upper(self, classes) -> tuple[int, str] | None:
        """Best proven upper bound via monotonicity: omega(I) <= omega(J), I <= J."""
        key = frozenset(classes)
        best = None
        for other, (value, why) in self.upper.items():
            if key <= other:
                chain = why if other == key else \
                    f"omega[{','.join(sorted(key))}] <= omega[{','.join(sorted(other))}]; {why}"
                if best is None or value < best[0]:
                    best = (value, chain)
        return best

    def alpha_upper(self, classes) -> tuple[int, str] | None:
        # alpha(G_I) = omega(G_{I^c})
        return self.omega_upper(self.all_labels - frozenset(classes))

    def infer(self, rows):
        """Settle each open row whose target a proven bound puts out of reach."""
        for gv in rows:
            for side, target, upper in (("omega", gv.omega_target, self.omega_upper),
                                        ("alpha", gv.alpha_target, self.alpha_upper)):
                bound = upper(gv.clique_classes) if gv.status == UNRESOLVED else None
                if bound and bound[0] < target:
                    gv.status = SEPARATING_BY_INFERENCE
                    gv.reason = f"{side} target {target} unreachable: {side} <= {bound[0]}"
                    gv.inference_edge = bound[1]


def settle_row(gv: GraphVerdict, cert: dict, facts: FactBase):
    """The one rule, in analyze and in verify, by which a certificate settles
    an open row (the row keeps it, the facts the bound it proves): a NONE
    decision at the row's omega target, or a PROVEN_INFEASIBLE covering
    program at the other side's target.  By the equality case of the
    clique-coclique bound, a clique C and a coclique S with |C|*|S| = |Omega|
    meet in exactly one vertex, and so do all translates of C.  Refuting such
    an S against the translates of a realized C therefore refutes the row's
    remaining target; likewise with the roles exchanged on the complement graph.
    """
    kind, target = cert.get("kind"), cert.get("target")
    if gv.status != UNRESOLVED or (kind, cert.get("status")) not in (
            ("clique", NONE), ("exact_hit", PROVEN_INFEASIBLE)):
        return
    system = cert["system"] if kind == "exact_hit" else cert
    claim = (tuple(sorted(system["graph"]["classes"])), target)
    clique = tuple(sorted(gv.clique_classes))
    refuted = {(clique, gv.alpha_target): ("coclique", "clique", gv.coclique_classes),
               (tuple(sorted(gv.coclique_classes)), gv.omega_target):
                   ("clique", "coclique", gv.clique_classes)}
    if kind == "clique" and claim == (clique, gv.omega_target):
        gv.status = SEPARATING_BY_NONEXISTENCE
        gv.reason = f"no clique of size {target} exists: omega < {target}"
        facts.set_omega_upper(gv.clique_classes, target - 1,
                              "decision search: no clique of target size")
    elif kind == "exact_hit" and claim in refuted:
        sought, base, other = refuted[claim]
        gv.status = SEPARATING_BY_CSP
        gv.reason = (f"no {sought} of size {target} meets every translate of "
                     f"the size-{len(system['base_clique'])} {base} exactly once")
        if system["edges_covered"]:
            # a {sought} of the row's graph is a clique of G[other]
            facts.set_omega_upper(other, target - 1,
                                  "covering refutation (rows span all edges)")
    else:
        return
    gv.certificates.append(cert)


def group_table(group: PSL2) -> tuple:
    """The group's feasibility table: the rows analyze settles and verify
    replays.  It depends only on the group, so it is kept in the group's
    store, like its subgroup library and fused scheme."""
    return group.derived("feasibility_table",
                         lambda group: tuple(putative_table(rational_fusion_scheme(group))))


def _row_key(row) -> tuple:
    """A table row's or graph row's class sets and targets."""
    return row.clique_classes, row.coclique_classes, row.omega_target, row.alpha_target


# -- certificate cache ----------------------------------------------------------------


class Cache:
    """Sealed payloads by key, in memory and, given a path, in files written
    whole; a file that does not parse or fails its digest is a miss."""

    def __init__(self, path: str | None):
        self.path = path
        self.memory: dict[str, dict] = {}
        if path:
            os.makedirs(path, exist_ok=True)

    def get(self, key: dict):
        name = json.dumps(key, sort_keys=True)
        if name not in self.memory and self.path:
            try:
                with open(self._file(name)) as fh:
                    hit = json.load(fh)
            except (FileNotFoundError, ValueError):
                hit = None
            if _intact(hit):
                self.memory[name] = hit
        return self.memory.get(name)

    def put(self, key: dict, value: dict):
        name = json.dumps(key, sort_keys=True)
        self.memory[name] = value
        if self.path:
            fd, tmp = tempfile.mkstemp(dir=self.path, suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                json.dump(value, fh, sort_keys=True)
            os.replace(tmp, self._file(name))

    def _file(self, name: str) -> str:
        digest = hashlib.sha256(name.encode()).hexdigest()[:24]
        return os.path.join(self.path, digest + ".json")


def certificate_digest(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _intact(payload) -> bool:
    return isinstance(payload, dict) and payload.get("digest") == certificate_digest(
        {k: v for k, v in payload.items() if k != "digest"})


def _final(payload: dict) -> bool:
    """Settled under any budget: FOUND/NONE, or a covering verdict."""
    return payload["status"] not in (EXHAUSTED, BRACKET)


def sealed(payload: dict) -> dict:
    out = dict(payload)
    out["digest"] = certificate_digest(payload)
    return out


# -- the analyzer ----------------------------------------------------------------------


class Analyzer:
    def __init__(self, q: int, config: PipelineConfig | None = None):
        self.q = q
        self.config = config or PipelineConfig()
        self.cache = Cache(self.config.cache_dir)
        self.group: PSL2 = build_group(q)
        # set by feasibility_stage: the witness stage may settle the verdict
        # without them, and large q (no multiplication table) never reach it
        self.scheme = None
        self.table_rows: tuple = ()
        self.facts: FactBase | None = None
        self.verdict = GroupVerdict(q)

    # ---- cached heavy operations -------------------------------------------------

    def _search_budget(self) -> Budget:
        return Budget(max_nodes=self.config.budget_nodes,
                      max_seconds=self.config.budget_secs)

    def _cached(self, op: str, labels, run, **params) -> dict:
        """Cache-through for one budgeted decision or covering program, or one
        witness search: run() returns (payload, timed_out) and is called only
        on a miss.  Every key names the format version, so an entry of another
        format is a miss.  Decisions and covering programs run serially, so a
        payload the node cap stopped repeats exactly under the same cap (every
        meter starts from budget_nodes) and is kept under a key with it; one
        the clock stopped is not kept.  A witness search has no budget and is
        deterministic: its entry, NONE included, is final.  An entry adds no
        trust: verify_report re-checks every certificate and witness."""
        key = {"op": op, "q": self.q, "classes": sorted(labels),
               "version": __version__, **params}
        capped = dict(key, node_cap=self.config.budget_nodes)
        hit = self.cache.get(key)
        if hit is None or not _final(hit):
            hit = self.cache.get(capped)
        if hit is None:
            hit, timed_out = run()
            if _final(hit):
                self.cache.put(key, hit)
            elif not timed_out:
                self.cache.put(capped, hit)
        return hit

    def cached_decision(self, labels, k: int) -> dict:
        def run():
            status, cert = find_clique_of_size(
                build_graph(self.group, labels), k, budget=self._search_budget())
            return sealed({"status": status, **cert.payload()}), cert.timed_out
        return self._cached("decision", labels, run, k=k)

    def cached_csp(self, labels, base_clique, target: int) -> dict:
        if len(base_clique) * target != self.group.order:
            raise ValueError("exact-hit refutation requires |C| * target = |Omega|")

        def run():
            system = generate_translate_rows(build_graph(self.group, labels),
                                             base_clique)
            res = solve_cover_ilp(system, target, budget=self._search_budget())
            return sealed(res.payload()), res.timed_out
        return self._cached("exact_hit_csp", labels, run,
                            base=sorted(base_clique), target=target)

    def cached_witness(self, op: str, find) -> dict | None:
        """find()'s verified witness, or None, through the cache: a sealed
        payload as the report carries it, kept under status FOUND or NONE."""
        def run():
            wit = find()
            if wit is None:
                return sealed({"status": NONE, "witness": None}), False
            return sealed({"status": FOUND, "witness": sealed(wit.payload())}), False
        return self._cached(op, (), run)["witness"]

    # ---- stages -------------------------------------------------------------------

    def witness_stage(self) -> bool:
        """Negative witnesses: exact factorisation or a sharply transitive set."""
        def sharply_transitive():
            sub = index_six_subgroup(self.group)
            return None if sub is None else find_sharply_transitive_set(self.group, sub)

        for op, find, note in (
                ("exact_factorisation", lambda: find_exact_factorisation(self.group),
                 "exact factorisation found: non-synchronising, hence non-separating"),
                ("sharply_transitive", sharply_transitive,
                 "sharply transitive set for a small coset action: non-synchronising")):
            wit = self.cached_witness(op, find)
            if wit is not None:
                self.verdict.witnesses.append(wit)
                self.verdict.separating = NO
                self.verdict.notes.append(note)
                return True
        return False

    def feasibility_stage(self) -> list[GraphVerdict]:
        self.scheme = rational_fusion_scheme(self.group)    # the report shows it
        self.table_rows = group_table(self.group)
        self.facts = FactBase(tuple(o.label for o in self.group.fusion_orbits()[1:]))
        self.verdict.graphs = [GraphVerdict(row.clique_classes, row.coclique_classes,
                                            row.omega_target, row.alpha_target)
                               for row in self.table_rows]
        return self.verdict.graphs

    def _realize(self, gv: GraphVerdict, side: str, hit):
        """Record a verified object of a row's target size as the star of one
        side: a clique ("omega") or a coclique ("alpha") of the row's graph,
        certified for the report and usable as a covering base."""
        graph = build_graph(self.group, gv.clique_classes)
        kind = "clique" if side == "omega" else "coclique"
        check = verify_clique if side == "omega" else verify_coclique
        if not check(graph, hit):
            raise AssertionError("star witness failed direct verification")
        gv.stars[side] = {"size": len(hit), "witness": list(hit)}
        gv.certificates.append(sealed({
            "kind": f"realized_{kind}", "classes": list(gv.clique_classes),
            "vertices": list(hit), "size": len(hit)}))

    def realization_stage(self):
        """Realize each side's extremal target from an algebraic seed."""
        for gv in self.verdict.graphs:
            graph = build_graph(self.group, gv.clique_classes)
            for side, target, g in (("omega", gv.omega_target, graph),
                                    ("alpha", gv.alpha_target, complement_graph(graph))):
                hit = next((s[:target] for s in algebraic_clique_seeds(g)
                            if len(s) >= target and verify_clique(g, s[:target])), None)
                if hit:
                    self._realize(gv, side, hit)

    def settle_stage(self):
        """Covering programs on every realized star, with no inference in
        between; then inference; then a decision for each row still open with
        no clique star, each followed by inference.  A NONE settles the row; a
        clique found becomes the row's omega star and is refuted at once."""
        for gv in self.verdict.graphs:
            self._refute(gv)
        self.facts.infer(self.verdict.graphs)
        for gv in self.verdict.graphs:
            if gv.status != UNRESOLVED or "omega" in gv.stars:
                continue
            payload = self.cached_decision(gv.clique_classes, gv.omega_target)
            if payload["status"] == FOUND:
                self._realize(gv, "omega", payload["vertices"])
                self._refute(gv)
            settle_row(gv, payload, self.facts)          # a NONE settles the row
            self.facts.infer(self.verdict.graphs)

    def _refute(self, gv: GraphVerdict):
        """Exact-hit covering program from each realized star of an open row,
        against the other side's target (see settle_row)."""
        for side, labels, target in (("omega", gv.clique_classes, gv.alpha_target),
                                     ("alpha", gv.coclique_classes, gv.omega_target)):
            star = gv.stars.get(side)
            if star and gv.status == UNRESOLVED:
                settle_row(gv, self.cached_csp(labels, star["witness"], target), self.facts)

    def spreading_stage(self):
        if self.q % 4 == 1:
            wit = self.cached_witness("non_spreading_multiset",
                                      lambda: spreading_witness(self.group))
            self.verdict.witnesses.append(wit)
            self.verdict.spreading = NO
            self.verdict.notes.append(
                f"multiset witness verified on all {wit['distinct_images']} stabilizer "
                f"translates with lambda = {wit['lambda']}")
        elif self.verdict.separating == NO:
            self.verdict.spreading = NO
            self.verdict.notes.append(
                "non-separating implies non-spreading (hierarchy)")

    # ---- top level -----------------------------------------------------------------

    def run(self) -> GroupVerdict:
        if not self.witness_stage():
            if self.group.table_fits():
                self.scheme_stages()
            else:
                self.verdict.notes.append(
                    f"group order {self.group.order} exceeds the multiplication "
                    f"table limit {TABLE_LIMIT}: scheme stages skipped")
        self.spreading_stage()
        return self.verdict

    def scheme_stages(self):
        """Feasibility table, realized stars, then the settle stage."""
        self.feasibility_stage()
        self.realization_stage()
        self.settle_stage()
        unresolved = [gv for gv in self.verdict.graphs if gv.status == UNRESOLVED]
        self.verdict.separating = UNKNOWN if unresolved else YES
        if unresolved:
            self.verdict.notes.append(
                "unresolved graphs: " +
                "; ".join(",".join(gv.clique_classes) for gv in unresolved))


def analyze(q: int, config: PipelineConfig | None = None) -> tuple[GroupVerdict, dict]:
    analyzer = Analyzer(q, config)
    verdict = analyzer.run()
    return verdict, emit_report(analyzer, verdict)


# -- reporting -------------------------------------------------------------------------


def emit_report(analyzer: Analyzer, verdict: GroupVerdict) -> dict:
    scheme = analyzer.scheme
    rendered = scheme.payload() if scheme else dict.fromkeys(
        ("relations", "sizes", "multiplicities", "P", "Q"))
    labels = rendered["relations"]
    return {
        "meta": {
            "q": analyzer.q,
            "group_order": analyzer.group.order,
            "field_modulus": list(analyzer.group.field.modulus),
            "relation_order": labels,
            "eigenspace_order": "principal first, then lexicographic rows of P",
            "version": __version__,
        },
        "scheme": rendered,
        "feasibility": [row.payload(labels) for row in analyzer.table_rows],
        "graphs": [gv.payload() for gv in verdict.graphs],
        "witnesses": verdict.witnesses,
        "verdict": {
            "q": verdict.q,
            "separating": verdict.separating,
            "synchronising": verdict.synchronising,
            "spreading": verdict.spreading,
            "notes": verdict.notes,
            "exit_code": verdict.exit_code(),
        },
    }


def write_report(report: dict, path: str):
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
        fh.write("\n")


# -- replay / verification ---------------------------------------------------------------


def verify_report(report: dict) -> tuple[bool, list[str]]:
    """Re-verify every certificate in a report and replay each row's status
    from the certificates that pass, by the analyzer's own settle_row and
    FactBase.infer; returns (ok, problems).  A report with rows, or one that
    claims YES, must hold the group's own feasibility table: the same class
    sets and targets, in the same order."""
    if not (isinstance(report, dict) and isinstance(report.get("meta"), dict)
            and isinstance(report.get("verdict"), dict)
            and all(isinstance(report.get(key), list) for key in ("graphs", "witnesses"))):
        return False, ["not a report: an object with meta, graphs, witnesses and verdict"]
    version = report["meta"].get("version")
    if version != __version__:
        return False, [f"report format version {version}; this verifier reads "
                       f"version {__version__}"]
    q = report["meta"].get("q")
    if not isinstance(q, int) or not 4 <= q <= MAX_Q or factor_prime_power(q) is None:
        return False, [f"q {q!r} is not a prime power from 4 to {MAX_Q}"]
    problems: list[str] = []
    group = build_group(q)
    rows, verdict = report["graphs"], report["verdict"].get("separating")
    tabled = bool(rows) or verdict == YES      # then the rows must be the group's table
    if tabled and not group.table_fits():
        return False, [f"graph rows or YES for a group past the table limit {TABLE_LIMIT}"]
    # the labels come from the group, never from the report's scheme section
    facts = FactBase(tuple(o.label for o in group.fusion_orbits()[1:]) if rows else ())
    replayed = [_checked(lambda: _replay_row(group, gv, facts, problems), problems)
                for gv in rows]
    # the rows are the group's own table, so no YES rests on a deleted row
    if tabled:
        table = group_table(group)
        if len(rows) != len(table) or any(pair and _row_key(pair[1]) != _row_key(want)
                                          for pair, want in zip(replayed, table)):
            problems.append("graph rows differ from the group's feasibility table")
    replayed = [pair for pair in replayed if pair]     # a malformed row is a problem
    facts.infer([row for _, row in replayed])
    for claimed, row in replayed:
        if row.status != claimed:
            problems.append(f"graph {list(row.clique_classes)}: {claimed} "
                            f"without a certificate that settles it")
    # NO rests on a negative witness; one that fails its check is a problem below
    negative = False
    for wit in report["witnesses"]:
        kind = wit.get("kind") if isinstance(wit, dict) else None
        negative |= kind in ("exact_factorisation", "sharply_transitive")
        if not _checked(lambda: _verify_witness(group, wit, problems), problems):
            problems.append(f"witness {kind}: verification failed")
    if verdict == NO and not negative:
        problems.append("verdict NO without a negative witness")
    if verdict == YES and any(
            row.status == UNRESOLVED == claimed for claimed, row in replayed):
        problems.append("verdict YES with unresolved graphs")
    return (not problems), problems


def _replay_row(group, gv, facts: FactBase, problems) -> tuple[str, GraphVerdict]:
    """The row's claimed status, and an open row on its classes and targets
    settled by settle_row from each of its certificates that verifies."""
    if not isinstance(gv, dict):
        raise TypeError("a graph row is not an object")
    row = GraphVerdict(tuple(gv["clique_classes"]), tuple(gv["coclique_classes"]),
                       gv["omega_target"], gv["alpha_target"])
    for cert in gv["certificates"]:
        if _checked(lambda: _verify_certificate(group, gv, cert, problems), problems):
            settle_row(row, cert, facts)
        else:
            problems.append(f"graph {gv['clique_classes']}: certificate failed")
    return gv["status"], row


def _checked(check, problems: list[str]):
    """check(), with a field it reads that the report lacks or holds
    malformed reported as one problem instead of raised."""
    try:
        return check()
    except KeyError as exc:
        problems.append(f"missing field {exc.args[0]!r}")
    except (TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed report: {exc}")
    return False


def _elements(payload: dict, name: str, group) -> np.ndarray:
    """payload[name], checked to hold distinct elements of the group, as
    search._pairwise checks a clique, as an ascending element array."""
    value = payload[name]
    if not (isinstance(value, list) and len(set(
            x for x in value if isinstance(x, int) and 0 <= x < group.order)) == len(value)):
        raise ValueError(f"{name!r} is not a list of distinct group elements")
    return np.sort(np.array(value, dtype=np.intp))


def _check_digest(cert: dict, problems: list[str]) -> bool:
    if not _intact(cert):
        problems.append("digest mismatch (tampered certificate)")
        return False
    return True


def _verify_certificate(group, gv, cert, problems) -> bool:
    if not _check_digest(cert, problems):
        return False
    kind = cert.get("kind")
    if kind in ("realized_clique", "realized_coclique", "clique"):
        realized = kind.startswith("realized_")
        graph = build_graph(group, gv["clique_classes"] if realized
                            else cert["graph"]["classes"])
        verts = cert["vertices"]
        if not realized and (cert.get("status") == NONE or not verts):
            return True  # a NONE claim rests on the digest alone
        # the witness is re-checked; an exhaustive claim rests on the digest
        check = verify_coclique if kind.endswith("coclique") else verify_clique
        return check(graph, verts) and len(verts) == cert["size"]
    if kind == "exact_hit":
        system = cert["system"]
        graph = build_graph(group, system["graph"]["classes"])
        base = system["base_clique"]
        if not verify_clique(graph, base) or len(base) * cert["target"] != group.order:
            return False
        if cert["status"] == FEASIBLE:
            witness = cert["witness"]
            return len(witness) == cert["target"] and verify_coclique(graph, witness)
        return True  # a PROVEN_INFEASIBLE claim rests on the digest alone
    problems.append(f"certificate of unknown kind {kind!r}")
    return False


def _verify_witness(group, wit, problems) -> bool:
    if not _check_digest(wit, problems):
        return False
    kind = wit.get("kind")
    if kind == "exact_factorisation":
        fac = verify_exact_factorisation(group, _elements(wit, "A", group),
                                         _elements(wit, "B", group))
        return fac.verified
    if kind == "sharply_transitive":
        sub = _elements(wit, "subgroup", group)
        # a proper nontrivial subgroup: the regular action proves nothing
        if not (is_subgroup(group, sub) and 1 < len(sub) < group.order
                and wit["degree"] == group.order // len(sub)):
            return False
        _, images = coset_action(group, sub)
        ok, _ = verify_sharply_transitive(images[_elements(wit, "elements", group)],
                                          wit["degree"])
        return ok
    if kind == "non_spreading_multiset":
        # re-check the report's own multiset, not a freshly built one
        try:
            halving, _, _ = coset_halving_check(group)
            rebuilt = verify_spreading_multiset(
                group, wit["stabilizer_point"], wit["squares"])
        except Exception as exc:
            problems.append(f"witness non_spreading_multiset: {exc}")
            return False
        return halving and sealed(rebuilt.payload()) == wit
    problems.append(f"witness of unknown kind {kind!r}")
    return False
