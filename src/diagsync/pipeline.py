"""End-to-end orchestration: from the group to a certified verdict.

Stages run in order: algebra -> scheme -> feasibility -> realization ->
inference -> nonexistence decisions -> covering programs -> witnesses, with
facts propagated by monotonicity between stages.  A row is settled by a NONE
decision, a covering refutation or inference, and every definitive claim is
backed by a certificate in the report; budget-exhausted attempts leave a row
UNRESOLVED and the group verdict UNKNOWN (exit code 2), never a silent guess.

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

from . import __version__
from .certify import (BRACKET, FEASIBLE, PROVEN_INFEASIBLE, generate_translate_rows,
                      solve_cover_ilp)
from .feasibility import family_description, putative_table
from .graphs import build_graph, complement_graph
from .psl2 import TABLE_LIMIT, PSL2, build_group, mask_from
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
    budget_secs: float = 3600.0          # per heavy sub-task
    budget_nodes: int = 10 ** 9
    direct_search_secs: float = 900.0    # clock of each nonexistence decision
    seed: int = 0
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
    novel: bool = True
    stars: dict = field(default_factory=dict)

    def payload(self) -> dict:
        return {
            "clique_classes": list(self.clique_classes),
            "coclique_classes": list(self.coclique_classes),
            "omega_target": self.omega_target, "alpha_target": self.alpha_target,
            "status": self.status, "reason": self.reason,
            "inference_edge": self.inference_edge,
            "certificates": self.certificates, "novel": self.novel,
            "stars": self.stars,
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
    """Proven bounds on omega per fused class set, with monotone propagation."""

    def __init__(self, all_labels: tuple[str, ...]):
        self.all_labels = frozenset(all_labels)
        self.upper: dict[frozenset, tuple[int, str]] = {}
        self.lower: dict[frozenset, tuple[int, str]] = {}

    def set_omega_upper(self, classes, value: int, why: str):
        key = frozenset(classes)
        if key not in self.upper or self.upper[key][0] > value:
            self.upper[key] = (value, why)

    def set_omega_lower(self, classes, value: int, why: str):
        key = frozenset(classes)
        if key not in self.lower or self.lower[key][0] < value:
            self.lower[key] = (value, why)

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
    """Settled under any budget: exhaustive, FOUND/NONE, or a covering verdict."""
    if "status" in payload:
        return payload["status"] not in (EXHAUSTED, BRACKET)
    return payload["exhaustive"]


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
        self._scheme = None
        self._facts = None
        self.verdict = GroupVerdict(q)

    @property
    def scheme(self):
        # built lazily: the witness stage may settle the verdict without it,
        # and large q (no multiplication table) never reach the scheme stages
        if self._scheme is None:
            self._scheme = rational_fusion_scheme(self.group)
        return self._scheme

    @property
    def facts(self) -> "FactBase":
        if self._facts is None:
            self._facts = FactBase(tuple(self.scheme.nontrivial_labels()))
        return self._facts

    # ---- cached heavy operations -------------------------------------------------

    def _search_budget(self, secs: float | None = None) -> Budget:
        return Budget(max_nodes=self.config.budget_nodes,
                      max_seconds=secs if secs is not None else self.config.budget_secs)

    def _cached(self, op: str, labels, run, **params) -> dict:
        """Cache-through for one budgeted decision or covering program: run()
        returns (payload, timed_out) and is called only on a miss.  Every key
        names the format version, so an entry of another format is a miss.
        Both run serially, so a payload the node cap stopped repeats exactly
        under the same cap (every meter starts from budget_nodes) and is kept
        under a key with it; one the clock stopped is not kept."""
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

    def cached_decision(self, labels, k: int, secs: float | None = None) -> dict:
        def run():
            status, cert = find_clique_of_size(
                build_graph(self.group, labels), k, budget=self._search_budget(secs))
            return sealed({"status": status, **cert.payload()}), cert.timed_out
        return self._cached("decision", labels, run, k=k)

    def cached_csp(self, labels, base_clique, target: int,
                   secs: float | None = None) -> dict:
        if len(base_clique) * target != self.group.order:
            raise ValueError("exact-hit refutation requires |C| * target = |Omega|")

        def run():
            system = generate_translate_rows(build_graph(self.group, labels),
                                             base_clique)
            res = solve_cover_ilp(system, target, budget=self._search_budget(secs))
            return sealed(res.payload()), res.timed_out
        return self._cached("exact_hit_csp", labels, run,
                            base=sorted(base_clique), target=target)

    # ---- stages -------------------------------------------------------------------

    def witness_stage(self) -> bool:
        """Negative witnesses: exact factorisation or a sharply transitive set."""
        fac = find_exact_factorisation(self.group)
        if fac is not None and fac.verified:
            self.verdict.witnesses.append(sealed(fac.payload()))
            self.verdict.separating = NO
            self.verdict.notes.append(
                "exact factorisation found: non-synchronising, hence non-separating")
            return True
        sub = index_six_subgroup(self.group)
        if sub is not None:
            sharp = find_sharply_transitive_set(self.group, sub)
            if sharp is not None and sharp.verified:
                self.verdict.witnesses.append(sealed(sharp.payload()))
                self.verdict.separating = NO
                self.verdict.notes.append(
                    "sharply transitive set for a small coset action: non-synchronising")
                return True
        return False

    def feasibility_stage(self) -> list[GraphVerdict]:
        # it depends only on the group: cached on it, like its subgroup library
        rows = getattr(self.group, "_putative_table", None)
        if rows is None:
            rows = self.group._putative_table = tuple(putative_table(self.scheme))
        verdicts = []
        for row in rows:
            gv = GraphVerdict(row.clique_classes, row.coclique_classes,
                              row.omega_target, row.alpha_target, novel=row.novel)
            verdicts.append(gv)
        self.verdict.graphs = verdicts
        self._table_rows = rows
        return verdicts

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
        labels = gv.clique_classes if side == "omega" else gv.coclique_classes
        self.facts.set_omega_lower(labels, len(hit), f"realized {kind}")

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

    def inference_pass(self) -> bool:
        """Resolve rows whose targets are contradicted by proven bounds."""
        progress = False
        for gv in self.verdict.graphs:
            if gv.status != UNRESOLVED:
                continue
            om = self.facts.omega_upper(gv.clique_classes)
            if om and om[0] < gv.omega_target:
                gv.status = SEPARATING_BY_INFERENCE
                gv.reason = (f"omega target {gv.omega_target} unreachable: "
                             f"omega <= {om[0]}")
                gv.inference_edge = om[1]
                progress = True
                continue
            al = self.facts.alpha_upper(gv.clique_classes)
            if al and al[0] < gv.alpha_target:
                gv.status = SEPARATING_BY_INFERENCE
                gv.reason = (f"alpha target {gv.alpha_target} unreachable: "
                             f"alpha <= {al[0]}")
                gv.inference_edge = al[1]
                progress = True
        return progress

    def nonexistence_pass(self, secs: float):
        """Decision searches for unrealized clique-side targets; a clique
        found becomes the row's omega star."""
        for gv in self.verdict.graphs:
            if gv.status != UNRESOLVED or "omega" in gv.stars:
                continue
            payload = self.cached_decision(gv.clique_classes, gv.omega_target, secs)
            if payload["status"] == NONE:
                gv.status = SEPARATING_BY_NONEXISTENCE
                gv.reason = (f"no clique of size {gv.omega_target} exists: "
                             f"omega < {gv.omega_target}")
                gv.certificates.append(payload)
                self.facts.set_omega_upper(gv.clique_classes, gv.omega_target - 1,
                                           "decision search: no clique of target size")
                self.inference_pass()
            elif payload["status"] == FOUND:
                self._realize(gv, "omega", payload["vertices"])

    def csp_pass(self, secs: float):
        """Exact-hit covering refutation from a realized extremal object.

        By the equality case of the clique-coclique bound, a clique C and a
        coclique S with |C|*|S| = |Omega| meet in exactly one vertex, and so
        do all translates of C.  Refuting such an S against the translates of
        a realized C therefore refutes the row's remaining target.  The same
        argument applies with the roles exchanged on the complement graph.
        """
        for gv in self.verdict.graphs:
            for side, labels, other, target, sought, base in (
                    ("omega", gv.clique_classes, gv.coclique_classes,
                     gv.alpha_target, "coclique", "clique"),
                    ("alpha", gv.coclique_classes, gv.clique_classes,
                     gv.omega_target, "clique", "coclique")):
                star = gv.stars.get(side)
                if not star or gv.status != UNRESOLVED:
                    continue
                payload = self.cached_csp(labels, star["witness"], target, secs)
                if payload["status"] == PROVEN_INFEASIBLE:
                    gv.status = SEPARATING_BY_CSP
                    gv.reason = (
                        f"no {sought} of size {target} meets every "
                        f"translate of the size-{star['size']} {base} exactly once")
                    gv.certificates.append(payload)
                    if payload["system"]["edges_covered"]:
                        # a {sought} of the row's graph is a clique of G[other]
                        self.facts.set_omega_upper(
                            other, target - 1,
                            "covering refutation (rows span all edges)")
                    self.inference_pass()

    def spreading_stage(self):
        if self.q % 4 == 1:
            wit = spreading_witness(self.group, self.config.seed)
            self.verdict.witnesses.append(sealed(wit.payload()))
            self.verdict.spreading = NO
            self.verdict.notes.append(
                f"multiset witness verified on all {wit.distinct_images} stabilizer "
                f"translates with lambda = {wit.lam}")
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
        """Feasibility table, then per row: realized stars, inference,
        nonexistence decisions for the clique targets no star realizes, and
        covering programs on every star, seeded or decision-found."""
        self.feasibility_stage()
        self.realization_stage()
        self.inference_pass()
        self.nonexistence_pass(self.config.direct_search_secs)
        self.csp_pass(self.config.budget_secs)
        unresolved = [gv for gv in self.verdict.graphs if gv.status == UNRESOLVED]
        if not unresolved:
            self.verdict.separating = YES
        else:
            self.verdict.separating = UNKNOWN
            self.verdict.notes.append(
                "unresolved graphs: " +
                "; ".join(",".join(gv.clique_classes) for gv in unresolved))


def analyze(q: int, config: PipelineConfig | None = None) -> tuple[GroupVerdict, dict]:
    analyzer = Analyzer(q, config)
    verdict = analyzer.run()
    report = emit_report(analyzer, verdict)
    return verdict, report


# -- reporting -------------------------------------------------------------------------


def emit_report(analyzer: Analyzer, verdict: GroupVerdict) -> dict:
    scheme = analyzer._scheme
    labels = scheme.labels() if scheme else None
    eigen = scheme.eigen if scheme else None
    table = getattr(analyzer, "_table_rows", [])
    report = {
        "meta": {
            "q": analyzer.q,
            "group_order": analyzer.group.order,
            "field_modulus": list(analyzer.group.field.modulus),
            "relation_order": labels,
            "eigenspace_order": "principal first, then lexicographic rows of P",
            "version": __version__,
        },
        "scheme": {
            "relations": labels,
            "sizes": scheme.sizes() if scheme else None,
            "multiplicities": eigen.multiplicities if eigen else None,
            "P": [[str(x) for x in row] for row in eigen.P] if eigen else None,
            "Q": [[str(x) for x in row] for row in eigen.Q] if eigen else None,
        },
        "feasibility": [
            {
                "clique_classes": list(row.clique_classes),
                "coclique_classes": list(row.coclique_classes),
                "omega_target": row.omega_target,
                "alpha_target": row.alpha_target,
                "novel": row.novel,
                "families": [family_description(f, labels) for f in row.families],
            }
            for row in table
        ],
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
    return report


def write_report(report: dict, path: str):
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
        fh.write("\n")


# -- replay / verification ---------------------------------------------------------------


def verify_report(report: dict) -> tuple[bool, list[str]]:
    """Re-verify every certificate in a report; returns (ok, problems)."""
    version = report["meta"].get("version")
    if version != __version__:
        return False, [f"report format version {version}; this verifier reads "
                       f"version {__version__}"]
    problems: list[str] = []
    q = report["meta"]["q"]
    group = build_group(q)
    for gv in report["graphs"]:
        for cert in gv["certificates"]:
            if not _checked(lambda: _verify_certificate(group, gv, cert, problems),
                            problems):
                problems.append(f"graph {gv['clique_classes']}: certificate failed")
    for wit in report["witnesses"]:
        if not _checked(lambda: _verify_witness(group, wit, problems), problems):
            problems.append(f"witness {wit.get('kind')}: verification failed")
    verdict = report["verdict"]
    if verdict["separating"] == YES:
        unresolved = [gv for gv in report["graphs"] if gv["status"] == UNRESOLVED]
        if unresolved:
            problems.append("verdict YES with unresolved graphs")
    return (not problems), problems


def _checked(check, problems: list[str]) -> bool:
    """check(), with a field it reads and the certificate lacks reported as a
    problem instead of raised."""
    try:
        return check()
    except KeyError as exc:
        problems.append(f"missing field {exc.args[0]!r}")
        return False


def _check_digest(cert: dict, problems: list[str]) -> bool:
    if not _intact(cert):
        problems.append("digest mismatch (tampered certificate)")
        return False
    return True


def _verify_certificate(group, gv, cert, problems) -> bool:
    if not _check_digest(cert, problems):
        return False
    kind = cert.get("kind")
    if kind in ("realized_clique", "realized_coclique"):
        graph = build_graph(group, gv["clique_classes"])
        verts = cert["vertices"]
        ok = verify_clique(graph, verts) if kind == "realized_clique" \
            else verify_coclique(graph, verts)
        return ok and len(verts) == cert["size"]
    if kind in ("clique", "coclique"):
        graph = build_graph(group, cert["graph"]["classes"])
        verts = cert["vertices"]
        if cert.get("status") == NONE or not verts:
            return True  # a NONE claim rests on the digest alone
        # the witness is re-checked; an exhaustive claim rests on the digest
        ok = verify_clique(graph, verts) if kind == "clique" \
            else verify_coclique(graph, verts)
        return ok and len(verts) == cert["size"]
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
        fac = verify_exact_factorisation(
            group, mask_from(wit["A"]), mask_from(wit["B"]))
        return fac.verified
    if kind == "sharply_transitive":
        sub = mask_from(wit["subgroup"])
        _, images = coset_action(group, sub)
        ok, _ = verify_sharply_transitive(
            [images[g] for g in wit["elements"]], wit["degree"])
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
