"""End-to-end orchestration: from the group to a certified verdict.

Stages run in order: algebra -> scheme -> feasibility -> realization ->
inference / search / covering programs -> witnesses, with facts propagated by
monotonicity between stages.  Every definitive claim is backed by a
certificate in the report; budget-exhausted attempts leave a row UNRESOLVED
and the group verdict UNKNOWN (exit code 2), never a silent guess.

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
from .certify import (
    BRACKET,
    EXACTLY_ONE,
    PROVEN_INFEASIBLE,
    generate_translate_rows,
    solve_cover_ilp,
)
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
    max_clique,
    max_coclique,
    verify_clique,
    verify_coclique,
)
from .witnesses import (
    coset_action,
    find_exact_factorisation,
    find_sharply_transitive_set,
    index_six_subgroup,
    spreading_witness,
    verify_exact_factorisation,
    verify_sharply_transitive,
)

ELIMINATED_FEASIBILITY = "ELIMINATED_FEASIBILITY"
SEPARATING_BY_SEARCH = "SEPARATING_BY_SEARCH"
SEPARATING_BY_CSP = "SEPARATING_BY_CSP"
SEPARATING_BY_INFERENCE = "SEPARATING_BY_INFERENCE"
SEPARATING_BY_NONEXISTENCE = "SEPARATING_BY_NONEXISTENCE"
UNRESOLVED = "UNRESOLVED"

YES, NO, UNKNOWN = "YES", "NO", "UNKNOWN"


@dataclass
class PipelineConfig:
    budget_secs: float = 3600.0          # per heavy sub-task
    budget_nodes: int = 10 ** 9
    witness_secs: float = 300.0
    direct_search_secs: float = 900.0    # slice for one exhaustive search attempt
    seed: int = 0
    threads: int = 1
    cache_dir: str | None = None

    @classmethod
    def from_env(cls, **overrides) -> "PipelineConfig":
        cfg = cls(**overrides)
        env_secs = os.environ.get("DIAGSYNC_BUDGET_SECS")
        if env_secs:
            cfg.budget_secs = float(env_secs)
        env_nodes = os.environ.get("DIAGSYNC_BUDGET_NODES")
        if env_nodes:
            cfg.budget_nodes = int(env_nodes)
        return cfg


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

    def set_omega_exact(self, classes, value: int, why: str):
        self.set_omega_upper(classes, value, why)
        self.set_omega_lower(classes, value, why)

    def set_omega_upper(self, classes, value: int, why: str):
        key = frozenset(classes)
        if key not in self.upper or self.upper[key][0] > value:
            self.upper[key] = (value, why)

    def set_omega_lower(self, classes, value: int, why: str):
        key = frozenset(classes)
        if key not in self.lower or self.lower[key][0] < value:
            self.lower[key] = (value, why)

    def set_alpha_exact(self, classes, value: int, why: str):
        self.set_omega_exact(self.all_labels - frozenset(classes), value, why)

    def set_alpha_upper(self, classes, value: int, why: str):
        # alpha(G_I) = omega(G_{I^c})
        self.set_omega_upper(self.all_labels - frozenset(classes), value, why)

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
        """Cache-through for one budgeted search or covering program: run()
        returns (payload, timed_out) and is called only on a miss.  A payload
        the node cap stopped repeats exactly under the same cap, seed and
        worker count (every meter starts from budget_nodes), so it is kept
        under a key with those three; one the clock stopped is not kept."""
        key = {"op": op, "q": self.q, "classes": sorted(labels), **params}
        capped = dict(key, node_cap=self.config.budget_nodes,
                      seed=self.config.seed, threads=self.config.threads)
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

    def _search(self, search, labels, secs):
        cert = search(build_graph(self.group, labels), self._search_budget(secs),
                      self.config.seed, threads=self.config.threads)
        return sealed(cert.payload()), cert.timed_out

    def cached_max_coclique(self, labels, secs: float | None = None) -> dict:
        return self._cached("max_coclique", labels,
                            lambda: self._search(max_coclique, labels, secs))

    def cached_max_clique(self, labels, secs: float | None = None) -> dict:
        return self._cached("max_clique", labels,
                            lambda: self._search(max_clique, labels, secs))

    def cached_decision(self, labels, k: int, secs: float | None = None) -> dict:
        def run():
            status, cert = find_clique_of_size(
                build_graph(self.group, labels), k,
                budget=self._search_budget(secs), seed=self.config.seed)
            return sealed({"status": status, **cert.payload()}), cert.timed_out
        return self._cached("decision", labels, run, k=k)

    def cached_csp(self, labels, base_clique, target: int, pair_budget,
                   secs: float | None = None) -> dict:
        if len(base_clique) * target != self.group.order:
            raise ValueError("exact-hit refutation requires |C| * target = |Omega|")

        def run():
            system = generate_translate_rows(build_graph(self.group, labels),
                                             base_clique)
            res = solve_cover_ilp(system, EXACTLY_ONE, target_size=target,
                                  budget=self._search_budget(secs),
                                  pair_budget=pair_budget)
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
        rows = putative_table(self.scheme)
        verdicts = []
        for row in rows:
            gv = GraphVerdict(row.clique_classes, row.coclique_classes,
                              row.omega_target, row.alpha_target, novel=row.novel)
            verdicts.append(gv)
        self.verdict.graphs = verdicts
        self._table_rows = rows
        return verdicts

    def realization_stage(self):
        """Mark which side's extremal target is realized by an explicit object."""
        for gv in self.verdict.graphs:
            graph = build_graph(self.group, gv.clique_classes)
            for side, labels, target, g in (
                    ("omega", gv.clique_classes, gv.omega_target, graph),
                    ("alpha", gv.coclique_classes, gv.alpha_target,
                     complement_graph(graph))):
                seeds = [s for s in algebraic_clique_seeds(g) if len(s) >= target]
                hit = None
                for s in seeds:
                    cand = s[:target]
                    if verify_clique(g, cand):
                        hit = cand
                        break
                if hit:
                    gv.stars[side] = {"size": target, "witness": list(hit)}
                    kind = "clique" if side == "omega" else "coclique"
                    check = verify_clique(graph, hit) if side == "omega" \
                        else verify_coclique(graph, hit)
                    if not check:
                        raise AssertionError("star witness failed direct verification")
                    gv.certificates.append(sealed({
                        "kind": f"realized_{kind}", "classes": list(gv.clique_classes),
                        "vertices": list(hit), "size": target}))
                    if side == "omega":
                        self.facts.set_omega_lower(gv.clique_classes, target,
                                                   "realized clique")
                    else:
                        self.facts.set_omega_lower(gv.coclique_classes, target,
                                                   "realized coclique")

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

    def _search_degree(self, gv: GraphVerdict) -> int:
        graph = build_graph(self.group, gv.clique_classes)
        if gv.alpha_target <= gv.omega_target:
            return graph.vertex_count - 1 - graph.degree
        return graph.degree

    def direct_search_pass(self, secs: float):
        """Exhaustive searches on the cheaper side of unresolved rows."""
        rows = [gv for gv in self.verdict.graphs if gv.status == UNRESOLVED]
        rows.sort(key=lambda gv: (not gv.novel, self._search_degree(gv)))
        for gv in rows:
            if gv.status != UNRESOLVED:
                continue
            # cheaper side: the smaller target (its search graph has lower degree)
            if gv.alpha_target <= gv.omega_target:
                payload = self.cached_max_coclique(gv.clique_classes, secs)
                if payload["exhaustive"]:
                    value = payload["size"]
                    self.facts.set_alpha_exact(gv.clique_classes, value,
                                               f"exhaustive search alpha={value}")
                    if value != gv.alpha_target:
                        gv.status = SEPARATING_BY_SEARCH
                        gv.reason = f"alpha = {value} != target {gv.alpha_target}"
                        gv.certificates.append(payload)
            else:
                payload = self.cached_max_clique(gv.clique_classes, secs)
                if payload["exhaustive"]:
                    value = payload["size"]
                    self.facts.set_omega_exact(gv.clique_classes, value,
                                               f"exhaustive search omega={value}")
                    if value != gv.omega_target:
                        gv.status = SEPARATING_BY_SEARCH
                        gv.reason = f"omega = {value} != target {gv.omega_target}"
                        gv.certificates.append(payload)
            self.inference_pass()

    def nonexistence_pass(self, secs: float):
        """Decision searches for unrealized clique-side targets."""
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
                self.facts.set_omega_lower(gv.clique_classes, gv.omega_target,
                                           "decision search found the target clique")

    def csp_pass(self, secs: float):
        """Exact-hit covering refutation from a realized extremal object.

        By the equality case of the clique-coclique bound, a clique C and a
        coclique S with |C|*|S| = |Omega| meet in exactly one vertex, and so
        do all translates of C.  Refuting such an S against the translates of
        a realized C therefore refutes the row's remaining target.  The same
        argument applies with the roles exchanged on the complement graph.
        """
        for gv in self.verdict.graphs:
            if gv.status != UNRESOLVED:
                continue
            star = gv.stars.get("omega")
            if star:
                payload = self.cached_csp(gv.clique_classes, star["witness"],
                                          gv.alpha_target,
                                          self._pair_budget(gv, coclique_side=True),
                                          secs)
                if payload["status"] == PROVEN_INFEASIBLE:
                    gv.status = SEPARATING_BY_CSP
                    gv.reason = (
                        f"no coclique of size {gv.alpha_target} meets every "
                        f"translate of the size-{gv.omega_target} clique exactly once")
                    gv.certificates.append(payload)
                    if payload["system"]["edges_covered"]:
                        self.facts.set_alpha_upper(
                            gv.clique_classes, gv.alpha_target - 1,
                            "covering refutation (rows span all edges)")
                    self.inference_pass()
                    continue
            star = gv.stars.get("alpha")
            if star and gv.status == UNRESOLVED:
                payload = self.cached_csp(gv.coclique_classes, star["witness"],
                                          gv.omega_target,
                                          self._pair_budget(gv, coclique_side=False),
                                          secs)
                if payload["status"] == PROVEN_INFEASIBLE:
                    gv.status = SEPARATING_BY_CSP
                    gv.reason = (
                        f"no clique of size {gv.omega_target} meets every "
                        f"translate of the size-{gv.alpha_target} coclique exactly once")
                    gv.certificates.append(payload)
                    if payload["system"]["edges_covered"]:
                        self.facts.set_omega_upper(
                            gv.clique_classes, gv.omega_target - 1,
                            "covering refutation (rows span all edges)")
                    self.inference_pass()

    def _pair_budget(self, gv: GraphVerdict, coclique_side: bool = True) -> dict[str, int] | None:
        """Per-class caps on within-set pair counts, from the feasible families.

        A set of size s with inner distribution b has exactly s*b_i/2 unordered
        pairs of quotient class i; the cap is the maximum over the families.
        """
        rows = [r for r in self._table_rows
                if r.clique_classes == gv.clique_classes
                and (r.omega_target, r.alpha_target) == (gv.omega_target, gv.alpha_target)]
        if not rows:
            return None
        labels = self.scheme.labels()
        caps: dict[str, int] = {}
        target = gv.alpha_target if coclique_side else gv.omega_target
        for row in rows:
            for fam in row.families:
                side = fam.coclique if coclique_side else fam.clique
                for vec in (side.entry_corner_vectors() or [side.base]):
                    for rid in range(1, len(vec)):
                        pairs_f = vec[rid] * target / 2
                        pairs = -(-pairs_f.numerator // pairs_f.denominator)  # ceil
                        lab = labels[rid]
                        caps[lab] = max(caps.get(lab, 0), pairs)
        for lab in labels[1:]:
            caps.setdefault(lab, 0)
        return caps

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
        """Feasibility table, then searches and covering programs per row."""
        self.feasibility_stage()
        self.realization_stage()
        self.inference_pass()
        self.nonexistence_pass(self.config.direct_search_secs)
        self.direct_search_pass(min(60.0, self.config.direct_search_secs))
        self.direct_search_pass(self.config.direct_search_secs)
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


def verify_report(report: dict, deep: bool = False) -> tuple[bool, list[str]]:
    """Re-verify every certificate in a report; returns (ok, problems)."""
    problems: list[str] = []
    q = report["meta"]["q"]
    group = build_group(q)
    for gv in report["graphs"]:
        for cert in gv["certificates"]:
            if not _verify_certificate(group, gv, cert, problems, deep):
                problems.append(f"graph {gv['clique_classes']}: certificate failed")
    for wit in report["witnesses"]:
        if not _verify_witness(group, wit, problems):
            problems.append(f"witness {wit.get('kind')}: verification failed")
    verdict = report["verdict"]
    if verdict["separating"] == YES:
        unresolved = [gv for gv in report["graphs"] if gv["status"] == UNRESOLVED]
        if unresolved:
            problems.append("verdict YES with unresolved graphs")
    return (not problems), problems


def _check_digest(cert: dict, problems: list[str]) -> bool:
    if not _intact(cert):
        problems.append("digest mismatch (tampered certificate)")
        return False
    return True


def _verify_certificate(group, gv, cert, problems, deep) -> bool:
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
            return True  # exhaustion claims are covered by the digest + replay
        ok = verify_clique(graph, verts) if kind == "clique" \
            else verify_coclique(graph, verts)
        return ok and len(verts) == cert["size"]
    return True


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
        try:
            rebuilt = spreading_witness(group)
        except Exception:
            return False
        return rebuilt.lam == wit["lambda"] and rebuilt.total == wit["total"]
    return True
