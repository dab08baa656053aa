"""Bell-LaPadula checking and user marking invariants over explored graphs.

One evaluator holds the three flow rules.  Dynamic checks apply it to every
explored firing; static checks apply it to each transition's worst case,
every input token at its place's cloud clearance, and over-approximate the
dynamic rules while containment holds (warnings).  Violations carry
shortest witness paths and replay against the net.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import FssmError, UnresolvedReference
from .lattice import is_identifier
from .model import DataToken, FssmNet, Marking
from .statespace import (
    Binding,
    CompactStates,
    FlowRecord,
    GraphStats,
    ReachabilityGraph,
    enabled_bindings,
    fire,
    flow_of,
)

VERDICT_HOLDS = "holds"
VERDICT_VIOLATED = "violated"
VERDICT_BOUNDED = "holds_up_to_bound"


@dataclass(frozen=True)
class BlpConfig:
    no_read_up: bool = True
    no_write_down: bool = True
    containment: bool = True

    def __post_init__(self):
        if not (self.no_read_up or self.no_write_down or self.containment):
            raise FssmError("at least one BLP rule must be enabled")


@dataclass(frozen=True)
class Violation:
    kind: str  # read_up | write_down | containment | invariant
    transition: Optional[str]
    state: int
    witness: tuple[str, ...]
    detail: str
    count: int = 1


@dataclass(frozen=True)
class PolicyReport:
    verdict: str
    violations: tuple[Violation, ...]
    explored: GraphStats
    truncated: bool


def _verdict(
    failed: bool, truncated: bool, holds: str = VERDICT_HOLDS, fails: str = VERDICT_VIOLATED
) -> str:
    """A failure found stands; otherwise a truncated graph bounds the verdict."""
    if failed:
        return fails
    return VERDICT_BOUNDED if truncated else holds


# --------------------------------------------------------------------------
# predicates


class PredicateExpr:
    """Base class; subclasses are immutable AST nodes."""

    def validate(self, net: FssmNet) -> None:
        raise NotImplementedError

    def eval(self, net: FssmNet, m: Marking) -> bool:
        raise NotImplementedError

    def compile(self, net: FssmNet, compiled) -> Callable[[tuple], bool]:
        """This predicate as a test on one of ``explore``'s compact states,
        in the numbering of ``compiled`` (the ``CompactStates.compiled`` of
        a graph explored from ``net``); it agrees with ``eval`` on the
        decoded marking."""
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class Contains(PredicateExpr):
    place: str
    klass: Optional[str] = None

    def validate(self, net):
        if self.place not in net.place_by_id:
            raise UnresolvedReference(f"predicate references unknown place {self.place!r}")
        if self.klass is not None and not is_identifier(self.klass):
            raise UnresolvedReference(f"invalid token class {self.klass!r} in predicate")

    def eval(self, net, m):
        return any(
            self.klass is None or tok.klass == self.klass
            for tok, _ in m.tokens_at(self.place)
        )

    def compile(self, net, compiled):
        p = compiled.place_idx[self.place]
        if self.klass is None:
            return lambda s: bool(s[p])
        lo = compiled.class_base.get(self.klass)
        if lo is None:  # no token of this class can arise
            return lambda s: False
        hi = lo + len(compiled.levels)
        return lambda s: any(lo <= ty < hi for ty, _ in s[p])

    def render(self):
        if self.klass is None:
            return f"contains({self.place})"
        return f"contains({self.place}, {self.klass})"


@dataclass(frozen=True)
class ExistsTokenGeq(PredicateExpr):
    cloud: str
    level: str

    def validate(self, net):
        if self.cloud not in net.cloud_by_id:
            raise UnresolvedReference(f"predicate references unknown cloud {self.cloud!r}")
        if self.level not in net.lattice.levels:
            raise UnresolvedReference(f"predicate references unknown level {self.level!r}")

    def eval(self, net, m):
        lat = net.lattice
        for place in net.places:
            if place.cloud != self.cloud:
                continue
            for tok, _ in m.tokens_at(place.id):
                if lat.leq(self.level, tok.level):
                    return True
        return False

    def compile(self, net, compiled):
        ps = [compiled.place_idx[p.id] for p in net.places if p.cloud == self.cloud]
        above = [net.lattice.leq(self.level, lv) for lv in compiled.levels]
        tys = frozenset(ty for ty, li in enumerate(compiled.tok_level) if above[li])
        return lambda s: any(ty in tys for p in ps for ty, _ in s[p])

    def render(self):
        return f"exists_token_geq({self.cloud}, {self.level})"


_CMP = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}


@dataclass(frozen=True)
class CountCmp(PredicateExpr):
    place: str
    op: str
    n: int

    def validate(self, net):
        if self.place not in net.place_by_id:
            raise UnresolvedReference(f"predicate references unknown place {self.place!r}")
        if self.op not in _CMP:
            raise UnresolvedReference(f"unknown comparison {self.op!r}")
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 0:
            raise UnresolvedReference(f"count bound must be a non-negative integer, got {self.n!r}")

    def eval(self, net, m):
        return _CMP[self.op](m.count(self.place), self.n)

    def compile(self, net, compiled):
        p = compiled.place_idx[self.place]
        cmp, n = _CMP[self.op], self.n
        return lambda s: cmp(sum(c for _, c in s[p]), n)

    def render(self):
        return f"count({self.place}) {self.op} {self.n}"


@dataclass(frozen=True)
class Not(PredicateExpr):
    expr: PredicateExpr

    def validate(self, net):
        self.expr.validate(net)

    def eval(self, net, m):
        return not self.expr.eval(net, m)

    def compile(self, net, compiled):
        test = self.expr.compile(net, compiled)
        return lambda s: not test(s)

    def render(self):
        return f"not({self.expr.render()})"


@dataclass(frozen=True)
class And(PredicateExpr):
    exprs: tuple[PredicateExpr, ...]

    def validate(self, net):
        if not self.exprs:
            raise UnresolvedReference("and() needs at least one operand")
        for e in self.exprs:
            e.validate(net)

    def eval(self, net, m):
        return all(e.eval(net, m) for e in self.exprs)

    def compile(self, net, compiled):
        tests = [e.compile(net, compiled) for e in self.exprs]
        return lambda s: all(test(s) for test in tests)

    def render(self):
        return "and(" + ", ".join(e.render() for e in self.exprs) + ")"


@dataclass(frozen=True)
class Or(PredicateExpr):
    exprs: tuple[PredicateExpr, ...]

    def validate(self, net):
        if not self.exprs:
            raise UnresolvedReference("or() needs at least one operand")
        for e in self.exprs:
            e.validate(net)

    def eval(self, net, m):
        return any(e.eval(net, m) for e in self.exprs)

    def compile(self, net, compiled):
        tests = [e.compile(net, compiled) for e in self.exprs]
        return lambda s: any(test(s) for test in tests)

    def render(self):
        return "or(" + ", ".join(e.render() for e in self.exprs) + ")"


@dataclass(frozen=True)
class Const(PredicateExpr):
    value: bool

    def validate(self, net):
        pass

    def eval(self, net, m):
        return self.value

    def compile(self, net, compiled):
        value = self.value
        return lambda s: value

    def render(self):
        return "true" if self.value else "false"


def parse_predicate(obj, net: FssmNet) -> PredicateExpr:
    """Build a predicate from its JSON form and resolve it against the net.

    Forms: true/false, {"contains": [place, class?]},
    {"exists_token_geq": [cloud, level]}, {"count": [place, op, n]},
    {"not": expr}, {"and": [exprs...]}, {"or": [exprs...]}.
    """
    p = _parse(obj)
    p.validate(net)
    return p


def _parse(obj) -> PredicateExpr:
    if isinstance(obj, bool):
        return Const(obj)
    if not isinstance(obj, dict) or len(obj) != 1:
        raise UnresolvedReference(f"malformed predicate: {obj!r}")
    (key, val), = obj.items()
    if key == "contains":
        if not _strings(val, 1, 2):
            raise UnresolvedReference("contains expects [place] or [place, class]")
        return Contains(*val)
    if key == "exists_token_geq":
        if not _strings(val, 2, 2):
            raise UnresolvedReference("exists_token_geq expects [cloud, level]")
        return ExistsTokenGeq(*val)
    if key == "count":
        if not isinstance(val, list) or len(val) != 3 or not _strings(val[:2], 2, 2):
            raise UnresolvedReference("count expects [place, op, n]")
        return CountCmp(*val)
    if key == "not":
        return Not(_parse(val))
    if key == "and":
        if not isinstance(val, list):
            raise UnresolvedReference("and expects a list of predicates")
        return And(tuple(_parse(v) for v in val))
    if key == "or":
        if not isinstance(val, list):
            raise UnresolvedReference("or expects a list of predicates")
        return Or(tuple(_parse(v) for v in val))
    raise UnresolvedReference(f"unknown predicate operator {key!r}")


def _strings(val, lo: int, hi: int) -> bool:
    """``val`` is a list of ``lo`` to ``hi`` strings."""
    return isinstance(val, list) and lo <= len(val) <= hi and all(isinstance(x, str) for x in val)


def eval_predicate(p: PredicateExpr, net: FssmNet, m: Marking) -> bool:
    return p.eval(net, m)


def state_flags(g: ReachabilityGraph, net: FssmNet, p: PredicateExpr) -> list[bool]:
    """``p`` at each state of ``g``, explored from ``net``, in state order.

    States ``explore`` kept compact are tested without decoding a marking;
    any other sequence of markings is evaluated marking by marking.
    """
    if isinstance(g.states, CompactStates):
        test = p.compile(net, g.states.compiled)
        return [test(s) for s in g.states.compact]
    return [p.eval(net, m) for m in g.states]


def predicate_to_obj(p: PredicateExpr):
    """Inverse of parse_predicate's shape (JSON-ready plain data)."""
    if isinstance(p, Const):
        return p.value
    if isinstance(p, Contains):
        return {"contains": [p.place] if p.klass is None else [p.place, p.klass]}
    if isinstance(p, ExistsTokenGeq):
        return {"exists_token_geq": [p.cloud, p.level]}
    if isinstance(p, CountCmp):
        return {"count": [p.place, p.op, p.n]}
    if isinstance(p, Not):
        return {"not": predicate_to_obj(p.expr)}
    if isinstance(p, And):
        return {"and": [predicate_to_obj(e) for e in p.exprs]}
    if isinstance(p, Or):
        return {"or": [predicate_to_obj(e) for e in p.exprs]}
    raise FssmError(f"unknown predicate node {type(p).__name__}")


# --------------------------------------------------------------------------
# BLP rules


def _flow_violations(net: FssmNet, cfg: BlpConfig, t_id: str, flow: FlowRecord):
    """Yield (kind, detail) pairs for one firing's flow.

    The three rules live only here: static, dynamic and replay checking
    differ only in where the flow's token levels come from.
    """
    lat = net.lattice
    t = net.transition_by_id[t_id]
    if cfg.no_read_up:
        for pid, tok in flow.consumed + flow.read:
            if not lat.leq(tok.level, t.clearance):
                yield (
                    "read_up",
                    f"input {tok} at {pid} above clearance {t.clearance}",
                )
                break
    if cfg.no_write_down:
        seen = set()
        for pid, _ in flow.produced:
            if pid in seen:
                continue
            seen.add(pid)
            c = net.place_clearance(pid)
            if not lat.leq(t.clearance, c):
                yield (
                    "write_down",
                    f"clearance {t.clearance} not below output place {pid} at {c}",
                )
                break
    if cfg.containment:
        for pid, tok in flow.produced:
            c = net.place_clearance(pid)
            if not lat.leq(tok.level, c):
                yield (
                    "containment",
                    f"produced {tok} exceeds cloud of place {pid} at {c}",
                )
                break


# --------------------------------------------------------------------------
# static BLP


def static_blp_check(net: FssmNet, cfg: BlpConfig | None = None) -> PolicyReport:
    """The dynamic rules applied to each transition's worst case.

    Every input arc holds a token at its place's cloud clearance, the
    highest level containment lets that place hold, so while containment
    holds this over-approximates the dynamic check (warnings only).
    """
    cfg = cfg or BlpConfig()
    violations = []
    for t in net.transitions:
        worst = Binding(
            t.id,
            tuple((a, DataToken(a.pattern, net.place_clearance(a.place))) for a in t.inputs),
        )
        for kind, detail in _flow_violations(net, cfg, t.id, flow_of(net, worst)):
            violations.append(Violation(kind, t.id, 0, (), detail))
    return PolicyReport(
        verdict=_verdict(bool(violations), False),
        violations=tuple(violations),
        explored=GraphStats(0, 0, 0),
        truncated=False,
    )


# --------------------------------------------------------------------------
# dynamic BLP


def dynamic_blp_check(
    net: FssmNet, cfg: BlpConfig | None = None, *, graph: ReachabilityGraph
) -> PolicyReport:
    """Evaluate the BLP rules on every firing of an explored graph.

    Each edge's flow comes from the binding the graph names for its
    (transition, digest), so nothing is fired; ``graph`` must come from
    ``explore``, which names them.  The rules run once per such label and
    its hits are counted over the graph's label column.  Edges come out of
    the graph in breadth-first order, so the first hit per (transition,
    kind) carries a shortest witness; later hits only add to its count.
    """
    cfg = cfg or BlpConfig()
    cols = graph.columns
    first: dict[tuple[str, str], tuple] = {}  # (transition, kind) -> (edge position, detail)
    hits: Counter = Counter()
    for lab, key in enumerate(cols.labels):
        kinds = list(_flow_violations(net, cfg, key[0], flow_of(net, graph.bindings[key])))
        if not kinds:
            continue
        k, n = cols.label.index(lab), cols.label.count(lab)
        for kind, detail in kinds:
            hit = (key[0], kind)
            if hit not in first or k < first[hit][0]:
                first[hit] = (k, detail)
            hits[hit] += n
    violations = tuple(
        Violation(
            kind=kind,
            transition=t_id,
            state=cols.dst[k],
            witness=graph.path_to(cols.src(k)) + (t_id,),
            detail=detail,
            count=hits[(t_id, kind)],
        )
        for (t_id, kind), (k, detail) in sorted(first.items())
    )
    return PolicyReport(
        verdict=_verdict(bool(violations), graph.truncated),
        violations=violations,
        explored=graph.stats,
        truncated=graph.truncated,
    )


# --------------------------------------------------------------------------
# invariants


def check_invariant(
    g: ReachabilityGraph,
    net: FssmNet,
    p: PredicateExpr,
    mode: str = "always",
) -> PolicyReport:
    """Check p on every explored state; "always" wants it true, "never" false."""
    if mode not in ("always", "never"):
        raise FssmError(f"invariant mode must be 'always' or 'never', got {mode!r}")
    p.validate(net)
    want = mode == "always"
    failing = [i for i, ok in enumerate(state_flags(g, net, p)) if ok != want]
    violations = ()
    if failing:
        i = failing[0]
        violations = (
            Violation(
                kind="invariant",
                transition=None,
                state=i,
                witness=g.path_to(i),
                detail=f"{mode} {p.render()} fails at state {i}",
                count=len(failing),
            ),
        )
    return PolicyReport(
        verdict=_verdict(bool(violations), g.truncated),
        violations=violations,
        explored=g.stats,
        truncated=g.truncated,
    )


# --------------------------------------------------------------------------
# witness replay


def _replay_markings(net: FssmNet, steps, initial: int) -> list[Marking]:
    """Distinct markings reached from the initial marking by firing, step by
    step, a binding of a transition in that step's allowed set."""
    frontier = [net.initials[initial]]
    for allowed in steps:
        reached: dict[Marking, None] = {}
        for m in frontier:
            for b in enabled_bindings(net, m):
                if b.transition not in allowed:
                    continue
                try:
                    m2, _ = fire(net, m, b)
                except FssmError:
                    continue
                reached[m2] = None
        frontier = list(reached)
    return frontier


def replay_witness(
    net: FssmNet,
    v: Violation,
    cfg: BlpConfig | None = None,
    p: PredicateExpr | None = None,
    mode: str = "always",
    initial: int = 0,
) -> bool:
    """True when some realization of the witness reproduces the violation.

    BLP violations must recur at the final firing; invariant violations at
    the final marking.  Used by the test suite on every reported violation.
    """
    cfg = cfg or BlpConfig()
    if v.kind == "invariant":
        if p is None:
            raise FssmError("replaying an invariant violation needs the predicate")
        want = mode == "always"
        for m in _replay_markings(net, [{t} for t in v.witness], initial):
            if p.eval(net, m) != want:
                return True
        return False
    if not v.witness or v.witness[-1] != v.transition:
        return False
    prefix, last = v.witness[:-1], v.witness[-1]
    for m in _replay_markings(net, [{t} for t in prefix], initial):
        for b in enabled_bindings(net, m):
            if b.transition != last:
                continue
            try:
                _, flow = fire(net, m, b)
            except FssmError:
                continue
            if any(kind == v.kind for kind, _ in _flow_violations(net, cfg, last, flow)):
                return True
    return False
