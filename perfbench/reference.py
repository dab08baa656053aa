"""Independent references for every job's verdict, run outside the timed region.

* Graphs come from a breadth-first search over the readable reference
  semantics (``enabled_bindings``/``fire``), not from the compiled explorer.
* BLP flows are judged by this module's own reading of the three rules on
  every firing; every reported violation must also replay.
* SNNI compares the two observation languages by exhaustive trace walks.
* Opacity uses ``brute_force_opacity`` on the reference graph.
* Allocation is a brute-force product over clouds**tasks.
* The counter net's figures are closed forms of its product-grid shape.

``check(job, code, out)`` returns None when the job's report agrees, else a
one-line reason.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product

from fssm.errors import CapacityExceeded
from fssm.modelfile import parse_model
from fssm.opacity import RunMonitor, brute_force_opacity
from fssm.policy import BlpConfig, Violation, replay_witness
from fssm.statespace import GraphEdge, ReachabilityGraph, enabled_bindings, fire

_NEGATIVE = {"violated", "not_opaque", "no_feasible_allocation"}


class Reference:
    """Caches one parsed bundle, reference graph and allocation set per model file."""

    def __init__(self):
        self._bundles = {}
        self._graphs = {}
        self._allocations = {}

    def bundle(self, path):
        b = self._bundles.get(path)
        if b is None:
            with open(path, encoding="utf-8") as fh:
                b = self._bundles[path] = parse_model(fh.read())
        return b

    def graph(self, path):
        g = self._graphs.get(path)
        if g is None:
            g = self._graphs[path] = _reference_graph(self.bundle(path).net)
        return g

    def allocations(self, path):
        a = self._allocations.get(path)
        if a is None:
            a = self._allocations[path] = _allocation_reference(self.bundle(path))
        return a

    def check(self, job, code, out):
        if job.label == "explore-dot":
            return _check_dot(job, code, out)
        try:
            rep = json.loads(out)
        except ValueError:
            return f"exit {code}, report is not JSON"
        want_code = 1 if rep.get("verdict") in _NEGATIVE else 0
        if code != want_code:
            return f"exit {code} for verdict {rep.get('verdict')!r}"
        return getattr(self, "_" + job.kind)(job, rep)

    # -- per subcommand ----------------------------------------------------

    def _explore(self, job, rep):
        if job.expect:
            want = (job.expect["states"], job.expect["edges"])
        else:
            states, edges = self.graph(job.model)
            want = (len(states), len(edges))
        got = (rep["states"], rep["edges"])
        if rep["truncated"] or got != want:
            return f"explore: {got} states/edges, reference {want}"
        return None

    def _blp(self, job, rep):
        net = self.bundle(job.model).net
        cfg = _config(rep["rules"])
        got = sorted([v["transition"], v["kind"], v["count"]] for v in rep["violations"])
        if "violations" in job.expect:
            want = sorted(job.expect["violations"])
            if any(v["witness"] != job.expect["witness"] for v in rep["violations"]):
                return "blp: witness differs from the closed form"
        elif "verdict" in job.expect:
            want = None
            if rep["verdict"] != job.expect["verdict"]:
                return f"bridge: verdict {rep['verdict']}, allocation validity says {job.expect['verdict']}"
        else:
            want = sorted([t, k, n] for (t, k), n in _blp_reference(net, self.graph(job.model), cfg).items())
        if want is not None and got != want:
            return f"blp: violations {got}, reference {want}"
        for v in rep["violations"]:
            viol = Violation(v["kind"], v["transition"], v["state"], tuple(v["witness"]), v["detail"])
            if not replay_witness(net, viol, cfg):
                return f"blp: witness {v['witness']} does not replay"
        return None

    def _invariant(self, job, rep):
        bundle = self.bundle(job.model)
        pred = bundle.secret(rep["pred"])
        want_true = rep["mode"] == "always"
        if "hits" in job.expect:
            hits = job.expect["hits"]
        else:
            states, _ = self.graph(job.model)
            hits = sum(pred.eval(bundle.net, m) != want_true for m in states)
        got = sum(v["count"] for v in rep["violations"])
        if got != hits or (rep["verdict"] == "violated") != (hits > 0):
            return f"invariant: {got} failing states reported, reference {hits}"
        for v in rep["violations"]:
            if "witness" in job.expect and v["witness"] != job.expect["witness"]:
                return "invariant: witness differs from the closed form"
            viol = Violation("invariant", None, v["state"], tuple(v["witness"]), v["detail"])
            if not replay_witness(bundle.net, viol, p=pred, mode=rep["mode"]):
                return f"invariant: witness {v['witness']} does not replay"
        return None

    def _ni(self, job, rep):
        if "verdict" in job.expect:
            want_verdict, want_witness = job.expect["verdict"], None
        else:
            net = self.bundle(job.model).net
            lat = net.lattice
            low = {t.id for t in net.transitions if lat.leq(t.clearance, rep["level"])}
            states, edges = self.graph(job.model)
            full = _words(len(states), edges, low, purged=False)
            purged = _words(len(states), edges, low, purged=True)
            diff = full - purged
            want_witness = list(min(diff, key=lambda w: (len(w), w))) if diff else None
            want_verdict = "violated" if diff else "holds"
        if rep["verdict"] != want_verdict or rep.get("witness") != want_witness:
            return f"ni: {rep['verdict']} {rep.get('witness')}, reference {want_verdict} {want_witness}"
        return None

    def _opacity(self, job, rep):
        if "verdict" in job.expect:
            want = (job.expect["verdict"], job.expect.get("witness"))
            got = (rep["verdict"], rep.get("witness"))
        else:
            bundle = self.bundle(job.model)
            states, edges = self.graph(job.model)
            g = ReachabilityGraph(
                states=tuple(states),
                edges=tuple(GraphEdge(s, t, "", d) for s, t, d, _ in edges),
                truncated=False, initial_index=0, parent_edge=(), depths=(),
            )
            obs, secret = bundle.obs_map(rep["obs"]), bundle.secret(rep["secret"])
            v = brute_force_opacity(g, bundle.net, obs, secret, depth=len(states) + 1)
            # exposed is a set of states: run opacity lists it in product-node order,
            # the oracle in (state, monitor state) order
            want = ("opaque" if v.opaque else "not_opaque", _list(v.witness), _sorted(v.exposed))
            got = (rep["verdict"], rep.get("witness"), _sorted(rep.get("exposed")))
            run = rep.get("example_secret_run")
            if got == want and run is not None and (
                len(run) != len(v.example_secret_run)
                or not _realizes(edges, obs, secret, run, rep["witness"], rep["exposed"])
            ):
                return f"opacity: example run {run} is no shortest run into an exposed state"
        if got != want:
            return f"opacity: {got}, reference {want}"
        return None

    def _allocate(self, job, rep):
        valid, best = self.allocations(job.model)
        if rep["verdict"] == "enumerated":
            if rep["count"] != len(valid) or rep["allocations"] != [dict(a) for a in valid]:
                return f"allocate: {rep['count']} allocations, reference {len(valid)}"
            return None
        if best is None:
            return None if rep["verdict"] == "no_feasible_allocation" else "allocate: infeasible expected"
        cost, assignment = best
        got_cost = Fraction(rep["cost"]) if rep["verdict"] == "optimal" else None
        if got_cost != cost or rep.get("assignment") != dict(assignment):
            return f"allocate: {rep.get('assignment')} at {rep.get('cost')}, reference {dict(assignment)} at {cost}"
        if "emitted" in job.expect:
            with open(job.expect["emitted"], encoding="utf-8") as fh:
                net = parse_model(fh.read()).net
            placed = {t.id: t.cloud for t in net.transitions if t.id in dict(assignment)}
            if placed != dict(assignment):
                return "allocate: emitted net places tasks differently from the optimum"
        return None


def _config(rules):
    return BlpConfig(
        no_read_up="read_up" in rules,
        no_write_down="write_down" in rules,
        containment="containment" in rules,
    )


def _list(x):
    return None if x is None else list(x)


def _sorted(x):
    return None if x is None else sorted(x)


def _check_dot(job, code, out):
    lines = out.splitlines()
    want = job.expect["states"] + job.expect["edges"] + 3
    if code != 0 or len(lines) != want or lines[0] != "digraph reachability {":
        return f"explore --dot: {len(lines)} lines, closed form {want}"
    return None


def _realizes(edges, obs, secret, run, witness, exposed):
    """True when ``run`` fires from state 0, shows ``witness`` and can end in ``exposed``.

    The estimator and the oracle may pick different runs of the same length
    when several realize the witness, so the run is checked for what it
    claims rather than compared.
    """
    here = {0}
    for tid in run:
        here = {d for s, t, d, _ in edges if s in here and t == tid}
    shown = [sym for sym in map(obs.symbol_of, run) if sym is not None]
    if isinstance(secret, RunMonitor):
        q = secret.initial
        for tid in run:
            q = secret.step(q, tid)
        ends = {f"s{s}|{q}" for s in here}
    else:
        ends = {f"s{s}" for s in here}
    return shown == list(witness) and bool(ends & set(exposed))


def _reference_graph(net):
    """BFS over the reference semantics: (markings, [(src, tid, dst, flow)])."""
    init = net.initials[0]
    index = {init: 0}
    states = [init]
    edges = []
    for i, m in enumerate(states):
        for b in enabled_bindings(net, m):
            try:
                m2, flow = fire(net, m, b)
            except CapacityExceeded:
                continue
            j = index.setdefault(m2, len(states))
            if j == len(states):
                states.append(m2)
            edges.append((i, b.transition, j, flow))
    return states, edges


def _blp_reference(net, graph, cfg):
    """{(transition, kind): firings} under the three BLP rules."""
    lat = net.lattice

    def clearance(pid):
        return net.cloud_by_id[net.place_by_id[pid].cloud].clearance

    found = {}
    for _, tid, _, flow in graph[1]:
        t = net.transition_by_id[tid]
        kinds = []
        if cfg.no_read_up and any(not lat.leq(tok.level, t.clearance) for _, tok in flow.consumed + flow.read):
            kinds.append("read_up")
        if cfg.no_write_down and any(not lat.leq(t.clearance, clearance(p)) for p, _ in flow.produced):
            kinds.append("write_down")
        if cfg.containment and any(not lat.leq(tok.level, clearance(p)) for p, tok in flow.produced):
            kinds.append("containment")
        for k in kinds:
            found[(tid, k)] = found.get((tid, k), 0) + 1
    return found


def _words(n, edges, low, purged):
    """Observation words of every run of an acyclic graph.

    Low transitions show as their id, the rest are silent; ``purged`` drops
    the high transitions instead, which is the purged net's behaviour.
    """
    out = [[] for _ in range(n)]
    for s, t, d, _ in edges:
        if t in low or not purged:
            out[s].append((t if t in low else None, d))
    memo = {}

    def words(s):
        w = memo.get(s)
        if w is None:
            w = {()}
            for sym, d in out[s]:
                for tail in words(d):
                    w.add(tail if sym is None else (sym,) + tail)
            memo[s] = w
        return w

    return words(0)


def _allocation_reference(bundle):
    """(valid assignments in canonical order, (min cost, assignment) or None)."""
    wf, lat, cost = bundle.workflow, bundle.net.lattice, bundle.cost
    specs = {s.id: s for s in bundle.cloud_specs}
    tids = [t.id for t in wf.tasks]
    cids = sorted(specs)
    ok = {
        (t, c): lat.leq(lat.join_all(lv for _, lv in wf.task_by_id[t].touches), specs[c].clearance)
        for t in tids
        for c in cids
    }
    valid = [tuple(zip(tids, c)) for c in product(cids, repeat=len(tids))
             if all(ok[(t, x)] for t, x in zip(tids, c))]
    best = None
    for a in valid:
        where = dict(a)
        total = sum((specs[where[t]].exec_for(t) for t in tids), Fraction(0))
        total += cost.transfer_cost * sum(where[e.producer] != where[e.consumer] for e in wf.edges)
        key = (total, a)
        if best is None or key < best:
            best = key
    return valid, best
