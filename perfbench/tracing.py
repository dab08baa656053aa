"""Spans around the calls a CLI job makes into each layer of ``fssm``.

The benchmark wraps the public functions that ``fssm.cli`` calls (and the
explorations inside ``check_snni``), so a span is recorded at every layer
boundary without changing the program.  A span holds its name, start, end,
parent, job id and counts; spans stay in memory until the run ends.

Two wrappers split a call the CLI makes as one: ``dynamic_blp_check`` is
given the explored graph, so its span is pure flow evaluation, and state
opacity is followed (outside the job's time) by a ``build_observer`` probe
on the same graph, which yields the macro-state count.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import fssm.cli as cli
import fssm.noninterference as noninterference
from fssm.opacity import build_observer

clock = time.perf_counter


@dataclass
class Span:
    name: str          # "<layer module>.<function>"
    job: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job = -1
        self.probes: list = []  # (job id, graph, obs) for build_observer after the job

    @contextmanager
    def span(self, name: str, job: Optional[int] = None):
        if job is not None:
            self._job = job
        i = len(self.spans)
        s = Span(name, self._job, self._stack[-1] if self._stack else None, clock())
        self.spans.append(s)
        self._stack.append(i)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = clock()

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                s.counts.update(count(result, *args, **kwargs))
            return result

        return traced

    def run_probes(self):
        """Build each state-opacity job's observer, outside the job's span."""
        for job, g, obs in self.probes:
            with self.span("opacity.build_observer", job) as s:
                auto = build_observer(g, obs)
            s.counts.update(macro_states=len(auto.macro_states), observer_states=len(g.states))
        self.probes.clear()

    @contextmanager
    def installed(self):
        """Patch the traced functions into ``fssm.cli`` for the duration."""
        orig = {name: getattr(cli, name) for name in _CLI_NAMES}
        orig_ni_explore = noninterference.explore
        w = self.wrap
        explore = w("statespace.explore", orig["explore"], _graph_counts)
        blp_check = w("policy.dynamic_blp_check", orig["dynamic_blp_check"], _blp_counts)

        def blp(net, cfg=None, limits=None, graph=None):
            if graph is None:
                graph = explore(net, limits)
            return blp_check(net, cfg, graph=graph)

        state_check = w("opacity.check_current_state_opacity", orig["check_current_state_opacity"])

        def state_opacity(g, net, obs, secret):
            self.probes.append((self._job, g, obs))
            return state_check(g, net, obs, secret)

        patched = dict(
            parse_model=w("modelfile.parse_model", orig["parse_model"],
                          lambda r, text: {"models": 1, "bytes": len(text)}),
            serialize_model=w("modelfile.serialize_model", orig["serialize_model"]),
            explore=explore,
            to_dot=w("statespace.to_dot", orig["to_dot"]),
            dynamic_blp_check=blp,
            check_invariant=w("policy.check_invariant", orig["check_invariant"]),
            check_snni=w("noninterference.check_snni", orig["check_snni"]),
            check_current_state_opacity=state_opacity,
            check_run_opacity=w("opacity.check_run_opacity", orig["check_run_opacity"]),
            enumerate_valid=w("allocation.enumerate_valid", orig["enumerate_valid"],
                              _enumerate_counts),
            min_cost_allocation=w("allocation.min_cost_allocation", orig["min_cost_allocation"]),
            synthesize_net=w("allocation.synthesize_net", orig["synthesize_net"]),
            render_report=w("cli.render_report", orig["render_report"]),
        )
        for name, fn in patched.items():
            setattr(cli, name, fn)
        noninterference.explore = w("statespace.explore", orig_ni_explore, _graph_counts)
        try:
            yield self
        finally:
            for name, fn in orig.items():
                setattr(cli, name, fn)
            noninterference.explore = orig_ni_explore


_CLI_NAMES = (
    "parse_model", "serialize_model", "explore", "to_dot", "dynamic_blp_check",
    "check_invariant", "check_snni", "check_current_state_opacity", "check_run_opacity",
    "enumerate_valid", "min_cost_allocation", "synthesize_net", "render_report",
)


def _graph_counts(g, *args, **kwargs):
    return {"states": len(g.states), "edges": len(g.edges)}


def _blp_counts(report, net, cfg=None, graph=None):
    return {"blp_edges": len(graph.edges)}


def _enumerate_counts(result, wf, clouds, lat, limit):
    return {"allocations": len(result), "assignments": len(list(clouds)) ** len(wf.tasks)}
