"""Command-line front end.

One analysis per invocation.  Each subcommand returns a verdict and its
report fields; ``main`` loads the model, renders the report and maps the
verdict to the exit code (0 holds, 1 violated, 2 usage or input error).
Reports have a fixed field order and carry no timestamps unless asked, so
repeated runs diff cleanly.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import sys
from fractions import Fraction
from typing import Optional

from . import __version__
from .allocation import (
    NoFeasibleAllocation,
    enumerate_valid,
    min_cost_allocation,
    synthesize_net,
)
from .errors import FssmError
from .modelfile import ModelBundle, parse_model, render_fraction, serialize_model
from .noninterference import check_snni
from .opacity import RunMonitor, check_current_state_opacity, check_run_opacity
from .policy import (
    BlpConfig,
    PredicateExpr,
    _verdict,
    check_invariant,
    dynamic_blp_check,
    static_blp_check,
)
from .statespace import DEFAULT_MAX_STATES, ExploreLimits, explore, to_dot

_RULE_NAMES = ("read_up", "write_down", "containment")
# verdicts that exit 1; every other verdict exits 0
_FAILING = ("violated", "not_opaque", "no_feasible_allocation")


class UsageError(FssmError):
    pass


# --------------------------------------------------------------------------
# report rendering


def _scalar(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _kv_lines(key: str, val, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(val, dict):
        if not val:
            return [f"{pad}{key}: {{}}"]
        lines = [f"{pad}{key}:"]
        for k, v in val.items():
            lines.extend(_kv_lines(k, v, indent + 1))
        return lines
    if isinstance(val, list):
        if not val:
            return [f"{pad}{key}: []"]
        if all(not isinstance(x, (dict, list)) for x in val):
            return [f"{pad}{key}: " + " ".join(_scalar(x) for x in val)]
        lines = [f"{pad}{key}:"]
        for item in val:
            lines.extend(_item_lines(item, indent + 1))
        return lines
    return [f"{pad}{key}: {_scalar(val)}"]


def _item_lines(item: dict, indent: int) -> list[str]:
    pad = "  " * indent
    lines = []
    lead = "- "
    for k, v in item.items():
        for j, ln in enumerate(_kv_lines(k, v, 0)):
            lines.append(pad + (lead if j == 0 else "  ") + ln)
            lead = "  "
    return lines or [pad + "- {}"]


def render_report(obj: dict, fmt: str) -> str:
    """Human text is a plain derivation of the structured report."""
    if fmt == "json":
        return json.dumps(obj, indent=2) + "\n"
    lines = []
    for k, v in obj.items():
        lines.extend(_kv_lines(k, v, 0))
    return "\n".join(lines) + "\n"


def _violation_obj(v) -> dict:
    obj = {"kind": v.kind}
    if v.transition is not None:
        obj["transition"] = v.transition
    obj["state"] = v.state
    obj["witness"] = list(v.witness)
    obj["detail"] = v.detail
    obj["count"] = v.count
    return obj


def _policy_fields(rep) -> dict:
    fields: dict = {"violations": [_violation_obj(v) for v in rep.violations]}
    fields["states"] = rep.explored.states
    fields["edges"] = rep.explored.edges
    fields["depth"] = rep.explored.depth
    fields["truncated"] = rep.truncated
    return fields


def _listed(seq) -> Optional[list]:
    return list(seq) if seq is not None else None


# --------------------------------------------------------------------------
# subcommands: each returns (verdict, report fields), or None when it has
# written its whole output itself


def _limits(args, **overrides) -> ExploreLimits:
    kwargs = {"strict": args.strict_limits}
    kwargs.update(overrides)
    return ExploreLimits(**kwargs)


def cmd_validate(args, bundle: ModelBundle):
    net = bundle.net
    return "valid", dict(
        levels=len(net.lattice.levels),
        clouds=len(net.clouds),
        places=len(net.places),
        transitions=len(net.transitions),
        initial_markings=len(net.initials),
        observations=len(bundle.obs_maps),
        secrets=len(bundle.secrets),
        workflow_tasks=len(bundle.workflow.tasks) if bundle.workflow else 0,
    )


def cmd_explore(args, bundle: ModelBundle):
    limits = _limits(
        args,
        initial=args.initial,
        max_states=args.max_states,
        max_depth=args.max_depth,
    )
    g = explore(bundle.net, limits)
    if args.dot is not None:
        text = to_dot(g, show_markings=args.show_markings)
        if args.dot == "-":
            print(text, end="")
            return None
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(text)
    stats = g.stats
    # the graph, not a verdict, is bounded here: the warning says so in its own words
    return "explored", dict(
        initial=limits.initial,
        states=stats.states,
        edges=stats.edges,
        depth=stats.depth,
        truncated=g.truncated,
        warning="state space truncated at the configured bound" if g.truncated else None,
        dot=args.dot,
    )


def _parse_rules(csv: Optional[str]) -> BlpConfig:
    if csv is None:
        return BlpConfig()
    chosen = [r.strip() for r in csv.split(",") if r.strip()]
    for r in chosen:
        if r not in _RULE_NAMES:
            raise UsageError(f"unknown BLP rule {r!r}; choose from {', '.join(_RULE_NAMES)}")
    return BlpConfig(
        no_read_up="read_up" in chosen,
        no_write_down="write_down" in chosen,
        containment="containment" in chosen,
    )


def cmd_check_blp(args, bundle: ModelBundle):
    cfg = _parse_rules(args.rules)
    if args.static:
        rep = static_blp_check(bundle.net, cfg)
    else:
        g = explore(bundle.net, _limits(args))
        rep = dynamic_blp_check(bundle.net, cfg, graph=g)
    return rep.verdict, dict(
        static=args.static,
        rules=[
            name
            for name, on in (
                ("read_up", cfg.no_read_up),
                ("write_down", cfg.no_write_down),
                ("containment", cfg.containment),
            )
            if on
        ],
        **_policy_fields(rep),
    )


def cmd_check_invariant(args, bundle: ModelBundle):
    secret = bundle.secret(args.pred)
    if not isinstance(secret, PredicateExpr):
        raise UsageError(f"secret {args.pred!r} is a run monitor, not a state predicate")
    g = explore(bundle.net, _limits(args))
    rep = check_invariant(g, bundle.net, secret, mode=args.mode)
    return rep.verdict, dict(pred=args.pred, mode=args.mode, **_policy_fields(rep))


def cmd_check_ni(args, bundle: ModelBundle):
    level = bundle.observer_level(args.observer)
    default = dict(bundle.obs_maps).get("default")
    symbols = default.assignment if default is not None else None
    v = check_snni(bundle.net, level, limits=_limits(args), symbols=symbols)
    return _verdict(not v.holds, v.bounded), dict(
        observer=args.observer, level=level, witness=_listed(v.witness)
    )


def cmd_check_opacity(args, bundle: ModelBundle):
    secret = bundle.secret(args.secret)
    obs = bundle.obs_map(args.obs)
    kind = args.kind
    if kind is None:
        kind = "run" if isinstance(secret, RunMonitor) else "state"
    if kind == "state" and not isinstance(secret, PredicateExpr):
        raise UsageError(f"secret {args.secret!r} is a run monitor; use --kind run")
    if kind == "run" and not isinstance(secret, RunMonitor):
        raise UsageError(f"secret {args.secret!r} is a state predicate; use --kind state")
    g = explore(bundle.net, _limits(args))
    if kind == "state":
        v = check_current_state_opacity(g, bundle.net, obs, secret)
    else:
        v = check_run_opacity(g, bundle.net, obs, secret)
    return _verdict(not v.opaque, v.bounded, holds="opaque", fails="not_opaque"), dict(
        secret=args.secret,
        obs=args.obs,
        kind=kind,
        witness=_listed(v.witness),
        exposed=_listed(v.exposed),
        example_secret_run=_listed(v.example_secret_run),
    )


def cmd_allocate(args, bundle: ModelBundle):
    if bundle.workflow is None:
        raise FssmError("model has no workflow section")
    if args.enumerate and args.emit_net is not None:
        raise UsageError("--emit-net requires --min-cost")
    wf, lat = bundle.workflow, bundle.net.lattice
    clouds = bundle.cloud_specs
    if args.enumerate:
        allocations = enumerate_valid(wf, clouds, lat, limit=args.limit)
        return "enumerated", dict(
            count=len(allocations), allocations=[dict(a.assignment) for a in allocations]
        )
    try:
        best, cost = min_cost_allocation(wf, clouds, lat, bundle.cost)
    except NoFeasibleAllocation as e:
        return "no_feasible_allocation", dict(detail=str(e))
    emitted = None
    if args.emit_net is not None:
        snet = synthesize_net(wf, best, lat, clouds)
        text = serialize_model(ModelBundle(net=snet))
        if args.emit_net == "-":
            sys.stdout.write(text)
        else:
            with open(args.emit_net, "w", encoding="utf-8") as fh:
                fh.write(text)
            emitted = args.emit_net
    return "optimal", dict(
        assignment=dict(best.assignment),
        cost=render_fraction(Fraction(cost)),
        emitted=emitted,
    )


# --------------------------------------------------------------------------
# argument parsing


def _add_globals(p: argparse.ArgumentParser, suppress: bool):
    p.add_argument(
        "--format",
        choices=("human", "json"),
        default=argparse.SUPPRESS if suppress else "human",
        help="report rendering (default: human)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=argparse.SUPPRESS if suppress else 1,
        help="worker hint; results are identical for any value",
    )
    p.add_argument(
        "--strict-limits",
        action="store_true",
        default=argparse.SUPPRESS if suppress else False,
        help="treat truncation as an error instead of a bounded verdict",
    )
    p.add_argument(
        "--timestamps",
        action="store_true",
        default=argparse.SUPPRESS if suppress else False,
        help="include a wall-clock timestamp in reports",
    )


def _command(sub, name: str, func, **kwargs) -> argparse.ArgumentParser:
    p = sub.add_parser(name, **kwargs)
    p.add_argument("file", help="model file (JSON)")
    _add_globals(p, suppress=True)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fssm", description="Flow-sensitive security analyses for cloud task nets."
    )
    top.add_argument("--version", action="version", version=f"fssm {__version__}")
    _add_globals(top, suppress=False)
    sub = top.add_subparsers(dest="command", required=True, metavar="COMMAND")

    _command(sub, "validate", cmd_validate, help="parse and validate a model file")

    p = _command(sub, "explore", cmd_explore, help="build the reachability graph")
    p.add_argument("--initial", type=int, default=0, metavar="N", help="initial marking index")
    p.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES, metavar="N")
    p.add_argument("--max-depth", type=int, default=None, metavar="N")
    p.add_argument("--dot", metavar="PATH", help="write DOT text here ('-' for stdout)")
    p.add_argument("--show-markings", action="store_true", help="full markings in DOT labels")

    check = sub.add_parser("check", help="run a property check")
    csub = check.add_subparsers(dest="check_command", required=True, metavar="PROPERTY")

    p = _command(csub, "blp", cmd_check_blp, help="Bell-LaPadula flow rules")
    p.add_argument("--static", action="store_true", help="declaration-only warnings")
    p.add_argument("--rules", metavar="CSV", help="subset of read_up,write_down,containment")

    p = _command(csub, "invariant", cmd_check_invariant, help="state predicate on all reachable states")
    p.add_argument("--pred", required=True, metavar="NAME", help="state secret name from the model")
    p.add_argument("--mode", choices=("always", "never"), default="always")

    p = _command(csub, "ni", cmd_check_ni, help="SNNI noninterference")
    p.add_argument("--observer", required=True, metavar="LEVEL", help="observer level or alias")

    p = _command(csub, "opacity", cmd_check_opacity, help="state or run opacity")
    p.add_argument("--secret", required=True, metavar="NAME")
    p.add_argument("--obs", required=True, metavar="NAME", help="observation map name")
    p.add_argument("--kind", choices=("state", "run"), default=None)

    p = _command(sub, "allocate", cmd_allocate, help="workflow-to-cloud allocation")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--enumerate", action="store_true", help="list all valid allocations")
    mode.add_argument("--min-cost", action="store_true", help="cheapest valid allocation (default)")
    p.add_argument("--limit", type=int, default=10000, metavar="N", help="enumeration cap")
    p.add_argument("--emit-net", metavar="PATH", help="write the synthesized net as a model file")

    return top


# built on the first ``main`` call, not at import; ``parse_args`` returns a
# fresh namespace each call, so repeated calls in one process share nothing else
_parser = functools.cache(build_parser)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    if args.jobs < 1:
        print("fssm: error: --jobs must be at least 1", file=sys.stderr)
        return 2
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            bundle = parse_model(fh.read())
        result = args.func(args, bundle)
        if result is None:
            return 0
        verdict, fields = result
        command = f"check {args.check_command}" if args.command == "check" else args.command
        obj: dict = {"command": command, "model": args.file, "verdict": verdict}
        obj.update((k, v) for k, v in fields.items() if v is not None)
        if verdict == "holds_up_to_bound":
            obj["warning"] = "state space truncated; verdict holds only up to the bound"
        if args.timestamps:
            obj["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        obj["version"] = __version__
        print(render_report(obj, args.format), end="")
        return 1 if verdict in _FAILING else 0
    except (FssmError, OSError, UnicodeDecodeError) as e:
        print(f"fssm: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
