"""Command-line front end.

One analysis per invocation; verdicts map to exit codes (0 holds, 1
violated, 2 usage or input error).  Reports have a fixed field order and
carry no timestamps unless asked, so repeated runs diff cleanly.
"""

from __future__ import annotations

import argparse
import datetime
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
from .policy import BlpConfig, PredicateExpr, check_invariant, dynamic_blp_check, static_blp_check
from .statespace import ExploreLimits, explore, to_dot

_RULE_NAMES = ("read_up", "write_down", "containment")


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


def _report(command: str, model: str, verdict: str, args, **fields) -> dict:
    obj: dict = {"command": command, "model": model, "verdict": verdict}
    for k, v in fields.items():
        if v is not None:
            obj[k] = v
    if getattr(args, "timestamps", False):
        obj["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    obj["version"] = __version__
    return obj


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
    if rep.truncated and rep.verdict != "violated":
        fields["warning"] = "state space truncated; verdict holds only up to the bound"
    return fields


# --------------------------------------------------------------------------
# subcommands


def _load(args) -> ModelBundle:
    with open(args.file, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


def _limits(args, **overrides) -> ExploreLimits:
    kwargs = {"strict": args.strict_limits}
    kwargs.update(overrides)
    return ExploreLimits(**kwargs)


def cmd_validate(args) -> int:
    bundle = _load(args)
    net = bundle.net
    obj = _report(
        "validate",
        args.file,
        "valid",
        args,
        levels=len(net.lattice.levels),
        clouds=len(net.clouds),
        places=len(net.places),
        transitions=len(net.transitions),
        initial_markings=len(net.initials),
        observations=len(bundle.obs_maps),
        secrets=len(bundle.secrets),
        workflow_tasks=len(bundle.workflow.tasks) if bundle.workflow else 0,
    )
    print(render_report(obj, args.format), end="")
    return 0


def cmd_explore(args) -> int:
    bundle = _load(args)
    limits = _limits(
        args,
        initial=args.initial,
        max_depth=args.max_depth,
        **({"max_states": args.max_states} if args.max_states is not None else {}),
    )
    g = explore(bundle.net, limits)
    if args.dot is not None:
        text = to_dot(g, show_markings=args.show_markings)
        if args.dot == "-":
            print(text, end="")
            return 0
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(text)
    stats = g.stats
    obj = _report(
        "explore",
        args.file,
        "explored",
        args,
        initial=limits.initial,
        states=stats.states,
        edges=stats.edges,
        depth=stats.depth,
        truncated=g.truncated,
        warning="state space truncated at the configured bound" if g.truncated else None,
        dot=args.dot,
    )
    print(render_report(obj, args.format), end="")
    return 0


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


def cmd_check_blp(args) -> int:
    bundle = _load(args)
    cfg = _parse_rules(args.rules)
    if args.static:
        rep = static_blp_check(bundle.net, cfg)
    else:
        rep = dynamic_blp_check(bundle.net, cfg, limits=_limits(args))
    obj = _report(
        "check blp",
        args.file,
        rep.verdict,
        args,
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
    print(render_report(obj, args.format), end="")
    return 1 if rep.verdict == "violated" else 0


def cmd_check_invariant(args) -> int:
    bundle = _load(args)
    secret = bundle.secret(args.pred)
    if not isinstance(secret, PredicateExpr):
        raise UsageError(f"secret {args.pred!r} is a run monitor, not a state predicate")
    g = explore(bundle.net, _limits(args))
    rep = check_invariant(g, bundle.net, secret, mode=args.mode)
    obj = _report(
        "check invariant",
        args.file,
        rep.verdict,
        args,
        pred=args.pred,
        mode=args.mode,
        **_policy_fields(rep),
    )
    print(render_report(obj, args.format), end="")
    return 1 if rep.verdict == "violated" else 0


def cmd_check_ni(args) -> int:
    bundle = _load(args)
    level = bundle.observer_level(args.observer)
    symbols = None
    for name, obs in bundle.obs_maps:
        if name == "default":
            symbols = dict(obs.entries)
    verdict = check_snni(bundle.net, level, limits=_limits(args), symbols=symbols)
    if not verdict.holds:
        text = "violated"
    else:
        text = "holds_up_to_bound" if verdict.bounded else "holds"
    obj = _report(
        "check ni",
        args.file,
        text,
        args,
        observer=args.observer,
        level=level,
        witness=list(verdict.witness) if verdict.witness is not None else None,
        warning="state space truncated; verdict holds only up to the bound"
        if text == "holds_up_to_bound"
        else None,
    )
    print(render_report(obj, args.format), end="")
    return 1 if text == "violated" else 0


def cmd_check_opacity(args) -> int:
    bundle = _load(args)
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
        verdict = check_current_state_opacity(g, bundle.net, obs, secret)
    else:
        verdict = check_run_opacity(g, bundle.net, obs, secret)
    if verdict.opaque:
        text = "holds_up_to_bound" if g.truncated else "opaque"
    else:
        text = "not_opaque"
    obj = _report(
        "check opacity",
        args.file,
        text,
        args,
        secret=args.secret,
        obs=args.obs,
        kind=kind,
        witness=list(verdict.witness) if verdict.witness is not None else None,
        exposed=list(verdict.exposed) if verdict.exposed is not None else None,
        example_secret_run=list(verdict.example_secret_run)
        if verdict.example_secret_run is not None
        else None,
        warning="state space truncated; verdict holds only up to the bound"
        if text == "holds_up_to_bound"
        else None,
    )
    print(render_report(obj, args.format), end="")
    return 1 if text == "not_opaque" else 0


def cmd_allocate(args) -> int:
    bundle = _load(args)
    if bundle.workflow is None:
        raise FssmError("model has no workflow section")
    if args.enumerate and args.emit_net is not None:
        raise UsageError("--emit-net requires --min-cost")
    wf, lat = bundle.workflow, bundle.net.lattice
    clouds = bundle.cloud_specs
    if args.enumerate:
        allocations = enumerate_valid(wf, clouds, lat, limit=args.limit)
        obj = _report(
            "allocate",
            args.file,
            "enumerated",
            args,
            count=len(allocations),
            allocations=[dict(a.assignment) for a in allocations],
        )
        print(render_report(obj, args.format), end="")
        return 0
    try:
        best, cost = min_cost_allocation(wf, clouds, lat, bundle.cost)
    except NoFeasibleAllocation as e:
        obj = _report("allocate", args.file, "no_feasible_allocation", args, detail=str(e))
        print(render_report(obj, args.format), end="")
        return 1
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
    obj = _report(
        "allocate",
        args.file,
        "optimal",
        args,
        assignment=dict(best.assignment),
        cost=render_fraction(Fraction(cost)),
        emitted=emitted,
    )
    print(render_report(obj, args.format), end="")
    return 0


# --------------------------------------------------------------------------
# argument parsing


def _add_globals(p: argparse.ArgumentParser, suppress: bool):
    d = argparse.SUPPRESS if suppress else None
    p.add_argument(
        "--format",
        choices=("human", "json"),
        default=d if suppress else "human",
        help="report rendering (default: human)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=d if suppress else 1,
        help="worker hint; results are identical for any value",
    )
    p.add_argument(
        "--strict-limits",
        action="store_true",
        default=d if suppress else False,
        help="treat truncation as an error instead of a bounded verdict",
    )
    p.add_argument(
        "--timestamps",
        action="store_true",
        default=d if suppress else False,
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
    p.add_argument("--max-states", type=int, default=None, metavar="N")
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


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    if args.jobs < 1:
        print("fssm: error: --jobs must be at least 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (FssmError, OSError) as e:
        print(f"fssm: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
