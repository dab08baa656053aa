"""CLI behaviour frozen against golden files, plus exit-code contract."""

import json

import pytest

from conftest import FIXTURES, GOLDEN
from fssm import parse_model
from fssm.cli import build_parser, main

GOLDEN_CASES = [
    ("validate_net1.json", 0, ["validate", "net1.json", "--format", "json"]),
    ("validate_net1.txt", 0, ["validate", "net1.json"]),
    ("explore_net1.json", 0, ["explore", "net1.json", "--format", "json"]),
    ("explore_net1.dot", 0, ["explore", "net1.json", "--dot", "-"]),
    (
        "explore_net1_markings.dot",
        0,
        ["explore", "net1.json", "--dot", "-", "--show-markings"],
    ),
    ("blp_net3.json", 1, ["check", "blp", "net3.json", "--format", "json"]),
    ("blp_net3.txt", 1, ["check", "blp", "net3.json"]),
    ("blp_leak.json", 1, ["check", "blp", "net1_leak.json", "--format", "json"]),
    (
        "blp_static_net3.json",
        1,
        ["check", "blp", "net3.json", "--static", "--format", "json"],
    ),
    (
        "blp_rules_contain.json",
        0,
        ["check", "blp", "net3.json", "--rules", "containment", "--format", "json"],
    ),
    (
        "invariant_never.json",
        1,
        [
            "check", "invariant", "net1.json",
            "--pred", "sec_p2", "--mode", "never", "--format", "json",
        ],
    ),
    (
        "invariant_always.json",
        0,
        [
            "check", "invariant", "net1.json",
            "--pred", "p1_small", "--mode", "always", "--format", "json",
        ],
    ),
    ("ni_net2.json", 0, ["check", "ni", "net2.json", "--observer", "Public", "--format", "json"]),
    ("ni_net3.json", 1, ["check", "ni", "net3.json", "--observer", "low", "--format", "json"]),
    ("ni_net3.txt", 1, ["check", "ni", "net3.json", "--observer", "low"]),
    (
        "opacity_state.json",
        1,
        [
            "check", "opacity", "net1.json",
            "--secret", "sec_p2", "--obs", "u_map", "--format", "json",
        ],
    ),
    (
        "opacity_silent.json",
        0,
        [
            "check", "opacity", "net1.json",
            "--secret", "sec_p2", "--obs", "silent", "--format", "json",
        ],
    ),
    (
        "opacity_run.json",
        1,
        [
            "check", "opacity", "net1.json",
            "--secret", "mon_up", "--obs", "u_map", "--format", "json",
        ],
    ),
    ("allocate_wf1.json", 0, ["allocate", "wf1.json", "--format", "json"]),
    ("allocate_wf1.txt", 0, ["allocate", "wf1.json"]),
    ("allocate_enum.json", 0, ["allocate", "wf1.json", "--enumerate", "--format", "json"]),
    ("emit_net.json", 0, ["allocate", "wf1.json", "--emit-net", "-", "--format", "json"]),
]


@pytest.fixture(autouse=True)
def in_fixture_dir(monkeypatch):
    monkeypatch.chdir(FIXTURES)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "golden,want_code,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES]
)
def test_golden_outputs(capsys, golden, want_code, argv):
    code, out, err = run(capsys, argv)
    assert code == want_code
    assert err == ""
    assert out == (GOLDEN / golden).read_text()


def test_globals_accepted_before_subcommand(capsys):
    _, after, _ = run(capsys, ["validate", "net1.json", "--format", "json"])
    _, before, _ = run(capsys, ["--format", "json", "validate", "net1.json"])
    assert before == after


def test_repeat_runs_are_identical(capsys):
    argv = ["check", "blp", "net1_leak.json", "--format", "json"]
    outs = {run(capsys, argv)[1] for _ in range(3)}
    assert len(outs) == 1


def test_jobs_flag_does_not_change_output(capsys):
    base = run(capsys, ["check", "ni", "net3.json", "--observer", "low", "--format", "json"])
    jobs4 = run(
        capsys,
        ["--jobs", "4", "check", "ni", "net3.json", "--observer", "low", "--format", "json"],
    )
    assert base[:2] == jobs4[:2]
    code, _, err = run(capsys, ["--jobs", "0", "validate", "net1.json"])
    assert code == 2 and "--jobs" in err


def test_json_reports_parse_and_keep_field_order(capsys):
    _, out, _ = run(capsys, ["check", "blp", "net3.json", "--format", "json"])
    obj = json.loads(out)
    assert list(obj)[:4] == ["command", "model", "verdict", "static"]
    assert list(obj)[-1] == "version"
    assert "timestamp" not in obj


def test_timestamps_only_on_request(capsys):
    _, out, _ = run(capsys, ["validate", "net1.json", "--format", "json", "--timestamps"])
    obj = json.loads(out)
    assert "timestamp" in obj
    assert list(obj)[-1] == "version"


def test_missing_file_is_exit_2(capsys):
    code, out, err = run(capsys, ["validate", "ghost.json"])
    assert code == 2
    assert out == ""
    assert err.startswith("fssm: error:")


@pytest.mark.parametrize(
    "content",
    [b'{"lattice": {"levels": ["caf\xe9"]}}', b"[" * 200_000 + b"]" * 200_000],
    ids=["not-utf8", "nested-200000-deep"],
)
def test_unreadable_model_is_exit_2(tmp_path, monkeypatch, capsys, content):
    (tmp_path / "bad.json").write_bytes(content)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, ["validate", "bad.json"])
    assert (code, out) == (2, "")
    assert err.startswith("fssm: error:")
    assert "Traceback" not in err


def test_schema_error_message_has_path(capsys):
    code, _, err = run(capsys, ["validate", "bad_schema.json"])
    assert code == 2
    assert "fssm: error: /lattice" in err


def test_syntax_error_reports_position(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, ["validate", "bad.json"])
    assert code == 2
    assert "line 1, column" in err


def test_unknown_rule_is_usage_error(capsys):
    code, _, err = run(capsys, ["check", "blp", "net3.json", "--rules", "no_flying"])
    assert code == 2
    assert "unknown BLP rule" in err


def test_kind_mismatch_is_usage_error(capsys):
    code, _, err = run(
        capsys,
        [
            "check", "opacity", "net1.json",
            "--secret", "mon_up", "--obs", "u_map", "--kind", "state",
        ],
    )
    assert code == 2
    assert "use --kind run" in err


def test_invariant_rejects_monitor_secret(capsys):
    code, _, err = run(
        capsys, ["check", "invariant", "net1.json", "--pred", "mon_up"]
    )
    assert code == 2
    assert "run monitor" in err


def test_allocate_without_workflow(capsys):
    code, _, err = run(capsys, ["allocate", "net1.json"])
    assert code == 2
    assert "no workflow" in err


def test_allocate_enumeration_limit(capsys):
    code, _, err = run(capsys, ["allocate", "wf1.json", "--enumerate", "--limit", "1"])
    assert code == 2
    assert "exceed limit 1" in err


def test_emit_net_requires_min_cost(capsys):
    code, _, err = run(capsys, ["allocate", "wf1.json", "--enumerate", "--emit-net", "-"])
    assert code == 2
    assert "--emit-net requires --min-cost" in err


def test_task_named_like_a_send_transition_is_exit_2(tmp_path, monkeypatch, capsys):
    # edge 0 (t1 -> t2) synthesizes the send transition send_e0_t1_t2
    doc = json.loads((FIXTURES / "wf1.json").read_text())
    doc["workflow"]["tasks"].append({"id": "send_e0_t1_t2", "touches": []})
    (tmp_path / "clash.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, ["allocate", "clash.json", "--min-cost", "--emit-net", "-"])
    assert (code, out) == (2, "")
    assert err.startswith("fssm: error: /workflow/tasks/2/id: ")
    assert "send_e0_t1_t2" in err


def test_no_feasible_allocation_is_verdict_not_crash(tmp_path, monkeypatch, capsys):
    doc = json.loads((FIXTURES / "wf1.json").read_text())
    doc["clouds"] = [{"id": "Cpub", "clearance": "Public"}]
    doc["costs"] = {"exec": {"Cpub": 1}, "transfer": 1}
    f = tmp_path / "stuck.json"
    f.write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, ["allocate", "stuck.json", "--format", "json"])
    assert code == 1
    assert err == ""
    obj = json.loads(out)
    assert obj["verdict"] == "no_feasible_allocation"
    assert "t2" in obj["detail"]


def test_unknown_place_with_empty_token_list_is_exit_2(tmp_path, monkeypatch, capsys):
    doc = json.loads((FIXTURES / "net1.json").read_text())
    doc["initial_markings"].append({"zz": []})
    (tmp_path / "ghost_place.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, ["validate", "ghost_place.json"])
    assert (code, out) == (2, "")
    assert err == "fssm: error: /initial_markings/1/zz: marking references unknown place 'zz'\n"


def test_strict_limits_turn_truncation_into_error(capsys):
    code, _, err = run(
        capsys,
        ["explore", "net2.json", "--max-states", "1", "--strict-limits"],
    )
    assert code == 2
    assert "fssm: error:" in err


def test_bounded_verdict_is_exit_0_with_warning(monkeypatch, capsys):
    # checks use the default cap; shrink it to force a bounded verdict
    import fssm.cli as cli_mod

    orig = cli_mod._limits

    def tiny(args, **overrides):
        overrides.setdefault("max_states", 1)
        return orig(args, **overrides)

    monkeypatch.setattr(cli_mod, "_limits", tiny)
    for argv in (
        ["check", "ni", "net2.json", "--observer", "Public"],
        ["check", "blp", "net1.json"],
        ["check", "invariant", "net1.json", "--pred", "sec_p2", "--mode", "never"],
        ["check", "opacity", "net1.json", "--secret", "sec_p2", "--obs", "u_map"],
        ["check", "opacity", "net1.json", "--secret", "mon_up", "--obs", "u_map"],
    ):
        code, out, err = run(capsys, argv + ["--format", "json"])
        assert (code, err) == (0, ""), argv
        obj = json.loads(out)
        assert obj["verdict"] == "holds_up_to_bound", argv
        assert obj["warning"] == "state space truncated; verdict holds only up to the bound"


def test_negative_max_depth_is_exit_2(capsys):
    code, out, err = run(capsys, ["explore", "net2.json", "--max-depth", "-1"])
    assert code == 2
    assert out == ""
    assert err.startswith("fssm: error:") and "max_depth" in err


def test_zero_max_states_is_exit_2(capsys):
    code, out, err = run(capsys, ["explore", "net2.json", "--max-states", "0"])
    assert code == 2
    assert out == ""
    assert err.startswith("fssm: error:") and "max_states" in err


def test_explore_limit_flags(capsys):
    code, out, _ = run(
        capsys, ["explore", "net2.json", "--max-states", "1", "--format", "json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["states"] == 1
    assert obj["truncated"] is True
    assert "warning" in obj


def test_explore_dot_to_file(tmp_path, capsys):
    out_path = tmp_path / "g.dot"
    code, out, _ = run(
        capsys, ["explore", "net1.json", "--dot", str(out_path), "--format", "json"]
    )
    assert code == 0
    assert out_path.read_text() == (GOLDEN / "explore_net1.dot").read_text()
    assert json.loads(out)["dot"] == str(out_path)


def test_emit_net_to_file_round_trips(tmp_path, capsys):
    out_path = tmp_path / "synth.json"
    code, out, _ = run(
        capsys,
        ["allocate", "wf1.json", "--emit-net", str(out_path), "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["emitted"] == str(out_path)
    bundle = parse_model(out_path.read_text())
    assert len(bundle.net.transitions) == 3


def test_version_flag(capsys):
    code, out, _ = run(capsys, ["--version"])
    assert code == 0
    assert out.startswith("fssm ")


def test_missing_subcommand_is_exit_2(capsys):
    assert run(capsys, [])[0] == 2
    assert run(capsys, ["check"])[0] == 2


# flags that differ between neighbours: a value one call parsed must not
# reach the next one through the parser that ``main`` reuses
_REUSE_SEQUENCE = [
    ["validate", "net1.json", "--format", "json"],
    ["validate", "net1.json"],
    ["check", "blp", "net3.json", "--static", "--format", "json"],
    ["check", "blp", "net3.json", "--format", "json"],
    ["check", "blp", "net3.json", "--rules", "containment", "--format", "json"],
    ["check", "blp", "net3.json"],
    [
        "check", "opacity", "net1.json",
        "--secret", "mon_up", "--obs", "u_map", "--kind", "run", "--format", "json",
    ],
    ["check", "opacity", "net1.json", "--secret", "sec_p2", "--obs", "u_map", "--format", "json"],
    ["explore", "net2.json", "--max-states", "1", "--strict-limits"],
    ["explore", "net2.json", "--max-states", "1", "--format", "json"],
    ["check", "blp", "--static"],
    ["--version"],
]


def test_reused_parser_carries_nothing_between_calls(capsys):
    import fssm.cli as cli_mod

    def first_run(argv):
        cli_mod._parser.cache_clear()
        return run(capsys, argv)

    want = [first_run(argv) for argv in _REUSE_SEQUENCE]
    assert [w[0] for w in want] == [0, 0, 1, 1, 0, 1, 1, 1, 2, 0, 2, 0]
    assert want[1][1] == (GOLDEN / "validate_net1.txt").read_text()
    assert want[3][1] == (GOLDEN / "blp_net3.json").read_text()
    assert want[6][1] == (GOLDEN / "opacity_run.json").read_text()

    cli_mod._parser.cache_clear()
    parser = cli_mod._parser()
    pairs = list(zip(_REUSE_SEQUENCE, want))
    for argv, expected in pairs + pairs[::-1]:
        assert run(capsys, argv) == expected, argv
    assert cli_mod._parser() is parser


def test_parser_help_smoke():
    # argparse wiring stays importable and self-consistent
    parser = build_parser()
    assert parser.prog == "fssm"
    assert parser.format_help()
