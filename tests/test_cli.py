"""Tests for scenario files (parsing, canonical digests, round-trips)
and the command-line interface (output shapes and exit codes)."""

from __future__ import annotations

import contextlib
import copy
import errno
import hashlib
import io
import json
import math
import os
import random
import re
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from coalition_forge import (
    MechanismKind,
    RuleKind,
    ScenarioError,
    ValidationError,
    canonical_json,
    load_scenario,
    parse_scenario,
    scenario_digest,
)
from coalition_forge import cli, scenario, simulate
from coalition_forge.mechanisms import lambert
from coalition_forge import scenarios as bundled
from coalition_forge.cli import build_parser, main
from coalition_forge.simplex import MAX_GRID_POINTS

BUNDLED_NAMES = {
    "example1",
    "example2",
    "example3",
    "example3_mean",
    "intermediary",
    "market_session",
    "sweep_competitive",
    "sweep_traditional",
}


def _minimal_raw(**overrides):
    raw = {
        "schema_version": 1,
        "event": {"m": 2},
        "rule": {"kind": "quadratic"},
        "mechanism": "traditional",
        "players": [
            {"belief": [0.2, 0.8]},
            {"belief": [0.8, 0.2]},
        ],
        "coalition": [1, 2],
    }
    raw.update(overrides)
    return raw


def _sweep_raw(seed=5):
    return {
        "schema_version": 1,
        "event": {"m": 2},
        "rule": {"kind": "quadratic"},
        "mechanism": "competitive",
        "simulation": {
            "mode": "sweep",
            "sampler": {"kind": "beta_binary", "alpha": 2.0, "beta": 2.0},
            "n": 20,
            "fractions": [0.25, 0.4, 0.5],
            "trials": 40,
            "seed": seed,
        },
    }


def test_bundled_names_and_paths():
    assert set(bundled.names()) == BUNDLED_NAMES
    for name in bundled.names():
        assert bundled.path(name).exists()


@pytest.mark.parametrize("name", sorted(BUNDLED_NAMES))
def test_bundled_scenarios_round_trip(name):
    # The parser reads a bundled file and its canonical text alike.
    sc, _ = load_scenario(bundled.path(name))
    raw = json.loads(bundled.path(name).read_text(encoding="utf-8"))
    assert parse_scenario(json.loads(canonical_json(raw))) == parse_scenario(raw) == sc


def test_lambert_preset_round_trip():
    raw = _minimal_raw(mechanism="lambert")
    sc = parse_scenario(raw)
    # The preset rescales the mechanism's rule but leaves the scenario
    # rule untouched.
    assert sc.rule.affine_offsets is None
    assert sc.mechanism.rule.affine_offsets == (0.5, 0.5)
    assert parse_scenario(json.loads(canonical_json(raw))) == sc
    # A scenario keeps the mechanism a preset names, not the name: both
    # presets compare equal to the mechanism written out.
    assert sc == parse_scenario(raw) and sc.mechanism == lambert(sc.rule, 2)
    kilgour = parse_scenario(_minimal_raw(mechanism="kilgour_gerchak"))
    assert kilgour == parse_scenario(_minimal_raw(mechanism="competitive"))


def test_kilgour_gerchak_requires_equal_wagers():
    raw = _minimal_raw(mechanism="kilgour_gerchak")
    sc = parse_scenario(raw)
    assert sc.mechanism.kind is MechanismKind.COMPETITIVE
    raw["players"][0]["wager"] = 2.0
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    assert err.value.field_path == "mechanism"


def test_digest_invariant_to_key_order():
    raw = _minimal_raw()
    reordered = {k: raw[k] for k in reversed(list(raw))}
    assert scenario_digest(raw) == scenario_digest(reordered)
    changed = copy.deepcopy(raw)
    changed["players"][0]["belief"] = [0.3, 0.7]
    assert scenario_digest(changed) != scenario_digest(raw)


def test_canonical_json_is_compact_and_sorted():
    text = canonical_json({"b": 1.5, "a": [1, 2]})
    assert text == '{"a":[1,2],"b":1.5}'


def test_parse_defaults():
    sc = parse_scenario(_minimal_raw())
    assert sc.schema_version == 1
    assert sc.m == 2
    assert sc.labels is None
    assert all(p.wager == 1.0 for p in sc.players)
    assert all(p.report is None for p in sc.players)
    assert sc.coalition.members == (0, 1)
    assert sc.simulation is None
    assert sc.rule.kind is RuleKind.QUADRATIC
    # Integer numbers parse to their float forms.
    other = {"belief": [0.8, 0.2]}
    ints = parse_scenario(_minimal_raw(players=[{"belief": [1, 0], "wager": 2}, other]))
    floats = parse_scenario(_minimal_raw(players=[{"belief": [1.0, 0.0], "wager": 2.0}, other]))
    assert ints == floats
    assert [type(x) for x in (*ints.players[0].belief.probs, ints.players[0].wager)] == [float] * 3


@pytest.mark.parametrize(
    "m", [2**70, 10**400, MAX_GRID_POINTS + 1], ids=["2**70", "10**400", "cap+1"]
)
def test_event_size_is_capped(tmp_path, capsys, m):
    # Every forecast and preset row has m entries: a larger m is invalid
    # input, named before anything of that size is built.
    raw = {"schema_version": 1, "event": {"m": m}, "rule": {"kind": "quadratic"},
           "mechanism": "lambert"}
    message = f"at most {MAX_GRID_POINTS:,} states are supported"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    assert (err.value.field_path, err.value.detail) == ("event.m", message)
    path = _write_scenario(tmp_path, raw)
    for command in ("score", "verify"):
        assert main([command, "--scenario", path]) == 2
        assert capsys.readouterr().err == f"error: event.m: {message}\n"
    raw.update(event={"m": MAX_GRID_POINTS}, mechanism="traditional")
    assert parse_scenario(raw).m == MAX_GRID_POINTS


def test_parse_labels():
    raw = _minimal_raw(event={"m": 2, "labels": ["rain", "shine"]})
    assert parse_scenario(raw).labels == ("rain", "shine")
    raw = _minimal_raw(event={"m": 2, "labels": ["rain"]})
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    assert err.value.field_path == "event.labels"


def _sixty_players(last):
    """A mutation that gives the scenario 60 players, the last one last."""
    return lambda r: r["players"].extend([{"belief": [0.5, 0.5]}] * 57 + [last])


@pytest.mark.parametrize(
    "mutate,path_fragment",
    [
        (lambda r: r.update(extra=1), "<root>"),
        (lambda r: r.update(schema_version=2), "schema_version"),
        (lambda r: r["event"].update(m=1), "event.m"),
        (lambda r: r.update(rule={"kind": "mystery"}), "rule.kind"),
        (lambda r: r.update(rule={"kind": "custom_binary"}), "rule.kind"),
        (lambda r: r.update(rule={"kind": "quadratic", "l": 0.1}), "rule.l"),
        (lambda r: r.update(rule={"kind": "quadratic", "a": [0.0]}), "rule.a"),
        (lambda r: r.update(mechanism="mystery"), "mechanism"),
        (
            lambda r: r.update(
                mechanism={"kind": "traditional", "prior": [0.5, 0.5]}
            ),
            "mechanism.prior",
        ),
        (lambda r: r["players"][1].update(belief=[0.5, 0.6]), "players[2].belief"),
        (lambda r: r["players"][0].update(report=[0.5]), "players[1].report"),
        (lambda r: r["players"][0].update(wager="big"), "players[1].wager"),
        (lambda r: r["players"][1].update(belief=["0.5", 0.5]), "players[2].belief[1]"),
        (lambda r: r["players"][0].update(belief=[0.5, True]), "players[1].belief[2]"),
        (lambda r: r["players"][0].update(belief=[-0.1, 1.1]), "players[1].belief"),
        (lambda r: r["players"][0].update(report=[0.5, "x"]), "players[1].report[2]"),
        pytest.param(
            lambda r: r["players"][1].update(belief=[math.nan, 0.5]),
            "players[2].belief[1]",
            id="<lambda>-players[2].belief[1]-nan",
        ),
        pytest.param(
            lambda r: r["players"][0].update(wager=math.inf),
            "players[1].wager",
            id="<lambda>-players[1].wager-inf",
        ),
        (lambda r: r.update(coalition=[1, 9]), "coalition[2]"),
        (lambda r: r.update(coalition=[1, 1]), "coalition"),
        (lambda r: r.update(coalition=[]), "coalition"),
        (_sixty_players({"belief": [0.5, 0.5], "odds": 2}), "players[60]"),
        (_sixty_players({"belief": [0.5, True]}), "players[60].belief[2]"),
        (_sixty_players({"belief": [math.nan, 0.5]}), "players[60].belief[1]"),
        # Names that cannot be looked up in a table.
        pytest.param(lambda r: r.update(rule={"kind": ["quadratic"]}), "rule.kind", id="rule-kind-list"),
        pytest.param(lambda r: r.update(rule={"kind": {}}), "rule.kind", id="rule-kind-object"),
        pytest.param(lambda r: r.update(mechanism=[]), "mechanism", id="mechanism-list"),
        pytest.param(lambda r: r.update(mechanism={"kind": {}}), "mechanism", id="mechanism-kind-object"),
        pytest.param(lambda r: r.update(simulation={"mode": []}), "simulation.mode", id="mode-list"),
        pytest.param(lambda r: r.update(simulation={"mode": {}}), "simulation.mode", id="mode-object"),
    ],
)
def test_scenario_errors_carry_field_paths(mutate, path_fragment):
    raw = _minimal_raw()
    mutate(raw)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    assert path_fragment in err.value.field_path or path_fragment in str(err.value)


@pytest.mark.parametrize(
    "mutate,field_path,detail",
    [
        (lambda r: r["players"][1].update(belief=["0.5", 0.5]),
         "players[2].belief", "players[2].belief[1]: expected a number, got '0.5'"),
        (lambda r: r["players"][0].update(belief=[True, 0.0]),
         "players[1].belief", "players[1].belief[1]: expected a number, got True"),
        (lambda r: r["players"][0].update(report=[0.5, None]),
         "players[1].report", "players[1].report[2]: expected a number, got None"),
        (lambda r: r["players"][0].update(belief=[-0.1, 1.1]),
         "players[1].belief", "negative entry -0.1"),
        (lambda r: r["players"][0].update(belief=[0.5, 0.6]),
         "players[1].belief", "entries sum to 1.1, outside 1 +/- 1e-09"),
        (lambda r: r["players"][0].update(belief=[1e308, 1e308]),
         "players[1].belief", "entries sum to inf, outside 1 +/- 1e-09"),
        (lambda r: r["players"][1].update(belief=[0.5, math.nan]),
         "players[2].belief", "players[2].belief[2]: expected a finite number, got nan"),
        (lambda r: r["players"][0].update(wager=math.inf),
         "players[1].wager", "expected a finite number, got inf"),
        (lambda r: r["players"][0].update(wager=10**400),
         "players[1].wager", f"expected a finite number, got {10**400!r}"),
        (lambda r: r.update(rule={"kind": "quadratic", "b": -math.inf}),
         "rule.b", "expected a finite number, got -inf"),
        (lambda r: r.update(mechanism={"kind": "market", "prior": [math.nan, 1.0]}),
         "mechanism.prior", "mechanism.prior[1]: expected a finite number, got nan"),
        (_sixty_players({"belief": [0.5, True]}),
         "players[60].belief", "players[60].belief[2]: expected a number, got True"),
        (_sixty_players({"belief": [math.nan, 0.5]}),
         "players[60].belief", "players[60].belief[1]: expected a finite number, got nan"),
        (_sixty_players({"belief": [0.5, 0.5], "odds": 2}),
         "players[60]", "unknown field(s) ['odds']"),
        (lambda r: r["players"][0].update(report=[math.nan, 0.5]),
         "players[1].report", "players[1].report[1]: expected a finite number, got nan"),
        (lambda r: r.update(coalition=[2, True]), "coalition[2]", "expected an integer, got True"),
        (lambda r: r.update(coalition=[2, 0]), "coalition[2]", "player index 0 out of range 1..2"),
        # Integers are numbers and pass; a boolean is not one.
        (lambda r: (r["players"][0].update(belief=[1, 0], wager=2),
                    r["players"][1].update(wager=True)),
         "players[2].wager", "expected a number, got True"),
    ],
)
def test_number_errors_name_the_entry(mutate, field_path, detail):
    # A bad entry of a forecast reports the forecast as the field and
    # names the entry in the detail.
    raw = _minimal_raw()
    mutate(raw)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    assert (err.value.field_path, err.value.detail) == (field_path, detail)


def test_lambert_rejects_unbounded_rule():
    raw = _minimal_raw(rule={"kind": "logarithmic"}, mechanism="lambert")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    assert err.value.field_path == "mechanism"
    assert "lower bound" in err.value.detail


def test_simulation_block_validation():
    raw = _sweep_raw()
    del raw["simulation"]["trials"]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    assert err.value.field_path == "simulation.trials"

    raw = _sweep_raw()
    raw["simulation"]["fractions"] = [0.5, 1.5]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    assert err.value.field_path == "simulation.fractions[2]"

    raw = _sweep_raw()
    raw["simulation"]["mode"] = "mystery"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    assert err.value.field_path == "simulation.mode"

    raw = _sweep_raw()
    raw["simulation"]["sampler"] = {"kind": "dirichlet", "alpha": [1.0, 1.0, 1.0]}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    assert err.value.field_path == "simulation.sampler.alpha"

    raw = _minimal_raw()
    raw["simulation"] = {
        "mode": "market_session",
        "sampler": {"kind": "beta_binary", "alpha": 2.0, "beta": 2.0},
        "ordering": [1, 3],
    }
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    assert err.value.field_path == "simulation.ordering"


def test_beta_binary_sampler_needs_binary_event():
    raw = _sweep_raw()
    raw["event"]["m"] = 3
    raw["rule"] = {"kind": "quadratic"}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    assert "binary" in err.value.detail


def test_finite_mixture_sampler_needs_points():
    raw = _sweep_raw()
    raw["simulation"]["sampler"] = {"kind": "finite_mixture", "points": [], "weights": []}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    assert err.value.field_path == "simulation.sampler.points"
    assert err.value.detail == "expected a non-empty list of forecasts"


def test_market_session_scenario_parses_ordering_to_zero_based():
    sc, _ = load_scenario(bundled.path("market_session"))
    assert sc.simulation.ordering == (0, 1, 2, 3)
    assert sc.coalition.members == (1, 3)
    assert sc.mechanism.market_prior.probs == (0.5, 0.5)


def _market_session_without_players():
    raw = json.loads(bundled.path("market_session").read_text(encoding="utf-8"))
    del raw["players"]
    return raw


def test_market_session_without_players_checks_the_coalition_against_the_ordering():
    # The session samples one player per ordering entry; listed players
    # are never used, so a scenario may leave them out.
    sc = parse_scenario(_market_session_without_players())
    assert sc.players == ()
    assert sc.coalition.members == (1, 3)
    assert sc.simulation == load_scenario(bundled.path("market_session"))[0].simulation
    raw = _market_session_without_players()
    raw["coalition"] = [2, 5]
    with pytest.raises(ScenarioError, match=r"coalition\[2\].*out of range 1\.\.4"):
        parse_scenario(raw)
    # Another mode, or listed players, still bounds the coalition by them.
    raw = _market_session_without_players()
    raw["simulation"] = {"mode": "intermediary"}
    with pytest.raises(ScenarioError, match=r"coalition\[1\].*out of range 1\.\.0"):
        parse_scenario(raw)
    raw = _market_session_without_players()
    raw["players"] = [{"belief": [0.5, 0.5]}] * 3
    with pytest.raises(ScenarioError, match=r"coalition\[2\].*out of range 1\.\.3"):
        parse_scenario(raw)


def _write_scenario(tmp_path, raw, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def test_cli_score_csv(capsys):
    assert main(["score", "--scenario", "example1", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "player,E1,E2"
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[1]) == pytest.approx(0.5)
        assert float(cells[2]) == pytest.approx(0.5)


def test_cli_score_single_outcome(capsys):
    code = main(
        ["score", "--scenario", "example2", "--format", "csv", "--outcome", "1"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "player,E1"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values[0] == pytest.approx(0.0, abs=1e-15)
    assert values[1] == pytest.approx(0.28768207245178085, rel=1e-12)
    assert values[2] == pytest.approx(0.0, abs=1e-15)


def test_cli_score_outcome_out_of_range(capsys):
    assert main(["score", "--scenario", "example1", "--outcome", "5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_scenario_name_resolution(capsys):
    assert main(["score", "--scenario", "example1.json"]) == 0
    capsys.readouterr()
    assert main(["score", "--scenario", str(bundled.path("example1"))]) == 0
    capsys.readouterr()
    assert main(["score", "--scenario", "mystery"]) == 2
    err = capsys.readouterr().err
    assert "bundled" in err and "example1" in err


def test_cli_score_needs_players(capsys):
    assert main(["score", "--scenario", "sweep_competitive"]) == 2
    assert "no players" in capsys.readouterr().err


def test_cli_score_missing_report(tmp_path, capsys):
    raw = _minimal_raw()
    path = _write_scenario(tmp_path, raw)
    assert main(["score", "--scenario", path]) == 2
    assert "player 1 has no report" in capsys.readouterr().err


def test_cli_rejects_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["score", "--scenario", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    # An integer of more digits than Python converts (4,300 by default) is
    # invalid input too.
    text = json.dumps(_minimal_raw()).replace('"m": 2', '"m": 1' + "0" * 5000)
    path.write_text(text, encoding="utf-8")
    assert main(["score", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: not valid JSON: ")


def test_deeply_nested_scenario_is_invalid_input(tmp_path, capsys):
    # json.loads raises RecursionError on arrays nested past the
    # interpreter's recursion limit: invalid input naming the file, not a
    # traceback and exit 1.
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000, encoding="utf-8")
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert (err.value.field_path, err.value.detail) == (str(path), "not valid JSON: nested too deeply")
    assert main(["score", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: not valid JSON: nested too deeply\n"


@pytest.mark.parametrize(
    "argv, written",
    [
        (["score", "--scenario", "example1", "--out", "missing_dir/x.csv"], "missing_dir/x.csv"),
        (
            ["simulate", "--scenario", "intermediary", "--out", "missing_dir/base"],
            "missing_dir/base.csv",
        ),
    ],
    ids=["score", "simulate"],
)
def test_cli_out_path_that_cannot_be_written_is_invalid_input(
    tmp_path, monkeypatch, capsys, argv, written
):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {written}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_unreadable_scenario_is_invalid_input(tmp_path, capsys):
    assert main(["score", "--scenario", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path}: cannot read: Is a directory\n"
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(_minimal_raw()).encode("utf-16-le"))
    assert main(["score", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text: ")
    assert "can't decode byte 0xff in position 0" in err


def test_cli_rejects_non_finite_numbers(tmp_path, capsys):
    # JSON's NaN and Infinity literals, and 1e999, parse to non-finite
    # floats; they are invalid input (exit 2), not a crash.
    raw = _minimal_raw()
    raw["players"][0]["belief"] = [math.nan, 0.5]
    path = _write_scenario(tmp_path, raw)
    assert "NaN" in Path(path).read_text(encoding="utf-8")
    assert main(["arbitrage", "--scenario", path]) == 2
    assert capsys.readouterr().err == (
        "error: players[1].belief: players[1].belief[1]: expected a finite number, got nan\n"
    )
    text = json.dumps(_minimal_raw()).replace('"quadratic"', '"quadratic", "b": 1e999')
    path = tmp_path / "huge.json"
    path.write_text(text, encoding="utf-8")
    assert main(["verify", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == "error: rule.b: expected a finite number, got inf\n"


def test_cli_belief_whose_sum_overflows_is_invalid_input(tmp_path, capsys):
    # Each entry is finite but their sum is not: exit 2 with the field
    # path, not a traceback.
    raw = _minimal_raw()
    raw["players"][0]["belief"] = [1e308, 1e308]
    path = _write_scenario(tmp_path, raw)
    for command in ("score", "arbitrage", "verify"):
        assert main([command, "--scenario", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: players[1].belief: entries sum to inf, outside 1 +/- 1e-09\n"
        )


def test_cli_arbitrage_json_envelope(capsys):
    assert main(["arbitrage", "--scenario", "example1", "--format", "json"]) == 0
    # The envelope's digest and command: test_cli_json_envelope_carries_the_file_digest.
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["q"] == [0.5, 0.5]
    assert payload["verdict"] == "dominates"
    assert payload["equalized"] is True
    assert payload["closed_form_surplus"] == pytest.approx(0.36, rel=1e-9)
    assert payload["witness_outcome"] is None


# Every bundled scenario and command whose --format json run writes an
# envelope; the others exit 2 or 3 before writing.
_JSON_RUNS = [
    *((name, command) for name in ("example1", "example2", "example3", "example3_mean")
      for command in ("score", "arbitrage", "verify")),
    ("intermediary", "arbitrage"), ("intermediary", "verify"), ("intermediary", "simulate"),
    *((name, command) for name in ("market_session", "sweep_competitive", "sweep_traditional")
      for command in ("verify", "simulate")),
]


@pytest.mark.parametrize("name, command", _JSON_RUNS, ids=[f"{n}-{c}" for n, c in _JSON_RUNS])
def test_cli_json_envelope_carries_the_file_digest(capsys, name, command):
    assert main([command, "--scenario", name, "--format", "json"]) in (0, 1)
    envelope = json.loads(capsys.readouterr().out)
    digest = scenario_digest(json.loads(bundled.path(name).read_text(encoding="utf-8")))
    assert envelope["scenario_digest"] == digest
    assert envelope["command"] == command
    if (name, command) == ("intermediary", "simulate"):
        assert envelope["payload"]["scenario_id"] == digest[:12]


def test_digest_is_computed_only_for_outputs_that_show_it(tmp_path, monkeypatch):
    # Loading computes no digest; the CLI computes one for the JSON
    # envelope and an intermediary run's scenario_id, and for no other
    # output: once a call, even where an intermediary run shows it twice,
    # and again on the next call.
    calls, digest = [], scenario.scenario_digest

    def counted(raw):
        calls.append(raw)
        return digest(raw)

    monkeypatch.setattr(scenario, "scenario_digest", counted)
    monkeypatch.setattr(cli, "scenario_digest", counted)

    def count(argv):
        calls.clear()
        _run_cli(argv)
        return len(calls)

    for name in sorted(BUNDLED_NAMES):
        load_scenario(bundled.path(name))
        assert calls == []
        for command in ("score", "arbitrage", "verify"):
            for fmt in ("csv", "table"):
                argv = [command, "--scenario", name, "--format", fmt]
                assert count(argv) == 0
                assert count(argv + ["--out", str(tmp_path / "out")]) == 0
    assert count(["simulate", "--scenario", "market_session"]) == 0
    for argv in (
        *(["score", "--scenario", "example1", "--format", "json"] + out
          for out in ([], ["--out", str(tmp_path / "out")])),
        ["arbitrage", "--scenario", "example1", "--format", "json"],
        ["verify", "--scenario", "example1", "--format", "json"],
        ["simulate", "--scenario", "intermediary"],
        *(["simulate", "--scenario", "intermediary"] + out
          for out in (["--format", "json"], ["--out", str(tmp_path / "run")])),
    ):
        assert count(argv) == 1


def test_cli_arbitrage_csv_shape(capsys):
    assert main(["arbitrage", "--scenario", "example3", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "outcome,q,surplus,oracle_margin"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[2]) == pytest.approx(0.044092845700385075, rel=1e-9)
        assert float(cells[3]) > 0.0


def test_cli_arbitrage_agreement_exit_code(tmp_path, capsys):
    raw = _minimal_raw()
    raw["players"] = [
        {"belief": [0.4, 0.6]},
        {"belief": [0.4, 0.6]},
    ]
    path = _write_scenario(tmp_path, raw)
    assert main(["arbitrage", "--scenario", path]) == 3
    assert "agree" in capsys.readouterr().err


def test_cli_near_agreement_is_agreement_on_the_surplus_scale(tmp_path, capsys):
    # Members about 6e-8 apart: the equalizer's surplus is about 1e-15, so
    # arbitrage exits as for agreement, naming the surplus test, and
    # verify skips the dominance check instead of failing it.
    raw = _minimal_raw(rule={"kind": "spherical"})
    raw["players"] = [
        {"belief": [3.5e-8, 1 - 3.5e-8]},
        {"belief": [9.4e-8, 1 - 9.4e-8]},
        {"belief": [0.5, 0.5]},
    ]
    path = _write_scenario(tmp_path, raw)
    assert main(["arbitrage", "--scenario", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("coalition members agree on the surplus scale: ")
    assert "smallest per-outcome surplus 6.06335e-16 is not above 1e-12" in err
    assert main(["verify", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert "dominance: SKIPPED" in out


def test_cli_arbitrage_and_verify_name_the_same_agreement(tmp_path, capsys):
    # Members 1e-11 apart, beyond the belief-distance test, leave an
    # equalizing surplus of exactly zero: both commands name the surplus
    # scale, though no surplus entry is nonzero.
    raw = _minimal_raw()
    raw["players"] = [
        {"belief": [0.3, 0.7]},
        {"belief": [0.3 + 1e-11, 0.7 - 1e-11]},
        {"belief": [0.5, 0.5]},
    ]
    path = _write_scenario(tmp_path, raw)
    assert main(["arbitrage", "--scenario", path]) == 3
    assert capsys.readouterr().err == (
        "coalition members agree on the surplus scale: the equalizing report's "
        "smallest per-outcome surplus 0 is not above 1e-12\n"
    )
    assert main(["verify", "--scenario", path]) == 0
    assert "agrees by surplus scale" in capsys.readouterr().out


def test_cli_verify_names_agreement_as_the_reason_to_skip(tmp_path, capsys):
    # A proper sub-coalition that agrees has nothing to arbitrage: both
    # coalition checks are skipped, naming the test that found agreement.
    raw = _minimal_raw(rule={"kind": "spherical"})
    raw["players"] = [
        {"belief": [3.5e-8, 1 - 3.5e-8]},
        {"belief": [9.4e-8, 1 - 9.4e-8]},
        {"belief": [0.5, 0.5]},
    ]
    near = _write_scenario(tmp_path, raw, "near.json")
    surplus = "the coalition agrees by surplus scale: smallest equalizing surplus at most 1e-12"
    distance = "the coalition agrees by belief distance: members within 1e-12 of each other"
    for scenario, reason in ((near, surplus), ("market_session", distance)):
        assert main(["verify", "--scenario", scenario]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [
            f"dominance: SKIPPED  ({reason})",
            f"surplus_scaling_identity: SKIPPED  ({reason})",
            "result: PASS",
        ]
    # When the coalition is every player, the scaling identity still
    # names that.
    raw["coalition"] = [1, 2, 3]
    raw["players"][2]["belief"] = [6e-8, 1 - 6e-8]
    everyone = _write_scenario(tmp_path, raw, "everyone.json")
    assert main(["verify", "--scenario", everyone]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"dominance: SKIPPED  ({surplus})"
    assert lines[2] == (
        "surplus_scaling_identity: SKIPPED  "
        "(needs a coalition that is a proper subset of the players)"
    )


def test_cli_verify_scaling_identity_survives_large_member_wagers():
    # Two members 1e-8 to 1e-6 apart against one outsider at wager 1: with
    # member wagers of 1e9 the competitive gain must not lose its digits
    # to the pool's total, so the (1 - w_C/W) scaling identity holds.
    # Member wagers of 1 and 2**-30 are controls, where the members agree
    # on the surplus scale and the check is skipped.
    rng = np.random.default_rng(2024)
    checked = 0
    for case in range(60):
        kind = ("quadratic", "spherical", "logarithmic")[case % 3]
        m = int(rng.integers(2, 4))
        belief = 0.1 / m + 0.9 * rng.dirichlet(np.ones(m))
        step = rng.standard_normal(m)
        step -= step.mean()
        near = belief + 10 ** rng.uniform(-8, -6) * step / np.abs(step).max()
        for wager in (1e9, 1.0, 2.0**-30):
            raw = _minimal_raw(event={"m": m}, rule={"kind": kind}, coalition=[2, 3])
            raw["players"] = [
                {"belief": [1 / m] * m, "wager": 1.0},
                {"belief": belief.tolist(), "wager": wager},
                {"belief": near.tolist(), "wager": wager},
            ]
            checks = {c: (status, detail) for c, status, detail in
                      cli._verify_checks(parse_scenario(raw), 10)}
            assert checks["surplus_scaling_identity"][0] != "fail", (case, wager, checks)
            checked += checks["surplus_scaling_identity"][0] == "pass"
    assert checked >= 40


def test_cli_verify_passes_large_wagers_near_agreement(tmp_path, capsys):
    # Members 3e-8 apart at wager 1e9 each, an outsider at wager 1: the
    # competitive gain is the payment of the members' score differences,
    # so the scaling identity holds to rounding.
    raw = _minimal_raw(coalition=[2, 3])
    raw["players"] = [
        {"belief": [0.5, 0.5], "wager": 1.0},
        {"belief": [0.1685, 0.8315], "wager": 1e9},
        {"belief": [0.16850003, 0.83149997], "wager": 1e9},
    ]
    assert main(["verify", "--scenario", _write_scenario(tmp_path, raw)]) == 0
    assert "surplus_scaling_identity: PASS" in capsys.readouterr().out


def test_cli_commands_take_member_wagers_summing_past_the_float_range(tmp_path, capsys):
    # Two members at 2**1023 hold a pool whose plain sum is inf: every
    # command answers, and the scaling identity still passes.
    raw = _minimal_raw(event={"m": 3}, mechanism="competitive", coalition=[1, 2])
    raw["players"] = [
        {"belief": b, "wager": w, "report": b}
        for b, w in (([0.6, 0.3, 0.1], 2.0**1023), ([0.2, 0.5, 0.3], 2.0**1023),
                     ([0.3, 0.3, 0.4], 1.0))
    ]
    path = _write_scenario(tmp_path, raw)
    for command in ("score", "arbitrage", "verify"):
        assert main([command, "--scenario", path, "--format", "json"]) == 0, command
        payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["passed"]
    assert [c["status"] for c in payload["checks"]] == ["pass", "skipped", "pass"]


def test_cli_arbitrage_needs_coalition(capsys):
    assert main(["arbitrage", "--scenario", "sweep_competitive"]) == 2
    assert "coalition" in capsys.readouterr().err


def test_cli_verify_passes_on_consistent_scenario(capsys):
    assert main(["verify", "--scenario", "example1", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "check,status,detail"
    rows = [line.split(",")[0:2] for line in lines[1:]]
    names = [r[0] for r in rows]
    assert names == ["properness", "dominance", "surplus_scaling_identity"]
    assert all(r[1] == "pass" for r in rows)


def test_cli_verify_catches_wrong_coordinated_report(capsys):
    assert main(["verify", "--scenario", "example3_mean", "--format", "json"]) == 1
    envelope = json.loads(capsys.readouterr().out)
    checks = {c["check"]: c for c in envelope["payload"]["checks"]}
    assert envelope["payload"]["passed"] is False
    assert checks["properness"]["status"] == "pass"
    assert checks["dominance"]["status"] == "fail"
    assert "witness E1" in checks["dominance"]["detail"]
    assert checks["surplus_scaling_identity"]["status"] == "pass"


def test_cli_verify_equalizing_report_fixes_it(capsys):
    assert main(["verify", "--scenario", "example3"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out


def test_cli_verify_custom_resolution(capsys):
    assert main(["verify", "--scenario", "example1", "--resolution", "20"]) == 0
    capsys.readouterr()


def test_cli_verify_refuses_oversized_lattice(tmp_path, capsys):
    # Seven states at resolution 50 is a 32.5 M point lattice, and 600
    # states at resolution 2 only 180,300 points but 108 M entries: each
    # is one error line (exit 2) before any of it is allocated.
    for m, resolution, named in ((7, 50, "32,468,436"), (600, 2, "108,180,000 entries")):
        uniform = [1 / m] * m
        skewed = [0.4] + [0.6 / (m - 1)] * (m - 1)
        raw = _minimal_raw(
            event={"m": m},
            players=[{"belief": uniform}, {"belief": skewed}],
        )
        path = _write_scenario(tmp_path, raw)
        tracemalloc.start()
        try:
            code = main(["verify", "--scenario", path, "--resolution", str(resolution)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 20 * 2**20
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert f"resolution {resolution}" in line and named in line


def test_cli_simulate_sweep_csv_stdout(tmp_path, capsys):
    path = _write_scenario(tmp_path, _sweep_raw())
    assert main(["simulate", "--scenario", path, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "fraction,mean,se,trials"
    assert len(lines) == 4
    assert "argmax" not in out
    first = lines[1].split(",")
    assert float(first[0]) == 0.25
    assert int(first[3]) == 40


def test_cli_simulate_sweep_table_summary(tmp_path, capsys):
    path = _write_scenario(tmp_path, _sweep_raw())
    assert main(["simulate", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert "argmax fraction:" in out
    assert "fitted vertex:" in out


def test_cli_simulate_out_writes_csv_and_json(tmp_path, capsys):
    path = _write_scenario(tmp_path, _sweep_raw())
    base = str(tmp_path / "run")
    assert main(["simulate", "--scenario", path, "--out", base]) == 0
    capsys.readouterr()
    csv_text = (tmp_path / "run.csv").read_text(encoding="utf-8")
    assert csv_text.startswith("fraction,mean,se,trials\n")
    envelope = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
    assert envelope["command"] == "simulate"
    payload = envelope["payload"]
    assert payload["mechanism"] == "competitive"
    assert payload["n"] == 20
    assert [row["coalition_size"] for row in payload["rows"]] == [5, 8, 10]
    assert len(payload["fit"]) == 3


def test_cli_simulate_out_prints_the_envelope_it_writes(tmp_path, capsys):
    # One envelope per call: the printed JSON and OUT.json match byte for
    # byte, timestamp included.
    base = tmp_path / "run"
    argv = ["simulate", "--scenario", "intermediary", "--format", "json"]
    assert main(argv + ["--out", str(base)]) == 0
    printed = capsys.readouterr().out
    assert printed == (tmp_path / "run.json").read_text(encoding="utf-8") + "\n"
    assert (tmp_path / "run.csv").read_text(encoding="utf-8").startswith(
        "outcome,profit\n"
    )


_JUNK = b"junk line that the new output must not leave behind\n" * 200


def test_cli_out_overwrites_a_longer_file_with_exactly_the_new_text(tmp_path, capsys):
    argv = ["score", "--scenario", "example1", "--format", "csv"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    out = tmp_path / "scores.csv"
    out.write_bytes(_JUNK)
    assert len(_JUNK) > 10_000 > len(expected)
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == expected.encode("utf-8")


def test_cli_simulate_out_overwrites_longer_files_with_exactly_the_new_pair(tmp_path, capsys):
    argv = ["simulate", "--scenario", "intermediary", "--format", "json"]
    assert main(argv + ["--out", str(tmp_path / "fresh")]) == 0
    capsys.readouterr()
    for kind in ("csv", "json"):
        (tmp_path / f"run.{kind}").write_bytes(_JUNK)
    assert main(argv + ["--out", str(tmp_path / "run")]) == 0
    printed = capsys.readouterr().out
    assert (tmp_path / "run.json").read_text(encoding="utf-8") + "\n" == printed
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_cli_out_to_dev_null_succeeds(capsys):
    # A character device cannot be cut to length, and needs not be.
    assert main(["score", "--scenario", "example1", "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


def test_cli_out_naming_a_directory_is_invalid_input(tmp_path, capsys):
    (tmp_path / "kept.txt").write_text("kept", encoding="utf-8")
    before = os.stat(tmp_path)
    assert main(["score", "--scenario", "example1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {tmp_path}: Is a directory\n"
    after = os.stat(tmp_path)
    assert (after.st_mode, after.st_mtime_ns) == (before.st_mode, before.st_mtime_ns)
    assert [p.name for p in tmp_path.iterdir()] == ["kept.txt"]
    assert (tmp_path / "kept.txt").read_text(encoding="utf-8") == "kept"


def test_cli_out_creates_a_file_with_the_umask_mode(tmp_path, capsys):
    out = tmp_path / "new.csv"
    old = os.umask(0o027)
    try:
        assert main(["score", "--scenario", "example1", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o027


def test_cli_out_cut_short_by_a_failed_write_keeps_no_old_tail(tmp_path, monkeypatch, capsys):
    # The write stops half-way with a full disk: the file holds the half
    # that was written and no byte of the longer file it replaced.
    argv = ["score", "--scenario", "example1", "--format", "csv"]
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode("utf-8")

    class HalfWriter(io.TextIOWrapper):
        def write(self, text):
            super().write(text[: len(text) // 2])
            self.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(
        os, "fdopen", lambda fd, mode, encoding: HalfWriter(open(fd, "wb"), encoding=encoding)
    )
    out = tmp_path / "scores.csv"
    out.write_bytes(_JUNK)
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write {out}: No space left on device\n")
    assert out.read_bytes() == expected[: len(expected) // 2]


def test_cli_simulate_deterministic_and_seed_override(tmp_path, capsys):
    path = _write_scenario(tmp_path, _sweep_raw())
    base_a = str(tmp_path / "a")
    base_b = str(tmp_path / "b")
    base_c = str(tmp_path / "c")
    assert main(["simulate", "--scenario", path, "--out", base_a]) == 0
    assert main(["simulate", "--scenario", path, "--out", base_b]) == 0
    assert main(
        ["simulate", "--scenario", path, "--out", base_c, "--seed", "99"]
    ) == 0
    capsys.readouterr()
    bytes_a = (tmp_path / "a.csv").read_bytes()
    bytes_b = (tmp_path / "b.csv").read_bytes()
    bytes_c = (tmp_path / "c.csv").read_bytes()
    assert bytes_a == bytes_b
    assert bytes_a != bytes_c


def test_cli_simulate_intermediary(capsys):
    assert main(
        ["simulate", "--scenario", "intermediary", "--format", "csv"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "outcome,profit"
    profits = [float(line.split(",")[1]) for line in lines[1:]]
    assert profits == pytest.approx([0.18, 0.18], rel=1e-9)


def test_cli_simulate_market_session(capsys):
    assert main(
        ["simulate", "--scenario", "market_session", "--format", "csv"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "outcome,surplus"
    surpluses = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(surpluses) == 2
    assert surpluses[0] == pytest.approx(0.224974, abs=1e-5)
    assert surpluses[0] == pytest.approx(surpluses[1], rel=1e-9)


def test_cli_market_session_without_players(tmp_path, capsys):
    # simulate prints what it prints for the bundled file, which lists
    # players it does not use; verify has no coalition players to check.
    path = _write_scenario(tmp_path, _market_session_without_players())
    for fmt in ("table", "csv"):
        assert main(["simulate", "--scenario", "market_session", "--format", fmt]) == 0
        bundled_out = capsys.readouterr().out
        assert main(["simulate", "--scenario", path, "--format", fmt]) == 0
        assert capsys.readouterr().out == bundled_out
    assert main(["verify", "--scenario", path]) == 0
    assert "dominance: SKIPPED  (no identical coordinated report available)" in capsys.readouterr().out


def test_cli_verify_names_why_no_report_is_coordinated(tmp_path, capsys):
    # The linear rule has no equalizer: both coalition checks are skipped
    # with arbitrage_report's own reason, the coalition being a proper
    # subset of the players.
    players = [{"belief": b} for b in ([0.6, 0.3, 0.1], [0.1, 0.3, 0.6], [0.3, 0.3, 0.4])]
    raw = _minimal_raw(event={"m": 3}, rule={"kind": "linear"}, players=players)
    assert main(["verify", "--resolution", "10", "--scenario", _write_scenario(tmp_path, raw)]) == 1
    out = capsys.readouterr().out
    reason = "SKIPPED  (no equalizing construction for rule kind 'linear')"
    assert f"dominance: {reason}\n" in out
    assert f"surplus_scaling_identity: {reason}\n" in out


def test_cli_arbitrage_without_players_names_the_ordering(tmp_path, capsys):
    # The coalition names places in the session's ordering, not listed
    # players: there are no beliefs to arbitrage, as there are none to score.
    path = _write_scenario(tmp_path, _market_session_without_players())
    assert main(["arbitrage", "--scenario", path]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: scenario has no players to arbitrage: its coalition names "
        "places in the market session's ordering\n"
    )
    assert main(["score", "--scenario", path]) == 2
    assert "scenario has no players to score" in capsys.readouterr().err
    assert main(["simulate", "--scenario", path]) == 0


def test_cli_simulate_market_session_json(capsys):
    assert main(
        ["simulate", "--scenario", "market_session", "--format", "json"]
    ) == 0
    envelope = json.loads(capsys.readouterr().out)
    payload = envelope["payload"]
    assert payload["ordering_ok"] is True
    assert payload["agreement"] is False
    assert len(payload["q"]) == 2


def test_cli_prints_each_run_warning_as_one_line_on_every_call(tmp_path, capsys, monkeypatch):
    # A coalition that holds the whole pool, and a session ordering in
    # which one member reports right after another: each call prints its
    # warning as one `warning:` line, without Python's file and source line.
    everyone = _write_scenario(tmp_path, _minimal_raw(
        mechanism="competitive", simulation={"mode": "intermediary", "seed": 7},
    ), "everyone.json")
    session = json.loads(bundled.path("market_session").read_text(encoding="utf-8"))
    session["coalition"] = [2, 3]
    back_to_back = _write_scenario(tmp_path, session, "back_to_back.json")
    expected = {
        everyone: "warning: coalition holds the entire pool; competitive surplus is "
                  "identically zero\n",
        back_to_back: "warning: a coalition member reports directly after another "
                      "member; the guaranteed-gain argument does not apply\n",
    }
    for path, err in expected.items():
        for _ in range(2):
            assert main(["simulate", "--scenario", path]) == 0
            assert capsys.readouterr().err == err
    # Other warnings keep their handling: the test configuration turns a
    # RuntimeWarning into an error, inside main as well.
    def warn(*args):
        warnings.warn("overflow", RuntimeWarning)

    monkeypatch.setattr(cli, "load_scenario", warn)
    with pytest.raises(RuntimeWarning):
        main(["simulate", "--scenario", everyone])


DIGESTS = Path(__file__).parent / "data" / "cli_digests.json"
_TIMESTAMP_LINE = re.compile(r'^ *"timestamp": "[^"]*",\n', re.MULTILINE)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, {"stdout": out.getvalue(), "stderr": err.getvalue()}


def _edge_scenarios():
    """Scenarios that reach the CLI's edge paths, which the bundled ones
    do not: a map from name to raw scenario."""
    def raw(players, coalition=(1, 2), **fields):
        scenario = _minimal_raw(
            players=[{"belief": list(b), **extra} for b, extra in players],
            coalition=list(coalition),
        )
        scenario.update(fields)
        return scenario

    near = [((3.5e-8, 1 - 3.5e-8), {}), ((9.4e-8, 1 - 9.4e-8), {}), ((0.5, 0.5), {})]
    agreeing = [((0.3, 0.7), {}), ((0.3, 0.7), {}), ((0.6, 0.4), {})]
    intermediary = {"mode": "intermediary", "seed": 7}
    session = json.loads(bundled.path("market_session").read_text(encoding="utf-8"))
    del session["players"]
    offsets = dict(
        coalition=(1, 3), event={"m": 3},
        rule={"kind": "quadratic", "a": [0.1, -0.2, 0.3], "b": 2.5},
        mechanism="competitive",
    )
    wagered = [((0.2, 0.3, 0.5), 1.0), ((0.5, 0.3, 0.2), 3.0), ((0.1, 0.6, 0.3), 0.5),
               ((0.4, 0.4, 0.2), 2.0)]
    reported = [(b, {"wager": w, "report": [0.3, 0.4, 0.3] if k in (0, 2) else list(b)})
                for k, (b, w) in enumerate(wagered)]
    return {
        "edge_agree_distance": raw(agreeing),
        "edge_agree_surplus": raw(near, rule={"kind": "spherical"}),
        "edge_everyone": raw(
            [((0.2, 0.3, 0.5), {"wager": 1.0}), ((0.5, 0.3, 0.2), {"wager": 2.0}),
             ((0.1, 0.6, 0.3), {"wager": 1.0})],
            coalition=(1, 2, 3), event={"m": 3}, mechanism="competitive",
        ),
        "edge_given_reports": raw([
            ((0.2, 0.8), {"report": [0.45, 0.55]}),
            ((0.8, 0.2), {"report": [0.55, 0.45]}),
            ((0.5, 0.5), {"report": [0.5, 0.5]}),
        ]),
        "edge_intermediary_agree": raw(
            agreeing, mechanism="competitive", simulation=intermediary,
        ),
        "edge_linear": raw([((0.2, 0.8), {}), ((0.7, 0.3), {})], rule={"kind": "linear"}),
        "edge_offsets_competitive": raw(
            [(b, {"wager": w}) for b, w in wagered], **offsets,
            simulation={
                "mode": "sweep", "sampler": {"kind": "dirichlet", "alpha": [1.0, 1.0, 1.0]},
                "n": 10, "fractions": [0.3, 0.5, 1.0], "trials": 5, "seed": 3,
            },
        ),
        "edge_offsets_reports": raw(reported, **offsets),
        "edge_session_no_players": session,
    }


def bundled_outputs(out_dir):
    """Every bundled and edge scenario through score, arbitrage and
    verify in each format, on stdout and through --out, and through
    simulate with its --out files: a map from "<scenario> <command>
    [<format>] [--out]" to the exit code and output texts. The edge
    scenarios also go through score --outcome and simulate --seed."""
    runs = {}

    def run(key, argv, path):
        runs[key] = _run_cli(argv)
        code, texts = _run_cli(argv + ["--out", str(path)])
        if path.exists():
            texts["out"] = path.read_text(encoding="utf-8")
        runs[f"{key} --out"] = (code, texts)

    def simulate(key, argv, base):
        code, texts = _run_cli(argv + ["--out", str(base)])
        for suffix in (".csv", ".json"):
            written = base.with_suffix(suffix)
            if written.exists():
                texts["out" + suffix] = written.read_text(encoding="utf-8")
        runs[key] = (code, texts)

    scenarios = {name: name for name in BUNDLED_NAMES}
    edges = _edge_scenarios()
    # Apart from the --out files, which simulate names BASE.json.
    scenario_dir = Path(out_dir) / "scenarios"
    scenario_dir.mkdir()
    for name, raw in edges.items():
        scenarios[name] = _write_scenario(scenario_dir, raw, f"{name}.json")
    for name, scenario in sorted(scenarios.items()):
        for command in ("score", "arbitrage", "verify"):
            for fmt in ("csv", "json", "table"):
                argv = [command, "--scenario", scenario, "--format", fmt]
                run(f"{name} {command} {fmt}", argv, Path(out_dir) / f"{name}-{command}.{fmt}")
                if name in edges and command == "score":
                    run(f"{name} score --outcome 2 {fmt}", argv + ["--outcome", "2"],
                        Path(out_dir) / f"{name}-score-outcome.{fmt}")
        simulate(f"{name} simulate", ["simulate", "--scenario", scenario], Path(out_dir) / name)
        if name in edges:
            simulate(f"{name} simulate --seed 5",
                     ["simulate", "--scenario", scenario, "--seed", "5"],
                     Path(out_dir) / f"{name}-seed")
    return runs


def output_digests(runs):
    """Exit codes and sha256 digests of the texts, JSON timestamps removed."""
    return {
        key: {
            "exit_code": code,
            **{
                label: hashlib.sha256(
                    _TIMESTAMP_LINE.sub("", text).encode("utf-8")
                ).hexdigest()
                for label, text in texts.items()
            },
        }
        for key, (code, texts) in runs.items()
    }


@pytest.fixture(scope="module")
def bundled_runs(tmp_path_factory):
    # main() keeps one parser for the process. Build it afresh and send it
    # through an argument error and --version first, so that the pinned
    # digests also show that neither leaves state behind.
    cli._parser.cache_clear()
    for argv, code in ((["score", "--format", "yaml"], 2), (["--version"], 0)):
        with pytest.raises(SystemExit) as exc:
            _run_cli(argv)
        assert exc.value.code == code
    return bundled_outputs(tmp_path_factory.mktemp("bundled"))


def test_cli_bundled_outputs_print_plain_floats(bundled_runs):
    # A numpy scalar reaching repr() prints as np.float64(...).
    for key, (_, texts) in bundled_runs.items():
        assert all("np." not in text for text in texts.values()), key


def test_cli_bundled_outputs_are_byte_stable(bundled_runs):
    # The recorded digests pin every bundled output byte for byte; a change
    # that moves any of them on purpose re-records them with
    # `PYTHONPATH=src python tests/test_cli.py`.
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = output_digests(bundled_runs)
    assert sorted(actual) == sorted(expected)
    changed = sorted(key for key in expected if actual[key] != expected[key])
    assert not changed, changed


def test_cli_simulate_needs_simulation_block(capsys):
    assert main(["simulate", "--scenario", "example1"]) == 2
    assert "simulation" in capsys.readouterr().err


@pytest.mark.parametrize("name, runs", [("intermediary", "intermediary runs"), ("market_session", "market sessions")])
def test_cli_simulate_runs_need_a_coalition(tmp_path, capsys, name, runs):
    raw = json.loads(Path(bundled.path(name)).read_text())
    del raw["coalition"]
    assert main(["simulate", "--scenario", _write_scenario(tmp_path, raw)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {runs} need a coalition\n"


def test_cli_reused_parser_keeps_no_arguments(capsys):
    # A --seed given to one call must not become the default of the next.
    argv = ["simulate", "--scenario", "market_session", "--format", "csv"]
    assert main(argv + ["--seed", "99"]) == 0
    seeded = capsys.readouterr().out
    assert main(argv) == 0
    reused = capsys.readouterr().out
    cli._parser.cache_clear()
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    assert reused == fresh
    assert seeded != fresh


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    for _ in range(20):
        assert main(["score", "--scenario", "example1", "--format", "csv"]) == 0
    assert len(built) == 1
    # build_parser itself still gives a new parser on every call.
    assert build_parser() is not build_parser()


def test_importing_the_cli_builds_no_parser():
    # Count every ArgumentParser made while importing the CLI, then the
    # ones build_parser makes (one per command and the top level).
    code = (
        "import argparse\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    made.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import coalition_forge.cli\n"
        "on_import = len(made)\n"
        "coalition_forge.cli.build_parser()\n"
        "print(on_import, len(made))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert done.stdout.split() == ["0", "5"]


# Exit code, stdout and stderr of argument errors, help and --version,
# recorded at 80 columns from the parser that parsed every argv through
# the top-level parser. An argv led by a command now goes straight to its
# parser; these texts must not move with it.
ARGPARSE_SURFACE = json.loads(
    (Path(__file__).parent / "data" / "cli_argparse_surface.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", ARGPARSE_SURFACE, ids=lambda case: " ".join(case["argv"]) or "no-args")
def test_cli_argument_errors_help_and_version_are_unchanged(monkeypatch, capsys, case):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])


def test_cli_payments_past_the_float_range_are_an_error(tmp_path, capsys):
    # Two members at 2**1023 whose wagered scores and gains pass the float
    # range: one error line naming the largest wager and exit 2, not a
    # traceback, a numpy warning or an infinite payment.
    players = [
        {"belief": [0.98, 0.01, 0.01], "wager": 2.0**1023},
        {"belief": [0.01, 0.01, 0.98], "wager": 2.0**1023},
        {"belief": [0.3, 0.3, 0.4], "wager": 1.0},
    ]
    raw = _minimal_raw(event={"m": 3}, rule={"kind": "logarithmic"}, players=players)
    path = _write_scenario(tmp_path, raw)
    reported = [{**p, "report": p["belief"]} for p in players]
    with_reports = _write_scenario(tmp_path, {**raw, "players": reported}, "reports.json")
    for command, scenario in (("arbitrage", path), ("verify", path), ("score", with_reports)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--scenario", scenario]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: payments at wagers up to 8.98846567431158e+307 pass the "
            "float range; scale the wagers down\n"
        )


def test_resolve_scenario_accepts_only_bundled_names(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli._resolve_scenario("example1") == bundled.path("example1")
    assert cli._resolve_scenario("example1.json") == bundled.path("example1")
    for value in ("../cli", "../cli.json", "__init__", "mystery"):
        with pytest.raises(ValidationError, match="neither a file nor a bundled name"):
            cli._resolve_scenario(value)


def test_resolve_scenario_resolves_each_bundled_name_once(monkeypatch, capsys):
    # Every bundled name is looked up in the package once per process, not
    # on every main call; repeated calls get the same paths.
    resolved = []
    path = bundled.path

    def counting(name):
        resolved.append(name)
        return path(name)

    monkeypatch.setattr(bundled, "path", counting)
    cli._bundled_paths.cache_clear()
    try:
        for _ in range(3):
            for name in sorted(BUNDLED_NAMES):
                assert cli._resolve_scenario(name) == path(name)
                assert cli._resolve_scenario(f"{name}.json") == path(name)
            assert main(["score", "--scenario", "example1"]) == 0
        capsys.readouterr()
        assert sorted(resolved) == sorted(BUNDLED_NAMES)
    finally:
        cli._bundled_paths.cache_clear()


def test_resolve_scenario_prefers_a_file_in_the_working_directory(tmp_path, monkeypatch):
    # A path that exists wins over the bundled name it spells, also once
    # the bundled names are resolved.
    monkeypatch.chdir(tmp_path)
    assert cli._resolve_scenario("example1") == bundled.path("example1")
    for value in ("example1", "example1.json"):
        (tmp_path / value).write_text("{}", encoding="utf-8")
        assert cli._resolve_scenario(value) == Path(value)


# One value of every JSON type, and the numbers a field may reject.
_MUTANTS = ([], [0.5, "x"], {}, {"kind": []}, "", "x", True, False, None, 10**400, math.nan, -1, -0.5, 0)


def _json_places(value, place=()):
    """The place of value and of everything in it: each key of an object
    and each entry of a list, to any depth."""
    yield place
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _json_places(child, place + (key,))


def _replaced(doc, place, value):
    if not place:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in place[:-1]:
        node = node[key]
    node[place[-1]] = value
    return doc


def test_no_invalid_scenario_escapes_as_another_error():
    # Every place of every bundled scenario is replaced by each mutant,
    # and 300 seeded pairs of places per scenario by two of them; parsing
    # each result either succeeds or raises a ScenarioError.
    rng = random.Random(12)
    escaped = []
    for name in sorted(BUNDLED_NAMES):
        raw = json.loads(bundled.path(name).read_text(encoding="utf-8"))
        places = list(_json_places(raw))
        mutations = [[(place, value)] for place in places for value in _MUTANTS]
        while len(mutations) < len(places) * len(_MUTANTS) + 300:
            first, second = sorted(rng.sample(places, 2))
            if second[:len(first)] != first:  # neither place holds the other
                mutations.append([(first, rng.choice(_MUTANTS)), (second, rng.choice(_MUTANTS))])
        for mutation in mutations:
            doc = raw
            for place, value in mutation:
                doc = _replaced(doc, place, value)
            try:
                parse_scenario(doc)
            except ScenarioError:
                pass
            except Exception as exc:
                escaped.append((name, mutation, repr(exc)))
    assert escaped == [], f"{len(escaped)} escaped, the first: {escaped[:3]}"


def test_cli_unhashable_rule_kind_is_invalid_input(tmp_path, capsys):
    path = _write_scenario(tmp_path, _minimal_raw(rule={"kind": []}))
    assert main(["arbitrage", "--scenario", path]) == 2
    assert capsys.readouterr().err.startswith("error: rule.kind: unknown rule kind []")


@pytest.mark.parametrize(
    "sampler,detail",
    [
        ({"kind": "beta_binary", "alpha": 2.0, "beta": -1}, "Beta parameters must be finite and > 0"),
        ({"kind": "dirichlet", "alpha": [0, 1]}, "Dirichlet parameters must be finite and > 0"),
        ({"kind": "finite_mixture", "points": [[0.5, 0.5]], "weights": [0]},
         "mixture weights must be finite and > 0"),
    ],
)
def test_sampler_errors_name_the_sampler(tmp_path, capsys, sampler, detail):
    raw = _sweep_raw()
    raw["simulation"]["sampler"] = sampler
    path = _write_scenario(tmp_path, raw)
    assert main(["simulate", "--scenario", path]) == 2
    assert capsys.readouterr().err == f"error: simulation.sampler: {detail}\n"


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_the_philox_key_range_is_invalid_input(tmp_path, capsys, seed):
    raw = _sweep_raw(seed=seed)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    assert err.value.field_path == "simulation.seed"
    assert parse_scenario(_sweep_raw(seed=2**64 - 1)).simulation.seed == 2**64 - 1
    path = _write_scenario(tmp_path, raw)
    assert main(["simulate", "--scenario", path]) == 2
    assert capsys.readouterr().err == f"error: simulation.seed: seed {seed} outside [0, 2**64)\n"
    path = _write_scenario(tmp_path, _sweep_raw())
    assert main(["simulate", "--scenario", path, "--seed", str(seed)]) == 2
    assert capsys.readouterr().err == f"error: seed {seed} outside [0, 2**64)\n"


def test_cli_market_session_ordering_shorter_than_the_coalition(tmp_path, capsys):
    raw = json.loads(bundled.path("market_session").read_text(encoding="utf-8"))
    raw["simulation"]["ordering"] = [1, 2, 3]
    path = _write_scenario(tmp_path, raw)
    assert main(["simulate", "--scenario", path]) == 2
    assert capsys.readouterr().err == (
        "error: simulation.ordering: orders 3 players; the coalition names player 4\n"
    )



@pytest.mark.parametrize("field, value, entries", [
    ("trials", 10**15, "1,800,000,000,000,000,000"),
    ("n", 10**12, "36,000,000,000,000,000"),
])
def test_cli_simulate_refuses_oversized_sweeps(tmp_path, capsys, field, value, entries):
    # Either size once ended in a numpy memory error (63.9 PiB, 7.28 TiB)
    # and exit 1; the parser now refuses it, before anything is drawn.
    raw = json.loads(bundled.path("sweep_competitive").read_text(encoding="utf-8"))
    raw["simulation"][field] = value
    path = _write_scenario(tmp_path, raw)
    tracemalloc.start()
    try:
        code = main(["simulate", "--scenario", path])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 20 * 2**20
    assert capsys.readouterr().err == (
        f"error: simulation.trials: trials * len(fractions) * n * m = {entries} "
        "belief entries; at most 100,000,000 are supported\n"
    )


def test_cli_simulate_refuses_a_sweep_over_the_trial_bound(tmp_path, capsys, monkeypatch):
    # 250,001 trials at two fractions over 4 binary players draw 4 M belief
    # entries but play 500,002 trials; the parser refuses them before any
    # draw.
    monkeypatch.setattr(simulate.BetaBinary, "draw", None)  # any draw fails
    raw = json.loads(bundled.path("sweep_competitive").read_text(encoding="utf-8"))
    raw["simulation"].update(n=4, fractions=[0.5, 1.0], trials=250_001)
    path = _write_scenario(tmp_path, raw)
    assert main(["simulate", "--scenario", path]) == 2
    assert capsys.readouterr().err == (
        "error: simulation.trials: trials * len(fractions) = 500,002 sweep trials; "
        "at most 500,000 are supported\n"
    )


def test_cli_simulate_refuses_an_oversized_session(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(simulate, "_MAX_BELIEF_ENTRIES", 7)
    path = _write_scenario(
        tmp_path, json.loads(bundled.path("market_session").read_text(encoding="utf-8"))
    )
    assert main(["simulate", "--scenario", path]) == 2
    assert capsys.readouterr().err == (
        "error: simulation.ordering: len(ordering) * m = 8 belief entries; "
        "at most 7 are supported\n"
    )


def test_cli_simulate_names_a_fraction_too_small_for_a_coalition(tmp_path, capsys):
    raw = _sweep_raw()
    raw["simulation"].update(n=10, fractions=[0.5, 0.1])
    path = _write_scenario(tmp_path, raw)
    assert main(["simulate", "--scenario", path]) == 2
    assert capsys.readouterr().err == (
        "error: simulation.fractions[2]: fraction 0.1 of 10 players yields a coalition of 1\n"
    )
    # Another mode draws no coalitions from its fractions.
    raw["simulation"]["mode"] = "intermediary"
    assert parse_scenario(raw).simulation.fractions == (0.5, 0.1)

if __name__ == "__main__":
    # Re-record tests/data/cli_digests.json from the current program:
    # PYTHONPATH=src python tests/test_cli.py
    with tempfile.TemporaryDirectory() as tmp:
        digests = output_digests(bundled_outputs(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
