"""Tests for scenario files (parsing, canonical digests, round-trips)
and the command-line interface (output shapes and exit codes)."""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

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
    scenario_to_dict,
)
from coalition_forge import cli
from coalition_forge import scenarios as bundled
from coalition_forge.cli import build_parser, main

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
    sc, _ = load_scenario(bundled.path(name))
    again = parse_scenario(scenario_to_dict(sc))
    assert again == sc


def test_lambert_preset_round_trip():
    raw = _minimal_raw(mechanism="lambert")
    sc = parse_scenario(raw)
    # The preset rescales the mechanism's rule but leaves the scenario
    # rule untouched.
    assert sc.rule.affine_offsets is None
    assert sc.mechanism.rule.affine_offsets == (0.5, 0.5)
    assert sc.mechanism_name == "lambert"
    again = parse_scenario(scenario_to_dict(sc))
    assert again == sc


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


def test_market_session_scenario_parses_ordering_to_zero_based():
    sc, _ = load_scenario(bundled.path("market_session"))
    assert sc.simulation.ordering == (0, 1, 2, 3)
    assert sc.coalition.members == (1, 3)
    assert sc.mechanism.market_prior.probs == (0.5, 0.5)


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
    envelope = json.loads(capsys.readouterr().out)
    raw = json.loads(bundled.path("example1").read_text(encoding="utf-8"))
    assert envelope["scenario_digest"] == scenario_digest(raw)
    assert envelope["command"] == "arbitrage"
    payload = envelope["payload"]
    assert payload["q"] == [0.5, 0.5]
    assert payload["verdict"] == "dominates"
    assert payload["equalized"] is True
    assert payload["closed_form_surplus"] == pytest.approx(0.36, rel=1e-9)
    assert payload["witness_outcome"] is None


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
    # Seven states at resolution 50 is a 32.5 M point lattice: a clean
    # error (exit 2) before any of it is allocated.
    uniform = [1 / 7] * 7
    skewed = [0.4] + [0.1] * 6
    raw = _minimal_raw(
        event={"m": 7},
        players=[{"belief": uniform}, {"belief": skewed}],
    )
    path = _write_scenario(tmp_path, raw)
    tracemalloc.start()
    try:
        code = main(["verify", "--scenario", path, "--resolution", "50"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 20 * 2**20
    err = capsys.readouterr().err
    assert "resolution 50" in err and "32,468,436" in err


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


def test_cli_simulate_market_session_json(capsys):
    assert main(
        ["simulate", "--scenario", "market_session", "--format", "json"]
    ) == 0
    envelope = json.loads(capsys.readouterr().out)
    payload = envelope["payload"]
    assert payload["ordering_ok"] is True
    assert payload["agreement"] is False
    assert len(payload["q"]) == 2


DIGESTS = Path(__file__).parent / "data" / "cli_digests.json"
_TIMESTAMP_LINE = re.compile(r'^ *"timestamp": "[^"]*",\n', re.MULTILINE)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, {"stdout": out.getvalue(), "stderr": err.getvalue()}


def bundled_outputs(out_dir):
    """Every bundled scenario through score, arbitrage and verify in each
    format, on stdout and through --out, and through simulate with its
    --out files: a map from "<scenario> <command> [<format>] [--out]" to
    the exit code and output texts."""
    runs = {}
    for name in sorted(BUNDLED_NAMES):
        for command in ("score", "arbitrage", "verify"):
            for fmt in ("csv", "json", "table"):
                argv = [command, "--scenario", name, "--format", fmt]
                runs[f"{name} {command} {fmt}"] = _run_cli(argv)
                path = Path(out_dir) / f"{name}-{command}.{fmt}"
                code, texts = _run_cli(argv + ["--out", str(path)])
                if path.exists():
                    texts["out"] = path.read_text(encoding="utf-8")
                runs[f"{name} {command} {fmt} --out"] = (code, texts)
        base = Path(out_dir) / name
        code, texts = _run_cli(["simulate", "--scenario", name, "--out", str(base)])
        for suffix in (".csv", ".json"):
            written = base.with_suffix(suffix)
            if written.exists():
                texts["out" + suffix] = written.read_text(encoding="utf-8")
        runs[f"{name} simulate"] = (code, texts)
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


def test_resolve_scenario_accepts_only_bundled_names(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli._resolve_scenario("example1") == bundled.path("example1")
    assert cli._resolve_scenario("example1.json") == bundled.path("example1")
    for value in ("../cli", "../cli.json", "__init__", "mystery"):
        with pytest.raises(ValidationError, match="neither a file nor a bundled name"):
            cli._resolve_scenario(value)


if __name__ == "__main__":
    # Re-record tests/data/cli_digests.json from the current program:
    # PYTHONPATH=src python tests/test_cli.py
    with tempfile.TemporaryDirectory() as tmp:
        digests = output_digests(bundled_outputs(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
