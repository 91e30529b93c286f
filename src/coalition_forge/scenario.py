"""Scenario files: schema-checked JSON describing an event space, a rule,
a mechanism, players, a coalition, and optional simulation settings.

All indices in files and messages are 1-based; the parser converts to the
0-based indices used internally. Canonical serialization sorts keys and
uses shortest round-trip float decimals, so a scenario's content hash is
stable across key reordering.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Any

from .arbitrage import Coalition, Player
from .errors import (
    CoalitionForgeError,
    ScenarioError,
)
from .mechanisms import MechanismKind, MechanismSpec, lambert
from .rules import RuleKind, ScoringRule
from .simplex import Forecast
from .simulate import BeliefSampler, BetaBinary, DirichletM, FiniteMixture

SCHEMA_VERSION = 1

_RULE_KINDS = {
    "quadratic": RuleKind.QUADRATIC,
    "logarithmic": RuleKind.LOGARITHMIC,
    "generalized_logarithmic": RuleKind.GENERALIZED_LOG,
    "spherical": RuleKind.SPHERICAL,
    "linear": RuleKind.LINEAR,
}

_MODES = ("sweep", "intermediary", "market_session")

_PLAYER_FIELDS = frozenset({"belief", "wager", "report"})


@dataclass(frozen=True)
class SimulationSpec:
    """Optional simulation settings attached to a scenario."""

    mode: str
    sampler: BeliefSampler | None = None
    n: int | None = None
    fractions: tuple[float, ...] | None = None
    trials: int | None = None
    seed: int | None = None
    ordering: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Scenario:
    """A parsed, cross-validated scenario."""

    schema_version: int
    m: int
    labels: tuple[str, ...] | None
    rule: ScoringRule
    mechanism: MechanismSpec
    mechanism_name: str
    players: tuple[Player, ...]
    coalition: Coalition | None
    simulation: SimulationSpec | None


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, shortest
    round-trip decimals for floats."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
        allow_nan=False,
    )


def scenario_digest(raw: Any) -> str:
    """SHA-256 of the canonical serialization of a parsed JSON value."""
    return hashlib.sha256(canonical_json(raw).encode("utf-8")).hexdigest()


def _require(data: dict, key: str, path: str) -> Any:
    if key not in data:
        raise ScenarioError(f"{path}.{key}" if path else key, "missing required field")
    return data[key]


def _check_keys(data: dict, allowed: AbstractSet[str], path: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ScenarioError(path or "<root>", f"unknown field(s) {sorted(unknown)!r}")


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(path, f"expected an integer, got {value!r}")
    return value


def _number_problem(value: Any) -> str | None:
    """Why value is not a finite number, or None when it is one. JSON
    gives NaN and Infinity literals, and 1e999, as non-finite floats."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return f"expected a number, got {value!r}"
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    return None if finite else f"expected a finite number, got {value!r}"


def _as_number(value: Any, path: str) -> float:
    problem = _number_problem(value)
    if problem is not None:
        raise ScenarioError(path, problem)
    return float(value)


def _as_forecast(value: Any, m: int, path: str) -> Forecast:
    if not isinstance(value, list):
        raise ScenarioError(path, f"expected a probability list, got {value!r}")
    if len(value) != m:
        raise ScenarioError(path, f"expected {m} entries, got {len(value)}")
    # The path of an entry is formatted only for the entry that fails, not
    # for every entry of every forecast in the file.
    for k, x in enumerate(value):
        problem = _number_problem(x)
        if problem is not None:
            raise ScenarioError(path, f"{path}[{k + 1}]: {problem}")
    try:
        return Forecast(tuple(map(float, value)))
    except CoalitionForgeError as exc:
        raise ScenarioError(path, str(exc)) from exc


def _parse_rule(data: Any, m: int) -> ScoringRule:
    path = "rule"
    if not isinstance(data, dict):
        raise ScenarioError(path, f"expected an object, got {data!r}")
    _check_keys(data, {"kind", "a", "b", "l"}, path)
    kind_name = _require(data, "kind", path)
    if kind_name == "custom_binary":
        raise ScenarioError(
            f"{path}.kind",
            "custom binary rules need a generator given in code, "
            "not in a scenario file",
        )
    if kind_name not in _RULE_KINDS:
        raise ScenarioError(
            f"{path}.kind",
            f"unknown rule kind {kind_name!r}; expected one of "
            f"{sorted(_RULE_KINDS)}",
        )
    kind = _RULE_KINDS[kind_name]
    a = None
    if "a" in data:
        raw_a = data["a"]
        if not isinstance(raw_a, list) or len(raw_a) != m:
            raise ScenarioError(f"{path}.a", f"expected a list of {m} offsets")
        a = tuple(_as_number(x, f"{path}.a[{k + 1}]") for k, x in enumerate(raw_a))
    b = _as_number(data.get("b", 1.0), f"{path}.b")
    floor = _as_number(data.get("l", 0.0), f"{path}.l")
    if floor != 0.0 and kind is not RuleKind.GENERALIZED_LOG:
        raise ScenarioError(f"{path}.l", "floor applies only to the generalized logarithmic rule")
    try:
        return ScoringRule(kind, a, b, floor)
    except CoalitionForgeError as exc:
        raise ScenarioError(path, str(exc)) from exc


def _parse_mechanism(
    data: Any, rule: ScoringRule, m: int, wagers: list[float]
) -> tuple[MechanismSpec, str]:
    path = "mechanism"
    prior = None
    if isinstance(data, dict):
        _check_keys(data, {"kind", "prior"}, path)
        name = _require(data, "kind", path)
        if "prior" in data:
            prior = _as_forecast(data["prior"], m, f"{path}.prior")
    else:
        name = data
    if not isinstance(name, str):
        raise ScenarioError(path, f"expected a mechanism name, got {name!r}")
    if prior is not None and name != "market":
        raise ScenarioError(f"{path}.prior", "a prior applies only to market scoring")
    if name == "traditional":
        return MechanismSpec(MechanismKind.TRADITIONAL, rule), name
    if name == "competitive":
        return MechanismSpec(MechanismKind.COMPETITIVE, rule), name
    if name == "market":
        return MechanismSpec(MechanismKind.MARKET, rule, prior), name
    if name == "kilgour_gerchak":
        if wagers and len(set(wagers)) > 1:
            raise ScenarioError(
                path, "this preset requires equal wagers for all players"
            )
        return MechanismSpec(MechanismKind.COMPETITIVE, rule), name
    if name == "lambert":
        try:
            return lambert(rule, m), name
        except CoalitionForgeError as exc:
            raise ScenarioError(path, str(exc)) from exc
    raise ScenarioError(
        path,
        f"unknown mechanism {name!r}; expected traditional, competitive, "
        "market, kilgour_gerchak, or lambert",
    )


def _parse_players(data: Any, m: int) -> tuple[Player, ...]:
    if data is None:
        return ()
    path = "players"
    if not isinstance(data, list):
        raise ScenarioError(path, f"expected a list, got {data!r}")
    players = []
    for k, entry in enumerate(data):
        player = _screened_player(entry, m)
        if player is None:
            player = _checked_player(entry, m, f"{path}[{k + 1}]")
        players.append(player)
    return tuple(players)


def _is_number_list(value: Any, m: int) -> bool:
    """Whether value is a list of m JSON numbers: floats or integers, not
    booleans. Whether they are finite is left to Forecast, which rejects
    NaN and infinite entries."""
    return type(value) is list and len(value) == m and {*map(type, value)} <= {float, int}


def _screened_player(entry: Any, m: int) -> Player | None:
    """The player a well-formed entry describes, in one pass that formats
    no field path, or None when any check fails or the numbers are of
    types JSON does not give. _checked_player then walks the entry."""
    if type(entry) is not dict or not entry.keys() <= _PLAYER_FIELDS or "belief" not in entry:
        return None
    belief = entry["belief"]
    wager = entry.get("wager", 1.0)
    report = entry.get("report")
    if not (
        _is_number_list(belief, m)
        and type(wager) in (float, int)
        and (report is None or _is_number_list(report, m))
    ):
        return None
    try:
        return Player(
            Forecast(tuple(map(float, belief))),
            float(wager),
            None if report is None else Forecast(tuple(map(float, report))),
        )
    except (CoalitionForgeError, OverflowError):  # OverflowError: an int past the float range
        return None


def _checked_player(entry: Any, m: int, ppath: str) -> Player:
    """An entry checked field by field, which raises the first problem
    under its field path. Numbers of types JSON does not give, such as
    numpy floats, pass these checks and the entry is parsed here."""
    if not isinstance(entry, dict):
        raise ScenarioError(ppath, f"expected an object, got {entry!r}")
    _check_keys(entry, _PLAYER_FIELDS, ppath)
    belief = _as_forecast(_require(entry, "belief", ppath), m, f"{ppath}.belief")
    wager = _as_number(entry.get("wager", 1.0), f"{ppath}.wager")
    report = None
    if "report" in entry and entry["report"] is not None:
        report = _as_forecast(entry["report"], m, f"{ppath}.report")
    try:
        return Player(belief, wager, report)
    except CoalitionForgeError as exc:
        raise ScenarioError(ppath, str(exc)) from exc


def _parse_coalition(data: Any, n_players: int) -> Coalition | None:
    if data is None:
        return None
    path = "coalition"
    if not isinstance(data, list) or not data:
        raise ScenarioError(path, "expected a non-empty list of 1-based player indices")
    # One screen of every index; only a list that fails it is walked entry
    # by entry, which formats the path of the entry that fails.
    if {*map(type, data)} == {int} and 1 <= min(data) and max(data) <= n_players:
        members = [idx - 1 for idx in data]
    else:
        members = []
        for k, v in enumerate(data):
            idx = _as_int(v, f"{path}[{k + 1}]")
            if not (1 <= idx <= n_players):
                raise ScenarioError(
                    f"{path}[{k + 1}]",
                    f"player index {idx} out of range 1..{n_players}",
                )
            members.append(idx - 1)
    if len(set(members)) != len(members):
        raise ScenarioError(path, "member indices must be distinct")
    return Coalition(tuple(members))


def _parse_sampler(data: Any, m: int, path: str) -> BeliefSampler:
    if not isinstance(data, dict):
        raise ScenarioError(path, f"expected an object, got {data!r}")
    kind = _require(data, "kind", path)
    if kind == "beta_binary":
        _check_keys(data, {"kind", "alpha", "beta"}, path)
        if m != 2:
            raise ScenarioError(path, "beta_binary sampler needs a binary event space")
        return BetaBinary(
            _as_number(_require(data, "alpha", path), f"{path}.alpha"),
            _as_number(_require(data, "beta", path), f"{path}.beta"),
        )
    if kind == "dirichlet":
        _check_keys(data, {"kind", "alpha"}, path)
        raw = _require(data, "alpha", path)
        if not isinstance(raw, list) or len(raw) != m:
            raise ScenarioError(f"{path}.alpha", f"expected a list of {m} parameters")
        return DirichletM(tuple(_as_number(x, f"{path}.alpha[{k + 1}]") for k, x in enumerate(raw)))
    if kind == "finite_mixture":
        _check_keys(data, {"kind", "points", "weights"}, path)
        raw_pts = _require(data, "points", path)
        raw_w = _require(data, "weights", path)
        if not isinstance(raw_pts, list) or not raw_pts:
            raise ScenarioError(f"{path}.points", "expected a non-empty list of forecasts")
        if not isinstance(raw_w, list) or len(raw_w) != len(raw_pts):
            raise ScenarioError(f"{path}.weights", "expected one weight per point")
        points = tuple(
            tuple(f.probs)
            for f in (
                _as_forecast(pt, m, f"{path}.points[{k + 1}]")
                for k, pt in enumerate(raw_pts)
            )
        )
        weights = tuple(_as_number(x, f"{path}.weights[{k + 1}]") for k, x in enumerate(raw_w))
        try:
            return FiniteMixture(points, weights)
        except CoalitionForgeError as exc:
            raise ScenarioError(path, str(exc)) from exc
    raise ScenarioError(
        f"{path}.kind",
        f"unknown sampler kind {kind!r}; expected beta_binary, dirichlet, "
        "or finite_mixture",
    )


def _parse_simulation(data: Any, m: int, n_players: int) -> SimulationSpec | None:
    if data is None:
        return None
    path = "simulation"
    if not isinstance(data, dict):
        raise ScenarioError(path, f"expected an object, got {data!r}")
    _check_keys(
        data,
        {"mode", "sampler", "n", "fractions", "trials", "seed", "ordering"},
        path,
    )
    mode = _require(data, "mode", path)
    if mode not in _MODES:
        raise ScenarioError(f"{path}.mode", f"expected one of {list(_MODES)}")
    sampler = None
    if "sampler" in data:
        sampler = _parse_sampler(data["sampler"], m, f"{path}.sampler")
    n = _as_int(data["n"], f"{path}.n") if "n" in data else None
    fractions = None
    if "fractions" in data:
        raw = data["fractions"]
        if not isinstance(raw, list) or not raw:
            raise ScenarioError(f"{path}.fractions", "expected a non-empty list")
        fractions = tuple(_as_number(x, f"{path}.fractions[{k + 1}]") for k, x in enumerate(raw))
        for k, f in enumerate(fractions):
            if not (0.0 < f <= 1.0):
                raise ScenarioError(
                    f"{path}.fractions[{k + 1}]", f"fraction {f!r} outside (0, 1]"
                )
    trials = _as_int(data["trials"], f"{path}.trials") if "trials" in data else None
    seed = _as_int(data["seed"], f"{path}.seed") if "seed" in data else None
    ordering = None
    if "ordering" in data:
        raw = data["ordering"]
        if not isinstance(raw, list) or not raw:
            raise ScenarioError(f"{path}.ordering", "expected a non-empty list of 1-based indices")
        slots = [_as_int(x, f"{path}.ordering[{k + 1}]") for k, x in enumerate(raw)]
        if sorted(slots) != list(range(1, len(slots) + 1)):
            raise ScenarioError(
                f"{path}.ordering",
                f"expected a permutation of 1..{len(slots)}",
            )
        ordering = tuple(s - 1 for s in slots)
    if mode == "sweep":
        if sampler is None:
            raise ScenarioError(f"{path}.sampler", "missing required field")
        if n is None:
            raise ScenarioError(f"{path}.n", "missing required field")
        if n < 2:
            raise ScenarioError(f"{path}.n", f"need n >= 2, got {n}")
        if fractions is None:
            raise ScenarioError(f"{path}.fractions", "missing required field")
        if trials is None:
            raise ScenarioError(f"{path}.trials", "missing required field")
        if trials < 1:
            raise ScenarioError(f"{path}.trials", f"need trials >= 1, got {trials}")
    elif mode == "market_session":
        if sampler is None:
            raise ScenarioError(f"{path}.sampler", "missing required field")
        if ordering is None:
            raise ScenarioError(f"{path}.ordering", "missing required field")
    return SimulationSpec(mode, sampler, n, fractions, trials, seed, ordering)


def parse_scenario(raw: Any) -> Scenario:
    """Validate a parsed JSON value into a Scenario.

    Raises ScenarioError with a field path on the first problem found.
    """
    if not isinstance(raw, dict):
        raise ScenarioError("<root>", "scenario must be a JSON object")
    _check_keys(
        raw,
        {"schema_version", "event", "rule", "mechanism", "players",
         "coalition", "simulation"},
        "",
    )
    version = _as_int(_require(raw, "schema_version", ""), "schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            "schema_version", f"expected {SCHEMA_VERSION}, got {version}"
        )
    event = _require(raw, "event", "")
    if not isinstance(event, dict):
        raise ScenarioError("event", f"expected an object, got {event!r}")
    _check_keys(event, {"m", "labels"}, "event")
    m = _as_int(_require(event, "m", "event"), "event.m")
    if m < 2:
        raise ScenarioError("event.m", f"need at least 2 states, got {m}")
    labels = None
    if "labels" in event:
        raw_labels = event["labels"]
        if (
            not isinstance(raw_labels, list)
            or len(raw_labels) != m
            or not all(isinstance(x, str) for x in raw_labels)
        ):
            raise ScenarioError("event.labels", f"expected a list of {m} strings")
        labels = tuple(raw_labels)
    rule = _parse_rule(_require(raw, "rule", ""), m)
    players = _parse_players(raw.get("players"), m)
    mechanism, mech_name = _parse_mechanism(
        _require(raw, "mechanism", ""), rule, m, [p.wager for p in players]
    )
    coalition = _parse_coalition(raw.get("coalition"), len(players))
    simulation = _parse_simulation(raw.get("simulation"), m, len(players))
    return Scenario(
        version, m, labels, rule, mechanism, mech_name, players, coalition,
        simulation,
    )


def load_scenario(path: str | Path) -> tuple[Scenario, str]:
    """Read, digest, and parse a scenario file. A file that cannot be
    read as UTF-8 text is a ScenarioError naming the path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(str(path), f"cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(str(path), f"not UTF-8 text: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(str(path), f"not valid JSON: {exc}") from exc
    return parse_scenario(raw), scenario_digest(raw)


def scenario_to_dict(sc: Scenario) -> dict:
    """Scenario back to its JSON form (1-based indices, defaults
    materialized); parsing the result reproduces an equal Scenario."""
    rule: dict[str, Any] = {"kind": sc.rule.kind.value, "b": sc.rule.b}
    if sc.rule.affine_offsets is not None:
        rule["a"] = list(sc.rule.affine_offsets)
    if sc.rule.kind is RuleKind.GENERALIZED_LOG:
        rule["l"] = sc.rule.floor
    mech: Any
    if sc.mechanism.market_prior is not None:
        mech = {"kind": "market", "prior": list(sc.mechanism.market_prior.probs)}
    else:
        # The sugar name, not the resolved kind: presets like "lambert"
        # transform the rule at parse time, so only the name reparses to
        # an identical scenario.
        mech = sc.mechanism_name
    out: dict[str, Any] = {
        "schema_version": sc.schema_version,
        "event": {"m": sc.m},
        "rule": rule,
        "mechanism": mech,
    }
    if sc.labels is not None:
        out["event"]["labels"] = list(sc.labels)
    if sc.players:
        players = []
        for p in sc.players:
            entry: dict[str, Any] = {
                "belief": list(p.belief.probs), "wager": p.wager,
            }
            if p.report is not None:
                entry["report"] = list(p.report.probs)
            players.append(entry)
        out["players"] = players
    if sc.coalition is not None:
        out["coalition"] = [i + 1 for i in sc.coalition.members]
    if sc.simulation is not None:
        sim: dict[str, Any] = {"mode": sc.simulation.mode}
        sampler = sc.simulation.sampler
        if isinstance(sampler, BetaBinary):
            sim["sampler"] = {
                "kind": "beta_binary", "alpha": sampler.alpha, "beta": sampler.beta,
            }
        elif isinstance(sampler, DirichletM):
            sim["sampler"] = {"kind": "dirichlet", "alpha": list(sampler.alphas)}
        elif isinstance(sampler, FiniteMixture):
            sim["sampler"] = {
                "kind": "finite_mixture",
                "points": [list(pt) for pt in sampler.points],
                "weights": list(sampler.weights),
            }
        for field_name in ("n", "trials", "seed"):
            value = getattr(sc.simulation, field_name)
            if value is not None:
                sim[field_name] = value
        if sc.simulation.fractions is not None:
            sim["fractions"] = list(sc.simulation.fractions)
        if sc.simulation.ordering is not None:
            sim["ordering"] = [i + 1 for i in sc.simulation.ordering]
        out["simulation"] = sim
    return out
