"""Scenario files: schema-checked JSON describing an event space, a rule,
a mechanism, players, a coalition, and optional simulation settings.

All indices in files and messages are 1-based; the parser converts to the
0-based indices used internally. load_scenario returns the parsed
Scenario and the JSON value it was read from; scenario_digest of that
value is the content hash the CLI's JSON envelope carries. Canonical
serialization sorts keys and uses shortest round-trip float decimals, so
the hash is stable across key reordering. Loading computes no hash: only
an output that shows one pays for it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Any, Callable

from .arbitrage import Coalition, Player
from .errors import CoalitionForgeError, ScenarioError
from .mechanisms import MechanismKind, MechanismSpec, lambert
from .rules import RuleKind, ScoringRule
from .simplex import MAX_GRID_POINTS, Forecast
from .simulate import (
    BeliefSampler, BetaBinary, DirichletM, FiniteMixture, _check_draw_size,
    _check_sweep_trials, _coalition_size, _resolve_seed,
)

SCHEMA_VERSION = 1

# The fields each simulation mode needs.
_MODE_FIELDS = {
    "sweep": ("sampler", "n", "fractions", "trials"),
    "intermediary": (),
    "market_session": ("sampler", "ordering"),
}

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
    """A parsed, cross-validated scenario. The file's schema_version and
    event labels are checked and not kept."""

    m: int
    rule: ScoringRule
    mechanism: MechanismSpec
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


# Each reader below turns one kind of JSON value into its parsed form or
# raises a ScenarioError under the value's field path. A "{}" in a path
# stands for the index k, and the path is formatted only for an error:
# formatting players[k].belief for every player of a large file would cost
# more than reading the player.


def _require(data: dict, key: str, path: str) -> Any:
    if key not in data:
        raise ScenarioError(f"{path}.{key}" if path else key, "missing required field")
    return data[key]


def _check_keys(data: dict, allowed: AbstractSet[str], path: str) -> None:
    if not data.keys() <= allowed:
        unknown = sorted(set(data) - allowed)
        raise ScenarioError(path or "<root>", f"unknown field(s) {unknown!r}")


def _build(path: str, make: Callable[..., Any], *args: Any) -> Any:
    """make(*args), with a package error it raises (a constructor's own
    check) raised as a ScenarioError under path."""
    try:
        return make(*args)
    except CoalitionForgeError as exc:
        raise ScenarioError(path, str(exc)) from exc


def _as_int(value: Any, path: str, least: int | None = None) -> int:
    if type(value) is bool or not isinstance(value, int):
        raise ScenarioError(path, f"expected an integer, got {value!r}")
    if least is not None and value < least:
        raise ScenarioError(path, f"need at least {least}, got {value}")
    return value


def _as_number(value: Any, path: str, k: int | None = None) -> float:
    """A finite number, as a float. JSON gives NaN and Infinity literals,
    and 1e999, as non-finite floats."""
    if type(value) is bool or not isinstance(value, (int, float)):
        raise ScenarioError(path.format(k), f"expected a number, got {value!r}")
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ScenarioError(path.format(k), f"expected a finite number, got {value!r}")


def _as_numbers(value: Any, path: str, length: int | None = None) -> tuple[float, ...]:
    """A non-empty list of finite numbers, of the given length if one is
    given."""
    if not isinstance(value, list) or not value or (length is not None and len(value) != length):
        raise ScenarioError(path, f"expected a list of {length or 'one or more'} numbers")
    entry = path + "[{}]"
    return tuple([_as_number(x, entry, j) for j, x in enumerate(value, 1)])


def _as_forecast(value: Any, m: int, path: str, k: int | None = None) -> Forecast:
    """A probability list of m entries. A list of floats that Forecast
    accepts is read in one pass; any other list is walked entry by entry,
    which converts integers and names the entry at fault in the detail of
    an error under the forecast's path."""
    if type(value) is list and len(value) == m and {*map(type, value)} == {float}:
        try:
            return Forecast(tuple(value))
        except CoalitionForgeError:
            pass
    path = path.format(k)
    if not isinstance(value, list):
        raise ScenarioError(path, f"expected a probability list, got {value!r}")
    if len(value) != m:
        raise ScenarioError(path, f"expected {m} entries, got {len(value)}")
    entry = path + "[{}]"
    for j, x in enumerate(value, 1):
        try:
            _as_number(x, entry, j)
        except ScenarioError as exc:
            raise ScenarioError(path, str(exc)) from None
    return _build(path, Forecast, tuple(map(float, value)))


def _as_indices(value: Any, path: str, n: int | None = None) -> tuple[int, ...]:
    """Distinct 1-based indices, each in 1..n when n is given, as 0-based
    ones. A list that fails the one screen is walked entry by entry."""
    if not isinstance(value, list) or not value:
        raise ScenarioError(path, "expected a non-empty list of 1-based indices")
    if not ({*map(type, value)} == {int} and (n is None or 1 <= min(value) and max(value) <= n)):
        for j, x in enumerate(value):
            idx = _as_int(x, f"{path}[{j + 1}]")
            if n is not None and not 1 <= idx <= n:
                raise ScenarioError(f"{path}[{j + 1}]", f"player index {idx} out of range 1..{n}")
    if len(set(value)) != len(value):
        raise ScenarioError(path, "indices must be distinct")
    return tuple([i - 1 for i in value])


def _as_player(entry: Any, m: int, k: int) -> Player:
    """players[k], k 1-based."""
    if not (isinstance(entry, dict) and entry.keys() <= _PLAYER_FIELDS and "belief" in entry):
        path = f"players[{k}]"
        if not isinstance(entry, dict):
            raise ScenarioError(path, f"expected an object, got {entry!r}")
        _check_keys(entry, _PLAYER_FIELDS, path)
        _require(entry, "belief", path)
    belief = _as_forecast(entry["belief"], m, "players[{}].belief", k)
    wager = _as_number(entry.get("wager", 1.0), "players[{}].wager", k)
    report = entry.get("report")
    if report is not None:
        report = _as_forecast(report, m, "players[{}].report", k)
    try:
        return Player(belief, wager, report)
    except CoalitionForgeError as exc:
        raise ScenarioError(f"players[{k}]", str(exc)) from exc


def _parse_rule(data: Any, m: int) -> ScoringRule:
    path = "rule"
    if not isinstance(data, dict):
        raise ScenarioError(path, f"expected an object, got {data!r}")
    _check_keys(data, {"kind", "a", "b", "l"}, path)
    name = _require(data, "kind", path)
    if name == "custom_binary":
        raise ScenarioError(
            f"{path}.kind",
            "custom binary rules need a generator given in code, "
            "not in a scenario file",
        )
    try:
        kind = RuleKind(name)
    except ValueError:
        names = sorted(k.value for k in RuleKind if k is not RuleKind.CUSTOM_BINARY)
        raise ScenarioError(
            f"{path}.kind", f"unknown rule kind {name!r}; expected one of {names}"
        ) from None
    a = _as_numbers(data["a"], f"{path}.a", m) if "a" in data else None
    b = _as_number(data.get("b", 1.0), f"{path}.b")
    floor = _as_number(data.get("l", 0.0), f"{path}.l")
    if floor != 0.0 and kind is not RuleKind.GENERALIZED_LOG:
        raise ScenarioError(f"{path}.l", "floor applies only to the generalized logarithmic rule")
    return _build(path, ScoringRule, kind, a, b, floor)


def _parse_mechanism(
    data: Any, rule: ScoringRule, m: int, players: tuple[Player, ...]
) -> MechanismSpec:
    path = "mechanism"
    prior = None
    if isinstance(data, dict):
        _check_keys(data, {"kind", "prior"}, path)
        name = _require(data, "kind", path)
        if "prior" in data:
            prior = _as_forecast(data["prior"], m, f"{path}.prior")
    else:
        name = data
    if prior is not None and name != "market":
        raise ScenarioError(f"{path}.prior", "a prior applies only to market scoring")
    # Two presets; every other name is a MechanismKind.
    if name == "lambert":
        return _build(path, lambert, rule, m)
    if name == "kilgour_gerchak" and len({p.wager for p in players}) > 1:
        raise ScenarioError(path, "this preset requires equal wagers for all players")
    try:
        kind = MechanismKind("competitive" if name == "kilgour_gerchak" else name)
    except ValueError:
        names = [k.value for k in MechanismKind] + ["kilgour_gerchak", "lambert"]
        raise ScenarioError(
            path, f"unknown mechanism {name!r}; expected one of {names}"
        ) from None
    return _build(path, MechanismSpec, kind, rule, prior)


def _parse_players(data: Any, m: int) -> tuple[Player, ...]:
    if data is None:
        return ()
    if not isinstance(data, list):
        raise ScenarioError("players", f"expected a list, got {data!r}")
    return tuple([_as_player(entry, m, k) for k, entry in enumerate(data, 1)])


def _parse_sampler(data: Any, m: int, path: str) -> BeliefSampler:
    if not isinstance(data, dict):
        raise ScenarioError(path, f"expected an object, got {data!r}")
    kind = _require(data, "kind", path)
    if kind == "beta_binary":
        _check_keys(data, {"kind", "alpha", "beta"}, path)
        if m != 2:
            raise ScenarioError(path, "beta_binary sampler needs a binary event space")
        alpha = _as_number(_require(data, "alpha", path), f"{path}.alpha")
        beta = _as_number(_require(data, "beta", path), f"{path}.beta")
        return _build(path, BetaBinary, alpha, beta)
    if kind == "dirichlet":
        _check_keys(data, {"kind", "alpha"}, path)
        return _build(path, DirichletM, _as_numbers(_require(data, "alpha", path), f"{path}.alpha", m))
    if kind == "finite_mixture":
        _check_keys(data, {"kind", "points", "weights"}, path)
        raw = _require(data, "points", path)
        if not isinstance(raw, list) or not raw:
            raise ScenarioError(f"{path}.points", "expected a non-empty list of forecasts")
        points = tuple([
            _as_forecast(pt, m, path + ".points[{}]", k).probs
            for k, pt in enumerate(raw, 1)
        ])
        weights = _as_numbers(_require(data, "weights", path), f"{path}.weights", len(points))
        return _build(path, FiniteMixture, points, weights)
    raise ScenarioError(
        f"{path}.kind",
        f"unknown sampler kind {kind!r}; expected beta_binary, dirichlet, "
        "or finite_mixture",
    )


def _parse_simulation(data: Any, m: int) -> SimulationSpec | None:
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
    # A list or an object cannot be looked up: only a string is.
    needs = _MODE_FIELDS.get(mode) if isinstance(mode, str) else None
    if needs is None:
        raise ScenarioError(f"{path}.mode", f"expected one of {list(_MODE_FIELDS)}")
    for name in needs:
        _require(data, name, path)
    sampler = None
    if "sampler" in data:
        sampler = _parse_sampler(data["sampler"], m, f"{path}.sampler")
    n = _as_int(data["n"], f"{path}.n", 2) if "n" in data else None
    fractions = None
    if "fractions" in data:
        fractions = _as_numbers(data["fractions"], f"{path}.fractions")
        for j, f in enumerate(fractions):
            if not 0.0 < f <= 1.0:
                raise ScenarioError(
                    f"{path}.fractions[{j + 1}]", f"fraction {f!r} outside (0, 1]"
                )
    trials = _as_int(data["trials"], f"{path}.trials", 1) if "trials" in data else None
    if mode == "sweep":
        _build(f"{path}.trials", _check_draw_size, "trials * len(fractions) * n * m",
               trials, len(fractions), n, m)
        _build(f"{path}.trials", _check_sweep_trials, trials, len(fractions))
        for j, f in enumerate(fractions):
            _build(f"{path}.fractions[{j + 1}]", _coalition_size, f, n)
    seed = None
    if "seed" in data:
        seed = _build(f"{path}.seed", _resolve_seed, _as_int(data["seed"], f"{path}.seed"))
    ordering = None
    if "ordering" in data:
        ordering = _as_indices(data["ordering"], f"{path}.ordering")
        if sorted(ordering) != list(range(len(ordering))):
            raise ScenarioError(
                f"{path}.ordering", f"expected a permutation of 1..{len(ordering)}"
            )
        _build(f"{path}.ordering", _check_draw_size, "len(ordering) * m", len(ordering), m)
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
    m = _as_int(_require(event, "m", "event"), "event.m", 2)
    # Every forecast holds m entries, and a preset or a missing player
    # list makes the program build m-entry rows itself.
    if m > MAX_GRID_POINTS:
        raise ScenarioError("event.m", f"at most {MAX_GRID_POINTS:,} states are supported")
    labels = event.get("labels")
    if "labels" in event and not (
        isinstance(labels, list) and len(labels) == m and all(isinstance(x, str) for x in labels)
    ):
        raise ScenarioError("event.labels", f"expected a list of {m} strings")
    rule = _parse_rule(_require(raw, "rule", ""), m)
    players = _parse_players(raw.get("players"), m)
    mechanism = _parse_mechanism(_require(raw, "mechanism", ""), rule, m, players)
    simulation = _parse_simulation(raw.get("simulation"), m)
    coalition = None
    if raw.get("coalition") is not None:
        n = len(players)
        if not players and simulation is not None and simulation.mode == "market_session":
            # A market session samples one player per ordering entry, so a
            # scenario that lists no players names members of the ordering.
            n = len(simulation.ordering)
        coalition = Coalition(_as_indices(raw["coalition"], "coalition", n))
    return Scenario(m, rule, mechanism, players, coalition, simulation)


def load_scenario(path: str | Path) -> tuple[Scenario, Any]:
    """Read and parse a scenario file into (Scenario, raw), raw being the
    JSON value read; scenario_digest(raw) is the hash the CLI's JSON
    envelope carries. A file that cannot be read as UTF-8 text, or is
    not valid JSON, is a ScenarioError naming the path."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ScenarioError(str(path), f"cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(str(path), f"not UTF-8 text: {exc}") from exc
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        raise ScenarioError(str(path), f"not valid JSON: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested past the recursion limit
        raise ScenarioError(str(path), "not valid JSON: nested too deeply") from exc
    return parse_scenario(raw), raw

