"""Payment mechanisms over submitted reports: plain wagered scores, the
self-financed competitive scheme, and sequential market scoring.

The competitive scheme pays each player their wagered score minus their
wager share of the total wagered score, so payments sum to zero in every
state. With equal wagers this is the classic competitive scoring rule;
with a rule normalized into [0, 1] no player can lose more than their
wager. Market scoring pays each player the score improvement over the
report that preceded theirs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .arbitrage import Coalition, Player, _coalition_gain, _column_fsum
from .errors import (
    CoalitionIsEveryoneWarning,
    DimensionMismatch,
    MissingPrior,
    MissingReport,
    OrderingViolationWarning,
    SinglePlayer,
    UnsupportedMechanism,
    ValidationError,
)
from .rules import ScoringRule, _score_columns, normalize_to_unit_interval
from .simplex import Forecast


class MechanismKind(str, Enum):
    TRADITIONAL = "traditional"
    COMPETITIVE = "competitive"
    MARKET = "market"


@dataclass(frozen=True)
class MechanismSpec:
    """A mechanism kind bound to a scoring rule.

    kind may be given by its name. market_prior is the opening report the
    first market participant is paid against; None defers to a uniform
    prior at payment time.
    """

    kind: MechanismKind
    rule: ScoringRule
    market_prior: Forecast | None = None

    def __post_init__(self):
        if not isinstance(self.kind, MechanismKind):
            try:
                object.__setattr__(self, "kind", MechanismKind(self.kind))
            except ValueError:
                raise ValidationError(f"unknown mechanism kind {self.kind!r}") from None
        if self.market_prior is not None and self.kind is not MechanismKind.MARKET:
            raise ValidationError("market_prior applies only to market scoring")


def lambert(rule: ScoringRule, m: int) -> MechanismSpec:
    """Competitive preset with the rule rescaled into [0, 1], so each
    player's loss is strictly bounded by their wager."""
    return MechanismSpec(MechanismKind.COMPETITIVE, normalize_to_unit_interval(rule, m))


@dataclass(frozen=True)
class PaymentTable:
    """Per-player payments for every outcome state; rows are players,
    columns are states."""

    payments: tuple[tuple[float, ...], ...]

    @property
    def n(self) -> int:
        return len(self.payments)

    @property
    def m(self) -> int:
        return len(self.payments[0]) if self.payments else 0

    def column(self, outcome: int) -> tuple[float, ...]:
        return tuple(row[outcome] for row in self.payments)

    def column_sum(self, outcome: int) -> float:
        return math.fsum(row[outcome] for row in self.payments)


def _require_reports(players: Sequence[Player]) -> list[Forecast]:
    reports = []
    for i, p in enumerate(players):
        if p.report is None:
            raise MissingReport(i)
        reports.append(p.report)
    return reports


def _column(table: np.ndarray) -> tuple[float, ...]:
    return tuple(table[:, 0].tolist())


def _payments(kind: MechanismKind, table: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Each mechanism's payment formula, applied to a score table whose
    rows are the reports in reporting order, led under market scoring by
    the opening report's row; w holds the reports' wagers.

    Market scoring pays each row's score minus the row before it and
    ignores wagers; the traditional scheme pays wagered scores; the
    competitive scheme pays wagered scores minus each player's wager share
    of the column total, so its columns sum to zero.
    """
    if kind is MechanismKind.MARKET:
        return np.diff(table, axis=0)
    wagered = w[:, None] * table
    if kind is MechanismKind.TRADITIONAL:
        return wagered
    return wagered - (w / math.fsum(w.tolist()))[:, None] * _column_fsum(wagered)


def _paid(
    kind: MechanismKind, rule: ScoringRule, players: Sequence[Player],
    outcomes: Sequence[int], prior: Forecast | None = None,
) -> np.ndarray:
    """Payments to the players, in their order, at the requested outcomes;
    under market scoring the first report is paid against prior, uniform
    when None."""
    if kind is MechanismKind.COMPETITIVE and len(players) < 2:
        raise SinglePlayer("competitive payments need at least 2 players")
    reports = _require_reports(players)
    w = np.asarray([p.wager for p in players], dtype=np.float64)
    head = [prior or uniform_prior(reports[0].m)] if kind is MechanismKind.MARKET else []
    return _payments(kind, _score_columns(rule, [*head, *reports], outcomes), w)


def traditional_payments(
    rule: ScoringRule, players: Sequence[Player], outcome: int
) -> tuple[float, ...]:
    """Each player receives their wagered score; nobody else's report
    matters."""
    return _column(_paid(MechanismKind.TRADITIONAL, rule, players, [outcome]))


def competitive_payments(
    rule: ScoringRule, players: Sequence[Player], outcome: int
) -> tuple[float, ...]:
    """Wagered score minus the player's wager share of the pool total.

    Payments sum to zero in every state, so the pool finances itself.
    """
    return _column(_paid(MechanismKind.COMPETITIVE, rule, players, [outcome]))


def market_scoring_payments(
    rule: ScoringRule,
    reports: Sequence[Forecast],
    prior: Forecast | None,
    outcome: int,
) -> tuple[float, ...]:
    """Sequential payments: each report is scored against its predecessor.

    The total paid out telescopes to the last report's score minus the
    prior's.
    """
    if prior is None:
        raise MissingPrior("market scoring needs an opening report")
    table = _score_columns(rule, [prior, *reports], [outcome])
    return _column(_payments(MechanismKind.MARKET, table, None))


def uniform_prior(m: int) -> Forecast:
    return Forecast(tuple(1.0 / m for _ in range(m)))


def payment_table(spec: MechanismSpec, players: Sequence[Player]) -> PaymentTable:
    """Full n-by-m payment table under a mechanism, from one score table.

    Market scoring treats the player sequence as the reporting order and
    ignores wagers; a missing prior defaults to uniform.
    """
    if not players:
        raise ValidationError("no players")
    table = _paid(spec.kind, spec.rule, players, range(players[0].belief.m), spec.market_prior)
    return PaymentTable(tuple(tuple(row) for row in table.tolist()))


def _broadcast_coordinated(
    coordinated: Forecast | Sequence[Forecast], coalition: Coalition
) -> list[Forecast]:
    if isinstance(coordinated, Forecast):
        return [coordinated] * len(coalition.members)
    coordinated = list(coordinated)
    if len(coordinated) != len(coalition.members):
        raise DimensionMismatch(
            f"{len(coordinated)} coordinated reports for "
            f"{len(coalition.members)} members"
        )
    return coordinated


def _coalition_surplus(
    kind: MechanismKind,
    rule: ScoringRule,
    players: Sequence[Player],
    coalition: Coalition,
    coordinated: Forecast | Sequence[Forecast],
    outcomes: Sequence[int],
    ordering: Sequence[int] | None = None,
    prior: Forecast | None = None,
    stacklevel: int = 3,
) -> np.ndarray:
    """Coalition gain over truthful play at every requested outcome under
    the competitive pool or sequential market scoring, outsider reports
    held fixed (an outsider who never submitted one reports their belief).

    One score table holds both plays: [prior;] the coordinated reports in
    reporting order (player order for the pool), then the members' beliefs
    in the same order; truthful play swaps the member rows for the belief
    rows. The gain is the members' coordinated payments minus their
    truthful ones. Warnings are attributed stacklevel frames up.
    """
    n = len(players)
    coalition.validate(n)
    market = kind is MechanismKind.MARKET
    if ordering is None and not market:
        ordering = range(n)
    if ordering is None or sorted(ordering) != list(range(n)):
        raise ValidationError("ordering must be a permutation of all player indices")
    instructed = dict(zip(coalition.members, _broadcast_coordinated(coordinated, coalition)))
    if market and not ordering_satisfies_alternation(ordering, coalition):
        warnings.warn(
            "a coalition member reports directly after another member; "
            "the guaranteed-gain argument does not apply",
            OrderingViolationWarning,
            stacklevel=stacklevel,
        )
    if not market and len(instructed) == n:
        warnings.warn(
            "coalition holds the entire pool; competitive surplus is "
            "identically zero",
            CoalitionIsEveryoneWarning,
            stacklevel=stacklevel,
        )
    # One walk in reporting order: what each player reports, and which of
    # them are members.
    played, members, mask = [], [], []
    for i in ordering:
        report = instructed.get(i)
        mask.append(report is not None)
        if report is None:
            player = players[i]
            report = player.report or player.belief
        else:
            members.append(i)
        played.append(report)
    is_member = np.array(mask)
    head = [prior or uniform_prior(players[0].belief.m)] if market else []
    beliefs = [players[i].belief for i in members]
    table = _score_columns(rule, [*head, *played, *beliefs], outcomes)
    k = len(head) + n
    truth = np.arange(k)
    truth[len(head):][is_member] = np.arange(k, k + len(members))
    w = np.asarray([players[i].wager for i in ordering], dtype=np.float64)
    gain = _payments(kind, table[:k], w) - _payments(kind, table[truth], w)
    return _column_fsum(gain[is_member])


def coalition_surplus_competitive(
    rule: ScoringRule,
    players: Sequence[Player],
    coalition: Coalition,
    coordinated: Forecast | Sequence[Forecast],
    outcome: int,
) -> float:
    """Coalition gain at one outcome under the self-financed scheme:
    coordinated-play coalition total minus truthful-play coalition total,
    outsider reports held fixed.

    A coalition holding the whole pool gains exactly zero; that case is
    flagged with a warning rather than an error.
    """
    gain = _coalition_surplus(
        MechanismKind.COMPETITIVE, rule, players, coalition, coordinated, [outcome]
    )
    return float(gain[0])


def ordering_satisfies_alternation(
    ordering: Sequence[int], coalition: Coalition
) -> bool:
    """True when no coalition member reports immediately after another
    member; the opening prior counts as an outsider."""
    members = set(coalition.members)
    prev_is_member = False
    for idx in ordering:
        if idx in members and prev_is_member:
            return False
        prev_is_member = idx in members
    return True


def coalition_surplus_market(
    rule: ScoringRule,
    players: Sequence[Player],
    ordering: Sequence[int],
    coalition: Coalition,
    coordinated: Forecast | Sequence[Forecast],
    outcome: int,
    prior: Forecast | None = None,
) -> float:
    """Coalition gain at one outcome under sequential market scoring.

    Equals the sum of members' score improvements over their own beliefs
    whenever each member reports right after a non-member, since the
    predecessor terms then cancel between the two scenarios. If members
    report back-to-back the value is still computed from the two payment
    sequences, but the dominance guarantee is withdrawn and a warning is
    emitted.
    """
    gain = _coalition_surplus(
        MechanismKind.MARKET, rule, players, coalition, coordinated, [outcome],
        ordering, prior,
    )
    return float(gain[0])


def intermediary_profit_by_outcome(
    spec: MechanismSpec,
    players: Sequence[Player],
    coalition: Coalition,
    q: Forecast,
) -> tuple[float, ...]:
    """Per-outcome profit of an intermediary who submits q for every
    member and reimburses each member their truthful payment."""
    traditional = spec.kind is MechanismKind.TRADITIONAL
    if not traditional and spec.kind is not MechanismKind.COMPETITIVE:
        raise UnsupportedMechanism(
            "intermediary runs support traditional and competitive mechanisms; "
            "sequential markets go through a market session"
        )
    coalition.validate(len(players))
    if traditional:
        members = [q] * len(coalition.members)
        return tuple(_coalition_gain(spec.rule, players, coalition, members).tolist())
    gain = _coalition_surplus(spec.kind, spec.rule, players, coalition, q, range(q.m))
    return tuple(gain.tolist())
