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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# MechanismKind, _payments and the one coalition-gain formula live in
# arbitrage, whose surpluses need them; MechanismKind is re-exported here.
from .arbitrage import (
    Coalition,
    MechanismKind,
    Player,
    _coalition_surplus,
    _payments,
)
from .errors import (
    MissingReport,
    SinglePlayer,
    UnsupportedMechanism,
    ValidationError,
)
from .rules import ScoringRule, _affine, _score_columns, normalize_to_unit_interval
from .simplex import Forecast, uniform_prior


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

    def column_sum(self, outcome: int) -> float:
        return math.fsum(row[outcome] for row in self.payments)


def _require_reports(players: Sequence[Player]) -> list[Forecast]:
    reports = []
    for i, p in enumerate(players):
        if p.report is None:
            raise MissingReport(i)
        reports.append(p.report)
    return reports


def payment_table(spec: MechanismSpec, players: Sequence[Player]) -> PaymentTable:
    """Full n-by-m payment table under a mechanism, from one score table.

    The traditional scheme pays each player their wagered score, whoever
    else reports what. The competitive scheme pays the wagered score minus
    the player's wager share of the pool total, so each column sums to
    zero and the pool finances itself; it needs two players. Market
    scoring treats the player sequence as the reporting order, pays each
    report against its predecessor and ignores wagers; the first report is
    paid against spec.market_prior, uniform when None, and each column
    telescopes to the last report's score minus the prior's.
    """
    if not players:
        raise ValidationError("no players")
    kind = spec.kind
    if kind is MechanismKind.COMPETITIVE and len(players) < 2:
        raise SinglePlayer("competitive payments need at least 2 players")
    reports = _require_reports(players)
    outcomes = range(players[0].belief.m)
    w = np.asarray([p.wager for p in players], dtype=np.float64)
    head = [spec.market_prior or uniform_prior(reports[0].m)] if kind is MechanismKind.MARKET else []
    table = _affine(spec.rule, _score_columns(spec.rule, [*head, *reports], outcomes), outcomes)
    return PaymentTable(tuple(tuple(row) for row in _payments(kind, table, w).tolist()))


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
    return float(rule.b * gain[0])


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
    return float(rule.b * gain[0])


def intermediary_profit_by_outcome(
    spec: MechanismSpec,
    players: Sequence[Player],
    coalition: Coalition,
    q: Forecast,
) -> tuple[float, ...]:
    """Per-outcome profit of an intermediary who submits q for every
    member and reimburses each member their truthful payment."""
    if spec.kind is MechanismKind.MARKET:
        raise UnsupportedMechanism(
            "intermediary runs support traditional and competitive mechanisms; "
            "sequential markets go through a market session"
        )
    gain = _coalition_surplus(spec.kind, spec.rule, players, coalition, q, range(q.m))
    return tuple((spec.rule.b * gain).tolist())
