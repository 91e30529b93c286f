"""Command-line front end.

Subcommands: score (payment tables), arbitrage (equalizing report and
surplus), verify (properness, dominance, and accounting-identity checks),
simulate (sweeps, intermediary runs, market sessions).

Exit codes: 0 success, 1 a verification check failed, 2 invalid input,
3 the coalition agrees so there is nothing to arbitrage. All outcome and
player indices printed or read are 1-based.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .arbitrage import (
    AGREEMENT_TOL,
    Verdict,
    _coalition_gain,
    arbitrage_report,
    closed_form_surplus,
    members_agree,
    verify_dominance_oracle,
)
from .errors import (
    CoalitionForgeError,
    InvalidCoalition,
    ValidationError,
)
from .mechanisms import (
    MechanismKind,
    _coalition_surplus,
    payment_table,
    uniform_prior,
)
from .rules import RuleKind, _properness_scan
from .scenario import Scenario, load_scenario
from .simplex import _stack
from .simulate import (
    expected_surplus_sweep,
    intermediary_run,
    market_session,
)
from . import scenarios as bundled

_CLOSED_FORM_KINDS = (
    RuleKind.QUADRATIC,
    RuleKind.LOGARITHMIC,
    RuleKind.GENERALIZED_LOG,
    RuleKind.SPHERICAL,
)


@functools.cache
def _bundled_names() -> tuple[str, ...]:
    # The bundled package does not change while the process runs.
    return tuple(bundled.names())


def _resolve_scenario(value: str) -> Path:
    p = Path(value)
    if p.exists():
        return p
    name = value[:-5] if value.endswith(".json") else value
    if name in _bundled_names():
        return bundled.path(name)
    raise ValidationError(
        f"scenario {value!r} is neither a file nor a bundled name "
        f"(bundled: {', '.join(_bundled_names())})"
    )


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _write(
    args: argparse.Namespace,
    digest: str,
    header: list[str],
    rows: list[list],
    payload: dict,
    lines: list[str],
) -> None:
    """Write a command's result in the chosen --format: header and rows as
    CSV, payload inside the JSON envelope, or lines as a table.

    Without --out the text goes to stdout and ends in a newline. --out
    PATH writes the text to PATH as it is and prints nothing; only
    simulate --out BASE writes both BASE.csv and BASE.json and still
    prints. A path that cannot be written is a ValidationError naming it.
    """

    def text(fmt: str) -> str:
        if fmt == "json":
            envelope = {
                "scenario_digest": digest,
                "tool_version": __version__,
                "command": args.command,
                "timestamp": datetime.now(timezone.utc).isoformat(),
                "payload": payload,
            }
            return json.dumps(envelope, indent=2)
        if fmt == "table":
            return "\n".join(lines)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [repr(x) if isinstance(x, float) else x for x in row] for row in rows
        )
        return buf.getvalue()

    def save(path: str, body: str) -> None:
        try:
            Path(path).write_text(body, encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc

    # Each text is made at most once, so stdout and simulate's BASE.json
    # share one envelope and its timestamp.
    fmt = args.format
    chosen = text(fmt)
    if args.out and args.command == "simulate":
        for kind in ("csv", "json"):
            save(f"{args.out}.{kind}", chosen if kind == fmt else text(kind))
    elif args.out:
        save(args.out, chosen)
        return
    sys.stdout.write(chosen if chosen.endswith("\n") else chosen + "\n")


def cmd_score(args: argparse.Namespace) -> int:
    sc, digest = load_scenario(_resolve_scenario(args.scenario))
    if not sc.players:
        raise ValidationError("scenario has no players to score")
    table = payment_table(sc.mechanism, list(sc.players))
    outcomes = list(range(sc.m))
    if args.outcome is not None:
        if not (1 <= args.outcome <= sc.m):
            raise ValidationError(
                f"outcome {args.outcome} out of range 1..{sc.m}"
            )
        outcomes = [args.outcome - 1]
    names = [f"E{j + 1}" for j in outcomes]
    payments = [[row[j] for j in outcomes] for row in table.payments]
    width = max(8, len(f"E{sc.m}"))
    lines = ["player  " + "  ".join(f"{name:>{width}}" for name in names)]
    for i, row in enumerate(payments):
        cells = "  ".join(f"{_fmt(x):>{width}}" for x in row)
        lines.append(f"{i + 1:>6}  {cells}")
    _write(
        args, digest, ["player"] + names,
        [[i + 1] + row for i, row in enumerate(payments)],
        {"outcomes": [j + 1 for j in outcomes], "payments": payments},
        lines,
    )
    return 0


def cmd_arbitrage(args: argparse.Namespace) -> int:
    sc, digest = load_scenario(_resolve_scenario(args.scenario))
    if sc.coalition is None:
        raise InvalidCoalition("scenario has no coalition")
    result = arbitrage_report(sc.rule, list(sc.players), sc.coalition)
    if result.agreement:
        # Members that share one belief get zero surplus; a nonzero one is
        # the equalizer's, kept when the surplus test fired.
        if any(result.surplus_by_outcome):
            sys.stderr.write(
                "coalition members agree on the surplus scale: the equalizing "
                "report's smallest per-outcome surplus "
                f"{_fmt(min(result.surplus_by_outcome))} is not above "
                f"{_fmt(AGREEMENT_TOL)}\n"
            )
        else:
            sys.stderr.write(
                "coalition members agree; no coordinated report beats truth\n"
            )
        return 3
    closed = None
    if sc.rule.kind in _CLOSED_FORM_KINDS:
        closed = closed_form_surplus(sc.rule, list(sc.players), sc.coalition)
    verdict = verify_dominance_oracle(
        sc.rule, list(sc.players), sc.coalition, result.q
    )
    q = list(result.q.probs)
    surplus = list(result.surplus_by_outcome)
    margins = list(verdict.margins)
    witness = None if verdict.witness is None else verdict.witness + 1
    lines = ["equalizing report q: (" + ", ".join(_fmt(x) for x in q) + ")"]
    for j, (s, margin) in enumerate(zip(surplus, margins)):
        lines.append(
            f"  E{j + 1}: surplus {_fmt(s)}  oracle margin {_fmt(margin)}"
        )
    if closed is not None:
        lines.append(f"closed-form surplus: {_fmt(closed)}")
    lines.append(f"equalized across outcomes: {result.equalized}")
    lines.append(f"oracle verdict: {verdict.verdict.value}")
    if witness is not None:
        lines.append(f"worst outcome: E{witness}")
    payload = {
        "q": q,
        "surplus_by_outcome": surplus,
        "equalized": result.equalized,
        "agreement": result.agreement,
        "closed_form_surplus": closed,
        "verdict": verdict.verdict.value,
        "oracle_margins": margins,
        "witness_outcome": witness,
    }
    _write(
        args, digest, ["outcome", "q", "surplus", "oracle_margin"],
        [[j + 1, *cells] for j, cells in enumerate(zip(q, surplus, margins))],
        payload, lines,
    )
    return 1 if verdict.verdict is Verdict.FAILS else 0


def _verify_checks(sc: Scenario, resolution: int) -> list[dict]:
    checks: list[dict] = []

    beliefs = [p.belief for p in sc.players]
    if not beliefs:
        beliefs = [uniform_prior(sc.m)]
    worst_margin = -math.inf
    all_pass = True
    for report in _properness_scan(sc.rule, beliefs, resolution):
        worst_margin = max(worst_margin, report.max_margin)
        all_pass = all_pass and report.passed
    checks.append(
        {
            "check": "properness",
            "status": "pass" if all_pass else "fail",
            "detail": f"max margin {worst_margin!r} over {len(beliefs)} belief(s) "
            f"at resolution {resolution}",
        }
    )

    # Members without reports coordinate on the equalizing report, unless
    # they agree; then agreement names the test that found it.
    coordinated = agreement = None
    if sc.coalition is not None and len(sc.coalition.members) >= 2:
        member_reports = [sc.players[i].report for i in sc.coalition.members]
        if all(r is not None for r in member_reports):
            coordinated = list(member_reports)
        else:
            try:
                arb = arbitrage_report(sc.rule, list(sc.players), sc.coalition)
                if not arb.agreement:
                    coordinated = [arb.q] * len(sc.coalition.members)
                elif members_agree(_stack([sc.players[i].belief for i in sc.coalition.members])):
                    agreement = (
                        "the coalition agrees by belief distance: members within "
                        f"{AGREEMENT_TOL!r} of each other"
                    )
                else:
                    agreement = (
                        "the coalition agrees by surplus scale: smallest equalizing "
                        f"surplus at most {AGREEMENT_TOL!r}"
                    )
            except CoalitionForgeError:
                pass

    identical = (
        coordinated is not None
        and all(
            max(
                abs(a - b)
                for a, b in zip(coordinated[0].probs, r.probs)
            ) <= 1e-12
            for r in coordinated
        )
    )
    if coordinated is not None and identical:
        verdict = verify_dominance_oracle(
            sc.rule, list(sc.players), sc.coalition, coordinated[0]
        )
        status = "pass" if verdict.verdict is Verdict.DOMINATES else "fail"
        detail = f"verdict {verdict.verdict.value}"
        if verdict.witness is not None:
            detail += f", witness E{verdict.witness + 1}"
        checks.append({"check": "dominance", "status": status, "detail": detail})
    else:
        checks.append(
            {
                "check": "dominance",
                "status": "skipped",
                "detail": agreement or "no identical coordinated report available",
            }
        )

    proper_subset = (
        sc.coalition is not None
        and len(sc.coalition.members) >= 2
        and len(sc.players) > len(sc.coalition.members)
    )
    if proper_subset and coordinated is not None:
        players = list(sc.players)
        w_c = sc.coalition.wager_total(players)
        w_n = math.fsum(p.wager for p in players)
        gain = _coalition_gain(sc.rule, players, sc.coalition, coordinated)
        competitive = _coalition_surplus(
            MechanismKind.COMPETITIVE, sc.rule, players, sc.coalition,
            coordinated, range(len(gain)),
        )
        max_err = 0.0
        for direct, traditional in zip(competitive.tolist(), gain.tolist()):
            scaled = (1.0 - w_c / w_n) * traditional
            max_err = max(
                max_err, abs(direct - scaled) / max(1.0, abs(scaled))
            )
        status = "pass" if max_err <= 1e-9 else "fail"
        checks.append(
            {
                "check": "surplus_scaling_identity",
                "status": status,
                "detail": f"max relative error {max_err!r}",
            }
        )
    else:
        checks.append(
            {
                "check": "surplus_scaling_identity",
                "status": "skipped",
                "detail": (agreement if proper_subset and agreement
                           else "needs a coalition that is a proper subset of the players"),
            }
        )
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    sc, digest = load_scenario(_resolve_scenario(args.scenario))
    checks = _verify_checks(sc, args.resolution)
    failed = any(c["status"] == "fail" for c in checks)
    lines = [
        f"{c['check']}: {c['status'].upper()}  ({c['detail']})" for c in checks
    ]
    lines.append("result: FAIL" if failed else "result: PASS")
    _write(
        args, digest, ["check", "status", "detail"],
        [[c["check"], c["status"], c["detail"]] for c in checks],
        {"checks": checks, "passed": not failed}, lines,
    )
    return 1 if failed else 0


def cmd_simulate(args: argparse.Namespace) -> int:
    sc, digest = load_scenario(_resolve_scenario(args.scenario))
    if sc.simulation is None:
        raise ValidationError("scenario has no simulation block")
    sim = sc.simulation
    seed = args.seed if args.seed is not None else sim.seed

    if sim.mode == "sweep":
        result = expected_surplus_sweep(
            sc.mechanism, sim.sampler, sim.n, sim.fractions, sim.trials, seed
        )
        header = ["fraction", "mean", "se", "trials"]
        rows = [[r.fraction, r.mean, r.se, r.trials] for r in result.rows]
        # The JSON mirrors SweepResult and its rows field for field.
        payload = {**dataclasses.asdict(result), "mechanism": result.mechanism.value}
        lines = ["fraction      mean        se  trials  per-member"]
        for r in result.rows:
            lines.append(
                f"{r.fraction:>8.3f}  {r.mean:>8.5f}  {r.se:>8.5f}"
                f"  {r.trials:>6}  {r.mean_per_member:>10.6f}"
            )
        summary = f"argmax fraction: {result.argmax_fraction}"
        if result.vertex is not None:
            summary += f"; fitted vertex: {result.vertex:.4f}"
        lines.append(summary)
    elif sim.mode == "intermediary":
        if sc.coalition is None:
            raise InvalidCoalition("intermediary runs need a coalition")
        run = intermediary_run(
            sc.mechanism, list(sc.players), sc.coalition, scenario_id=digest[:12]
        )
        header = ["outcome", "profit"]
        rows = [[j + 1, p] for j, p in enumerate(run.profit_by_outcome)]
        payload = dataclasses.asdict(run)
        lines = [f"E{j + 1}: profit {_fmt(p)}" for j, p in enumerate(run.profit_by_outcome)]
        lines.append(f"minimum profit: {_fmt(run.min_profit)}")
        if run.no_arbitrage:
            lines.append("clients agree: no arbitrage available")
    else:  # market_session
        if sc.coalition is None:
            raise InvalidCoalition("market sessions need a coalition")
        result = market_session(
            sc.mechanism, sim.ordering, sc.coalition, sim.sampler, seed
        )
        header = ["outcome", "surplus"]
        rows = [[j + 1, s] for j, s in enumerate(result.surplus_by_outcome)]
        payload = {
            "surplus_by_outcome": list(result.surplus_by_outcome),
            "ordering_ok": result.ordering_ok,
            "agreement": result.agreement,
            "q": list(result.arbitrage.q.probs),
        }
        lines = [f"E{j + 1}: surplus {_fmt(s)}" for j, s in enumerate(result.surplus_by_outcome)]
        lines.append(f"ordering satisfies alternation: {result.ordering_ok}")
        if result.agreement:
            lines.append("members agree: surplus is zero")

    _write(args, digest, header, rows, payload, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coalition-forge",
        description="Strictly proper scoring rules and coalition arbitrage",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, out_help=None) -> None:
        p.add_argument("--scenario", required=True,
                       help="scenario file path or bundled scenario name")
        p.add_argument("--format", choices=["csv", "json", "table"],
                       default="table")
        p.add_argument("--out", default=None,
                       help=out_help or "write output to this path instead of stdout")

    p_score = sub.add_parser("score", help="payment table for submitted reports")
    common(p_score)
    p_score.add_argument("--outcome", type=int, default=None,
                         help="1-based outcome state; default all")
    p_score.set_defaults(func=cmd_score)

    p_arb = sub.add_parser("arbitrage", help="equalizing report and surplus")
    common(p_arb)
    p_arb.set_defaults(func=cmd_arbitrage)

    p_verify = sub.add_parser("verify", help="properness, dominance, identity checks")
    common(p_verify)
    p_verify.add_argument("--resolution", type=int, default=50,
                          help="grid resolution for the properness check")
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="sweeps, intermediary runs, sessions")
    common(p_sim, out_help="write OUT.csv and OUT.json alongside stdout output")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first main() call, not at import, and reused: parsing
    # keeps no state in the parser, and building one costs more than the
    # rest of a small command.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CoalitionForgeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
