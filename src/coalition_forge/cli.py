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
import functools
import io
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .arbitrage import (
    Verdict,
    _coalition_gain,
    arbitrage_report,
    closed_form_surplus,
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
from .rules import RuleKind, check_strict_properness
from .scenario import Scenario, load_scenario
from .simulate import (
    SweepResult,
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


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(x) if isinstance(x, float) else x for x in row])
    return buf.getvalue()


def _envelope(command: str, digest: str, payload: dict) -> dict:
    return {
        "scenario_digest": digest,
        "tool_version": __version__,
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "payload": payload,
    }


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _state_names(sc: Scenario) -> list[str]:
    return [f"E{j + 1}" for j in range(sc.m)]


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
    names = _state_names(sc)
    if args.format == "csv":
        header = ["player"] + [names[j] for j in outcomes]
        rows = [
            [i + 1] + [table.payments[i][j] for j in outcomes]
            for i in range(table.n)
        ]
        _emit(_csv_text(header, rows), args.out)
    elif args.format == "json":
        payload = {
            "outcomes": [j + 1 for j in outcomes],
            "payments": [
                [table.payments[i][j] for j in outcomes] for i in range(table.n)
            ],
        }
        _emit(json.dumps(_envelope("score", digest, payload), indent=2), args.out)
    else:
        width = max(8, *(len(n) for n in names))
        lines = ["player  " + "  ".join(f"{names[j]:>{width}}" for j in outcomes)]
        for i in range(table.n):
            cells = "  ".join(
                f"{_fmt(table.payments[i][j]):>{width}}" for j in outcomes
            )
            lines.append(f"{i + 1:>6}  {cells}")
        _emit("\n".join(lines), args.out)
    return 0


def cmd_arbitrage(args: argparse.Namespace) -> int:
    sc, digest = load_scenario(_resolve_scenario(args.scenario))
    if sc.coalition is None:
        raise InvalidCoalition("scenario has no coalition")
    result = arbitrage_report(sc.rule, list(sc.players), sc.coalition)
    if result.agreement:
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
    if args.format == "csv":
        header = ["outcome", "q", "surplus", "oracle_margin"]
        rows = [
            [j + 1, result.q[j], result.surplus_by_outcome[j], verdict.margins[j]]
            for j in range(sc.m)
        ]
        _emit(_csv_text(header, rows), args.out)
    elif args.format == "json":
        payload = {
            "q": list(result.q.probs),
            "surplus_by_outcome": list(result.surplus_by_outcome),
            "equalized": result.equalized,
            "agreement": result.agreement,
            "closed_form_surplus": closed,
            "verdict": verdict.verdict.value,
            "oracle_margins": list(verdict.margins),
            "witness_outcome": None if verdict.witness is None else verdict.witness + 1,
        }
        _emit(json.dumps(_envelope("arbitrage", digest, payload), indent=2), args.out)
    else:
        lines = [
            "equalizing report q: ("
            + ", ".join(_fmt(x) for x in result.q.probs) + ")",
        ]
        for j in range(sc.m):
            lines.append(
                f"  {_state_names(sc)[j]}: surplus {_fmt(result.surplus_by_outcome[j])}"
                f"  oracle margin {_fmt(verdict.margins[j])}"
            )
        if closed is not None:
            lines.append(f"closed-form surplus: {_fmt(closed)}")
        lines.append(f"equalized across outcomes: {result.equalized}")
        lines.append(f"oracle verdict: {verdict.verdict.value}")
        if verdict.witness is not None:
            lines.append(f"worst outcome: E{verdict.witness + 1}")
        _emit("\n".join(lines), args.out)
    return 1 if verdict.verdict is Verdict.FAILS else 0


def _verify_checks(sc: Scenario, resolution: int) -> list[dict]:
    checks: list[dict] = []

    beliefs = [p.belief for p in sc.players]
    if not beliefs:
        beliefs = [uniform_prior(sc.m)]
    worst_margin = -math.inf
    all_pass = True
    for belief in beliefs:
        report = check_strict_properness(sc.rule, belief, resolution)
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

    coordinated = None
    if sc.coalition is not None and len(sc.coalition.members) >= 2:
        member_reports = [sc.players[i].report for i in sc.coalition.members]
        if all(r is not None for r in member_reports):
            coordinated = list(member_reports)
        else:
            try:
                arb = arbitrage_report(sc.rule, list(sc.players), sc.coalition)
                if not arb.agreement:
                    coordinated = [arb.q] * len(sc.coalition.members)
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
                "detail": "no identical coordinated report available",
            }
        )

    if (
        sc.coalition is not None
        and len(sc.coalition.members) >= 2
        and len(sc.players) > len(sc.coalition.members)
        and coordinated is not None
    ):
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
                "detail": "needs a coalition that is a proper subset of the players",
            }
        )
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    sc, digest = load_scenario(_resolve_scenario(args.scenario))
    checks = _verify_checks(sc, args.resolution)
    failed = any(c["status"] == "fail" for c in checks)
    if args.format == "csv":
        _emit(
            _csv_text(
                ["check", "status", "detail"],
                [[c["check"], c["status"], c["detail"]] for c in checks],
            ),
            args.out,
        )
    elif args.format == "json":
        payload = {"checks": checks, "passed": not failed}
        _emit(json.dumps(_envelope("verify", digest, payload), indent=2), args.out)
    else:
        lines = [
            f"{c['check']}: {c['status'].upper()}  ({c['detail']})" for c in checks
        ]
        lines.append("result: FAIL" if failed else "result: PASS")
        _emit("\n".join(lines), args.out)
    return 1 if failed else 0


def _sweep_csv(result: SweepResult) -> str:
    return _csv_text(
        ["fraction", "mean", "se", "trials"],
        [[r.fraction, r.mean, r.se, r.trials] for r in result.rows],
    )


def _sweep_payload(result: SweepResult) -> dict:
    return {
        "mechanism": result.mechanism.value,
        "n": result.n,
        "seed": result.seed,
        "rows": [
            {
                "fraction": r.fraction,
                "mean": r.mean,
                "se": r.se,
                "trials": r.trials,
                "coalition_size": r.coalition_size,
                "mean_per_member": r.mean_per_member,
            }
            for r in result.rows
        ],
        "argmax_fraction": result.argmax_fraction,
        "fit": list(result.fit),
        "vertex": result.vertex,
    }


def _write_pair(base: str, csv_text: str, envelope: dict) -> None:
    Path(base + ".csv").write_text(csv_text, encoding="utf-8")
    Path(base + ".json").write_text(
        json.dumps(envelope, indent=2), encoding="utf-8"
    )


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
        csv_text = _sweep_csv(result)
        payload = _sweep_payload(result)
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
        csv_text = _csv_text(
            ["outcome", "profit"],
            [[j + 1, p] for j, p in enumerate(run.profit_by_outcome)],
        )
        payload = {
            "scenario_id": run.scenario_id,
            "profit_by_outcome": list(run.profit_by_outcome),
            "min_profit": run.min_profit,
            "no_arbitrage": run.no_arbitrage,
        }
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
        csv_text = _csv_text(
            ["outcome", "surplus"],
            [[j + 1, s] for j, s in enumerate(result.surplus_by_outcome)],
        )
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

    envelope = _envelope("simulate", digest, payload)
    if args.out:
        _write_pair(args.out, csv_text, envelope)
    if args.format == "csv":
        sys.stdout.write(csv_text)
    elif args.format == "json":
        print(json.dumps(envelope, indent=2))
    else:
        print("\n".join(lines))
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
