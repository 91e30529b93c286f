"""Command-line front end.

Subcommands: score (payment tables), arbitrage (equalizing report and
surplus), verify (properness, dominance, and accounting-identity checks),
simulate (sweeps, intermediary runs, market sessions). Each is a
function from the parsed arguments and the scenario to one result;
simulate also takes the scenario's digest, which names an intermediary
run. main loads the scenario, writes the result and returns its exit
code. The digest is computed only where an output shows it, the JSON
envelope and an intermediary run's scenario_id, and at most once a call.

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
import os
import stat
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .arbitrage import (
    AGREEMENT_TOL,
    MechanismKind,
    Verdict,
    _coalition_surplus,
    _member_arrays,
    _scaled_wagers,
    arbitrage_report,
    closed_form_surplus,
    members_agree,
    verify_dominance_oracle,
)
from .errors import (
    CoalitionForgeError,
    CoalitionForgeWarning,
    InvalidCoalition,
    PaymentOverflow,
    ScenarioError,
    ValidationError,
)
from .mechanisms import payment_table
from .rules import _properness_scan, _score_columns
from .scenario import Scenario, load_scenario, scenario_digest
from .simplex import uniform_prior
from .simulate import (
    expected_surplus_sweep,
    intermediary_run,
    market_session,
)
from . import scenarios as bundled


@functools.cache
def _bundled_paths() -> dict[str, Path]:
    # The bundled package does not change while the process runs, so each
    # name is resolved to its file once.
    return {name: bundled.path(name) for name in bundled.names()}


def _resolve_scenario(value: str) -> Path:
    if os.path.exists(value):
        return Path(value)
    name = value[:-5] if value.endswith(".json") else value
    bundled_paths = _bundled_paths()
    if name in bundled_paths:
        return bundled_paths[name]
    raise ValidationError(
        f"scenario {value!r} is neither a file nor a bundled name "
        f"(bundled: {', '.join(bundled_paths)})"
    )


def _fmt(x: float) -> str:
    return f"{x:.6g}"


@dataclasses.dataclass(frozen=True)
class _Result:
    """What a command found, in every format's terms: header and rows for
    CSV, the payload of the JSON envelope, the lines of the table, and the
    exit code."""

    header: list[str]
    rows: list
    payload: dict
    lines: list[str]
    code: int = 0


def _write(args: argparse.Namespace, digest: Callable[[], str], result: _Result) -> None:
    """Write a command's result in the chosen --format: header and rows as
    CSV, payload inside the JSON envelope under the scenario's digest,
    which digest() gives, or lines as a table.

    Without --out the text goes to stdout and ends in a newline. --out
    PATH writes the text to PATH as it is, over an existing file in place
    and cut to the new length, and prints nothing; only simulate --out
    BASE writes both BASE.csv and BASE.json and still prints. A path that
    cannot be written is a ValidationError naming it.
    """

    def text(fmt: str) -> str:
        if fmt == "json":
            envelope = {
                "scenario_digest": digest(),
                "tool_version": __version__,
                "command": args.command,
                "timestamp": datetime.now(timezone.utc).isoformat(),
                "payload": result.payload,
            }
            return json.dumps(envelope, indent=2)
        if fmt == "table":
            return "\n".join(result.lines)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(result.header)
        writer.writerows(
            [repr(x) if isinstance(x, float) else x for x in row] for row in result.rows
        )
        return buf.getvalue()

    def save(path: str, body: str) -> None:
        # In place, then cut at the end of what was written: opening a
        # non-empty file with O_TRUNC frees its blocks first, which costs
        # more than the rest of a small command. Pipes and devices are
        # not cut, since ftruncate fails on them.
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                try:
                    f.write(body)
                    f.flush()
                finally:
                    # Also after a failed write, so no tail of the old
                    # file outlives the bytes that were written.
                    if stat.S_ISREG(os.fstat(fd).st_mode):
                        os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
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


def cmd_score(args: argparse.Namespace, sc: Scenario) -> _Result:
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
    rows = [[i + 1] + row for i, row in enumerate(payments)]
    width = max(8, len(f"E{sc.m}"))
    lines = ["player  " + "  ".join(f"{name:>{width}}" for name in names)]
    lines += [
        f"{i:>6}  " + "  ".join(f"{_fmt(x):>{width}}" for x in row) for i, *row in rows
    ]
    payload = {"outcomes": [j + 1 for j in outcomes], "payments": payments}
    return _Result(["player"] + names, rows, payload, lines)


def cmd_arbitrage(args: argparse.Namespace, sc: Scenario) -> _Result | int:
    if sc.coalition is None:
        raise InvalidCoalition("scenario has no coalition")
    if not sc.players:  # a market session's scenario may list none
        raise ValidationError("scenario has no players to arbitrage: its coalition "
                              "names places in the market session's ordering")
    players = list(sc.players)
    result = arbitrage_report(sc.rule, players, sc.coalition)
    if result.agreement:
        # Agreement by belief distance, as verify decides it, or else by
        # surplus scale, which compared the unit rule's surplus.
        if _beliefs_agree(sc):
            sys.stderr.write("coalition members agree; no coordinated report beats truth\n")
        else:
            sys.stderr.write(
                "coalition members agree on the surplus scale: the equalizing "
                "report's smallest per-outcome surplus "
                f"{_fmt(min(result.surplus_by_outcome) / sc.rule.b)} is not above "
                f"{_fmt(AGREEMENT_TOL)}\n"
            )
        return 3
    # arbitrage_report has refused the linear rule, the one rule a
    # scenario can name that has no closed form.
    closed = closed_form_surplus(sc.rule, players, sc.coalition)
    verdict = verify_dominance_oracle(sc.rule, players, sc.coalition, result.q)
    q = list(result.q.probs)
    surplus = list(result.surplus_by_outcome)
    margins = list(verdict.margins)
    witness = None if verdict.witness is None else verdict.witness + 1
    lines = ["equalizing report q: (" + ", ".join(_fmt(x) for x in q) + ")"]
    lines += [
        f"  E{j + 1}: surplus {_fmt(s)}  oracle margin {_fmt(margin)}"
        for j, (s, margin) in enumerate(zip(surplus, margins))
    ]
    lines += [
        f"closed-form surplus: {_fmt(closed)}",
        f"equalized across outcomes: {result.equalized}",
        f"oracle verdict: {verdict.verdict.value}",
    ]
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
    return _Result(
        ["outcome", "q", "surplus", "oracle_margin"],
        [[j + 1, *cells] for j, cells in enumerate(zip(q, surplus, margins))],
        payload, lines, 1 if verdict.verdict is Verdict.FAILS else 0,
    )


def _beliefs_agree(sc: Scenario) -> bool:
    """Whether the coalition's members agree by belief distance."""
    return members_agree(_member_arrays(sc.players, sc.coalition)[0])


def _coordinated(sc: Scenario) -> tuple[list | None, str | None]:
    """The reports the coalition's members coordinate on, or None, and the
    reason for none where there is one.

    Members without reports coordinate on the equalizing report, unless
    they agree, and then the reason names the test that found it, or
    unless arbitrage_report refuses them, and then it is the error's text.
    A market session's scenario may list no players, its coalition naming
    places in the ordering; then no one coordinates. Gains past the float
    range raise PaymentOverflow, as arbitrage does.
    """
    if not (sc.players and sc.coalition is not None and len(sc.coalition.members) >= 2):
        return None, None
    reports = [sc.players[i].report for i in sc.coalition.members]
    if all(r is not None for r in reports):
        return reports, None
    try:
        arb = arbitrage_report(sc.rule, list(sc.players), sc.coalition)
    except PaymentOverflow:
        raise
    except CoalitionForgeError as err:
        return None, str(err)
    if not arb.agreement:
        return [arb.q] * len(reports), None
    if _beliefs_agree(sc):
        return None, ("the coalition agrees by belief distance: members within "
                      f"{AGREEMENT_TOL!r} of each other")
    return None, ("the coalition agrees by surplus scale: smallest equalizing "
                  f"surplus at most {AGREEMENT_TOL!r}")


def _verify_checks(sc: Scenario, resolution: int) -> list[tuple[str, str, str]]:
    """verify's three checks, each as (check, status, detail)."""
    players = list(sc.players)
    beliefs = [p.belief for p in players] or [uniform_prior(sc.m)]
    reports = _properness_scan(sc.rule, beliefs, resolution)
    worst_margin = max(report.max_margin for report in reports)
    properness = (
        "pass" if all(report.passed for report in reports) else "fail",
        f"max margin {worst_margin!r} over {len(beliefs)} belief(s) at resolution {resolution}",
    )

    coordinated, reason = _coordinated(sc)
    dominance = ("skipped", reason or "no identical coordinated report available")
    if coordinated is not None and all(
        max(abs(a - b) for a, b in zip(coordinated[0].probs, r.probs)) <= AGREEMENT_TOL
        for r in coordinated
    ):
        verdict = verify_dominance_oracle(sc.rule, players, sc.coalition, coordinated[0])
        witness = "" if verdict.witness is None else f", witness E{verdict.witness + 1}"
        dominance = (
            "pass" if verdict.verdict is Verdict.DOMINATES else "fail",
            f"verdict {verdict.verdict.value}{witness}",
        )

    proper_subset = sc.coalition is not None and 2 <= len(sc.coalition.members) < len(players)
    scaling = ("skipped", reason if proper_subset and reason
               else "needs a coalition that is a proper subset of the players")
    if proper_subset and coordinated is not None:
        # The outsiders' share of the pool, from their own wagers: 1 - w_c / w_n
        # would round it away where the members hold nearly all of the pool.
        # Both sums are of the wagers w / 2**k, which keeps the share finite.
        scaled_wagers, k = _scaled_wagers([p.wager for p in players])
        wagers = scaled_wagers.tolist()
        members = sc.coalition.members
        w_out = math.fsum(w for i, w in enumerate(wagers) if i not in members)
        w_n = math.fsum(wagers)
        # Both gains on the unit rule, where the identity holds up to
        # rounding whatever the rule's offsets and scale.
        traditional_gain, competitive_gain = (
            _coalition_surplus(kind, sc.rule, players, sc.coalition, coordinated, range(sc.m)).tolist()
            for kind in (MechanismKind.TRADITIONAL, MechanismKind.COMPETITIVE)
        )
        # Each outcome's error is taken over the magnitudes of the terms the
        # gains are formed from, sum_i w_i * (|S_q,j| + |S_i,j|) at the wagers
        # w / 2**k, the gains being scaled down by 2**k with them: members
        # whose wagers dwarf the outsiders' leave rounding error of their
        # wagered scores in the competitive gain, however small the share.
        c = len(members)
        S = np.abs(_score_columns(sc.rule, [*coordinated, *(players[i].belief for i in members)], range(sc.m)))
        w_c = np.asarray([wagers[i] for i in members])[:, None]
        with np.errstate(over="ignore"):  # a magnitude past the float range bounds no error
            magnitudes = (w_c * (S[:c] + S[c:])).sum(axis=0).tolist()
        max_err = 0.0
        for direct, traditional, size in zip(competitive_gain, traditional_gain, magnitudes):
            err = abs(direct / 2.0**k - (w_out / w_n) * traditional / 2.0**k)
            max_err = max(max_err, err / size if size else err)
        scaling = ("pass" if max_err <= 1e-9 else "fail", f"max relative error {max_err!r}")
    return [
        ("properness", *properness),
        ("dominance", *dominance),
        ("surplus_scaling_identity", *scaling),
    ]


def cmd_verify(args: argparse.Namespace, sc: Scenario) -> _Result:
    checks = _verify_checks(sc, args.resolution)
    failed = any(status == "fail" for _, status, _ in checks)
    header = ["check", "status", "detail"]
    lines = [f"{check}: {status.upper()}  ({detail})" for check, status, detail in checks]
    lines.append("result: FAIL" if failed else "result: PASS")
    payload = {"checks": [dict(zip(header, c)) for c in checks], "passed": not failed}
    return _Result(header, checks, payload, lines, 1 if failed else 0)


def _by_outcome(label: str, values, payload: dict, notes: list[str]) -> _Result:
    """A result with one value per outcome: `outcome,label` rows, and
    `Ej: label value` lines followed by the notes."""
    return _Result(
        ["outcome", label], [[j + 1, v] for j, v in enumerate(values)], payload,
        [f"E{j + 1}: {label} {_fmt(v)}" for j, v in enumerate(values)] + notes,
    )


def cmd_simulate(args: argparse.Namespace, sc: Scenario, digest: Callable[[], str]) -> _Result:
    if sc.simulation is None:
        raise ValidationError("scenario has no simulation block")
    sim = sc.simulation
    seed = args.seed if args.seed is not None else sim.seed

    if sim.mode == "sweep":
        result = expected_surplus_sweep(
            sc.mechanism, sim.sampler, sim.n, sim.fractions, sim.trials, seed
        )
        lines = ["fraction      mean        se  trials  per-member"]
        lines += [
            f"{r.fraction:>8.3f}  {r.mean:>8.5f}  {r.se:>8.5f}"
            f"  {r.trials:>6}  {r.mean_per_member:>10.6f}"
            for r in result.rows
        ]
        summary = f"argmax fraction: {result.argmax_fraction}"
        if result.vertex is not None:
            summary += f"; fitted vertex: {result.vertex:.4f}"
        # The JSON mirrors SweepResult and its rows field for field.
        return _Result(
            ["fraction", "mean", "se", "trials"],
            [[r.fraction, r.mean, r.se, r.trials] for r in result.rows],
            {**dataclasses.asdict(result), "mechanism": result.mechanism.value},
            lines + [summary],
        )
    if sc.coalition is None:
        runs = "intermediary runs" if sim.mode == "intermediary" else "market sessions"
        raise InvalidCoalition(f"{runs} need a coalition")
    if sim.mode == "intermediary":
        run = intermediary_run(
            sc.mechanism, list(sc.players), sc.coalition, scenario_id=digest()[:12]
        )
        return _by_outcome(
            "profit", run.profit_by_outcome, dataclasses.asdict(run),
            [f"minimum profit: {_fmt(run.min_profit)}"]
            + ["clients agree: no arbitrage available"] * run.no_arbitrage,
        )
    # A market session's players are the ordering's; the coalition is
    # checked against them here, where both are known.
    top = max(sc.coalition.members) + 1
    if top > len(sim.ordering):
        raise ScenarioError(
            "simulation.ordering",
            f"orders {len(sim.ordering)} players; the coalition names player {top}",
        )
    result = market_session(sc.mechanism, sim.ordering, sc.coalition, sim.sampler, seed)
    payload = {
        "surplus_by_outcome": list(result.surplus_by_outcome),
        "ordering_ok": result.ordering_ok,
        "agreement": result.arbitrage.agreement,
        "q": list(result.arbitrage.q.probs),
    }
    return _by_outcome(
        "surplus", result.surplus_by_outcome, payload,
        [f"ordering satisfies alternation: {result.ordering_ok}"]
        + ["members agree: surplus is zero"] * result.arbitrage.agreement,
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, with one subparser per command; its
    `commands` attribute maps each command's name to its subparser."""
    parser = argparse.ArgumentParser(
        prog="coalition-forge",
        description="Strictly proper scoring rules and coalition arbitrage",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}

    def command(name: str, summary: str, func: Callable, out_help=None) -> argparse.ArgumentParser:
        p = parser.commands[name] = sub.add_parser(name, help=summary)
        p.add_argument("--scenario", required=True,
                       help="scenario file path or bundled scenario name")
        p.add_argument("--format", choices=["csv", "json", "table"],
                       default="table")
        p.add_argument("--out", default=None,
                       help=out_help or "write output to this path instead of stdout")
        p.set_defaults(func=func)
        return p

    command("score", "payment table for submitted reports", cmd_score).add_argument(
        "--outcome", type=int, default=None, help="1-based outcome state; default all")
    command("arbitrage", "equalizing report and surplus", cmd_arbitrage)
    command("verify", "properness, dominance, identity checks", cmd_verify).add_argument(
        "--resolution", type=int, default=50, help="grid resolution for the properness check")
    command("simulate", "sweeps, intermediary runs, sessions", cmd_simulate,
            out_help="write OUT.csv and OUT.json alongside stdout output").add_argument(
        "--seed", type=int, default=None, help="override the scenario seed")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first main() call, not at import, and reused: parsing
    # keeps no state in the parser, and building one costs more than the
    # rest of a small command.
    return build_parser()


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """What _parser().parse_args(argv) gives, parsing argv once where it
    can: an argv led by a command's name goes straight to that command's
    parser, which is what the top-level parser hands the rest to. Every
    other argv, and one that leaves arguments over, goes to the top-level
    parser, whose usage line and error text those cases print."""
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: load its scenario, write its result and return
    its exit code; invalid input prints an error and returns 2.

    Each of the library's warnings (a CoalitionForgeWarning) prints on
    stderr as one `warning: <message>` line, on every call, without the
    file and source line of Python's format; other warnings are handled
    as before.
    """
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    with warnings.catch_warnings():
        shown = warnings.showwarning

        def show(message, category, *where):
            if issubclass(category, CoalitionForgeWarning):
                sys.stderr.write(f"warning: {message}\n")
            else:
                shown(message, category, *where)

        warnings.showwarning = show
        warnings.simplefilter("always", CoalitionForgeWarning)
        try:
            sc, raw = load_scenario(_resolve_scenario(args.scenario))
            # Hashed on first use, once for this call: an intermediary run is
            # named by the digest its JSON envelope also carries.
            digest = functools.cache(lambda: scenario_digest(raw))
            result = (cmd_simulate(args, sc, digest) if args.func is cmd_simulate
                      else args.func(args, sc))
            if isinstance(result, int):  # arbitrage's agreement: nothing to write
                return result
            _write(args, digest, result)
            return result.code
        except CoalitionForgeError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2


if __name__ == "__main__":
    sys.exit(main())
