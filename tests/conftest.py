"""Shared test helpers: seeded random instance builders and the
acceptance-summary hook."""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

import numpy as np

import coalition_forge
from coalition_forge import Coalition, ConvexGenerator, Forecast, Player

# Populated by tests/test_acceptance.py; printed after the run so each
# acceptance criterion shows one pass/fail line.
ACCEPTANCE_RESULTS: list[tuple[int, str, bool]] = []

# Tokens that make no line a code line.
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """Lines of a Python file with a token outside comments and
    docstrings, a multi-line token counting every line it spans."""
    source = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, passed in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"CRITERION {number} ({label}): {status}")
    # The package's own modules, not the scenarios subpackage.
    package = Path(coalition_forge.__file__).parent
    total = sum(code_lines(path) for path in package.glob("*.py"))
    terminalreporter.write_line(f"src code lines: {total}")
    terminalreporter.write_line(f"public names: {len(coalition_forge.__all__)}")
    # The lattice scans use no matrix product, so no bit-for-bit test
    # depends on the BLAS kernels; the summary names the BLAS as a record
    # of the build the tests ran on ("unknown" on numpy before 1.26, which
    # has no dict mode).
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    terminalreporter.write_line(f"numpy {np.__version__}, BLAS {blas}")


def binary_quadratic_generator() -> ConvexGenerator:
    """Generator 2r^2 - 2r + 1; induces exactly the binary quadratic score."""
    return ConvexGenerator(
        g=lambda r: 2.0 * r * r - 2.0 * r + 1.0,
        g_prime=lambda r: 4.0 * r - 2.0,
        domain=(0.0, 1.0),
    )


def random_forecast(rng: np.random.Generator, m: int) -> Forecast:
    return Forecast(tuple(float(x) for x in rng.dirichlet(np.ones(m))))


def random_players(
    rng: np.random.Generator,
    count: int,
    m: int,
    equal_wagers: bool = False,
) -> list[Player]:
    players = []
    for _ in range(count):
        wager = 1.0 if equal_wagers else float(rng.uniform(0.5, 2.0))
        players.append(Player(random_forecast(rng, m), wager))
    return players


def disagreeing_players(
    rng: np.random.Generator, count: int, m: int, equal_wagers: bool = False
) -> list[Player]:
    # Dirichlet draws agree with probability zero, but guard anyway so a
    # pathological draw cannot make a dominance test vacuous.
    while True:
        players = random_players(rng, count, m, equal_wagers)
        beliefs = np.asarray([p.belief.probs for p in players])
        if float((beliefs.max(axis=0) - beliefs.min(axis=0)).max()) > 1e-3:
            return players


def weighted_mean(forecasts: list[Forecast], weights: list[float]) -> Forecast:
    """The weights' convex combination of the forecasts, float dust
    clipped to 0, for tests that need a mean report under any rule."""
    p = np.asarray([f.probs for f in forecasts], dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    mean = np.clip((w[:, None] * p).sum(axis=0) / w.sum(), 0.0, None)
    return Forecast(tuple(float(x) for x in mean))


def full_coalition(players: list[Player]) -> Coalition:
    return Coalition(tuple(range(len(players))))
