"""coalition-forge benchmark.

    python3 bench/run.py --workload {sweep,coalitions,grid,cli} --seed N --seconds S --trace {0,1}

Run from the repository root. The package is imported from ./src. The
workload's inputs are generated from --seed; whole rounds of the same
operations run until --seconds have passed, and every output is checked
against bench/reference.py (see bench/README.md). The last line of
stdout is one JSON object: correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: setup_s (fastest of twelve fresh
interpreters importing the package and preparing the inputs), ops_per_s,
op_p50_ms and peak_rss_mb. --trace 1 runs half the time untraced and half
with bench/tracer.py installed, writes the spans and the per-layer
metrics under .bench_out/, and reports the per-layer metrics named in
BENCHMARK.json, per traced round.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 12
IMPORT_SAMPLES = 3
# Traced rounds stop once this many spans are held in memory (about 200 B each).
SPAN_BUDGET = 300_000
READY = "bench-ready"
IMPORT_PROBE = "import sys; sys.path.insert(0, 'src'); import coalition_forge, coalition_forge.cli"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="coalition-forge benchmark")
    p.add_argument("--workload", required=True, choices=("sweep", "coalitions", "grid", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import coalition_forge from ./src and nowhere else."""
    if not (SRC / "coalition_forge" / "__init__.py").is_file():
        sys.exit(f"bench: no coalition_forge package under {SRC}")
    sys.path.insert(0, str(SRC))
    import coalition_forge
    import coalition_forge.cli  # noqa: F401

    if Path(coalition_forge.__file__).resolve().parent != (SRC / "coalition_forge").resolve():
        sys.exit(f"bench: imported coalition_forge from {coalition_forge.__file__}, not {SRC}")


def setup_only(args) -> None:
    """Child of measure_setup: import, prepare the inputs, report ready."""
    import_program()
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=f"setup-{args.workload}-", dir=OUT))
    try:
        workloads.WORKLOADS[args.workload](args.seed, workdir)
        print(READY, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of each per-layer metric listed in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def measure_setup(args, samples: list[float], count: int = 1) -> None:
    """Append `count` timings, each in seconds from starting a fresh
    interpreter until the workload's inputs are ready."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().strip()
            t1 = time.perf_counter()
            child.stdout.read()
            code = child.wait()
        if line != READY or code != 0:
            sys.exit(f"bench: set-up child exited {code} without getting ready")
        samples.append(t1 - t0)


def measure_imports() -> dict[str, float]:
    """Cumulative import seconds of numpy and of the package without numpy,
    from `python -X importtime` in fresh interpreters (median)."""
    numpy_s, package_s = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE], cwd=ROOT,
                              capture_output=True, text=True, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cum, name = line.split("|")
            name = name.strip()
            if name in ("numpy", "coalition_forge", "coalition_forge.cli") and cum.strip().isdigit():
                cumulative.setdefault(name, int(cum) * 1e-6)
        numpy_s.append(cumulative["numpy"])
        package_s.append(cumulative["coalition_forge"] + cumulative.get("coalition_forge.cli", 0.0) - cumulative["numpy"])
    return {"import.numpy.s": statistics.median(numpy_s), "import.coalition_forge.s": statistics.median(package_s)}


def run_rounds(workload, stats, seconds: float, min_rounds: int, room=lambda: True, between=None) -> None:
    """Whole rounds for `seconds`, not counting the time `between` (called
    after each round) takes."""
    deadline = time.perf_counter() + seconds
    while stats.rounds < min_rounds or (time.perf_counter() < deadline and room()):
        workload.run_round(stats)
        stats.rounds += 1
        if between is not None:
            t0 = time.perf_counter()
            between()
            deadline += time.perf_counter() - t0


def end_to_end(args, workloads, workload) -> tuple[dict, object]:
    # Set-ups are spread over the run, between rounds. A set-up is one cold
    # start, which the host's load slows for seconds at a time; the fastest
    # of them is the figure that stays put, as each call's best time over
    # the rounds is for ops_per_s and op_p50_ms.
    setups: list[float] = []
    measure_setup(args, setups)
    gap = args.seconds / (SETUP_SAMPLES - 1)
    due = time.perf_counter() + gap

    def between():
        nonlocal due
        if len(setups) < SETUP_SAMPLES - 1 and time.perf_counter() >= due:
            measure_setup(args, setups)
            due += gap

    stats = workloads.Stats()
    run_rounds(workload, stats, args.seconds, 2, between=between)
    measure_setup(args, setups, SETUP_SAMPLES - len(setups))
    metrics = {
        "setup_s": (min(setups), "s"),
        "ops_per_s": (stats.ops_per_s(), "ops/s"),
        "op_p50_ms": (stats.p50_ms(), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"bench: {args.workload}: {stats.summary()}, setup_s samples {' '.join(f'{t:.3f}' for t in sorted(setups))}")
    return metrics, stats


def per_layer(args, workloads, workload) -> tuple[dict, object]:
    import tracer as tracing

    plain = workloads.Stats()
    run_rounds(workload, plain, args.seconds / 2, 1)
    tracer = tracing.Tracer()
    traced = workloads.Stats()
    tracer.install()
    try:
        run_rounds(workload, traced, args.seconds / 2, 1, lambda: len(tracer.spans) < SPAN_BUDGET)
    finally:
        tracer.uninstall()
    rounds = traced.rounds
    layers = tracer.layers()
    checked, skipped = tracer.counts["rules.properness.checked"], tracer.counts["rules.properness.skipped"]
    # Metrics that are not a span's calls or self time.
    special = {
        "rules.score_table.rows": tracer.counts["rules.score_table.rows"] / rounds,
        "simplex.grid_array.points": tracer.counts["simplex.grid_array.points"] / rounds,
        "rules.properness.skipped_ratio": skipped / (checked + skipped) if checked + skipped else 0.0,
        # CPU over wall inside sweep calls, from the untraced half.
        "simulate.cpu_per_wall": plain.sweep_cpu / plain.sweep_wall if plain.sweep_wall else 0.0,
        "trace.overhead": sum(traced.best().values()) / sum(plain.best().values()),
        **measure_imports(),
    }
    metrics = {}
    for name, unit in per_layer_names():
        if name in special:
            value = special[name]
        else:
            # <module>.<function>.<stat>: calls, or self time as s or self_s.
            span, stat = name.rsplit(".", 1)
            value = layers.get(span, {}).get("s" if stat == "self_s" else stat, 0) / rounds
        metrics[name] = (value, unit)
    print(f"bench: {args.workload}: untraced rounds {plain.rounds}, traced rounds {rounds}, spans {len(tracer.spans)}, "
          f"peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f}")
    stem = OUT / f"trace-{args.workload}-seed{args.seed}"
    tracer.write(stem.with_suffix(".spans.tsv.gz"))
    stem.with_suffix(".layers.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "traced_rounds": rounds,
                    "spans": layers, "counts": dict(tracer.counts),
                    "metrics": {k: v for k, (v, _) in metrics.items()}}, indent=1, sort_keys=True),
        encoding="utf-8")
    both = workloads.Stats()
    both.attempted, both.failed = plain.attempted + traced.attempted, plain.failed + traced.failed
    return metrics, both


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        setup_only(args)
        return 0
    import_program()
    OUT.mkdir(exist_ok=True)
    import checks
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    correct = True
    try:
        try:
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            workload.warmup()
            measure = per_layer if args.trace else end_to_end
            metrics, stats = measure(args, workloads, workload)
        except checks.CheckFailed as exc:
            print(f"bench: {args.workload}: check failed: {exc}", file=sys.stderr)
            correct, metrics, stats = False, {}, workloads.Stats()
        except Exception:
            # A program fault outside the timed calls (set-up or warm-up);
            # inside them a raise is a failed operation.
            traceback.print_exc()
            correct, metrics, stats = False, {}, workloads.Stats()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": max(stats.attempted, 1),
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
