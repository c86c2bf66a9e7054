"""Rally-stream benchmark for courtside.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a courtside checkout; the program is imported from its
``src/``.  Generates the workload's matches from the seed, measures them for
about S seconds, checks the outputs and prints, as the last line of stdout,
one JSON object: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of a separately traced phase.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import speed

SETUP_PROBES = 9
WORK_DIR = ".perfbench_work"


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: a value that was measured."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def measure_setup(root: Path, config_path: Path, dataset: Path) -> list[float]:
    """Seconds from starting a fresh interpreter to its first record read,
    scaled to reference speed by a reference process run around each probe."""
    probe = [sys.executable, str(Path(__file__).resolve().parent / "setup_probe.py"),
             str(root / "src"), str(config_path), str(dataset)]
    samples = []
    before = speed.process_s(root)
    for _ in range(SETUP_PROBES):
        raw_s = speed.child_span_s(probe, root)
        after = speed.process_s(root)
        samples.append(raw_s * speed.process_factor(before, after))
        before = after
    return samples


def end_to_end(phase, setup_s: float, peak_rss_mb: float) -> dict:
    metrics = {
        "setup_s": (setup_s, "s"),
        "rallies_per_s": (phase.rallies_per_s, "1/s"),
        "rally_ms.p50": (statistics.median(phase.latencies_ms), "ms"),
        "rally_ms.p99": (_percentile(phase.tail_latencies_ms, 99), "ms"),
        "report_ms.p50": (statistics.median(phase.report_ms), "ms"),
        "completed_share": (1.0 - phase.failed / phase.attempted, "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "courtside" / "__init__.py").is_file():
        print(f"perfbench: no courtside sources under {src}; run from the root "
              f"of a courtside checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, str(src))
    import tracing
    from workloads import (WORKLOADS, best_of_5_probe, check, digest, generate,
                           run_phase)

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")

    workdir = root / WORK_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        started = time.perf_counter()
        matches = generate(workload, args.seed, workdir)
        generation_s = time.perf_counter() - started
        print(json.dumps({"environment": {
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "workload": workload.name, "why": workload.why, "seed": args.seed,
            "matches": len(matches),
            "rallies": sum(m.records for m in matches),
            "best_of": sorted({m.best_of for m in matches}),
            "input_generation_s": generation_s,
            "seconds": args.seconds, "trace": args.trace,
        }}), flush=True)

        setup = [] if args.trace else measure_setup(
            root, matches[0].config_path, matches[0].path)
        # A traced run splits its time between an untraced phase, the base of
        # the tracing overhead, and the traced phase.
        seconds = args.seconds / 2 if args.trace else args.seconds
        phase = run_phase(workload, matches, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        measured = phase
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                measured = run_phase(workload, matches, seconds, tracer)
            finally:
                tracer.uninstall()
            metrics = tracing.layer_metrics(tracer, measured, phase.rallies_per_s)
        else:
            metrics = end_to_end(phase, statistics.median(setup), peak_rss_mb)

        problems = check(workload, matches, phase, workdir)
        probe = best_of_5_probe(args.seed, workdir / "probe")
        for problem in problems:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
        print(json.dumps({"summary": {
            "digest": digest(phase),
            "passes": measured.passes,
            "measured_s": measured.window_s,
            "raw_measured_s": measured.raw_window_s,
            "speed_factor_p50": statistics.median(measured.speed_factors),
            "rally_samples": len(measured.latencies_ms),
            "p99_samples": len(measured.tail_latencies_ms),
            "report_samples": len(measured.report_ms),
            "setup_samples_s": setup,
            "failed_share": measured.failed / measured.attempted,
            "matches_run": measured.matches_run,
            "matches_lost": measured.matches_lost,
            "lost_because": sorted({r.output.decode().strip()
                                    for r in phase.first_pass if not r.completed}),
            "checks_failed": len(problems),
            "best_of_5_probe": probe,
        }}))
        print(json.dumps({"correct": not problems, "attempted": measured.attempted,
                          "failed": measured.failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
