"""Machine-speed normalization.

The host this benchmark was built on shares its CPUs: the same code runs up
to twice as slowly for stretches of several seconds, and all Python work
slows alike.  The benchmark therefore times a fixed reference right before
and after each unit of work and scales that work's wall-clock time by
(reference time at full speed) / (reference time around it).  In-process
work is scaled by a small kernel; set-up, which is a fresh interpreter
importing modules, by a fresh interpreter importing standard-library
modules.  A reported millisecond is a millisecond on the reference host at
full speed; the raw wall-clock figures are printed alongside.

Neither reference imports courtside, so no change to the program can move
them.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

# Reference times on the reference host (2-core x86-64 sandbox, Python
# 3.11) while it ran at full speed.
REFERENCE_KERNEL_S = 0.000170
REFERENCE_PROCESS_S = 0.080

_REFERENCE_PROCESS = (
    "import time, argparse, dataclasses, decimal, email.parser, http.client, "
    "json, unittest, xml.dom.minidom; "
    "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))")

_DATA = [
    {"clip_id": f"m{i:03d}_{i}.50_{i + 3}.25",
     "score": [i % 3, i % 7, ("0", "15", "30", "40")[i % 4]],
     "shots": [{"stroke": ("serve", "forehand", "backhand")[j % 3],
                "t": round(j * 0.7, 2), "outcome": "in"} for j in range(6)]}
    for i in range(12)
]
_REPEATS = 5


def _kernel() -> int:
    obj = json.loads(json.dumps(_DATA))
    lines = sorted(f"{d['clip_id']} {len(d['shots'])} {d['score'][2]}"
                   for d in obj for _ in d["shots"])
    return len({line: n for n, line in enumerate(lines)})


def kernel_s() -> float:
    """Median time of one kernel call, over a few calls."""
    samples = []
    for _ in range(_REPEATS):
        started = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def factor(before_s: float, after_s: float) -> float:
    """Scale for wall-clock time measured between two kernel timings."""
    return 2.0 * REFERENCE_KERNEL_S / (before_s + after_s)


def child_span_s(argv: list[str], cwd) -> float:
    """Seconds from starting ``argv`` to the CLOCK_MONOTONIC nanoseconds it
    prints last."""
    started = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=120, check=True)
    return (int(done.stdout.split()[-1]) - started) / 1e9


def process_s(cwd) -> float:
    """Time of the reference process: start an interpreter, import modules."""
    return child_span_s([sys.executable, "-c", _REFERENCE_PROCESS], cwd)


def process_factor(before_s: float, after_s: float) -> float:
    """Scale for a process span measured between two reference processes."""
    return 2.0 * REFERENCE_PROCESS_S / (before_s + after_s)
