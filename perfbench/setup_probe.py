"""Set-up of a fresh interpreter: import courtside, build the config and the
client, read the first record.  Prints CLOCK_MONOTONIC in nanoseconds at
that point, so the parent can time the whole span from before it started
this process.

usage: python3 setup_probe.py <src dir> <config.json> <dataset.jsonl>
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

import courtside  # noqa: E402,F401
from courtside.pipeline import PipelineConfig, load_dataset, make_client  # noqa: E402

config = PipelineConfig.from_file(sys.argv[2])
client = make_client(config)
next(load_dataset(sys.argv[3], config.scoring, errors=[]))
print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
