"""Entry point of the benchmark's workload process.

``run.py`` starts it with a hermetic environment (no ambient ``REPRO_*``
knob, ``src`` on the path, the run's own cache directory) and reads back
one JSON document from ``--out``; it is not meant to be run by hand.  The
library is imported first thing, so the ``ready_monotonic`` it reports
marks the end of process start plus imports (generate-cold's set-up).
"""

import argparse
import json
import sys
import time
from pathlib import Path

import work  # the library and everything the workloads use

READY = time.monotonic()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("command", choices=("ready", "populate", "generate-cold", "search-warm"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--inputs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    out = {"ready_monotonic": READY}
    work.main(args, out)
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
