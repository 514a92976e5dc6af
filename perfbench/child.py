"""One benchmark run in a fresh process: prints its record as JSON.

``run.py`` starts this file once per run, passing the ``CLOCK_MONOTONIC``
instant at which it spawned the process, so ``setup_s`` covers the
interpreter start, the imports, ``build``, the load generator and
``open_all_sessions`` — everything before the first simulated event::

    python3 perfbench/child.py --workload write-log --seed 1 \\
        --spawned-at 12345.6 [--trace] [--requests N]

``--warm`` only imports the program (compiling its bytecode) and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--warm", action="store_true")
    args = parser.parse_args()
    spawned_at = (args.spawned_at if args.spawned_at is not None
                  else time.monotonic())

    import workloads

    imported_at = time.monotonic()
    if args.warm:
        return 0
    record = workloads.run_workload(args.workload, args.seed,
                                    requests=args.requests,
                                    trace=args.trace)
    record.update(
        setup_s=record.pop("ready_at") - spawned_at,
        import_s=imported_at - spawned_at,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
