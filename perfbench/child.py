"""One measured pipeline run in a fresh interpreter.

    python3 perfbench/child.py CONFIG [--spans FILE]

Times ``import textkg`` plus ``load_config`` (set-up), then runs
``run_pipeline`` and records its wall time, the process's CPU time over the
call and its peak RSS. A fixed pure-Python loop is timed just before and just
after the call, in this process, to gauge the host's speed during the run.
With ``--spans`` the run is traced and the spans are written to FILE. Prints
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def calibrate() -> float:
    started = time.perf_counter()
    total = 0
    for value in range(600_000):
        total += value * value % 7
    return time.perf_counter() - started


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("--spans")
    args = parser.parse_args()

    started = time.perf_counter()
    import textkg

    textkg.load_config(args.config)
    setup = time.perf_counter() - started

    import textkg.pipeline

    tracer = None
    if args.spans:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    calibrations = [calibrate()]
    before = resource.getrusage(resource.RUSAGE_SELF)
    started = time.perf_counter()
    manifest = textkg.pipeline.run_pipeline(args.config)
    wall = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_SELF)
    calibrations.append(calibrate())
    if tracer is not None:
        tracer.dump(args.spans)
    result = {
        "setup_s": setup,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "maxrss_kb": after.ru_maxrss,
        "calibration_s": calibrations,
        "manifest": manifest,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
