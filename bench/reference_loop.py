"""Time a fixed workload every PERIOD_S seconds until stdin is closed.

Prints ``ready`` after the first timing, and at the end one JSON list of
``[monotonic midpoint, CPU seconds]`` pairs.  The workload is pure-Python
integer arithmetic plus big-int masking, the two kinds of work the propb
engines do.  It imports nothing from propb.  CPU time, not wall time, is
recorded, so time the process waits for a core shared with the benchmark
does not count.
"""

import json
import select
import sys
import time

PERIOD_S = 0.25


def once() -> float:
    start = time.process_time()
    total = 0
    for i in range(100_000):
        total += i * i
    x = (1 << 65536) - 1
    for _ in range(1000):
        x = (x & (x >> 1)) | 1
    return time.process_time() - start


def main() -> None:
    samples = []
    while True:
        began = time.monotonic()
        cpu = once()
        samples.append([(began + time.monotonic()) / 2, cpu])
        if len(samples) == 1:
            print("ready", flush=True)
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    main()
