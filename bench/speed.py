"""Op times scaled to a fixed machine speed.

The 2-core VM the baseline was recorded on changes speed by up to 20% within
seconds, on both cores at once: a fixed loop timed in 1-second windows ran
10.4 to 16.5 times per second, and its CPU time moved with its wall time.
Raw op times of the ``paper`` workload spread by 13-16% (IQR over median,
ten 15-second runs); scaled as below, by 2-3%.

So while the benchmark runs, a child interpreter (``reference_loop.py``)
times a fixed workload every 0.25 s, and each op's time is multiplied by
REFERENCE_S over the mean reference time around the op.  The child imports
nothing from propb, so no change to the package can change the reference;
it records CPU time, so sharing a core with the benchmark does not slow it.
"""

from __future__ import annotations

import bisect
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

LOOP = Path(__file__).resolve().parent / "reference_loop.py"
# Reference CPU time on that VM (Python 3.11.7): a scaled second is a second
# at that speed.
REFERENCE_S = 0.010
# Reference timings this far before an op's start or after its end count
# toward its speed.
WINDOW_S = 0.5


class Speed:
    """The reference child: started on enter, stopped and waited for on exit."""

    def __enter__(self) -> "Speed":
        self._proc = subprocess.Popen(
            [sys.executable, str(LOOP)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        if self._proc.stdout.readline().strip() != "ready":
            raise RuntimeError("reference loop did not start")
        return self

    def __exit__(self, *exc: object) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()

    def samples(self) -> list[tuple[float, float]]:
        """Stop the child and return its (midpoint, CPU seconds) timings."""
        self._proc.stdin.close()
        out = self._proc.stdout.read()
        self._proc.wait(timeout=30)
        return [tuple(s) for s in json.loads(out)]


def scale(ops: list[Any], reference: list[tuple[float, float]]) -> None:
    """Set each op's ``scaled`` from its ``start`` (monotonic), ``seconds`` and the reference."""
    mids = [mid for mid, _ in reference]
    for op in ops:
        lo = bisect.bisect_left(mids, op.start - WINDOW_S)
        hi = bisect.bisect_right(mids, op.start + op.seconds + WINDOW_S)
        if hi - lo < 2:
            at = bisect.bisect_left(mids, op.start)
            lo, hi = max(at - 1, 0), at + 1
        cpu = statistics.fmean(c for _, c in reference[lo:hi])
        op.scaled = op.seconds * REFERENCE_S / cpu
