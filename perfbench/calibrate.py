"""A fixed piece of CPU work that tells how fast the machine runs right now.

The reference machine's speed drifts by tens of percent in phases of seconds
to minutes, and CPU-bound times drift with it. ``run.py`` times
``reference_work`` between the steps of every round and rescales the CPU time
of each set-up and pipeline run by ``REFERENCE_S`` over the run's median
sample, which gives CPU seconds at one fixed speed. The work mixes what the
pipeline's hot paths do (CSV text, ``datetime`` parsing, dict grouping,
small numpy reductions, JSON) so that it slows down with them. It must not
change, or figures measured before and after the change stop being
comparable.
"""

from __future__ import annotations

import csv
import io
import json
import time
from datetime import datetime, timedelta, timezone

import numpy as np

REFERENCE_S = 0.2  # seconds one reference_work takes at the reference speed
ROWS = 16_000


def reference_work() -> int:
    start = datetime(2025, 6, 2, tzinfo=timezone.utc)
    buf = io.StringIO()
    writer = csv.writer(buf)
    for i in range(ROWS):
        ts = start + timedelta(seconds=300 * i)
        writer.writerow([f"net-{i % 7}", ts.isoformat(), f"{(i * 7919) % 1000 / 3.0:.3f}"])
    buf.seek(0)
    slots = {}
    for name, ts, value in csv.reader(buf):
        t = datetime.fromisoformat(ts)
        key = (name, t.weekday(), (t.hour * 60 + t.minute) // 5)
        slots.setdefault(key, []).append(float(value))
    stats = {f"{n},{w},{b}": [float(np.mean(v)), float(np.std(v))]
             for (n, w, b), v in slots.items()}
    return len(json.dumps(stats, sort_keys=True))


def sample() -> float:
    """Seconds one ``reference_work`` takes now."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start
