"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's tables/figures (or one of its
quantitative claims) and *prints the same rows the paper reports* before
asserting the reproduced shape.  Run with::

    pytest benchmarks/ --benchmark-only -s

(-s shows the regenerated tables; EXPERIMENTS.md archives one run.)

Benchmarks that keep a ``BENCH_*.json`` artifact write it through
:func:`record_artifact`, and only when ``REPRO_BENCH_RECORD=1`` is set, so a
plain test run leaves the tracked files untouched.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

import pytest


def emit(title: str, body: str) -> None:
    """Print a regenerated artifact with a recognizable banner."""
    bar = "=" * max(8, len(title))
    print(f"\n{bar}\n{title}\n{bar}\n{body}")


def record_artifact(path: Path, section: Optional[str], payload) -> None:
    """Merge ``payload`` into the JSON artifact at ``path`` under ``section``.

    ``section=None`` replaces the whole file with ``payload``.  Nothing is
    written unless ``REPRO_BENCH_RECORD=1``.
    """
    if os.environ.get("REPRO_BENCH_RECORD") != "1":
        return
    record = {}
    if section is not None and path.exists():
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            record = {}
    if section is None:
        record = payload
    else:
        record[section] = payload
    path.write_text(json.dumps(record, indent=2, sort_keys=True))
