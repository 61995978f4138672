"""What every workload shares: the protocol and the reference check."""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.engine import run_reference


def reference_rows(query, schemas: dict, tables: dict):
    """``run_reference`` output in the shape an ExecutionReport carries.

    Select queries stay a dict of column arrays. Scalar aggregates become
    one row; grouped aggregates one finalized row per sorted group, as the
    executors return them.
    """
    expected = run_reference(query, schemas, tables)
    if query.select:
        return expected
    if query.group_by is None:
        return [expected]
    names = query.group_by_columns
    rows = []
    for group in sorted(expected):
        key = group if isinstance(group, tuple) else (group,)
        values = expected[group]
        if query.finalize is not None:
            values = query.finalize(values)
        rows.append({**dict(zip(names, key)), **values})
    return rows


def matches_reference(rows, expected) -> bool:
    """True when report rows equal :func:`reference_rows` output exactly."""
    if isinstance(expected, dict):
        if not isinstance(rows, np.ndarray):
            return False
        if set(rows.dtype.names or ()) != set(expected):
            return False
        return all(rows[name].dtype == values.dtype
                   and np.array_equal(rows[name], values)
                   for name, values in expected.items())
    return list(rows) == expected


def q6_variant(rng: np.random.Generator) -> tuple[int, float, int]:
    """Seeded ``(year, discount, quantity)`` arguments of ``q6_query``."""
    return (int(rng.integers(1993, 1998)),
            float(rng.integers(2, 10)) / 100.0, int(rng.integers(24, 26)))


def paper_error_pct(pairs) -> float:
    """Max relative error, in percent, of (measured, paper) ratio pairs."""
    return max(abs(measured - paper) / paper for measured, paper in pairs) \
        * 100.0


class Workload:
    """One seeded workload at one size.

    ``build`` is the cold world build that ``setup_s`` times. ``fresh``
    returns a world for one pass, reusing whatever ``build`` encoded.
    ``run_pass`` runs the fixed op list against it and reports to the tally.
    ``verify`` checks a finished pass against the reference and returns
    ``(attempted, failed)``.
    """

    name = ""

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.size = size

    def rng(self) -> np.random.Generator:
        """The workload's input stream: a function of the seed alone."""
        return np.random.default_rng(self.seed)

    def specific(self, tally) -> dict:
        """The end-to-end metrics only some workloads define (0 elsewhere)."""
        return {"virt_rate_ok_qps": 0.0, "write_amp": 0.0,
                "paper_err_pct": 0.0}

    def detail(self, tally) -> dict:
        """Extra facts printed beside the metrics (not metrics)."""
        return {}

    def host_samples(self, tally) -> dict:
        """Medians, in ms, of the host-time samples an untraced pass took."""
        return {name: statistics.median(values) * 1e3
                for name, values in tally.samples.items()}

    def runtime_pass(self, serial_tally) -> dict:
        """The extra process-backend pass (``serve_replay`` only)."""
        return {}


def timed(fn):
    """``(result, wall seconds)`` of one front-door call."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start

