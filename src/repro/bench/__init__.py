"""Benchmark harnesses for the paper's evaluation.

* :mod:`repro.bench.workloads` — the evaluation workloads (the 10000
  64-byte-object list of Figure 5, plus graph shapes for ablations);
* :mod:`repro.bench.deepcall` — big-stack thread runner (the recursive
  tests go 10000+ frames deep);
* :mod:`repro.bench.figure5` — tests A1/A2/B1/B2 across swap-cluster
  sizes 20/50/100 and the NO-SWAP lower bound;
* :mod:`repro.bench.report` — paper-vs-measured tables and shape checks;
* :mod:`repro.bench.sweep` — parameter sweeps and :func:`format_records`,
  the one table printer for lists of records;
* :mod:`repro.bench.runner` — :func:`run_cases`, the one runner of the
  feature harnesses (``hotpath``, ``delta``, ``async_sched``,
  ``durability``, ``topology``, ``scenarios``): each names its cases,
  the runner builds a fresh world per case, optionally observes it, and
  returns each case's metrics as a plain dict.

Run the full Figure 5 reproduction with::

    python -m repro.bench.figure5
"""

from repro.bench.workloads import BenchNode, build_list, build_managed_list
from repro.bench.deepcall import run_deep
from repro.bench.figure5 import (
    Figure5Config,
    Figure5Result,
    run_figure5,
    run_single,
    TESTS,
    CLUSTER_SIZES,
)
from repro.bench.report import PAPER_FIGURE5, format_figure5_table, check_shape
from repro.bench.model import (
    TraversalModel,
    fit_traversal_model,
    holdout_error,
)
from repro.bench.sweep import Sweep, format_records
from repro.bench.runner import Case, World, run_cases, ratio

__all__ = [
    "BenchNode",
    "build_list",
    "build_managed_list",
    "run_deep",
    "Figure5Config",
    "Figure5Result",
    "run_figure5",
    "run_single",
    "TESTS",
    "CLUSTER_SIZES",
    "PAPER_FIGURE5",
    "format_figure5_table",
    "check_shape",
    "TraversalModel",
    "fit_traversal_model",
    "holdout_error",
    "Sweep",
    "format_records",
    "Case",
    "World",
    "run_cases",
    "ratio",
]
