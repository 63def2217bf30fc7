"""Analytical cost model for traversal under object-swapping.

The related work includes a purely analytical treatment of a memory
mechanism (Chihaia & Gross's model of software memory compression,
WMPI'04).  This module gives Object-Swapping the same treatment for the
Figure 5 workload: a traversal of ``n`` objects in swap-clusters of
size ``s`` costs

    T(n, s) = n * t_step  +  (n / s) * t_boundary  +  n * p_extra(s) * t_proxy

* ``t_step``     — one unmediated step (raw method call);
* ``t_boundary`` — one boundary crossing (proxy invocation, bookkeeping);
* ``t_proxy``    — creating one garbage proxy (A2's inner recursions;
  ``p_extra`` is the workload's probability that a step mints one —
  ``min(1, d/s)`` for inner recursions of depth ``d``, 0 for A1).

Fitting the two (or three) coefficients to measured cells with linear
least squares both *explains* the curve shapes of Figure 5 and
*predicts* cells that were not measured — the model is validated in the
benchmarks by holding out the sc=50 column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy


@dataclass(frozen=True)
class TraversalModel:
    """Fitted per-operation costs, in milliseconds."""

    objects: int
    t_step_ms: float
    t_boundary_ms: float
    t_proxy_ms: float
    inner_depth: int
    r_squared: float

    def predict_ms(self, cluster_size: Optional[int]) -> float:
        """Predicted traversal time for one configuration.

        ``None`` means NO-SWAP: no boundaries, no garbage proxies.
        """
        total = self.objects * self.t_step_ms
        if cluster_size is not None:
            total += (self.objects / cluster_size) * self.t_boundary_ms
            total += (
                self.objects
                * _extra_proxy_probability(cluster_size, self.inner_depth)
                * self.t_proxy_ms
            )
        return total

    def describe(self) -> str:
        return (
            f"T(s) = {self.objects}*{self.t_step_ms * 1000:.2f}us"
            f" + ({self.objects}/s)*{self.t_boundary_ms * 1000:.2f}us"
            + (
                f" + {self.objects}*min(1,{self.inner_depth}/s)"
                f"*{self.t_proxy_ms * 1000:.2f}us"
                if self.inner_depth
                else ""
            )
            + f"   (R^2 = {self.r_squared:.3f})"
        )


def _extra_proxy_probability(cluster_size: int, inner_depth: int) -> float:
    """Probability a step's inner recursion crosses a boundary.

    With inner recursions of depth ``d`` over clusters of size ``s``,
    the steps whose probe lands past the boundary are the last
    ``min(d, s)`` of each cluster: probability ``min(1, d/s)`` — the
    paper notes "roughly half of the object references" cross at
    d=10, s=20.
    """
    if inner_depth <= 0:
        return 0.0
    return min(1.0, inner_depth / cluster_size)


def fit_traversal_model(
    objects: int,
    cells: Dict[Optional[int], float],
    inner_depth: int = 0,
) -> TraversalModel:
    """Least-squares fit of the model to measured (cluster_size -> ms).

    ``cells`` must include the NO-SWAP cell (key ``None``) and at least
    one sized cell; with ``inner_depth > 0`` at least two sized cells
    are needed to separate the boundary and proxy terms.
    """
    if None not in cells:
        raise ValueError("fit requires the NO-SWAP cell (key None)")
    sized = [size for size in cells if size is not None]
    needed = 2 if inner_depth else 1
    if len(sized) < needed:
        raise ValueError(
            f"fit with inner_depth={inner_depth} needs >= {needed} sized cells"
        )

    rows: List[List[float]] = []
    targets: List[float] = []
    for size, measured_ms in cells.items():
        step_term = float(objects)
        boundary_term = objects / size if size is not None else 0.0
        proxy_term = (
            objects * _extra_proxy_probability(size, inner_depth)
            if size is not None
            else 0.0
        )
        row = [step_term, boundary_term]
        if inner_depth:
            row.append(proxy_term)
        rows.append(row)
        targets.append(measured_ms)

    matrix = numpy.asarray(rows, dtype=float)
    vector = numpy.asarray(targets, dtype=float)
    coefficients, _, _, _ = numpy.linalg.lstsq(matrix, vector, rcond=None)
    predicted = matrix @ coefficients
    residual = float(numpy.sum((vector - predicted) ** 2))
    total = float(numpy.sum((vector - float(numpy.mean(vector))) ** 2))
    r_squared = 1.0 - residual / total if total > 0 else 1.0

    t_step = float(coefficients[0])
    t_boundary = float(coefficients[1])
    t_proxy = float(coefficients[2]) if inner_depth else 0.0
    return TraversalModel(
        objects=objects,
        t_step_ms=t_step,
        t_boundary_ms=t_boundary,
        t_proxy_ms=t_proxy,
        inner_depth=inner_depth,
        r_squared=r_squared,
    )


def holdout_error(
    objects: int,
    cells: Dict[Optional[int], float],
    holdout: int,
    inner_depth: int = 0,
) -> Tuple[float, float, TraversalModel]:
    """Fit without one sized cell, predict it; returns
    (predicted_ms, relative_error, model)."""
    if holdout not in cells:
        raise ValueError(f"holdout cell {holdout} not measured")
    training = {
        size: value for size, value in cells.items() if size != holdout
    }
    model = fit_traversal_model(objects, training, inner_depth=inner_depth)
    predicted = model.predict_ms(holdout)
    actual = cells[holdout]
    relative_error = abs(predicted - actual) / actual if actual else 0.0
    return predicted, relative_error, model
