"""Reference per-replica forms: the Python loops over replicas that the
stacked array expressions replaced.

The losses took one (d,) iterate and were extended to an (R, d) stack one
row at a time, the scalar stepper took one dot product per replica, and
the grid averaged each replica's accuracies and each value's scores from
Python lists. tests/test_stacked_rounding.py holds every stacked form bit
for bit equal to these.
"""

import numpy as np


def row_by_row(loss, x):
    """loss of one (d,) iterate, or the (R,) losses of an (R, d) stack, one row at a time."""
    x = np.asarray(x, dtype=float)
    return loss(x) if x.ndim == 1 else np.array([loss(row) for row in x])


def abs_loss(x):
    return row_by_row(lambda x: float(np.sum(np.abs(x))), x)


def quadratic_loss(problem, x):
    return row_by_row(lambda x: 0.5 * float(problem.diag @ (x * x)), x)


def logistic_loss(problem, w):
    return row_by_row(lambda w: float(np.mean(np.logaddexp(0.0, -(problem.y * (problem.X @ w))))), w)


def scalar_products(g, g_prev, replicas):
    """(||g||^2, <g, g_prev>, ||g||) of each replica of flat (R*d,) gradients."""
    rows = g.reshape(replicas, -1)
    gsq = np.array([row @ row for row in rows])
    cross = np.array([row @ prev for row, prev in zip(rows, g_prev.reshape(replicas, -1))])
    return gsq, cross, np.array([np.linalg.norm(row) for row in rows])


def replica_scores(evals):
    """Each replica's mean over the last <=10 of evals, a list of (R,) arrays."""
    tail = np.array(evals[-10:])
    return [float(np.mean(column.tolist())) for column in tail.T]


def value_scores(scores, seeds):
    """Each grid value's mean over its seeds' consecutive scores."""
    return [float(np.mean(scores[vi * seeds:(vi + 1) * seeds])) for vi in range(len(scores) // seeds)]
