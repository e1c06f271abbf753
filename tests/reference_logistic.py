"""LogisticRegression's minibatch gradient as it was before it formed the
gradient in its gathered buffer: a fancy-index gather and .mean(axis=-2)
over a fresh (R, B, d) product. tests/test_logistic_oracle_differential.py
holds the oracle bit for bit equal to it. Do not edit it to follow the
package.
"""

import numpy as np


def grad_rows(X, y, w, rows) -> np.ndarray:
    """The mean gradient of w (d,) over rows (B,), or of each replica of w
    (R, d) over its own rows (R, B); rows may be slice(None), all rows."""
    Xb = X[rows]
    yb = y[rows]
    margins = yb * (Xb @ w[..., None])[..., 0]
    e = np.exp(-np.abs(margins))
    weights = np.where(margins >= 0, e, 1.0) / (1.0 + e)
    return -(Xb * (yb * weights)[..., None]).mean(axis=-2)
