"""Non-monotone adaptive gradient optimization, benchmarks, and checks."""

from .core import (
    SGD,
    AdaGrad,
    Adam,
    Domain,
    GradaGrad,
    HyperParams,
    NonFiniteGradient,
    Optimizer,
    ScalarGradaGrad,
    Trace,
    drive,
    project,
)
from .data import (
    Dataset,
    LibsvmParseError,
    MinibatchStream,
    load_dataset,
    minibatch_iter,
    normalize_labels,
    parse_libsvm_line,
    save_dataset,
    serialize_dataset,
)
from .problems import AbsValue, LogisticRegression, Problem, Quadratic
from .verify import (
    CheckReport,
    RunHistory,
    alpha_identity_sides,
    check_adagrad_equivalence,
    check_alpha_identity_rho1,
    check_convergence_trend,
    check_errnegativity,
    check_finite_diff,
    check_momentum_identities,
    check_monotone_and_cap,
    check_reparam_invariance,
    record_run,
)

__version__ = "0.1.0"
