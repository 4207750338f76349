"""Variance-reduced proximal gradient optimization at desk scale.

The package bundles a proximal-operator toolkit, a stochastic gradient
oracle over synthetic finite-sum problems with certified constants, the
single-loop variance-reduced optimizer with its horizon-indexed schedule,
and Monte-Carlo checkers that verify the method's variance recursion,
schedule constraint and stationarity bound empirically.
"""

__version__ = "0.1.0"

from .estimators import (
    HYBRID_SARAH,
    KINDS,
    MOMENTUM_SARAH,
    SARAH,
    SGD,
    init_estimator,
)
from .optimizer import (
    DivergenceError,
    HyperParams,
    RunTrace,
    gradient_mapping,
    mean_grad_map_sq,
    run,
    schedule_from_T,
)
from .oracle import (
    ProblemInstance,
    full_gradient,
    full_value,
    minibatch_gradient,
    sample_gradient,
    smoothness_spot_check,
)
from .problems import (
    from_key,
    make_nonconvex_sigmoid,
    make_quadratic,
    make_robust_regression,
)
from .prox import (
    BoxIndicator,
    ElasticNet,
    L1,
    PsiSpec,
    Zero,
    parse_psi,
    prox,
    psi_value,
)
from .validation import (
    VarianceBoundReport,
    ScheduleReport,
    check_variance_recursion_step,
    check_variance_recursion_unrolled,
    check_schedule_constraint,
    rate_slope,
)

__all__ = [
    "__version__",
    "BoxIndicator",
    "DivergenceError",
    "ElasticNet",
    "HYBRID_SARAH",
    "HyperParams",
    "KINDS",
    "L1",
    "VarianceBoundReport",
    "MOMENTUM_SARAH",
    "ProblemInstance",
    "PsiSpec",
    "RunTrace",
    "SARAH",
    "SGD",
    "ScheduleReport",
    "Zero",
    "check_variance_recursion_step",
    "check_variance_recursion_unrolled",
    "check_schedule_constraint",
    "from_key",
    "full_gradient",
    "full_value",
    "gradient_mapping",
    "init_estimator",
    "make_nonconvex_sigmoid",
    "make_quadratic",
    "make_robust_regression",
    "mean_grad_map_sq",
    "minibatch_gradient",
    "parse_psi",
    "prox",
    "psi_value",
    "rate_slope",
    "run",
    "sample_gradient",
    "schedule_from_T",
    "smoothness_spot_check",
]
