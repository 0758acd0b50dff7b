"""Numerical toolkit for the radial weighted p-Laplacian Dirichlet problem.

Computes the principal eigenpair of

    -(rho(r) |u'|^{p-2} u')' = lam sigma(r) |u|^{p-2} u,   u(R1) = u(R2) = 0,

with rho = r^{N-1} v(r), sigma = r^{N-1} w(r) for piecewise power-log radial
weights on annuli (R1, R2) and exterior domains (R2 = inf); mechanically
checks the weight hypotheses behind existence and boundary estimates; and
verifies the two-sided envelope asymptotics and the recursion decay lemma at
desk scale.
"""

__version__ = "0.1.0"

from .weights import (  # noqa: F401
    DomainError,
    INF,
    PowerLogPiece,
    ProblemSpec,
    SpecError,
    WeightModel,
    load_problem,
    local_exponents,
    problem_from_dict,
    problem_to_dict,
)
from .quadrature import (  # noqa: F401
    IntegralResult,
    LeftCumulative,
    RightCumulative,
    integrate,
    integrate_exact_powerlog,
)
from .conditions import (  # noqa: F401
    ConditionReport,
    capacity_P,
    check_A,
    check_A_eps_L,
    check_A_eps_R,
    check_OK,
    check_W1,
    check_W2,
    check_all,
    search_eps_L,
    search_eps_R,
)
from .solver import (  # noqa: F401
    Eigenpair,
    Mesh,
    ShootResult,
    SolverError,
    find_lambda1,
    flux,
    make_mesh,
    rayleigh_minimize,
    rayleigh_quotient,
    shoot,
)
from .asymptotics import (  # noqa: F401
    AsymptoticVerdict,
    WindowError,
    default_window,
    envelope_left,
    envelope_right,
    fit_exponent,
    sandwich_check,
    theoretical_exponent,
)
from .degiorgi import (  # noqa: F401
    RecursionParams,
    RecursionTrace,
    simulate,
    sweep,
    threshold,
    threshold_log,
    verify_bound,
)
from .presets import PRESET_NAMES, get_preset  # noqa: F401
