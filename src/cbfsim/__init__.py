"""Safety-critical control via barrier-function quadratic programs.

Pointwise QP controllers that keep hard set-invariance (barrier) rows while
softly tracking a performance objective, with closed-loop simulation,
certificate utilities, and cruise-control / lane-keeping application
modules.
"""

from .acc import (
    AccParams,
    AccState,
    acc_clf,
    acc_dynamics,
    acc_qp_spec,
    delta_conservative,
    delta_optimal,
    force_barrier,
    force_h_field,
    headway_barrier,
    headway_field,
)
from .barriers import (
    ClassKFunction,
    LiftedReciprocalBarrier,
    ReciprocalBarrier,
    SafeSetDescriptor,
    ZeroingBarrier,
    cbf_admissible,
    comparison_ode_solution,
    estimate_contractivity_gamma,
    estimate_zbf_alpha,
    induced_lyapunov,
    lift_relative_degree,
    make_barrier,
)
from .controller import ControllerSpec, EsClf, build_qp, evaluate, min_norm_clf
from .lk import (
    LkParams,
    LkState,
    lk_barrier,
    lk_dynamics,
    lk_input_bounds,
    lk_membership,
    lk_qp_spec,
    solve_lqr_gain,
)
from .qp import (
    GramData,
    QpProblem,
    QpSolution,
    assemble_h_inner_product,
    solve_active_set,
    solve_two_constraint_closed_form,
)
from .simulate import (
    Monitor,
    PiecewiseConstantSignal,
    Scenario,
    Trajectory,
    integrate_step,
    refine_check,
    run,
)
from .systems import (
    ControlAffineSystem,
    InputPolytope,
    ScalarField,
    lie_derivatives,
)

__version__ = "0.1.0"
