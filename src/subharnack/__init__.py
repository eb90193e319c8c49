"""Monte Carlo library for stochastic equations driven by subordinate
Brownian motion: coupling by change of measure, Girsanov reweighting, and
statistical certification of dimension-free Harnack, log-Harnack, and
gradient inequalities, including their spectral-truncation extension.
"""

from .bernstein import (
    BernsteinFunction,
    GammaBernstein,
    InfiniteMomentError,
    LinearBernstein,
    QuadratureError,
    StableBernstein,
    TemperedStableBernstein,
    bernstein_from_config,
    evaluate,
    inverse_moment,
    laplace_transform,
)
from .certify import (
    HarnackReport,
    MCEstimate,
    RateFit,
    coupling_property_bound,
    gradient_certificate,
    harnack_rate_constant,
    log_harnack_certificate,
    power_harnack_certificate,
    stable_rate_check,
)
from .coupling import (
    CoupledPath,
    girsanov_weight,
    harnack_transfer_check,
    run_coupled_batch,
    simulate_coupled,
    xi,
)
from .galerkin import (
    SemilinearModel,
    SpectrumModel,
    dimension_free_check,
)
from .observables import Observable, get_observable
from .pathgen import (
    ClockLaw,
    RegularizedClock,
    RngStream,
    SubordinatorPath,
    TimeChangedBMPath,
    TimeGrid,
    regularize,
    sample_subordinator,
    sample_timechanged_bm,
)
from .sde import (
    DiffusionModel,
    DriftModel,
    PerturbationModel,
    SdeModel,
    Trajectory,
    integrate,
    make_model,
    semigroup_estimate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
