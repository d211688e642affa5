"""Block-maxima extreme value analysis.

Fit GEV and Gumbel models by maximum likelihood, quantify uncertainty
(observed information, profile likelihood, bootstrap, jackknife), compute
return levels with delta-method intervals, select models by LRT/AIC, validate
fits with plot series, and evaluate order-statistic exceedance probabilities.
"""

from ._core import BACKEND as KERNEL_BACKEND
from .data import IngestError, MaximaSample, ingest
from .diagnostics import (
    PlotKind,
    PlotSeries,
    density_overlay,
    probability_plot,
    quantile_plot,
    return_curve,
    series_to_csv,
    series_to_svg,
)
from .gev import (
    GUMBEL_XI_EPS,
    GevParams,
    GevType,
    Support,
    cdf,
    classify,
    pdf,
    quantile,
    sample,
    support,
)
from .inference import (
    ConvergenceError,
    DegenerateSampleError,
    FitResult,
    LrtResult,
    ProfileBracketError,
    ProfileCurve,
    Refit,
    Regularity,
    aic,
    delta_method,
    fit_gev,
    fit_gumbel,
    lrt,
    normal_ci,
    profile,
)
from .likelihood import (
    NegLogLik,
    ObservedInfo,
    SingularInformationError,
    nllh_gev,
    nllh_gumbel,
    observed_information,
)
from .orderstats import order_cdf, order_pdf
from .resampling import (
    ResamplingError,
    ResamplingReport,
    Verdict,
    bootstrap,
    jackknife,
    rmse,
    rmse_approx,
    screen,
)
from .returns import (
    LevelBasis,
    ReturnLevelEstimate,
    location_for_level,
    return_level,
    return_level_ci,
    return_level_gradient,
)
from .simplex import OptResult, minimize
from .special import chi2_cdf, chi2_quantile, normal_quantile
from .workflow import WorkflowConfig, WorkflowError, render_tables, run_workflow

__version__ = "0.1.0"
