"""Linear programming discriminant: high-dimensional sparse LDA.

The classifier direction is estimated directly by constrained l1
minimization, min |beta|_1 subject to |Sigma_hat beta - delta_hat|_inf <=
lambda, solved as a linear program along its parametric-simplex solution
path, with a primal-dual interior-point method for what the path hands on.
The package adds the standard baselines (naive Bayes, generalized-inverse
LDA, oracle rules), cross-validation for lambda, feature screening for
wide expression-style data, and a replicated synthetic benchmark harness.

The top level exports the API that README.md documents; everything else is
imported from its submodule, for example ``lpd.classifier.fit_lpd_from_moments``.
"""

from .classifier import fit_lpd, predict
from .l1solver import LpProblem, solve, support
from .model_selection import CvPlan, cross_validate, default_lambda_grid
from .stats import LabeledDataset, compute_moments

__version__ = "0.1.0"

__all__ = [
    "CvPlan",
    "LabeledDataset",
    "LpProblem",
    "compute_moments",
    "cross_validate",
    "default_lambda_grid",
    "fit_lpd",
    "predict",
    "solve",
    "support",
]
