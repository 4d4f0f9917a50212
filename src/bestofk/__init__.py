"""Best-of-K bandit identification toolkit.

Simulates the Best-of-K game under bandit, marked-bandit, and semi-bandit
feedback; identifies the best k-subset with stagewise elimination and
reference baselines; evaluates every closed-form sample-complexity bound; and
cross-checks all of it against exact enumeration oracles.
"""

from .baselines import parity_identify, subset_arm_identify
from .elimination import confidence_radius, run_identification
from .game import Observation, observe
from .harness import ExperimentConfig, compare_to_bounds, run_experiment
from .measures import (
    CoverageMeasure,
    JointTableMeasure,
    PlantedMeasure,
    ProductMeasure,
    expected_max,
)
from .theory import (
    BoundReport,
    GapProfile,
    bernoulli_kl,
    calT,
    dependent_lower_bound,
    feasible_range,
    independent_lower_bound,
    info_sharing,
    joint_from_w0,
    kl_bounds,
    tau_terms,
    upper_bound_total,
)

__version__ = "0.1.0"

__all__ = [
    "CoverageMeasure",
    "JointTableMeasure",
    "PlantedMeasure",
    "ProductMeasure",
    "expected_max",
    "Observation",
    "observe",
    "confidence_radius",
    "run_identification",
    "parity_identify",
    "subset_arm_identify",
    "BoundReport",
    "GapProfile",
    "bernoulli_kl",
    "calT",
    "dependent_lower_bound",
    "feasible_range",
    "independent_lower_bound",
    "info_sharing",
    "joint_from_w0",
    "kl_bounds",
    "tau_terms",
    "upper_bound_total",
    "ExperimentConfig",
    "compare_to_bounds",
    "run_experiment",
    "__version__",
]
