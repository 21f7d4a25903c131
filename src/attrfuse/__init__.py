"""Attribute-classifier fusion for object recognition under environment-dependent reliability.

Core pipeline: calibrate per-bin two-threshold classifiers from labeled
scores, gate observations by each classifier's reliable working region, count
adopted positives/negatives into an order-independent posterior over objects,
and decide by MAP with prior and seeded-random tie breaking. ``attrfuse.theory``
provides the predictive-value floors under which the decision is guaranteed
correct, and ``attrfuse.experiments`` hosts the Monte Carlo harnesses.
"""

from attrfuse._version import __version__
from attrfuse.catalog import (
    CatalogError,
    CatalogStats,
    NonDiscriminativeAttributeError,
    ObjectCatalog,
    compute_stats,
    load_catalog,
    unique_candidates,
)
from attrfuse.classifier import (
    BinCalibration,
    CalibrationError,
    ClassifierModel,
    calibrate_bin,
    ModelFileError,
    kde_density,
    load_models,
    make_synthetic_model,
    save_models,
    single_threshold_baseline,
)
from attrfuse.fusion import (
    Decision,
    PosteriorState,
    decide,
    init_posterior,
    posterior,
    posterior_ratio,
)
from attrfuse.simulator import (
    CalibrationConfig,
    Scenario,
    ScenarioError,
    ScoreModel,
    TrainingBias,
    calibrate_scenario,
    derived_rng,
    generate_training_set,
    load_scenario,
)
from attrfuse.theory import (
    CertificationVerdict,
    RateBounds,
    RequirementReport,
    certify_guaranteed_recognition,
    false_rate_bounds,
    required_predictive_values,
    requirement_report,
)

__all__ = [
    "__version__",
    "BinCalibration",
    "CalibrationConfig",
    "CalibrationError",
    "CatalogError",
    "CatalogStats",
    "CertificationVerdict",
    "ClassifierModel",
    "Decision",
    "ModelFileError",
    "NonDiscriminativeAttributeError",
    "ObjectCatalog",
    "PosteriorState",
    "RateBounds",
    "RequirementReport",
    "Scenario",
    "ScenarioError",
    "ScoreModel",
    "TrainingBias",
    "calibrate_bin",
    "calibrate_scenario",
    "certify_guaranteed_recognition",
    "compute_stats",
    "decide",
    "derived_rng",
    "false_rate_bounds",
    "generate_training_set",
    "init_posterior",
    "kde_density",
    "load_catalog",
    "load_models",
    "load_scenario",
    "make_synthetic_model",
    "posterior",
    "posterior_ratio",
    "required_predictive_values",
    "requirement_report",
    "save_models",
    "single_threshold_baseline",
    "unique_candidates",
]
