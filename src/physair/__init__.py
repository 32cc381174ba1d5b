"""Spatial interpolation for sparse urban PM2.5 sensor networks.

The package has three layers: a small autodiff engine (autodiff), the
physics-guided graph network built on it (geo, model, training), and the
classical interpolation baselines plus evaluation harness (baselines,
evaluation). data and simulate handle dataset files and the synthetic
convection-diffusion fields used for verification. cli ties it together.
"""

__version__ = "0.1.0"

from .autodiff import Adam, Mlp, Param, Tensor, finite_diff_grad
from .baselines import (
    GaussianProcess,
    Idw,
    MeanFill,
    OrdinaryKriging,
    select_gp_hyperparameters,
)
from .data import (
    Dataset,
    export_dataset,
    gap_filter,
    ingest_pm25,
    ingest_wind,
    load_dataset,
    load_sensors,
)
from .errors import ShapeError, ValidationError
from .evaluation import (
    BinnedMae,
    DensityExperiment,
    EvalRun,
    MetricReport,
    benchmark_runners,
    binned_mae,
    build_report,
    density_experiment,
    evaluate_models,
    high_sh_hours,
    infer_at_location,
    mae_ratio,
    metrics,
    sh_series,
)
from .geo import (
    Graph,
    SensorMeta,
    build_graph,
    convection_edge_features,
    haversine_km,
    scaled_laplacian,
)
from .model import ModelConfig, PhysicsGnn
from .simulate import (
    SynthSpec,
    default_synth_spec,
    make_synthetic_dataset,
    sinusoidal_wind,
)
from .training import (
    Normalizer,
    SensorSplit,
    TrainConfig,
    TrainingDiverged,
    evaluate_target_sensor,
    load_trained,
    make_split,
    train_ensemble,
    train_model,
)

__all__ = [
    "Adam",
    "BinnedMae",
    "Dataset",
    "DensityExperiment",
    "EvalRun",
    "GaussianProcess",
    "Graph",
    "Idw",
    "MeanFill",
    "MetricReport",
    "Mlp",
    "ModelConfig",
    "Normalizer",
    "OrdinaryKriging",
    "Param",
    "PhysicsGnn",
    "SensorMeta",
    "SensorSplit",
    "ShapeError",
    "SynthSpec",
    "Tensor",
    "TrainConfig",
    "TrainingDiverged",
    "ValidationError",
    "__version__",
    "benchmark_runners",
    "binned_mae",
    "build_graph",
    "build_report",
    "convection_edge_features",
    "default_synth_spec",
    "density_experiment",
    "evaluate_models",
    "evaluate_target_sensor",
    "export_dataset",
    "finite_diff_grad",
    "gap_filter",
    "haversine_km",
    "high_sh_hours",
    "infer_at_location",
    "ingest_pm25",
    "ingest_wind",
    "load_dataset",
    "load_sensors",
    "load_trained",
    "mae_ratio",
    "make_split",
    "make_synthetic_dataset",
    "metrics",
    "scaled_laplacian",
    "select_gp_hyperparameters",
    "sh_series",
    "sinusoidal_wind",
    "train_ensemble",
    "train_model",
]
