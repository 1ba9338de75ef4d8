"""botsift: botnet flow detection on heavily imbalanced data.

The pipeline, in order: load flow CSVs against a column-role schema,
cleanse and encode them, score features with a chi-square statistic,
min-max scale, optionally rebalance with SMOTE, train from-scratch
classifiers (Gaussian naive Bayes, k-nearest-neighbour, a sigmoid MLP),
and evaluate with imbalance-aware metrics. A seeded synthetic generator
produces profile-driven flow data for experiments without a capture file.
"""

from .classifiers import (GnbModel, KnnModel, MlpConfig, MlpModel, fit_model,
                          load_model, mlp_loss_and_grads, predict_batch,
                          save_model, score_batch)
from .errors import (BotsiftError, CleanseError, ConfigError, DivergenceError,
                     EvaluationError, FeatureScoreError, LoadError,
                     ResampleError, SchemaError, SynthError, TrainingError)
from .evaluate import (ConfusionMatrix, EvalReport, Metrics, RocCurve,
                       cross_validate, evaluate_model, make_folds,
                       metrics_from, roc_curve, split_indices, train_test_split)
from .experiment import ExperimentConfig, run_experiment
from .features import FeatureScoreReport, chi2_scores, select_features
from .flows import (Dataset, FlowTable, Schema, class_summary, default_schema,
                    load_csv, read_dataset_csv, to_dataset, write_dataset_csv,
                    write_records_csv)
from .preprocess import ScalerParams, apply_scaler, cleanse, encode, fit_scaler
from .smote import SmoteConfig, minority_neighbors, smote
from .synth import (FeatureSpec, TrafficProfile, bundled_profile_path,
                    class_counts_for, default_profile, generate)

__version__ = "0.1.0"
