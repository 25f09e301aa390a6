"""Drift-aware AutoML over batch streams.

The pieces compose bottom-up: tabular data containers (:mod:`driftml.data`),
full-model pipelines (:mod:`driftml.pipeline`), a budgeted configuration
search that keeps every evaluated model (:mod:`driftml.search`), greedy
ensemble selection (:mod:`driftml.ensemble`), Hoeffding-bound drift
detection (:mod:`driftml.drift`) and the adaptive evaluation loop
(:mod:`driftml.lifelong`). :mod:`driftml.cli` runs experiment configs.
"""

from .data import (
    Batch,
    DataError,
    Feature,
    MISSING,
    Schema,
    concat_batches,
    load_csv,
    split_stream,
)
from .drift import (
    DriftSignal,
    FhddmState,
    fhddm_reset,
    fhddm_step,
    hoeffding_epsilon,
)
from .ensemble import (
    EnsembleError,
    EnsembleModel,
    ensemble_predict_proba,
    select_ensemble,
)
from .lifelong import (
    RunReport,
    Strategy,
    adapt,
    run_lifelong,
)
from .metrics import ACCURACY, NORMALIZED_AUC, accuracy, normalized_auc, score
from .pipeline import (
    DecisionTreeConfig,
    KnnConfig,
    LogisticSgdConfig,
    NaiveBayesConfig,
    PipelineConfig,
    PipelineError,
    TopKMutualInfoConfig,
    TrainedPipeline,
    VarianceThresholdConfig,
    default_config_portfolio,
    fit,
)
from .search import (
    LibraryMember,
    ModelLibrary,
    SearchBudget,
    SearchError,
    rescore_library,
    run_search,
    sample_config,
)
from .stagger import StaggerConfig, generate_stagger

__version__ = "0.1.0"
