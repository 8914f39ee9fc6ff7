"""Knowledge-conditioned selection of stochastic degradation models."""

from .criteria import Criterion, FitTable, ScoreTable, score, select_argmin
from .decisions import (
    Answer,
    ArbitrationConfig,
    EvidenceBlendProvider,
    HeuristicProvider,
    Observation,
    ProviderPair,
    RemoteTextGenProvider,
    arbitrate,
    decide_all_hierarchies,
    default_providers,
)
from .evidence import (
    EvidenceBank,
    EvidenceRecord,
    Query,
    RetrievedSet,
    build_query,
    default_bank,
    feature_summary,
    load_bank,
    retrieve_top_k,
)
from .fitting import (
    FitResult,
    IncrementSeries,
    fit_homog_gamma,
    fit_linear_wiener,
    fit_model,
    fit_nonhomog_gamma,
    fit_nonlinear_wiener,
    increments,
    loglik,
)
from .model_space import (
    CandidateModel,
    CandidateSet,
    Case,
    Decision,
    Family,
    Hierarchy,
    Trend,
    Uncertain,
    condition,
    default_case_sets,
    structural_label,
)
from .pipeline import (
    InferenceInput,
    PipelineConfig,
    SelectionResult,
    run_inference,
    validate_input,
)
from .simulate import (
    DatasetSplit,
    SimKind,
    SimParams,
    Trajectory,
    default_params,
    first_hitting_time,
    generate,
    split_dataset,
    truncate_at_progress,
)

__version__ = "0.1.0"
