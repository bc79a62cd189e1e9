"""Augmented-covariance classification of multivariate time-series epochs.

Epochs become lag-stacked covariance matrices, which live on the manifold of
symmetric positive definite matrices and are classified either directly
(minimum distance to the geometric mean) or through tangent-space features
and an SVM. Stacking hyper-parameters come from grid search or from
delay-embedding estimators (mutual information, Cao's method, MDOP).
"""

__version__ = "0.1.0"

from .classify import (
    FittedPipeline,
    GridSearchResult,
    MdmModel,
    PipelineSpec,
    TangentMap,
    fit_pipeline,
    grid_search,
    mdm_fit,
    mdm_predict,
    tangent_fit,
    tangent_transform_many,
)
from .covariance import (
    AugmentedParams,
    Epoch,
    EpochStack,
    YuleWalkerSolution,
    as_epochs,
    augmented_covariance,
    covariance_stack,
    embed_epoch,
    ledoit_wolf,
    sample_covariance,
    yule_walker_solve,
)
from .data import (
    ArSpec,
    EpochSet,
    Session,
    generate_ar_dataset,
    read_epochset,
    write_epochset,
)
from .embedding import (
    EmbeddingEstimate,
    average_mutual_information,
    cao_embedding_dimension,
    estimate_traditional,
    mdop_unified,
    select_tau_ami,
)
from .evaluate import (
    EvalReport,
    MetaAnalysis,
    cross_session_eval,
    meta_analysis,
    within_session_eval,
)
from .spd import (
    SpdMatrix,
    SpdStack,
    affine_invariant_distance,
    distances_from,
    frechet_mean,
    log_coordinates,
    symm_fn,
)
from .stats import (
    accuracy,
    auc_roc,
    bonferroni,
    permutation_paired_t,
    stouffer_combine,
    wilcoxon_signed_rank,
)
from .svm import SvmModel, svm_decision, svm_fit, svm_predict
