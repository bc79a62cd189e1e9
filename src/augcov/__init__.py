"""Augmented-covariance classification of multivariate time-series epochs.

Epochs become lag-stacked covariance matrices, which live on the manifold of
symmetric positive definite matrices and are classified either directly
(minimum distance to the geometric mean) or through tangent-space features
and an SVM. Stacking hyper-parameters come from grid search or from
delay-embedding estimators (mutual information, Cao's method, MDOP).
Each public name is imported from the module that defines it.
"""

__version__ = "0.1.0"
