"""sparsedom: sparse domination on finite dyadic signals, with certificates.

Stopping-time constructions build the sparse collections; every produced
inequality (sparsity budgets, domination bounds, atomic decompositions,
weighted estimates) is re-verified numerically with its realized constant
recorded.
"""

from .dyadic import (DEFAULT_CHI_M, REL_SLACK, DyadicGrid, DyadicInterval,
                     ROOT, Signal, average, decreasing_rearrangement,
                     localization_weight, lp_norm, oscillation,
                     weak_l1_quasinorm)
from .haar import (HaarCoefficients, HaarMultiplier, apply_multiplier,
                   bilinear_form, energy_check, haar_function, haar_transform,
                   htilde, inverse_haar_transform, localized_square_function,
                   size, tilde_size)
from .hardy import (AtomicDecomposition, Weight, ap_characteristic,
                    atomic_decompose, cmo_norm, hardy_norm, rh_characteristic,
                    square_function)
from .maximal import DEFAULT_LAMBDA, MaximalKind, local_mean_oscillation, maximal
from .sparse import (SparseCollection, bmo_norm, carleson_constant,
                     certify_sparse, max_sparse_eta_lp, sparse_form,
                     sparse_operator, sparse_vs_carleson)
from .stopping import (DominationCertificate, StoppingFailure, dominate_avg,
                       dominate_oscillation, dominate_square,
                       dominate_weighted, lerner_decompose)
from .cz import CZDecomposition, cz_decompose, weak11_certify
from .generate import (generate_multiplier, generate_signal,
                       generate_sparse_collection, generate_weight)

__version__ = "0.1.0"
