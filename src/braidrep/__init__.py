"""Exact braid group representations from generic Verma modules of quantum sl2.

The package constructs the free integral highest-weight representations
carried by tensor powers of a generic Verma module, verifies their
structural properties (free bases, braid relations, the isomorphism of the
degree-2 piece with the Lawrence-Krammer-Bigelow representation, the
strand-restriction decomposition, commutant certificates) and exports
representation matrices for arbitrary braid words, all over
Z[q^{+-1}, s^{+-1}] with no floating point anywhere.
"""

from .ring import (InexactDivisionError, LaurentPoly, PoleError, RatFunc,
                   SpecializationError, ZeroSubstitutionError, qbinom,
                   qfactorial, qint, specialize)
from .verma import (E, F, K, KINV, AlgebraGen, TensorVec, act_single,
                    act_tensor, weight_basis)
from .braid import (BraidWord, apply_word, check_braid_relations,
                    check_equivariance, check_yang_baxter, rmatrix_pair,
                    rmatrix_pair_inverse, sigma_matrix)
from .hwspace import (HWBasisElement, RepMatrix, e_inverse_on_B, hw_basis,
                      is_highest_weight, label_str, phi, rho_matrix)
from .lkb import (LKBMatrix, LKBPoly, burau_matrices, check_burau,
                  fork_iso_check, lkb_sigma, lkb_sigma_inverse, theta)
from .decomp import (GuardedSpecializationError, HWDecomposition, alpha_map,
                     check_splitting, commutant_dimension, decompose,
                     ef1_eigencheck, full_twist_scalar, mu, psi_map)
from .report import CheckReport, all_passed

__version__ = "0.1.0"
