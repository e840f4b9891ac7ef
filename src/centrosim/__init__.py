"""Exact-arithmetic toolkit for similarity to centrosymmetric matrices."""

from .errors import (CentrosimError, DimensionError, InsufficientSamplesError,
                     ModeError, PreconditionError, RankError)
from .matrix import (APPROX, DEFAULT_TOL, EXACT, BlockPartition, Matrix,
                     assemble_blocks, block, block_diag, blocks_centrosymmetric,
                     commutes_with_exchange, exchange_matrix, hstack,
                     is_centrosymmetric, load_matrix, matrix_from_json_obj,
                     matrix_to_json_obj, save_matrix, split_blocks, vstack)
from .linalg import (GaussFacts, RankNormalForm, char_poly_samples, det,
                     gauss_facts, inverse, rank, rank_normal_form, solve_linear)
from .solver import (IntertwinerSearch, IntertwinerSolution, RiccatiWitness,
                     SearchOptions, default_grid_values, find_intertwiner,
                     intertwiner_space, riccati_residual, singular_certificate,
                     system_residuals)
from .transforms import (TransformReport, build_centro_transform,
                         dilate_to_centrosimilar, embed_centro_principal)
from .factorization import (FactorizationReport, centro_det_factors,
                            riccati_block_triangularize, riccati_det_factor)
from .generators import (PalindromicSpec, alpha_scan, bordered_jacobi_pm,
                         conjugated_periodic_jacobi, cyclic_conjugator,
                         linear_toeplitz, palindromic_factors,
                         periodic_jacobi_pm, toeplitz_scaled_intertwiner,
                         verify_palindromic_factorization,
                         verify_scaled_intertwiner, write_alpha_scan_csv)

__version__ = "0.1.0"
