"""Exact-arithmetic toolkit for similarity to centrosymmetric matrices.

The public names and submodules below are read on first access (PEP 562), so
``import centrosim`` loads no submodule and each CLI command imports only the
modules it runs.
"""

_SUBMODULES = {
    "errors": ("CentrosimError", "DimensionError", "InsufficientSamplesError", "ModeError",
               "PreconditionError", "RankError"),
    "matrix": ("APPROX", "DEFAULT_TOL", "EXACT", "BlockPartition", "Matrix", "assemble_blocks",
               "block", "block_diag", "blocks_centrosymmetric", "commutes_with_exchange",
               "exchange_matrix", "hstack", "is_centrosymmetric", "load_matrix",
               "matrix_from_json_obj", "matrix_to_json_obj", "save_matrix", "split_blocks",
               "vstack"),
    "linalg": ("GaussFacts", "RankNormalForm", "char_poly_samples", "det", "gauss_facts",
               "inverse", "rank", "rank_normal_form", "solve_linear"),
    "solver": ("IntertwinerSearch", "IntertwinerSolution", "RiccatiWitness", "SearchOptions",
               "default_grid_values", "find_intertwiner", "intertwiner_space",
               "riccati_residual", "singular_certificate", "system_residuals"),
    "transforms": ("TransformReport", "build_centro_transform", "dilate_to_centrosimilar",
                   "embed_centro_principal"),
    "factorization": ("FactorizationReport", "centro_det_factors",
                      "riccati_block_triangularize", "riccati_det_factor"),
    "generators": ("PalindromicSpec", "alpha_scan", "bordered_jacobi_pm",
                   "conjugated_periodic_jacobi", "cyclic_conjugator", "linear_toeplitz",
                   "palindromic_factors", "periodic_jacobi_pm", "toeplitz_scaled_intertwiner",
                   "verify_palindromic_factorization", "verify_scaled_intertwiner",
                   "write_alpha_scan_csv"),
}
_HOME = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = [*_SUBMODULES, *_HOME]
__version__ = "0.1.0"


def __getattr__(name):
    # Not cached, so a name reads its submodule's current attribute, as cli.py does.
    import importlib
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
