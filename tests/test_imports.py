"""The package imports nothing outside the standard library, and nothing it
does not use; its namespace keeps every public name while loading lazily."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import centrosim

SRC = Path(__file__).resolve().parents[1] / "src" / "centrosim"

# Every name that centrosim/__init__.py imported from each submodule when it
# still imported them all eagerly, frozen here.
PUBLIC = {
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


def _absolute_imports():
    """(file name, line, module) for each absolute import in the package."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            yield from ((path.name, node.lineno, name) for name in names)


def test_package_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"centrosim"}
    outside = [f"{file}: {name}" for file, _, name in _absolute_imports()
               if name.split(".")[0] not in allowed]
    assert outside == []


def test_no_module_imports_dataclasses():
    # Importing dataclasses (through inspect) and building each frozen class cost
    # every CLI start several milliseconds; the records are plain classes.
    importers = [f"{file}:{line}" for file, line, name in _absolute_imports()
                 if name.split(".")[0] == "dataclasses"]
    assert importers == []


def test_every_module_level_import_is_used():
    # Imports inside a function are checked too: each must be used in the
    # function it sits in (and in any function that encloses it).
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope in (tree, *functions):
            used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
            for node in ast.walk(scope):
                if isinstance(node, ast.Import):
                    bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    bound = [alias.asname or alias.name for alias in node.names]
                else:
                    continue
                where = f"{path.name}:{node.lineno}"
                unused += [f"{where}: {name}" for name in bound if name not in used]
    assert unused == []


def test_lazy_namespace_keeps_every_public_name():
    for module, names in PUBLIC.items():
        sub = importlib.import_module(f"centrosim.{module}")
        assert getattr(centrosim, module) is sub
        assert centrosim.__getattr__(module) is sub
        for name in names:
            assert getattr(centrosim, name) is getattr(sub, name), name
    expected = {*PUBLIC, *(name for names in PUBLIC.values() for name in names)}
    star = {}
    exec("from centrosim import *", star)
    assert set(star) - {"__builtins__"} == expected
    assert expected <= set(dir(centrosim))
    assert centrosim.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(centrosim, "no_such_name")
