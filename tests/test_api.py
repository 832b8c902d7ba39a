"""The exported surface of the package, pinned: a name added to or dropped
from ``freecommutant.__all__`` shows up as a diff of this list."""

import ast
import inspect
from pathlib import Path

import freecommutant

SRC = Path(freecommutant.__file__).resolve().parent

EXPORTED = [
    "ADJOINT_MOMENT_ORDER", "ADJOINT_PAIRS", "AdditivityReport", "CumulantSequence",
    "DistributionPair", "DomainError", "EngineConsistencyError", "FidVerdict", "FockVector",
    "FreeCommutantError", "GR_I", "GR_ONE", "GR_ZERO", "GaussianRational", "GroundSetError",
    "I_S_X", "I_X_S", "KindError", "MomentSequence", "OperatorName", "Partition",
    "PartitionKind", "Polynomial", "S", "SizeLimitError", "SpecSyntaxError",
    "TruncationError", "X", "apply", "assign_by_blocks", "boxplus", "cancellation_sum",
    "cancellation_sums", "closed_form_cumulant", "closed_form_cumulants",
    "commutator_polynomial", "compose_interval", "composition_formula_cumulant",
    "composition_formula_cumulants", "compound_poisson_from_rho", "cumulant_of_polynomials",
    "cumulant_of_word_products", "cumulant_sequence_of", "cumulants_from_moments",
    "enumerate_partitions", "expansion_cumulant", "freeness_witness", "hankel_fid_check",
    "inner_product", "is_noncrossing", "iter_partitions", "model_cumulant", "model_cumulants",
    "moments_from_cumulants", "perturbed_partner", "sum_with_commutator", "verify_additivity",
    "verify_adjointness",
]


def test_exported_names_are_pinned():
    assert sorted(freecommutant.__all__) == EXPORTED


def test_every_exported_name_resolves():
    for name in freecommutant.__all__:
        assert getattr(freecommutant, name) is not None, name


def test_no_call_site_knobs():
    # no function takes an order cap, a cache or a choice of walk; the
    # CLI alone caps orders
    for name in freecommutant.__all__:
        obj = getattr(freecommutant, name)
        if inspect.isfunction(obj):
            params = set(inspect.signature(obj).parameters)
            assert not params & {"order_cap", "cache", "pruned"}, name
    assert [f.name for f in freecommutant.DistributionPair.__dataclass_fields__.values()] == [
        "dist_s", "dist_x"]


def test_cumulants_does_not_import_partitions():
    tree = ast.parse((SRC / "cumulants.py").read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert "partitions" not in imported


def test_only_the_cli_reads_process_global_inputs():
    # the library computes what it is asked; the order cap, its environment
    # variable and the partition bounds belong to the command line
    limits = {"FREECOMMUTANT_MAX_ORDER", "DEFAULT_ORDER_CAP", "ENUMERATION_CAPS"}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert "os" not in {a.name for a in node.names}, path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "os", path.name
                assert not {a.name for a in node.names} & limits, path.name
            elif isinstance(node, ast.Name):
                assert node.id not in limits, (path.name, node.id)
            elif isinstance(node, ast.Attribute):
                assert node.attr not in limits | {"environ", "getenv"}, (path.name, node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert not any(name in node.value for name in limits), (path.name, node.value)
