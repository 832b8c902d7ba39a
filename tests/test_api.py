"""The public names of the package, pinned per module: a top-level name
without a leading underscore added to or dropped from any module shows up
as a diff of ``PUBLIC``.  The package binds nothing but its submodules, so
every name is imported from the module that defines it, and each public
name and method has a caller in the package itself."""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import freecommutant

SRC = Path(freecommutant.__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

PUBLIC = {
    "cli": ["DEFAULT_ORDER_CAP", "DistributionSpec", "ENUMERATION_CAPS", "FAULT_ENV",
            "ORDER_CAP_ENV", "main", "parse_spec"],
    "commutator": [
        "AdditivityReport", "DistributionPair", "I_S_X", "I_X_S", "cancellation_sum",
        "cancellation_sums", "closed_form_cumulant", "closed_form_cumulants",
        "commutator_polynomial", "cumulant_sequence_of", "expansion_cumulant",
        "freeness_witness", "perturbed_partner", "sum_with_commutator",
        "verify_additivity",
    ],
    "cumulants": [
        "CumulantSequence", "GR_I", "GR_ONE", "GR_ZERO", "GaussianRational", "MomentSequence",
        "Polynomial", "S", "X", "as_fraction", "composition_series", "cumulant_of_polynomials",
        "cumulant_of_word_products", "cumulants_from_moments", "dilate", "dilation",
        "format_rational", "moments_from_cumulants", "polynomial_moments",
    ],
    "errors": ["DomainError", "EngineConsistencyError", "FreeCommutantError", "GroundSetError",
               "KindError", "SizeLimitError", "SpecSyntaxError", "TruncationError"],
    "fid": ["FidVerdict", "compound_poisson_from_rho", "hankel_fid_check"],
    "fock": [
        "ADJOINT_PAIRS", "FockVector", "OperatorName", "apply", "composition_formula_cumulant",
        "composition_formula_cumulants", "inner_product", "model_cumulant", "model_cumulants",
        "verify_adjointness",
    ],
    "partitions": ["Partition", "PartitionKind", "compose_interval", "is_interval",
                   "is_noncrossing", "iter_partitions"],
}


def _definitions(path: Path):
    """(qualified name, defining node) of each top-level name of the module
    and each method of its top-level classes."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{member.name}", member
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((n.id, node) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name))


def _public_objects():
    for module_name, names in PUBLIC.items():
        module = importlib.import_module(f"freecommutant.{module_name}")
        for name in names:
            yield module_name, name, getattr(module, name)


def test_public_names_are_pinned():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        names = [name for name, _ in _definitions(path) if "." not in name]
        assert "__all__" not in names, path.name
        if path.stem != "__init__":
            found[path.stem] = sorted(n for n in names if not n.startswith("_"))
    assert found == PUBLIC


def test_the_package_binds_only_its_submodules():
    # import every module first, so each binds itself on the package
    list(_public_objects())
    assert sorted(n for n in vars(freecommutant) if not n.startswith("_")) == sorted(PUBLIC)


def test_every_public_name_resolves():
    for module_name, name, obj in _public_objects():
        assert obj is not None, (module_name, name)


def test_no_call_site_knobs():
    # no function takes an order cap, a cache or a choice of walk; the
    # CLI alone caps orders
    for module_name, name, obj in _public_objects():
        if inspect.isfunction(obj):
            params = set(inspect.signature(obj).parameters)
            assert not params & {"order_cap", "cache", "pruned"}, (module_name, name)
    from freecommutant.commutator import DistributionPair
    assert [f.name for f in DistributionPair.__dataclass_fields__.values()] == [
        "dist_s", "dist_x"]


def _tracer_targets() -> set[tuple[str, str]]:
    """(module, function) of every row of perfbench/tracer.py's TARGETS and
    GENERATORS, read without importing it."""
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in {"TARGETS", "GENERATORS"}:
                tables[target.id] = ast.literal_eval(node.value)
    assert sorted(tables) == ["GENERATORS", "TARGETS"]
    return {(module_name, name) for rows in tables.values() for module_name, name, *_ in rows}


def test_every_name_the_benchmark_tracer_wraps_exists():
    # the tracer wraps these functions by name, so a renamed or deleted name
    # fails here first
    for module_name, name in _tracer_targets():
        assert name in PUBLIC.get(module_name, ()), (module_name, name)


def _loads(node: ast.AST) -> Counter:
    """How often each identifier is read under ``node``, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def test_every_public_name_has_a_caller_in_the_package():
    # API that only tests call is test code: it belongs in tests/; the
    # benchmark's traced functions and the entry point are called from outside
    outside = _tracer_targets() | {("cli", "main")}
    paths = sorted(SRC.glob("*.py"))
    reads = sum((_loads(ast.parse(path.read_text())) for path in paths), Counter())
    uncalled = []
    for path in paths:
        for qualname, node in _definitions(path):
            name = qualname.rpartition(".")[2]
            if (not any(part.startswith("_") for part in qualname.split("."))
                    and (path.stem, qualname) not in outside
                    and reads[name] == _loads(node)[name]):
                uncalled.append(f"{path.stem}.{qualname}")
    assert not uncalled, "no caller in the package: " + ", ".join(uncalled)


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


def test_no_module_imports_random():
    # every verdict is exact: nothing in the library is drawn at random, so
    # none can pass or fail by the luck of a seed
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert "random" not in {a.name.split(".")[0] for a in node.names}, path.name
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "random", path.name
