"""The public surface: one declaration per name, nothing dead left over."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import linwht
from linwht import algorithm, config, factory, gf2, groups, membership, oracle
from linwht.gf2 import BitMatrix

# The package's exported names; changing the surface means changing this set.
PUBLIC = frozenset(
    {
        "AlgorithmDocument", "AlgorithmSeq", "BitMatrix", "CATALOG", "CheckReport",
        "ConditionError", "DependencySets", "DimensionError", "FactorTuple", "Limits",
        "MemberSurvey", "NotMemberError", "ParseError", "SingularError", "SizeLimitError",
        "__version__", "active_limits", "build", "check_corner_condition",
        "check_membership", "count_algorithms", "count_algorithms_simplified",
        "count_bit_index_algorithms", "count_gl", "dependency_sets",
        "enumerate_bit_index_members", "enumerate_gl", "enumerate_members",
        "enumerate_perm", "evaluate", "evaluate_partial", "export_dot", "factorize",
        "find_counterexample", "format_document", "format_factors", "format_sequence",
        "hadamard", "identity", "is_member", "iterative_ct", "parity", "parse_document",
        "parse_factors", "parse_sequence", "pease", "pease_transpose", "predict_plus_set",
        "reversed_inverted", "rotation_matrix", "sample_member",
        "spreading_matrix", "survey_members", "to_sequency", "transform",
    }
)

# BitMatrix's public methods; adding or removing one is a surface change too.
BITMATRIX_PUBLIC = frozenset(
    {
        "inverse", "rank", "to_text", "transpose",
    }
)


def _submodules():
    return [
        importlib.import_module(f"linwht.{info.name}")
        for info in pkgutil.iter_modules(linwht.__path__)
    ]


def test_every_public_name_resolves_once():
    names = linwht.__all__
    assert len(names) == len(set(names))
    assert set(names) == PUBLIC
    modules = _submodules()
    for name in names:
        assert hasattr(linwht, name), name
        if name == "__version__":
            continue
        owners = [m for m in modules if name in m.__all__]
        assert len(owners) == 1, (name, [m.__name__ for m in owners])
        assert getattr(linwht, name) is getattr(owners[0], name)


def test_removed_helpers_are_gone():
    removed = {
        groups: ("split_counts", "sample_gl"),
        gf2: ("int_to_bits", "bits_to_int", "_mul_words_vec", "_mul_words", "_VECTOR_MIN_DIM",
              "reversal_matrix", "_mul_words_int"),
        BitMatrix: (
            "from_rows", "from_cols", "entry", "__add__", "is_square", "is_permutation",
            "is_invertible", "from_text", "to_lists", "apply",
        ),
        algorithm: ("seq_product",),
        algorithm.AlgorithmSeq: ("__len__",),
        factory: ("_unbordered", "_shift_rows", "_bordered", "SingularError"),
        membership: ("parity",),
        linwht: ("seq_product",),
        oracle: ("apply_linear_perm", "apply_butterfly_array", "SignedMatrix", "_mul", "_guard", "_WORKING_TYPES"),
    }
    for owner, names in removed.items():
        for name in names:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    assert "n_max" not in {f.name for f in config.Limits.__dataclass_fields__.values()}
    for fn in (factory.enumerate_members, factory.enumerate_bit_index_members):
        assert list(inspect.signature(fn).parameters) == ["n"]
    # outside matrices have one rank check, _proved, which _check always runs
    assert list(inspect.signature(algorithm._check).parameters) == ["mats", "n", "what", "start"]
    assert list(inspect.signature(factory._factors).parameters) == ["b", "q"]


def _imported_modules(module) -> set[str]:
    """The modules, by absolute name, that ``module``'s source imports from."""
    tree = ast.parse(Path(module.__file__).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name("." * node.level + (node.module or ""), "linwht")
            found |= {base} if node.module else {f"{base}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names}
    return found


def test_oracle_and_membership_stay_apart():
    """The dense oracle is the ground truth the structural check answers to:
    neither module imports anything from the other."""
    assert "linwht.oracle" not in _imported_modules(membership)
    assert "linwht.membership" not in _imported_modules(oracle)


def test_bitmatrix_methods_are_pinned():
    assert {name for name in dir(BitMatrix) if not name.startswith("_")} == BITMATRIX_PUBLIC
    assert [f.name for f in BitMatrix.__dataclass_fields__.values()] == ["rows", "cols", "words"]


def test_benchmark_tracer_targets_resolve(monkeypatch):
    """Every entry point the benchmark's tracer wraps still exists, so that
    removing or renaming one fails here and not only in a traced benchmark run."""
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look the module up
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for target in tracer.TARGETS:
        module_name, _, class_name = target.owner.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            assert target.attr in getattr(owner, class_name).__dict__, target.name
        else:
            assert callable(getattr(owner, target.attr, None)), target.name


def test_size_bounds_live_in_config():
    assert (config.N_MAX, config.MEMBER_ENUM_MAX, config.BIT_INDEX_ENUM_MAX, config.GL_ENUM_MAX) == (
        64, 3, 4, 5
    )
    assert set(config.__all__) == {"Limits", "SizeLimitError", "active_limits"}
