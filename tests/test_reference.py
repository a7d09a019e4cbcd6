"""The oracles in ``qfuzzy.reference`` stay apart from the runtime they check:
no runtime module imports them, and the package re-exports them unchanged."""

import ast
from pathlib import Path

import pytest

import qfuzzy
import qfuzzy.reference

PACKAGE = Path(qfuzzy.__file__).resolve().parent

#: What moved to ``reference`` from each runtime module.
MOVED = {
    "statevec": ["IDENTITY", "PAULI_X", "ground_state", "_as_gate", "apply_single",
                 "apply_controlled", "measure_qubits", "one_probabilities"],
    "qfs": ["rotation_gate", "fuz_linear", "u_com"],
    "fuzzy": ["oracle_distribution", "com_index", "_bits_of"],
    "analysis": ["sampling_vs_oracle", "total_variation", "MAX_SAMPLING_UNIVERSE"],
}
ALL_MOVED = [name for names in MOVED.values() for name in names]
#: The moved names that ``qfuzzy`` itself exports.
EXPORTED = set(ALL_MOVED) - {"IDENTITY", "_as_gate", "_bits_of", "MAX_SAMPLING_UNIVERSE"}


def _imports_reference(node: ast.AST) -> bool:
    """Whether ``node`` imports ``qfuzzy.reference``, relatively or not."""
    if isinstance(node, ast.Import):
        return any(a.name == "qfuzzy.reference" for a in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    # relative imports name the package as "", absolute ones as "qfuzzy"
    package = "" if node.level else "qfuzzy"
    module = node.module or ""
    if module == ".".join(filter(None, (package, "reference"))):
        return True
    return module == package and any(a.name == "reference" for a in node.names)


@pytest.mark.parametrize(
    "source, imports",
    [
        ("from .reference import u_com", True),
        ("from . import reference", True),
        ("from . import qfs, reference as r", True),
        ("import qfuzzy.reference", True),
        ("import qfuzzy.reference as r", True),
        ("from qfuzzy.reference import u_com", True),
        ("from qfuzzy import reference", True),
        ("def f():\n    from .reference import u_com", True),
        ("from .qfs import encode", False),
        ("from . import qfs", False),
        ("import qfuzzy", False),
        ("from qfuzzy import qfs", False),
    ],
)
def test_the_import_check_sees_every_form(source, imports):
    found = any(_imports_reference(n) for n in ast.walk(ast.parse(source)))
    assert found == imports


def test_no_runtime_module_imports_reference():
    runtime = sorted(
        p for p in PACKAGE.glob("*.py") if p.name not in ("__init__.py", "reference.py")
    )
    assert {p.stem for p in runtime} >= set(MOVED)
    for path in runtime:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bad = [n.lineno for n in ast.walk(tree) if _imports_reference(n)]
        assert not bad, f"{path.name} imports qfuzzy.reference at lines {bad}"


@pytest.mark.parametrize("name", ALL_MOVED)
def test_moved_names_live_only_in_reference(name):
    value = getattr(qfuzzy.reference, name)
    if callable(value):
        assert value.__module__ == "qfuzzy.reference"
    if name in EXPORTED:
        assert getattr(qfuzzy, name) is value
    for module in MOVED:
        assert not hasattr(getattr(qfuzzy, module), name), (module, name)


def test_reference_shares_only_three_private_runtime_helpers():
    """An oracle that calls a runtime helper shares that helper's faults, so
    each shared one is checked against a program of its own: ``_com_table``
    (U_COM's bins, as DEFUZ's) by test_qfs.py's
    test_com_table_equals_com_index, and ``_windows`` (FUZ's windows) by its
    test_fuz_linear_equals_per_amplitude_reference and
    test_fuz_isometry_equals_per_amplitude_reference; ``_check_qubit`` only
    refuses a qubit index out of range.  Sharing another private helper has
    to be a deliberate change here."""
    tree = ast.parse((PACKAGE / "reference.py").read_text(encoding="utf-8"))
    private = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert private == {"_check_qubit", "_com_table", "_windows"}
