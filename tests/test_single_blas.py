"""The package reaches LAPACK through NumPy alone.

NumPy and SciPy wheels each bundle their own OpenBLAS with its own thread
pool.  When level-3 calls alternate between the two, each pool busy-waits
while the other runs, and the interior-point iteration in ``clsolver`` ran
at about half the speed it reaches with one BLAS.  So no module may import a
``scipy.linalg`` name other than the allowlisted level-2 ``cho_solve``, nor
``scipy.linalg.blas`` or ``scipy.linalg.lapack``.  Bringing a second BLAS
back takes an edit of ``ALLOWED``.
"""

import ast
from pathlib import Path

import sparserc

ALLOWED = {"cho_solve"}

PACKAGE = Path(sparserc.__file__).parent


def scipy_linalg_uses(source: str) -> list[str]:
    """Every use of ``scipy.linalg`` in ``source`` outside ``ALLOWED``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("scipy.linalg")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "scipy":
                found += ["scipy." + a.name for a in node.names if a.name == "linalg"]
            elif node.module == "scipy.linalg":
                found += [
                    "scipy.linalg." + a.name for a in node.names if a.name not in ALLOWED
                ]
            elif node.module.startswith("scipy.linalg."):
                found.append(node.module)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            inner = node.value
            if (
                isinstance(inner.value, ast.Name)
                and (inner.value.id, inner.attr) == ("scipy", "linalg")
                and node.attr not in ALLOWED
            ):
                found.append("scipy.linalg." + node.attr)
    return found


def test_no_second_blas_in_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    offenders = {
        m.name: uses for m in modules if (uses := scipy_linalg_uses(m.read_text()))
    }
    assert offenders == {}


def test_guard_flags_each_import_form():
    flagged = [
        "from scipy.linalg import cho_factor",
        "from scipy.linalg import cho_solve, solve_triangular",
        "from scipy.linalg.blas import dsyrk",
        "from scipy.linalg.lapack import dpotrf",
        "from scipy import linalg",
        "import scipy.linalg",
        "import scipy.linalg.lapack as lp",
        "import scipy\nscipy.linalg.cholesky(a)",
    ]
    for source in flagged:
        assert scipy_linalg_uses(source), source
    assert scipy_linalg_uses("from scipy.linalg import cho_solve") == []
    assert scipy_linalg_uses("from scipy.optimize import linprog") == []
