"""No BLAS call on the Monte Carlo path.

After a matrix product OpenBLAS leaves its worker threads spinning, so a
2-CPU machine loses a CPU to them while the chunked samplers that run
next want both; and a BLAS kernel's summation order is chosen per CPU, so
seeded bits would depend on the machine.  The Monte Carlo modules add in
fixed orders with ``np.sum``, ``np.cumsum`` and ``np.bincount`` instead.
"""

import ast
from pathlib import Path

import pytest

import levykit

PACKAGE = Path(levykit.__file__).parent
BLAS_CALLS = {"dot", "matmul", "inner", "tensordot"}


def _blas_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.AugAssign) \
                and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@="
        elif isinstance(node, ast.Attribute) \
                and node.attr in BLAS_CALLS | {"linalg"}:
            # np.dot, numpy.matmul, np.linalg.*, and array.dot alike
            yield node.lineno, f".{node.attr}"


@pytest.mark.parametrize("module", ["montecarlo.py", "penalization.py"])
def test_monte_carlo_modules_make_no_blas_call(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    uses = sorted(_blas_uses(tree))
    assert uses == [], (
        f"{module} calls BLAS at {uses}: OpenBLAS's idle threads then spin "
        "and take a CPU from the chunked samplers, and the summation order "
        "becomes the CPU's; add in a fixed order without BLAS instead")


def test_the_guard_sees_every_form():
    src = ("a @ b\na @= b\nnp.dot(a, b)\nnumpy.matmul(a, b)\n"
           "np.inner(a, b)\nnp.tensordot(a, b)\nnp.linalg.norm(a)\n"
           "a.dot(b)\nnp.sum(a)\n")
    assert [f for _, f in sorted(_blas_uses(ast.parse(src)))] == [
        "@", "@=", ".dot", ".matmul", ".inner", ".tensordot", ".linalg",
        ".dot"]
