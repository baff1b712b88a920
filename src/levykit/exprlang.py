"""Tiny arithmetic expression language for user-supplied coefficient
functions.

Custom diffusions are described in JSON by strings such as
``"x^0.5 / 0.5"`` or ``"2 * x^0.5"``.  The grammar is deliberately small:

* one free variable ``x``
* literals, ``+ - * /``, unary minus, ``^`` (or ``**``) for powers
* calls of the functions ``exp``, ``log``, ``sqrt`` (one argument)
  and ``pow`` (two)
* parentheses

Expressions are parsed with :mod:`ast` and validated node-by-node, so no
general Python evaluation can be smuggled in through a config file.  Compiled
callables broadcast over numpy arrays.
"""

from __future__ import annotations

import ast
from typing import Callable

import numpy as np

from .errors import DomainError

_ALLOWED_FUNCS = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "pow": np.power,
}

_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name,
    ast.Call, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
    ast.USub, ast.UAdd, ast.Load,
)


def _validate(node: ast.AST) -> None:
    names, callees = [], set()
    for child in ast.walk(node):
        if not isinstance(child, _ALLOWED_NODES):
            raise DomainError(
                f"expression uses disallowed syntax: {ast.dump(child)[:60]}")
        if isinstance(child, ast.Name) and child.id != "x":
            names.append(child)
        if isinstance(child, ast.Call):
            callees.add(id(child.func))
            if not isinstance(child.func, ast.Name) \
                    or child.func.id not in _ALLOWED_FUNCS:
                raise DomainError("only exp/log/sqrt/pow calls are allowed")
            if child.keywords:
                raise DomainError("keyword arguments are not allowed")
            # a ufunc takes an output array after its inputs: exp(x, x)
            # would write into the caller's array
            nin = _ALLOWED_FUNCS[child.func.id].nin
            if len(child.args) != nin:
                raise DomainError(f"{child.func.id} takes {nin} argument(s)")
        if isinstance(child, ast.Constant) \
                and not isinstance(child.value, (int, float)):
            raise DomainError(f"non-numeric literal {child.value!r}")
    # a function name is only allowed as the callee of a call
    for name in names:
        if id(name) not in callees:
            raise DomainError(f"unknown name {name.id!r} in expression")


def compile_expression(text: str) -> Callable:
    """Compile an expression string into a numpy-vectorised ``f(x)``."""
    if not isinstance(text, str) or not text.strip():
        raise DomainError("expression must be a non-empty string")
    source = text.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise DomainError(f"cannot parse expression {text!r}: {exc}") from exc
    _validate(tree)
    code = compile(tree, "<levykit-expression>", "eval")
    env = {"__builtins__": {}}
    env.update(_ALLOWED_FUNCS)

    def func(x):
        local = dict(env)
        arr = np.asarray(x, dtype=float)
        local["x"] = arr if arr.ndim else float(arr)
        out = eval(code, local)  # noqa: S307 - AST-validated above
        # constant expressions must still broadcast over array input
        return np.broadcast_to(np.asarray(out, dtype=float),
                               arr.shape).copy() if arr.ndim else float(out)

    func.__name__ = "compiled_expression"
    func.expression = text
    return func
