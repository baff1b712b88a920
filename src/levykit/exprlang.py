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
general Python evaluation can be smuggled in through a config file.  Each
subexpression that does not read ``x`` is worked out once, when compiling,
and must give a finite real number.  Compiled callables broadcast over numpy
arrays.
"""

from __future__ import annotations

import ast
import math
import operator
from typing import Callable

import numpy as np

from .errors import DomainError

_ALLOWED_FUNCS = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "pow": np.power,
}

_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub,
              ast.Mult: operator.mul, ast.Div: operator.truediv,
              ast.Pow: operator.pow, ast.USub: operator.neg,
              ast.UAdd: operator.pos}


def _fold(node: ast.AST, constants: dict) -> tuple:
    """Check ``node`` against the grammar and work out, once, each part of
    it that does not read ``x``.

    Returns ``(node, value)``: for a subtree without ``x``, ``value`` is
    its number; otherwise ``value`` is None and ``node`` has each largest
    part without ``x`` replaced by a name bound in ``constants``.
    """
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise DomainError(f"non-numeric literal {node.value!r}")
        return node, node.value
    if isinstance(node, ast.Name):
        # a function name is only allowed as the callee of a call
        if node.id != "x":
            raise DomainError(f"unknown name {node.id!r} in expression")
        return node, None
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) \
                or node.func.id not in _ALLOWED_FUNCS:
            raise DomainError("only exp/log/sqrt/pow calls are allowed")
        if node.keywords:
            raise DomainError("keyword arguments are not allowed")
        func, operands = _ALLOWED_FUNCS[node.func.id], node.args
        # a ufunc takes an output array after its inputs: exp(x, x)
        # would write into the caller's array
        if len(operands) != func.nin:
            raise DomainError(f"{node.func.id} takes {func.nin} argument(s)")
    elif isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
        func, operands = _OPERATORS[type(node.op)], [node.left, node.right]
    elif isinstance(node, ast.UnaryOp) and type(node.op) in _OPERATORS:
        func, operands = _OPERATORS[type(node.op)], [node.operand]
    else:
        raise DomainError(
            f"expression uses disallowed syntax: {ast.dump(node)[:60]}")
    # map, not a comprehension, adds no frame: nesting as deep as the
    # parser takes still folds
    folded = list(map(_fold, operands, [constants] * len(operands)))
    if all(value is not None for _, value in folded):
        return node, _constant(node, func, [value for _, value in folded])
    operands = [a if value is None else _bind(a, value, constants)
                for a, value in folded]
    if isinstance(node, ast.Call):
        node.args = operands
    elif isinstance(node, ast.BinOp):
        node.left, node.right = operands
    else:
        node.operand, = operands
    return node, None


def _constant(node: ast.AST, func: Callable, args: list):
    """``func(*args)`` for the operator or call ``node`` on numbers, as
    evaluating the whole expression would work it out, except that a power
    of two integers is exact (numpy would wrap an int64 around).  Anything
    but a finite real number raises :class:`DomainError`, as does an
    integer power beyond ``2^1024``, which is never worked out."""
    int_power = func in (operator.pow, np.power) \
        and all(isinstance(a, int) for a in args)
    try:
        if int_power and args[1] * math.log2(max(abs(args[0]), 1)) > 1024:
            raise OverflowError
        with np.errstate(all="raise"):
            value = operator.pow(*args) if int_power else func(*args)
        finite = np.isrealobj(value) and math.isfinite(value)
    except (ArithmeticError, ValueError, TypeError):
        finite = False
    if not finite:
        raise DomainError(f"constant subexpression {ast.unparse(node)!r} "
                          "is not a finite real number")
    return value


def _bind(node: ast.AST, value, constants: dict) -> ast.Name:
    """A name for ``value``, bound in ``constants``, to stand for ``node``."""
    name = f"_c{len(constants)}"
    constants[name] = value
    return ast.copy_location(ast.Name(id=name, ctx=ast.Load()), node)


def compile_expression(text: str) -> Callable:
    """Compile an expression string into a numpy-vectorised ``f(x)``."""
    if not isinstance(text, str) or not text.strip():
        raise DomainError("expression must be a non-empty string")
    source = text.replace("^", "**")
    env = {"__builtins__": {}}
    try:
        tree = ast.parse(source, mode="eval")
        body, value = _fold(tree.body, env)
        tree.body = body if value is None else _bind(body, value, env)
        code = compile(tree, "<levykit-expression>", "eval")
    except SyntaxError as exc:
        raise DomainError(f"cannot parse expression {text!r}: {exc}") from exc
    except RecursionError as exc:
        # the parser, the folding walk and the compiler all recurse once
        # per nesting level
        raise DomainError("expression nested too deeply") from exc
    env.update(_ALLOWED_FUNCS)

    def func(x):
        local = dict(env)
        arr = np.asarray(x, dtype=float)
        local["x"] = arr if arr.ndim else float(arr)
        out = eval(code, local)  # noqa: S307 - AST-checked by _fold
        # constant expressions must still broadcast over array input
        return np.broadcast_to(np.asarray(out, dtype=float),
                               arr.shape).copy() if arr.ndim else float(out)

    func.__name__ = "compiled_expression"
    func.expression = text
    return func
