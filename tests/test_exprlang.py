import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levykit.errors import DomainError
from levykit.exprlang import compile_expression

# Generated expressions are (text, allowed, has_x, safe): ``allowed`` says
# whether the AST stays inside the whitelist (one variable ``x``, numeric
# literals, + - * / ** ^, unary -/+, exp/log/sqrt of one argument and pow
# of two, no keywords); ``safe`` says whether evaluating it on an array
# leaves every operation to numpy (no operator or call joins literals
# alone; such a subexpression is worked out when compiling, and one that
# is not a finite real number is refused there).

_NUMBERS = st.one_of(st.integers(0, 9).map(str),
                     st.floats(0.1, 9.0).map(repr))
_LEAVES = st.one_of(
    st.just(("x", True, True, True)),
    _NUMBERS.map(lambda s: (s, True, False, True)),
    # names other than x, a bare function name among them
    st.sampled_from(["y", "X", "np", "exp", "pow", "__import__"]).map(
        lambda s: (s, False, False, False)),
    # string and complex literals
    st.sampled_from(["'x'", '"2"', "1j", "2.5j"]).map(
        lambda s: (s, False, False, False)),
)


def _extend(children):
    def binop(a, b, op, good):
        ok = good and a[1] and b[1]
        has_x = a[2] or b[2]
        return (f"({a[0]}) {op} ({b[0]})", ok, has_x,
                a[3] and b[3] and has_x)

    def call(name, args, good=True):
        has_x = any(a[2] for a in args)
        text = f"{name}({', '.join(a[0] for a in args)})"
        return (text, good and all(a[1] for a in args), has_x,
                all(a[3] for a in args) and has_x)

    def bad(text):
        return (text, False, False, False)

    pair = st.tuples(children, children)
    return st.one_of(
        # whitelisted operators
        st.tuples(children, children,
                  st.sampled_from(["+", "-", "*", "/", "**", "^"])).map(
            lambda t: binop(t[0], t[1], t[2], True)),
        st.tuples(st.sampled_from(["-", "+"]), children).map(
            lambda t: (f"{t[0]}({t[1][0]})",) + t[1][1:]),
        st.tuples(st.sampled_from(["exp", "log", "sqrt"]), children).map(
            lambda t: call(t[0], [t[1]])),
        pair.map(lambda t: call("pow", list(t))),
        # operators outside it
        st.tuples(children, children,
                  st.sampled_from(["%", "//", "@", "<<", "&", "|"])).map(
            lambda t: binop(t[0], t[1], t[2], False)),
        st.tuples(st.sampled_from(["~", "not "]), children).map(
            lambda t: bad(f"{t[0]}({t[1][0]})")),
        # comparisons, attributes, subscripts, lambdas, conditionals
        st.tuples(children, children,
                  st.sampled_from(["<", "==", ">=", "!="])).map(
            lambda t: bad(f"({t[0][0]}) {t[2]} ({t[1][0]})")),
        st.tuples(children, st.sampled_from(["real", "shape", "__class__"])
                  ).map(lambda t: bad(f"({t[0][0]}).{t[1]}")),
        children.map(lambda a: bad(f"({a[0]})[0]")),
        children.map(lambda a: bad(f"(lambda: {a[0]})")),
        children.map(lambda a: bad(f"(lambda y: {a[0]})(x)")),
        pair.map(lambda t: bad(f"({t[0][0]}) if ({t[1][0]}) else x")),
        # calls: keywords, wrong arity, other callees
        pair.map(lambda t: bad(f"exp({t[0][0]}, out={t[1][0]})")),
        pair.map(lambda t: bad(f"pow({t[0][0]}, y={t[1][0]})")),
        pair.map(lambda t: call("exp", list(t), good=False)),
        children.map(lambda a: call("pow", [a], good=False)),
        st.tuples(st.sampled_from(["abs", "x", "eval", "y"]), children).map(
            lambda t: call(t[0], [t[1]], good=False)),
    )


EXPRESSIONS = st.recursive(_LEAVES, _extend, max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS)
def test_compile_rejects_exactly_the_asts_outside_the_whitelist(expr):
    text, allowed, _, safe = expr
    if not allowed:
        with pytest.raises(DomainError):
            compile_expression(text)
        return
    if not safe:
        try:
            compile_expression(text)
        except DomainError as exc:
            assert "constant subexpression" in str(exc), text
        return
    f = compile_expression(text)
    for x in (np.array([0.5, 1.0, 2.0]), np.array([[0.3, 1.5], [2.5, 4.0]])):
        with np.errstate(all="ignore"):
            out = f(x)
        assert isinstance(out, np.ndarray), text
        assert out.shape == x.shape and out.dtype == float, text


def test_ufunc_output_argument_is_rejected():
    # exp(x, x) would write exp(x) into the caller's array
    x = np.array([0.0, 1.0])
    with pytest.raises(DomainError):
        compile_expression("exp(x, x)")(x)
    assert x.tolist() == [0.0, 1.0]


@pytest.mark.parametrize("text", [
    "x + 1/0",             # division by zero
    "x + 2.0**5000.0",     # float overflow
    "x + (0-1)**0.5",      # complex result
    "x + 10**400",         # an integer too large for a float
    "x + pow(9, 400)",     # an integer power past 2^1024, never worked out
    "x + log(0)",
    "x + sqrt(0-1)",
])
def test_constant_subexpressions_must_be_finite_reals(text):
    with pytest.raises(DomainError, match="constant subexpression"):
        compile_expression(text)


def test_constant_subexpressions_keep_their_values():
    x = np.array([0.3, 1.1, 2.0])
    for text, expected in (("x + 2*3", x + 6), ("-2^2 + x", x - 4),
                           ("exp(1)*x", np.exp(1) * x),
                           ("pow(2, 3) * x", np.power(2, 3) * x),
                           ("x + 3**40", x + 3 ** 40),
                           # exact, where an int64 power would wrap around
                           ("x + pow(9, 30)", x + 9 ** 30),
                           ("x/(1+2.5)", x / 3.5)):
        f = compile_expression(text)
        assert f(x).tobytes() == expected.tobytes(), text
        assert f(0.3) == expected[0], text
    assert compile_expression("2*3")(x).tolist() == [6.0, 6.0, 6.0]
