"""Parser, evaluator, and symbolic-derivative checks.

The corpus below doubles as the round-trip fixture and (where a domain is
given) the finite-difference cross-check for diff_expr.  Entries with a
``None`` domain are either non-differentiable (abs) or reference solver
symbols that have no numeric binding here.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from dlf import exprlang
from dlf.exprlang import (
    BinOp,
    Call,
    Const,
    Neg,
    Num,
    Var,
    diff_expr,
    eval_expr,
    expr_variables,
    format_expr,
    parse_expr,
)
from dlf.errors import ExprDiffError, ExprEvalError, ExprSyntaxError

# (text, fd_domain or None)
CORPUS = [
    ("x", (-2.0, 2.0)),
    ("x^2", (-2.0, 2.0)),
    ("x^3 - 2*x + 1", (-2.0, 2.0)),
    ("sin(x)", (-3.0, 3.0)),
    ("cos(2*x)", (-3.0, 3.0)),
    ("exp(-x)", (-2.0, 2.0)),
    ("ln(x)", (0.5, 3.0)),
    ("sqrt(x)", (0.25, 4.0)),
    ("tanh(x)", (-2.0, 2.0)),
    ("sin(pi*x)", (-1.0, 1.0)),
    ("x/(x+1)", (0.0, 2.0)),
    ("1/(1+25*x^2)", (-1.0, 1.0)),
    ("2^3^2", (-1.0, 1.0)),
    ("-x^2", (-2.0, 2.0)),
    ("(x+1)*(x-1)", (-2.0, 2.0)),
    ("x^2*sin(x)", (-2.0, 2.0)),
    ("exp(x)*cos(x)", (-2.0, 2.0)),
    ("sin(x)/x", (0.5, 2.0)),
    ("ln(x^2+1)", (-2.0, 2.0)),
    ("sqrt(x^2+1)", (-2.0, 2.0)),
    ("tanh(3*x)/2", (-1.0, 1.0)),
    ("e^x", (-1.0, 1.0)),
    ("pi*x - e", (-2.0, 2.0)),
    ("x^0.5", (0.25, 4.0)),
    ("x^-1", (0.5, 3.0)),
    ("(1+x)^3", (-0.5, 2.0)),
    ("cos(x)^2 + sin(x)^2", (-3.0, 3.0)),
    ("exp(sin(x))", (-2.0, 2.0)),
    ("ln(exp(x))", (-2.0, 2.0)),
    ("x*x*x", (-2.0, 2.0)),
    ("3*x^2 - 2*x^3", (-2.0, 2.0)),
    ("sin(cos(x))", (-2.0, 2.0)),
    ("1 - tanh(x)^2", (-2.0, 2.0)),
    ("(x-1)/(x^2+1)", (-2.0, 2.0)),
    ("2*pi*x", (-2.0, 2.0)),
    ("x/2 + x/3", (-2.0, 2.0)),
    ("sqrt(abs(x))", None),
    ("abs(x)", None),
    ("u*du - x", None),
    ("d2u + pi^2*u", None),
    ("u_2,0 + u_0,2", None),
    ("x1*x2 - sin(x1)", None),
    ("-(x+2)", (-1.0, 1.0)),
    ("x - -x", (-2.0, 2.0)),
    ("((x))", (-2.0, 2.0)),
    ("x^(1/3)", (0.5, 3.0)),
    ("exp(x)/(1+exp(x))", (-2.0, 2.0)),
    ("sin(2*x)*cos(3*x)", (-2.0, 2.0)),
    ("1.5e-3*x^2", (-2.0, 2.0)),
    ("tanh(x^2 - 1)", (-2.0, 2.0)),
]


def test_corpus_has_fifty_expressions():
    assert len(CORPUS) == 50


@pytest.mark.parametrize("text", [c[0] for c in CORPUS])
def test_round_trip(text):
    tree = parse_expr(text)
    assert parse_expr(format_expr(tree)) == tree


@pytest.mark.parametrize(
    "text,domain",
    [c for c in CORPUS if c[1] is not None and "abs" not in c[0]]
    # abs of an argument free of x is constant in x
    + [("abs(pi - 4)*x^2", (-2.0, 2.0))],
)
def test_derivative_matches_finite_difference(text, domain, rng):
    tree = parse_expr(text)
    deriv = diff_expr(tree, "x", 1)
    lo, hi = domain
    for x in rng.uniform(lo + 1e-3, hi - 1e-3, 10):
        h = 1e-6 * (1.0 + abs(x))
        fd = (eval_expr(tree, {"x": x + h}) - eval_expr(tree, {"x": x - h})) / (2 * h)
        sym = eval_expr(deriv, {"x": x})
        assert abs(sym - fd) <= 1e-6 * (1.0 + abs(sym))


# -- parsing --------------------------------------------------------------


def test_precedence_product_before_difference():
    assert parse_expr("u*du - x") == BinOp(
        "-", BinOp("*", Var("u"), Var("du")), Var("x")
    )


def test_power_right_associative():
    assert eval_expr(parse_expr("2^3^2")) == 512.0


def test_power_binds_tighter_than_unary_minus():
    assert eval_expr(parse_expr("-3^2")) == -9.0


def test_unary_minus_in_exponent():
    assert eval_expr(parse_expr("2^-2")) == 0.25


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("2*(x")
    assert exc.value.offset == 4


def test_unknown_function_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("sinh(x)")


def test_unexpected_character():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("x + $")
    assert exc.value.offset == 4


def test_multi_index_symbol_is_one_token():
    tree = parse_expr("u_1,0 * 2")
    assert expr_variables(tree) == {"u_1,0"}


def test_constants():
    assert eval_expr(parse_expr("pi")) == pytest.approx(np.pi)
    assert eval_expr(parse_expr("e")) == pytest.approx(np.e)


# -- tokens ---------------------------------------------------------------

# (source, [(kind, text, offset), ...]) or (source, (error message, offset))
TOKEN_TABLE = [
    ("\t", [("end", "", 1)]),
    ("\n", [("end", "", 1)]),
    (" ", [("end", "", 1)]),
    ("\tx\n+ 1 ", [("name", "x", 1), ("op", "+", 3), ("num", "1", 5), ("end", "", 7)]),
    ("1.", [("num", "1.", 0), ("end", "", 2)]),
    (".5", [("num", ".5", 0), ("end", "", 2)]),
    ("1e5", [("num", "1e5", 0), ("end", "", 3)]),
    ("1e", [("num", "1", 0), ("name", "e", 1), ("end", "", 2)]),
    ("2x", [("num", "2", 0), ("name", "x", 1), ("end", "", 2)]),
    ("x1e5", [("name", "x1e5", 0), ("end", "", 4)]),
    ("u_2,0", [("name", "u_2,0", 0), ("end", "", 5)]),
    ("u_2,", ("unexpected character ','", 3)),
    ("u_1,0*2", [("name", "u_1,0", 0), ("op", "*", 5), ("num", "2", 6), ("end", "", 7)]),
    ("\u0663", ("unexpected character '\u0663'", 0)),  # ARABIC-INDIC DIGIT THREE
    ("\u00e9", ("unexpected character '\u00e9'", 0)),
    (" \t$", ("unexpected character '$'", 2)),
    # a bad character wins over the syntax error before it
    ("1 2 #", ("unexpected character '#'", 4)),
    (
        "-(x^2)/y",
        [("op", "-", 0), ("lparen", "(", 1), ("name", "x", 2), ("op", "^", 3), ("num", "2", 4),
         ("rparen", ")", 5), ("op", "/", 6), ("name", "y", 7), ("end", "", 8)],
    ),
]


@pytest.mark.parametrize("src,want", TOKEN_TABLE)
def test_token_table(src, want):
    if isinstance(want, list):
        assert [(t.kind, t.text, t.offset) for t in exprlang._tokenize(src)] == want
    else:
        message, offset = want
        for read in (exprlang._tokenize, parse_expr):
            with pytest.raises(ExprSyntaxError) as exc:
                read(src)
            assert (str(exc.value), exc.value.offset) == (f"{message} (at offset {offset})", offset)


@given(st.text(alphabet=list("0123456789.eE+-*/^() \t\nxu_2,\u0663\u00e9$"), max_size=30))
def test_tokens_cover_the_source(src):
    try:
        tokens = exprlang._tokenize(src)
    except ExprSyntaxError as exc:
        # the first character that starts no token; everything before it tokenizes
        assert src[exc.offset] in ".,\u0663\u00e9$"
        assert str(exc) == f"unexpected character {src[exc.offset]!r} (at offset {exc.offset})"
        exprlang._tokenize(src[: exc.offset])
        return
    *tokens, end = tokens
    assert end == ("end", "", len(src))
    pos = 0
    for kind, text, offset in tokens:
        assert text and src[offset : offset + len(text)] == text
        assert not src[pos:offset].strip()
        pos = offset + len(text)
    assert not src[pos:].strip()


# -- evaluation -----------------------------------------------------------


def test_eval_sin_pi_half():
    assert eval_expr(parse_expr("sin(pi*x)"), {"x": 0.5}) == pytest.approx(1.0)


def test_eval_square():
    assert eval_expr(parse_expr("x^2"), {"x": 3.0}) == 9.0


def test_manufactured_residual_cancels():
    val = eval_expr(parse_expr("d2u + pi^2*u"), {"d2u": -np.pi**2, "u": 1.0})
    assert abs(val) <= 1e-12


def test_eval_vectorizes_over_arrays():
    xs = np.linspace(0, 1, 5)
    out = eval_expr(parse_expr("x^2 + 1"), {"x": xs})
    assert np.allclose(out, xs**2 + 1)


def test_ln_domain_error():
    with pytest.raises(ExprEvalError):
        eval_expr(parse_expr("ln(x)"), {"x": -1.0})


def test_sqrt_domain_error():
    with pytest.raises(ExprEvalError):
        eval_expr(parse_expr("sqrt(x)"), {"x": -4.0})


def test_division_by_zero():
    with pytest.raises(ExprEvalError):
        eval_expr(parse_expr("1/x"), {"x": 0.0})


@pytest.mark.parametrize(
    "text",
    ["(-8)^0.5", "(-8)^sqrt(-1)"],  # Python's power gives a complex; a NaN exponent
)
def test_negative_base_with_non_integer_exponent(text):
    with pytest.raises(ExprEvalError) as exc:
        eval_expr(parse_expr(text))
    assert str(exc.value) == "negative base with non-integer exponent"


def test_negative_base_with_integer_exponent():
    assert eval_expr(parse_expr("(-2)^3")) == -8.0


def test_unbound_variable():
    with pytest.raises(ExprEvalError):
        eval_expr(parse_expr("x + y"), {"x": 1.0})


def test_complex_evaluation():
    z = 0.3 + 0.4j
    assert eval_expr(parse_expr("exp(x)"), {"x": z}) == pytest.approx(np.exp(z))


@pytest.mark.parametrize(
    "text,env,shown",
    [
        ("10^400", {}, "10.0^400.0"),  # a float power that raises OverflowError
        ("exp(1000)", {}, "exp(1000.0)"),  # numpy overflow to inf
        ("1e308*10", {}, "1e+308 * 10.0"),  # a real scalar product overflowing
        ("x - x", {"x": np.inf}, "x - x"),  # nan from a bound value
        ("exp(x)", {"x": np.array([0.0, 800.0])}, "exp(x)"),
        ("0^(-1)", {}, "0.0^(-1.0)"),  # a float power that raises ZeroDivisionError
        # a scalar fails with the message of a one-element array
        ("ln(x)", {"x": 0.0}, "ln(x)"),
        ("ln(x)", {"x": np.array([0.0])}, "ln(x)"),
        ("1/x", {"x": 0.0}, "1.0 / x"),
        ("1/x", {"x": np.array([0.0])}, "1.0 / x"),
        ("sqrt(x)", {"x": -4.0}, "sqrt(x)"),
        ("sqrt(x)", {"x": np.array([-4.0])}, "sqrt(x)"),
    ],
)
def test_non_finite_results_raise_naming_the_expression(text, env, shown):
    # no errstate here: a leaked RuntimeWarning fails under the suite's filter
    with pytest.raises(ExprEvalError, match=f"non-finite result evaluating '{re.escape(shown)}'"):
        eval_expr(parse_expr(text), env)


# -- differentiation ------------------------------------------------------


def test_diff_square():
    assert format_expr(diff_expr(parse_expr("x^2"), "x")) == "2.0 * x"


def test_second_derivative_of_sine():
    d2 = diff_expr(parse_expr("sin(x)"), "x", 2)
    for x in (0.0, 0.7, -1.3):
        assert eval_expr(d2, {"x": x}) == pytest.approx(-np.sin(x))


def test_quotient_rule_value():
    d = diff_expr(parse_expr("x/(x+1)"), "x")
    assert eval_expr(d, {"x": 1.0}) == pytest.approx(0.25)


def test_diff_other_variables_held_constant():
    d = diff_expr(parse_expr("x*y + y^2"), "x")
    assert eval_expr(d, {"x": 5.0, "y": 3.0}) == pytest.approx(3.0)


def test_diff_abs_rejected():
    with pytest.raises(ExprDiffError):
        diff_expr(parse_expr("abs(x)"), "x")


def test_diff_general_power():
    # x^x needs the exp(g ln f) route
    d = diff_expr(parse_expr("x^x"), "x")
    x = 1.7
    assert eval_expr(d, {"x": x}) == pytest.approx(x**x * (np.log(x) + 1))


def test_diff_order_zero_is_identity():
    tree = parse_expr("sin(x) + x^2")
    assert diff_expr(tree, "x", 0) == tree


def test_diff_negative_order_rejected():
    with pytest.raises(ExprDiffError):
        diff_expr(parse_expr("x"), "x", -1)


# -- random trees ---------------------------------------------------------

_names = st.sampled_from(["x", "y", "u", "du", "x1", "u_1,0"])
_leaves = st.one_of(
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ).map(lambda v: Num(float(v))),
    _names.map(Var),
    st.sampled_from(["pi", "e"]).map(Const),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/^"), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        children.filter(lambda c: not isinstance(c, Num)).map(Neg),
        st.tuples(st.sampled_from(exprlang.FUNCTIONS), children).map(
            lambda t: Call(t[0], t[1])
        ),
    )


@given(st.recursive(_leaves, _extend, max_leaves=12))
@example(BinOp("^", Num(-0.0), Num(0.0)))  # printed "-0.0^0.0", read back as -(0.0^0.0)
def test_format_parse_round_trip_random_trees(tree):
    assert parse_expr(format_expr(tree)) == tree
