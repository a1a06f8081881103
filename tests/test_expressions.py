import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudopde import expressions as xp
from pseudopde.errors import ExpressionDomainError, ExpressionSyntaxError, InputError


def test_single_variable():
    assert xp.parse("y", 1) == xp.Var("y")


def test_precedence_example():
    node = xp.parse("2*x1 + sin(t)", 1)
    assert node == xp.BinOp(
        "+",
        xp.BinOp("*", xp.Const(2.0), xp.Var("x1")),
        xp.Call("sin", (xp.Var("t"),)),
    )


def test_incomplete_input_reports_offset():
    with pytest.raises(ExpressionSyntaxError) as err:
        xp.parse("x1 +", 1)
    assert err.value.offset == 4


def test_unknown_identifier_and_arity():
    with pytest.raises(ExpressionSyntaxError):
        xp.parse("x2", 1)  # only x1 exists in dimension 1
    with pytest.raises(ExpressionSyntaxError):
        xp.parse("foo(1)", 1)
    with pytest.raises(ExpressionSyntaxError):
        xp.parse("sin(1, 2)", 1)
    with pytest.raises(ExpressionSyntaxError):
        xp.parse("max(1)", 1)
    with pytest.raises(ExpressionSyntaxError):
        xp.parse("", 1)


def test_power_binds_tighter_than_unary_minus():
    assert xp.evaluate(xp.parse("-x1^2", 1), {"x1": 2.0}) == -4.0
    assert xp.evaluate(xp.parse("(-x1)^2", 1), {"x1": 2.0}) == 4.0
    # right associativity
    assert xp.evaluate(xp.parse("2^3^2", 1), {}) == 512.0
    assert xp.evaluate(xp.parse("2^-1", 1), {}) == 0.5


def test_left_associativity():
    assert xp.evaluate(xp.parse("8/4/2", 1), {}) == 1.0
    assert xp.evaluate(xp.parse("8-4-2", 1), {}) == 2.0


def test_eval_examples():
    assert xp.evaluate(xp.parse("max(z, 0)", 1), {"z": -2.0}) == 0.0
    assert xp.evaluate(xp.parse("exp(0) + tanh(0)", 1), {}) == 1.0
    assert xp.evaluate(xp.parse("min(t, 1)", 1), {"t": 3.0}) == 1.0


def test_division_by_zero_carries_node():
    node = xp.parse("1/x1", 1)
    with pytest.raises(ExpressionDomainError) as err:
        xp.evaluate(node, {"x1": 0.0})
    assert err.value.node == node


def test_domain_errors():
    with pytest.raises(ExpressionDomainError):
        xp.evaluate(xp.parse("log(x1)", 1), {"x1": -1.0})
    with pytest.raises(ExpressionDomainError):
        xp.evaluate(xp.parse("log(x1)", 1), {"x1": 0.0})
    with pytest.raises(ExpressionDomainError):
        xp.evaluate(xp.parse("sqrt(x1)", 1), {"x1": -4.0})
    with pytest.raises(ExpressionDomainError):
        xp.evaluate(xp.parse("exp(x1)", 1), {"x1": 1e4})  # overflow is not silent
    # array environments: any offending entry triggers
    with pytest.raises(ExpressionDomainError):
        xp.evaluate(xp.parse("1/x1", 1), {"x1": np.array([1.0, 0.0, 2.0])})


def test_missing_variable_is_input_error():
    with pytest.raises(InputError):
        xp.evaluate(xp.parse("y + z", 1), {"y": 1.0})


def test_vectorized_evaluation_matches_scalar():
    node = xp.parse("sin(x1)*y + t^2", 1)
    xs = np.linspace(-2, 2, 11)
    ys = np.linspace(0, 1, 11)
    out = xp.evaluate(node, {"x1": xs, "y": ys, "t": 0.5})
    for k in range(11):
        assert out[k] == pytest.approx(np.sin(xs[k]) * ys[k] + 0.25)


def _trees(dimension=2, depth=3):
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=9.5, allow_nan=False).map(
            lambda v: xp.Const(round(v, 3))
        ),
        st.sampled_from(["t", "y", "z", "x1", "x2"]).map(xp.Var),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda t: xp.BinOp(*t)
            ),
            children.map(xp.Neg),
            st.tuples(st.sampled_from(list(xp.UNARY_FUNCTIONS)), children).map(
                lambda t: xp.Call(t[0], (t[1],))
            ),
            st.tuples(st.sampled_from(list(xp.BINARY_FUNCTIONS)), children, children).map(
                lambda t: xp.Call(t[0], (t[1], t[2]))
            ),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@given(tree=_trees())
@settings(max_examples=200, deadline=None)
def test_pretty_parse_round_trip(tree):
    assert xp.parse(xp.pretty(tree), 2) == tree


def test_round_trip_is_fixpoint_on_source():
    for text in ["2*x1 + sin(t)", "-x1^2", "max(z, 0) - y/3", "x1^-2 * (y + z)"]:
        once = xp.pretty(xp.parse(text, 1))
        assert xp.pretty(xp.parse(once, 1)) == once


def test_driver_and_terminal_wrappers():
    f = xp.as_driver_fn(xp.parse("0.5*y + z - x1", 1), 1)
    out = f(0.0, np.array([[1.0], [2.0]]), np.array([2.0, 4.0]), np.array([1.0, 1.0]))
    np.testing.assert_allclose(out, [1.0, 1.0])
    g = xp.as_function_of_x(xp.parse("x1^2", 1), 1)
    np.testing.assert_allclose(g(np.array([[3.0]])), [9.0])
    with pytest.raises(InputError):
        xp.as_function_of_x(xp.parse("y", 1), 1)


@pytest.mark.parametrize(
    "text", ["y", "z", "x1", "x2", "2.5", "t", "-x1", "0.5*y + z", "max(y, x2)"]
)
def test_wrapped_results_are_writable_and_own_their_memory(text):
    # an input returned as is, or a scalar, comes back as a new array; a
    # result the evaluation made comes back as it is; none aliases an input
    f = xp.as_driver_fn(xp.parse(text, 2), 2)
    x = np.arange(8.0).reshape(4, 2)
    y, z = np.linspace(-1.0, 1.0, 4), np.full(4, 0.25)
    for a in (x, y, z):
        a.flags.writeable = False
    out = f(0.5, x, y, z)
    assert out.shape == (4,) and out.flags.writeable
    assert not any(np.shares_memory(out, a) for a in (x, y, z))
    expected = out.copy()
    out += 1.0
    np.testing.assert_array_equal(f(0.5, x, y, z), expected)


def test_wrapped_results_made_by_the_evaluation_are_not_copied(monkeypatch):
    made = []

    def recording(node, env, evaluate=xp.evaluate):
        made.append(evaluate(node, env))
        return made[-1]

    monkeypatch.setattr(xp, "evaluate", recording)
    f = xp.as_driver_fn(xp.parse("0.5*y + z", 1), 1)
    out = f(0.0, np.zeros((3, 1)), np.ones(3), np.ones(3))
    assert out is made[0]
