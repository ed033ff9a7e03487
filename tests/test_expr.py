import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpscoh.chenruan import CrRing
from wpscoh.expr import (
    Add,
    EvalError,
    Lit,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sub,
    Sym,
    evaluate,
    parse,
    unparse,
)
from wpscoh.kawasaki import KawasakiRing
from wpscoh.orbifold import OrbifoldRing

B = (1, 2, 2, 3, 3, 3)


def test_parse_examples():
    assert parse("a2*a3 + u^2") == Add(Mul(Sym("a2"), Sym("a3")), Pow(Sym("u"), 2))
    assert parse("2*(a4 - 1)") == Mul(Lit(2), Sub(Sym("a4"), Lit(1)))
    assert parse("  g1 *g2  ") == Mul(Sym("g1"), Sym("g2"))


def test_parse_precedence():
    # ^ binds over unary minus over * over +
    assert parse("-u^2") == Neg(Pow(Sym("u"), 2))
    assert parse("-u*a1") == Mul(Neg(Sym("u")), Sym("a1"))
    assert parse("1+2*3") == Add(Lit(1), Mul(Lit(2), Lit(3)))
    assert parse("a1*a2*a3") == Mul(Mul(Sym("a1"), Sym("a2")), Sym("a3"))
    assert parse("1-2-3") == Sub(Sub(Lit(1), Lit(2)), Lit(3))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("u^^2")
    assert err.value.position == 2

    with pytest.raises(ParseError) as err:
        parse("u^2^3")
    assert err.value.position == 3

    with pytest.raises(ParseError) as err:
        parse("u + %")
    assert err.value.position == 4

    with pytest.raises(ParseError):
        parse("a")  # bare sector letter needs digits

    with pytest.raises(ParseError):
        parse("(u")

    with pytest.raises(ParseError):
        parse("")

    with pytest.raises(ParseError):
        parse("u u")

    with pytest.raises(ParseError):
        parse("u^a2")  # exponents must be literal naturals


@pytest.mark.parametrize(
    "text, position",
    [("u²", 1), ("2²", 1), ("u^²", 2), ("a1²", 2), ("u^" + "9" * 5000, 2), ("a" + "1" * 5000, 1)],
)
def test_bad_literals_are_parse_errors_at_their_position(text, position):
    """A digit int() rejects, or more digits than int() converts, is a
    ParseError where the literal stands, not int()'s ValueError."""
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == position
    assert "set_int_max_str_digits" not in str(err.value)


def test_decimal_digits_that_int_reads_still_parse():
    assert parse("u^\u0663") == parse("u^3")


def test_unparse_round_trip_examples():
    for text in [
        "a2*a3 + u^2",
        "2*(a4 - 1)",
        "-u^2",
        "-(u*a1)",
        "1 - (2 - 3)",
        "(a1 + a2)*a3",
        "u^0",
        "--u",
    ]:
        tree = parse(text)
        assert parse(unparse(tree)) == tree


_leaf = st.one_of(
    st.integers(0, 9).map(Lit),
    st.sampled_from(["u", "a1", "a2", "g1"]).map(Sym),
)


def _exprs(children):
    return st.one_of(
        st.tuples(children, children).map(lambda p: Add(*p)),
        st.tuples(children, children).map(lambda p: Sub(*p)),
        st.tuples(children, children).map(lambda p: Mul(*p)),
        children.map(Neg),
        st.tuples(children, st.integers(0, 4)).map(lambda p: Pow(*p)),
    )


expr_trees = st.recursive(_leaf, _exprs, max_leaves=12)


@given(expr_trees)
@settings(max_examples=300)
def test_unparse_parse_fixpoint(tree):
    assert parse(unparse(tree)) == tree


def test_evaluate_in_sector_ring():
    ring = CrRing(B)
    assert evaluate(parse("a2*a3"), ring).is_zero
    assert evaluate(parse("a2*a2"), ring) == ring.element({4: {2: 4}})
    lhs = evaluate(parse("(a4*a4)*a4"), ring)
    rhs = evaluate(parse("a4*(a4*a4)"), ring)
    assert lhs == rhs
    assert evaluate(parse("a0"), ring) == ring.one()
    assert evaluate(parse("u^3 + 2"), ring) == ring.u(3) + ring.from_int(2)


def test_evaluate_in_other_rings():
    kaw = KawasakiRing(B)
    assert evaluate(parse("g1*g1"), kaw) == kaw.gamma(2)
    assert evaluate(parse("g0"), kaw) == kaw.one()
    orb = OrbifoldRing((1, 2))
    assert evaluate(parse("2*u^2"), orb).is_zero
    assert evaluate(parse("-3"), orb) == orb.from_int(-3)


def test_evaluate_rejects_foreign_symbols():
    ring = CrRing(B)
    with pytest.raises(EvalError):
        evaluate(parse("a7"), ring)  # sector index out of range
    with pytest.raises(EvalError):
        evaluate(parse("g1"), ring)
    kaw = KawasakiRing(B)
    with pytest.raises(EvalError):
        evaluate(parse("u"), kaw)
    with pytest.raises(EvalError):
        evaluate(parse("g9"), kaw)
    orb = OrbifoldRing(B)
    with pytest.raises(EvalError):
        evaluate(parse("a1"), orb)


small_trees = st.recursive(
    st.one_of(st.integers(0, 5).map(Lit), st.sampled_from(["u", "a1", "a2"]).map(Sym)),
    _exprs,
    max_leaves=6,
)


@given(small_trees, small_trees)
@settings(max_examples=120, deadline=None)
def test_evaluate_is_a_homomorphism(x, y):
    ring = CrRing((1, 2, 3))
    vx = evaluate(x, ring)
    vy = evaluate(y, ring)
    assert evaluate(Add(x, y), ring) == vx + vy
    assert evaluate(Sub(x, y), ring) == vx - vy
    assert evaluate(Mul(x, y), ring) == vx * vy
    assert evaluate(Neg(x), ring) == -vx
    assert evaluate(Pow(x, 2), ring) == vx * vx


def test_nesting_bound():
    assert parse("(" * 100 + "u" + ")" * 100) == Sym("u")
    with pytest.raises(ParseError, match="nests deeper than 100 levels"):
        parse("(" * 3000 + "u" + ")" * 3000)
    with pytest.raises(ParseError, match="nests deeper"):
        parse("-" * 101 + "u")
    with pytest.raises(ParseError, match="nests deeper"):
        parse("(-" * 51 + "u" + ")" * 51)


def test_long_chains_evaluate_without_recursion():
    orb = OrbifoldRing((1, 2))
    assert evaluate(parse(" + ".join(["u"] * 3000)), orb) == orb.u(coeff=3000)
    assert evaluate(parse("*".join(["u"] * 3000)), orb) == orb.u(3000)
    assert evaluate(parse("u" + " - u" * 2999), orb) == orb.u(coeff=-2998)
    assert evaluate(parse("2*u + 3*u*u - u^2"), orb) == orb.element({1: 2, 2: 2})


def test_long_chains_unparse_without_recursion():
    assert unparse(parse("u+" * 3000 + "u")) == " + ".join(["u"] * 3001)
    assert unparse(parse("u*" * 3000 + "u")) == "*".join(["u"] * 3001)
    chain = "u - 2*a1" + " + 3*a2 - (u + 1)" * 1000
    assert unparse(parse(chain)) == chain


def test_long_chains_compare_hash_and_print_without_recursion():
    text = "u+" * 3000 + "u"
    assert parse(text) == parse(text.replace("+", " + "))
    assert parse(text) != parse(text[:-1] + "1")
    assert parse(text) != parse("u-" + text[2:])
    assert hash(parse(text)) == hash(parse(text.replace("+", " + ")))
    leaf = "Sym(name='u')"
    assert repr(parse(text)) == "Add(left=" * 3000 + leaf + f", right={leaf})" * 3000


def test_inner_node_methods_match_the_generated_ones():
    tree = parse("-(2*a1 - u^3)")
    assert repr(tree) == (
        "Neg(operand=Sub(left=Mul(left=Lit(value=2), right=Sym(name='a1')), "
        "right=Pow(base=Sym(name='u'), exponent=3)))"
    )
    # leaf positions stay out of equality and hashing
    assert tree == Neg(Sub(Mul(Lit(2), Sym("a1")), Pow(Sym("u"), 3)))
    assert hash(tree) == hash(Neg(Sub(Mul(Lit(2), Sym("a1")), Pow(Sym("u"), 3))))
    assert Add(Lit(1), Lit(2)) != Sub(Lit(1), Lit(2))
    assert Pow(Sym("u"), 2) != Pow(Sym("u"), 3)
    assert Neg(Lit(1)) != Lit(1) and Lit(1) != Neg(Lit(1))
    assert len({Mul(Sym("u"), Lit(2)), Mul(Sym("u"), Lit(2)), Mul(Lit(2), Sym("u"))}) == 2
