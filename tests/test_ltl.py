import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_formula
from shieldcraft import ltl
from shieldcraft.ltl import (
    And,
    Atom,
    Eventually,
    FALSE,
    Fragment,
    Globally,
    LtlSyntaxError,
    Next,
    NotAtom,
    Or,
    PropositionTable,
    TRUE,
    UnknownAtomError,
    UnsupportedOperatorError,
    Until,
    canonicalize,
    classify,
    conjoin,
    is_cosafe,
    is_safe,
    negate,
    parse,
    to_text,
)

TABLE = PropositionTable(("p0", "p1", "p2", "p3", "p4"))


class TestParse:
    def test_simple_liveness(self):
        assert parse("F p0", TABLE) == Eventually(Atom(0))

    def test_negation_pushed_through_or(self):
        f = parse("G !(p1 | p2)", TABLE)
        assert f == Globally(And((NotAtom(1), NotAtom(2))))

    def test_binary_operator_without_left_operand(self):
        with pytest.raises(LtlSyntaxError) as err:
            parse("U p0", TABLE)
        assert err.value.position == 0

    def test_unknown_atom_reports_name(self):
        with pytest.raises(UnknownAtomError) as err:
            parse("F q7", TABLE)
        assert err.value.name == "q7"

    def test_unbalanced_paren_position(self):
        with pytest.raises(LtlSyntaxError) as err:
            parse("(p0 & p1", TABLE)
        assert err.value.position == 8

    def test_comments_and_whitespace(self):
        f = parse("# task\nF p0  # trailing\n", TABLE)
        assert f == Eventually(Atom(0))

    def test_precedence_unary_until_and_or(self):
        # unary > U > & > |
        f = parse("p0 | p1 & p2 U p3", TABLE)
        assert isinstance(f, Or)
        assert parse("F p0 U p1", TABLE) == Until(Eventually(Atom(0)), Atom(1))

    def test_until_right_associative(self):
        f = parse("p0 U p1 U p2", TABLE)
        assert f == Until(Atom(0), Until(Atom(1), Atom(2)))

    def test_literals(self):
        assert parse("true", TABLE) is TRUE
        assert parse("!true", TABLE) is FALSE

    def test_negated_until_rejected(self):
        with pytest.raises(UnsupportedOperatorError):
            parse("!(p0 U p1)", TABLE)

    def test_double_negation(self):
        assert parse("!!p0", TABLE) == Atom(0)

    def test_negation_swaps_eventually_and_globally(self):
        assert parse("!F p0", TABLE) == Globally(NotAtom(0))
        assert parse("!G !p0", TABLE) == Eventually(Atom(0))
        assert parse("!X F p0", TABLE) == Next(Globally(NotAtom(0)))

    def test_until_under_an_even_number_of_negations(self):
        # the one-pass parser cancels the negations before it reaches U
        until = Until(Atom(0), Atom(1))
        assert parse("!!(p0 U p1)", TABLE) == until
        assert parse("!X!(p0 U p1)", TABLE) == Next(until)

    def test_negated_until_reported_before_a_later_error(self):
        with pytest.raises(UnsupportedOperatorError):
            parse("!(p0 U p1", TABLE)
        with pytest.raises(UnsupportedOperatorError):
            parse("!(p0 U q7)", TABLE)

    def test_complex_chain(self):
        f = parse("F (p3 & X F (p4 & X F (p3 & X F (p4 & X F p3))))", TABLE)
        assert classify(f) is Fragment.COSAFE


class TestCanonicalForm:
    def test_and_flattens_and_sorts(self):
        a, b, c = Atom(0), Atom(1), Atom(2)
        f = ltl.conj([ltl.conj([c, a]), b])
        assert isinstance(f, And)
        assert f.children == (a, b, c)

    def test_and_dedupes(self):
        f = parse("p0 & p0", TABLE)
        assert f == Atom(0)

    def test_identity_absorption(self):
        assert parse("p0 & true", TABLE) == Atom(0)
        assert parse("p0 & false", TABLE) is FALSE
        assert parse("p0 | true", TABLE) is TRUE
        assert parse("p0 | false", TABLE) == Atom(0)

    def test_empty_conj_is_true(self):
        assert ltl.conj([]) is TRUE
        assert ltl.disj([]) is FALSE

    def test_idempotence_on_random_formulas(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            f = random_formula(rng, depth=6, n_atoms=4)
            g = canonicalize(f)
            assert canonicalize(g) == g

    def test_structural_equality_is_canonical(self):
        f = parse("p0 & (p1 & p2)", TABLE)
        g = parse("(p2 & p0) & p1", TABLE)
        assert f == g and hash(f) == hash(g)


class TestClassify:
    def test_examples(self):
        assert classify(Eventually(Atom(0))) is Fragment.COSAFE
        assert classify(Globally(And((NotAtom(1), NotAtom(2))))) is Fragment.SAFE
        assert classify(Eventually(Globally(Atom(0)))) is Fragment.NEITHER

    def test_boolean_only_formula_sits_in_both_fragments(self):
        f = parse("p0 & X p1", TABLE)
        assert is_cosafe(f) and is_safe(f)
        assert classify(f) is Fragment.COSAFE  # documented precedence


class TestNegate:
    def test_safety_dualization(self):
        f = Globally(And((NotAtom(1), NotAtom(2))))
        assert negate(f) == Eventually(Or((Atom(1), Atom(2))))

    def test_constants(self):
        assert negate(TRUE) is FALSE

    def test_eventually_dual(self):
        assert negate(Eventually(Atom(0))) == Globally(NotAtom(0))

    def test_involution_and_fragment_swap(self):
        # U-free formulas: negation is involutive and swaps the fragments
        rng = np.random.default_rng(7)
        for _ in range(300):
            f = random_formula(rng, 5, 3, ops=("and", "or", "next", "ev", "glob"))
            g = negate(f)
            assert negate(g) == f
            assert is_safe(g) == is_cosafe(f)
            assert is_cosafe(g) == is_safe(f)

    def test_until_unsupported(self):
        with pytest.raises(UnsupportedOperatorError):
            negate(Until(Atom(0), Atom(1)))


class TestConjoin:
    def test_plain(self):
        f = conjoin(Eventually(Atom(0)), Globally(NotAtom(1)))
        assert isinstance(f, And) and len(f.children) == 2

    def test_true_identity(self):
        f = Eventually(Atom(0))
        assert conjoin(f, TRUE) == f

    def test_idempotence(self):
        f = Eventually(Atom(0))
        assert conjoin(f, f) == f


class TestPrinting:
    def test_round_trip_examples(self):
        for text in (
            "F p0",
            "G (!p1 & !p2)",
            "p0 U (p1 U p2)",
            "(p0 | p1) & X p2",
            "F (p3 & X F p4)",
            "true",
            "X true",
        ):
            f = parse(text, TABLE)
            assert parse(to_text(f, TABLE), TABLE) == f

    def test_print_parse_fixed_point_on_random_formulas(self):
        rng = np.random.default_rng(3)
        for _ in range(400):
            f = random_formula(rng, 5, 4)
            assert parse(to_text(f, TABLE), TABLE) == f


@given(
    st.recursive(
        st.sampled_from([TRUE, FALSE, Atom(0), Atom(1), NotAtom(0), NotAtom(2)]),
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda ab: ltl.conj(ab)),
            st.tuples(children, children).map(lambda ab: ltl.disj(ab)),
            children.map(Next),
            children.map(Eventually),
            children.map(Globally),
            st.tuples(children, children).map(lambda ab: Until(*ab)),
        ),
        max_leaves=12,
    )
)
@settings(max_examples=200, deadline=None)
def test_canonicalize_idempotent_hypothesis(f):
    g = canonicalize(f)
    assert canonicalize(g) == g


class TestPropositionTable:
    def test_limits(self):
        with pytest.raises(ValueError):
            PropositionTable(tuple(f"a{i}" for i in range(17)))
        with pytest.raises(ValueError):
            PropositionTable(("p0", "p0"))
        with pytest.raises(ValueError):
            PropositionTable(("true",))

    def test_index(self):
        assert TABLE.index("p3") == 3
        with pytest.raises(UnknownAtomError):
            TABLE.index("nope")
