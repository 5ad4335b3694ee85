"""The Step 3 subset check agrees with its unfiltered oracle (hypothesis).

``embeds_into`` rejects on relation counts before it searches;
``tests/core/generators_oracle.py`` always searches.  These properties
draw small generators over two frontier variables and three z's, and
larger conjunctions that are either random or an image of the
generator under a random map fixing the call's frontier, plus extra
atoms, so that both answers occur often.  The call's frontier is
drawn apart from the generator's own, and in the second property
every generator holds a null: the two cases where the count test
must stand aside.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generators import Generator, embeds_into
from repro.datamodel.atoms import Atom
from repro.datamodel.terms import Null, Variable
from tests.core.generators_oracle import embeds_into_unfiltered

ARITIES = {"P": 1, "Q": 2, "R": 2}
FRONTIER = (Variable("x1"), Variable("x2"))
FRESH = tuple(Variable(f"z{index}") for index in range(1, 4))
LARGER_VARIABLES = FRONTIER + tuple(Variable(f"w{index}") for index in range(1, 4))
NULL = Null("n1")
FRONTIER_CHOICES = st.sampled_from([(), FRONTIER[:1], FRONTIER])


def atoms_over(terms, max_size):
    atom = st.sampled_from(sorted(ARITIES)).flatmap(
        lambda relation: st.tuples(
            *[st.sampled_from(terms)] * ARITIES[relation]
        ).map(lambda args, relation=relation: Atom(relation, args))
    )
    return st.lists(atom, min_size=1, max_size=max_size)


@st.composite
def cases(draw, with_null):
    frontier = draw(FRONTIER_CHOICES)
    atoms = draw(atoms_over(FRONTIER + FRESH, 3))
    # A twin of one atom with one argument replaced: by the null, or by
    # x2, which moves freely when the generator's frontier holds it and
    # the call's does not.  Mapped where the replaced argument maps, it
    # collapses the twin onto its original, which no z can do.
    twin = None
    if with_null or draw(st.booleans()):
        original = draw(st.sampled_from(atoms))
        position = draw(st.integers(min_value=0, max_value=original.arity - 1))
        args = list(original.args)
        twin = (args[position], NULL if with_null else FRONTIER[1])
        args[position] = twin[1]
        atoms.append(Atom(original.relation, tuple(args)))
    smaller = Generator(tuple(atoms), draw(FRONTIER_CHOICES))
    if draw(st.booleans()):
        return smaller, frozenset(draw(atoms_over(LARGER_VARIABLES, 4))), frontier
    # an image of smaller fixing the call's frontier, plus extra atoms
    image = {
        term: term if term in frontier else draw(st.sampled_from(LARGER_VARIABLES))
        for term in FRONTIER + FRESH
    }
    if twin is not None and twin[1] not in frontier:
        replaced, moved = twin
        image[moved] = draw(
            st.one_of(st.just(image[replaced]), st.sampled_from(LARGER_VARIABLES))
        )
    extras = draw(atoms_over(LARGER_VARIABLES, 2))
    larger = frozenset(
        [current.substitute(image) for current in smaller.atoms] + extras
    )
    return smaller, larger, frontier


@settings(max_examples=300, deadline=None)
@given(cases(with_null=False))
def test_variable_only_generators(case):
    smaller, larger, frontier = case
    assert embeds_into(smaller, larger, frontier) == embeds_into_unfiltered(
        smaller, larger, frontier
    )


@settings(max_examples=300, deadline=None)
@given(cases(with_null=True))
def test_generators_with_a_null(case):
    smaller, larger, frontier = case
    assert embeds_into(smaller, larger, frontier) == embeds_into_unfiltered(
        smaller, larger, frontier
    )
