"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from clans import canonicalize


@st.composite
def random_clans(draw, lengths=st.integers(8, 16), min_pairs=0):
    """A clan with min_pairs to n/2 pairs at random places, signs elsewhere."""
    n = draw(lengths)
    entries = draw(st.lists(st.sampled_from("+-"), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    for k in range(draw(st.integers(min_pairs, n // 2))):
        entries[order[2 * k]] = entries[order[2 * k + 1]] = k + 1
    return canonicalize(entries)
