"""Hypothesis strategies and sweep helpers shared by the test modules."""

from hypothesis import strategies as st

from clans import canonicalize, enumerate_clans


def clans_up_to(max_n):
    """Every clan with p+q <= max_n, by length, then p, then token order."""
    for n in range(max_n + 1):
        for p in range(n + 1):
            yield from enumerate_clans(p, n - p)


@st.composite
def random_clans(draw, lengths=st.integers(8, 16), min_pairs=0):
    """A clan with min_pairs to n/2 pairs at random places, signs elsewhere."""
    n = draw(lengths)
    entries = draw(st.lists(st.sampled_from("+-"), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    for k in range(draw(st.integers(min_pairs, n // 2))):
        entries[order[2 * k]] = entries[order[2 * k + 1]] = k + 1
    return canonicalize(entries)
