"""The move order on orbits, generated by three kinds of moves.

Pair creation turns two opposite signs into a pair; an endpoint slide pushes
a pair entry away from its mate across a sign; a pair exchange swaps entries
of two different pairs.  Each move strictly raises the dimension, and the
reflexive-transitive closure is the move order this package computes.  It
lies inside the closure order but misses some of its relations: 1,1,2,2 lies
in the closure of 1,+,-,1, and no move chain joins them (see
tests/test_findings.py::test_pair_split_relation_is_missed_by_the_moves).
"""

from clans import build_poset, export_dot, format_clan, moves, parse_clan

clan = parse_clan("1,1,-,+", 2, 2)
print(f"moves available from {format_clan(clan)}:")
for mv in moves(clan):
    print(f"  {mv.kind:14s} at {mv.positions} -> {format_clan(mv.result)}")

print()
poset = build_poset(2, 2)
print(f"the (2,2) poset has {len(poset)} elements; Hasse diagram edges:")
for low, high in poset.hasse_covers():
    print(f"  {format_clan(low):10s} -> {format_clan(high)}")

print()
low = parse_clan("1,+,1,-", 2, 2)
for text in ("1,2,1,2", "1,+,-,1", "1,1,2,2"):
    high = parse_clan(text, 2, 2)
    rel = "<=" if poset.leq(low, high) else "not <="
    print(f"  {format_clan(low)} {rel} {text}")

print()
print("DOT export (paste into graphviz):")
print(export_dot(build_poset(1, 1)))
