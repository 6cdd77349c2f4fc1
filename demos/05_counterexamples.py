#!/usr/bin/env python3
"""Why extension fails over the finite-cofinite algebra — with receipts.

Over a complete algebra every partial isometry of a convex space
extends.  Over the finite-cofinite algebra of subsets of the natural
numbers it does not: for the subspace of disjoint pairs inside the
plane, every candidate image of the pair built from a residue class is
refuted by an explicit finite witness.  The witnesses are small enough
to re-check by hand, and this script prints each inequality violated.
"""

from boolmetric import (IdealDescriptor, PartialMap, Point, bounded_candidates,
                        check_map, contraction_obstruction_witness, distance,
                        fincof_algebra, flatten_pair,
                        isometry_obstruction_witness, line_extension,
                        split_line_point)

alg = fincof_algebra()
evens = IdealDescriptor.evens()

print("the target pair that cannot have a preimage-compatible image:")
print("  (E, ~E) for E = the even numbers — it is a limit the algebra")
print("  cannot reach, so every finitely-described candidate fails.")
print()

print("== isometry obstruction, candidates with support in {0..2} ==")
for v in bounded_candidates(2):
    w = isometry_obstruction_witness((v, ~v), evens)
    print(f"  image ({v.literal}, {(~v).literal}): {w.describe()}")

print()
print("== contraction obstruction, same candidates ==")
for v in bounded_candidates(2):
    w = contraction_obstruction_witness(v, evens)
    print(f"  image {v.literal}: {w.describe()}")

print()
print("== the geometry the obstruction lives in ==")
z = alg.fin({0, 1, 2, 3, 4})
a, b = split_line_point(evens, z)
p = Point((a, b))
q = flatten_pair(p)
print(f"splitting {z.literal} along the evens gives the disjoint pair "
      f"({a.literal}, {b.literal});")
print(f"flattening it back onto the line gives {q}.")
print("the merge map between these coordinates preserves distances:")
z2 = alg.fin({1, 2})
p2 = Point(split_line_point(evens, z2))
print(f"  d(pairs) = {distance(p, p2).literal}")
print(f"  d(lines) = {distance(q, flatten_pair(p2)).literal}")

print()
print("== what still works: translations of the line ==")
offset = alg.cof({5})
xs = [alg.fin(()), alg.fin({2, 7}), alg.cof({0})]
pairs = PartialMap(tuple((Point((x,)), Point((x ^ offset,))) for x in xs))
ext = line_extension(pairs)
print(f"three sample pairs all share the offset {ext.offset.literal},")
print("so the whole line translates by it; sampled verification:")
probe = [Point((alg.fin({9}),)), Point((alg.cof({1, 9}),))]
sampled = ext.as_pairs(list(pairs.sources) + probe)
print(f"  check_map on seeds + fresh probes: {check_map(sampled).kind}")
