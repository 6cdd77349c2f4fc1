#!/usr/bin/env python3
"""Elements, literals and distances over both supported algebras.

Every value printed here is computed exactly: elements of the finite
atomic algebra are bit masks, elements of the finite-cofinite algebra
are (tag, support) pairs with the support packed into a bit mask, and
distances are coordinatewise symmetric differences joined together.
"""

from boolmetric import Point, atomic_algebra, distance, fincof_algebra, norm

alg = atomic_algebra(3)
a = alg.parse("101")
b = alg.parse("011")

print("== finite atomic algebra, 3 atoms ==")
print(f"a        = {a.literal}   (atoms 0 and 2)")
print(f"b        = {b.literal}   (atoms 1 and 2)")
print(f"a | b    = {(a | b).literal}")
print(f"a & b    = {(a & b).literal}")
print(f"a ^ b    = {(a ^ b).literal}")
print(f"~a       = {(~a).literal}")
print(f"a <= a|b : {a <= (a | b)}")

x = Point((alg.parse("110"), alg.parse("001")))
y = Point((alg.parse("011"), alg.parse("000")))
z = Point((alg.parse("000"), alg.parse("111")))
print()
print("points are tuples of elements; the distance is the join of the")
print("coordinatewise symmetric differences:")
print(f"x        = {x}")
print(f"y        = {y}")
print(f"d(x, y)  = {distance(x, y).literal}")
print(f"|x|      = {norm(x, Point((alg.zero, alg.zero))).literal}"
      "   (norm = distance to a basepoint)")
print(f"triangle : d(x,z) = {distance(x, z).literal} <= "
      f"{(distance(x, y) | distance(y, z)).literal} = d(x,y) | d(y,z)")

fc = fincof_algebra()
u = fc.fin({1, 3})
v = fc.cof({1, 2})
print()
print("== finite-cofinite algebra over the natural numbers ==")
print("elements are finite or cofinite subsets.  This algebra is not")
print("complete (ascending chains of finite sets have no join), which is")
print("exactly what the counterexamples exploit.")
print(f"u        = {u.literal}")
print(f"v        = {v.literal}")
print(f"u | v    = {(u | v).literal}")
print(f"u & v    = {(u & v).literal}")
print(f"u ^ v    = {(u ^ v).literal}")
print(f"~v       = {(~v).literal}")
print(f"u.contains(3) = {u.contains(3)}, v.contains(2) = {v.contains(2)}")
