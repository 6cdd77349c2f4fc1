"""A reference model of the finite-cofinite algebra: an element is a pair
(cofinite, support) with the support a frozenset of naturals, and every
operation and witness search is the definitional one, over sorted supports
and counting naturals one by one.  The mask-based ``SetElement`` and the
witness searches of ``boolmetric.counterexamples`` are tested against it."""

from itertools import count

from boolmetric import fincof_algebra

ALGEBRA = fincof_algebra()


def build(m):
    """The library element of a model pair."""
    cofinite, support = m
    return ALGEBRA.cof(support) if cofinite else ALGEBRA.fin(support)


def as_model(x):
    return (x.cofinite, x.support)


def meet(a, b):
    (ca, sa), (cb, sb) = a, b
    if not ca and not cb:
        return (False, sa & sb)
    if not ca:
        return (False, sa - sb)
    if not cb:
        return (False, sb - sa)
    return (True, sa | sb)


def join(a, b):
    (ca, sa), (cb, sb) = a, b
    if not ca and not cb:
        return (False, sa | sb)
    if not ca:
        return (True, sb - sa)
    if not cb:
        return (True, sa - sb)
    return (True, sa & sb)


def symdiff(a, b):
    return (a[0] != b[0], a[1] ^ b[1])


def complement(a):
    return (not a[0], a[1])


def difference(a, b):
    return meet(a, complement(b))


def leq(a, b):
    return meet(a, b) == a


def contains(a, n):
    return (n in a[1]) != a[0]


def literal(a):
    return ("cof" if a[0] else "fin") + "{" + ",".join(str(n) for n in sorted(a[1])) + "}"


def sort_key(a):
    return (1 if a[0] else 0, tuple(sorted(a[1])))


def singleton(n):
    return (False, frozenset({n}))


def isometry_witness(a, b, desc):
    """(kind, element, lhs, rhs) refuting the plane candidate (a, b)."""
    (ca, sa), (cb, sb) = a, b
    if not ca:
        m = next(n for n in count() if desc.member(n) and n not in sa)
    else:
        m = next((n for n in sorted(sa) if desc.member(n)), None)
    if m is not None:
        x = singleton(m)
        return "ideal", x, join(symdiff(x, a), b), complement(x)
    if not cb:
        m = next(n for n in count() if not desc.member(n) and n not in sb)
    else:
        m = next((n for n in sorted(sb) if not desc.member(n)), None)
    if m is not None:
        y = singleton(m)
        return "orthogonal", y, join(symdiff(y, b), a), complement(y)
    overlap = meet(a, b)
    return "overlap", overlap, overlap, None


def contraction_witness(v, desc):
    """(kind, element, lhs, rhs) refuting the line value v."""
    n = next(n for n in count() if contains(v, n) != desc.member(n))
    x = singleton(n)
    return "contraction", x, symdiff(v, (False, frozenset({n} if desc.member(n) else ()))), \
        complement(x)


def witness_as_model(w):
    return (w.kind, as_model(w.element), as_model(w.lhs),
            None if w.rhs is None else as_model(w.rhs))
