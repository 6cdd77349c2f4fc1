"""Finite refutations over the finite-cofinite algebra: frozen cases, and
the mask kernel against the ``Witness`` wrappers and the set model."""

import pytest

from boolmetric import (IdealDescriptor, InfeasibleError, PartialMap, Point,
                        StructureError, UnsupportedOperationError, Witness,
                        bounded_candidates, check_map,
                        contraction_obstruction_witness, distance,
                        fincof_algebra, flatten_pair, in_ideal,
                        in_orthogonal_ideal, in_sum_ideal, is_disjoint_pair,
                        is_line_point, is_split_pair,
                        isometry_obstruction_witness, line_extension,
                        split_line_point, unflatten_line_point)

from boolmetric.counterexamples import (_contraction_witness, _isometry_witness,
                                       _members_window, _violated)
import fincof_model as model

ALG = fincof_algebra()
EVENS = IdealDescriptor.evens()


def test_descriptor_basics():
    assert EVENS.member(0) and EVENS.member(4) and not EVENS.member(3)
    odds = IdealDescriptor.odds()
    assert odds.member(3) and not odds.member(2)
    three = IdealDescriptor.parse("mod:1,3")
    assert three.member(4) and not three.member(3)
    assert three.label == "mod:1,3"
    assert IdealDescriptor.parse("evens") == EVENS
    with pytest.raises(StructureError):
        IdealDescriptor.parse("primes")
    with pytest.raises(StructureError):
        IdealDescriptor(0, 1)  # the set must be co-infinite


def test_member_mask():
    for m in range(2, 9):
        for r in range(m):
            desc = IdealDescriptor(r, m)
            for width in range(3 * m + 2):
                members = [n for n in range(width) if desc.member(n)]
                assert desc.member_mask(width) == sum(1 << n for n in members)
    with pytest.raises(StructureError):
        IdealDescriptor(5, 3)


def test_ideal_memberships():
    assert in_ideal(EVENS, ALG.fin({0, 2, 8}))
    assert not in_ideal(EVENS, ALG.fin({1, 2}))
    assert not in_ideal(EVENS, ALG.cof({}))
    assert in_orthogonal_ideal(EVENS, ALG.fin({1, 3}))
    assert not in_orthogonal_ideal(EVENS, ALG.fin({0}))
    assert not in_orthogonal_ideal(EVENS, ALG.cof({1}))
    assert in_sum_ideal(EVENS, ALG.fin({0, 1, 7}))
    assert not in_sum_ideal(EVENS, ALG.cof({0}))


def test_split_and_plane_membership():
    z = ALG.fin({0, 1, 2, 3})
    a, b = split_line_point(EVENS, z)
    assert a == ALG.fin({0, 2}) and b == ALG.fin({1, 3})
    p = Point((a, b))
    assert is_disjoint_pair(p) and is_split_pair(EVENS, p)
    assert not is_disjoint_pair(Point((ALG.fin({1}), ALG.fin({1}))))
    assert is_line_point(EVENS, Point((z, ALG.zero)))
    assert not is_line_point(EVENS, Point((ALG.cof({}), ALG.zero)))


def test_merge_map_round_trip_and_distances():
    pairs = [Point((ALG.fin({0, 2}), ALG.fin({1, 3}))),
             Point((ALG.fin({4}), ALG.fin({}),))]
    flat = [flatten_pair(p) for p in pairs]
    assert flat[0] == Point((ALG.fin({0, 1, 2, 3}), ALG.zero))
    assert distance(flat[0], flat[1]) == distance(pairs[0], pairs[1])
    for p, f in zip(pairs, flat):
        assert unflatten_line_point(EVENS, f) == p


def test_isometry_witness_frozen_cases():
    # finite first coordinate: some even number escapes it
    w = isometry_obstruction_witness((ALG.fin({2}), ALG.cof(())), EVENS)
    assert w.kind == "ideal" and w.verified
    assert w.element == ALG.fin({0})
    assert w.lhs == ALG.cof(()) and w.rhs == ALG.cof({0})
    # first coordinate swallows the evens, second is finite: an odd escapes
    w2 = isometry_obstruction_witness((ALG.cof({1}), ALG.fin({1})), EVENS)
    assert w2.kind == "orthogonal" and w2.verified
    assert w2.element == ALG.fin({3})
    # both coordinates huge: they overlap
    w3 = isometry_obstruction_witness((ALG.cof({1}), ALG.cof({0})), EVENS)
    assert w3.kind == "overlap" and w3.verified
    assert w3.element == ALG.cof({0, 1})
    assert w3.rhs is None


def test_contraction_witness_frozen_cases():
    w = contraction_obstruction_witness(ALG.cof(()), EVENS)
    assert w.kind == "contraction" and w.verified
    assert w.element == ALG.fin({1})
    assert w.lhs == ALG.cof(()) and w.rhs == ALG.cof({1})
    w2 = contraction_obstruction_witness(ALG.fin(()), EVENS)
    assert w2.element == ALG.fin({0})
    assert w2.lhs == ALG.fin({0})
    w3 = contraction_obstruction_witness(ALG.fin({0, 2, 4}), EVENS)
    # first disagreement with the evens is at 6
    assert w3.element == ALG.fin({6}) and w3.verified


def test_every_bounded_candidate_is_refuted():
    for v in bounded_candidates(4):
        assert contraction_obstruction_witness(v, EVENS).verified
        assert isometry_obstruction_witness((v, ~v), EVENS).verified


def descriptors():
    yield EVENS
    yield IdealDescriptor.odds()
    for m in range(3, 9):
        for r in range(m):
            yield IdealDescriptor.parse(f"mod:{r},{m}")


def model_pair(p):
    """A kernel's (cofinite, mask) pair as a model pair."""
    return None if p is None else (p[0], frozenset(n for n in range(p[1].bit_length())
                                                   if p[1] >> n & 1))


def model_verified(lhs, rhs):
    return lhs != (False, frozenset()) if rhs is None else not model.leq(lhs, rhs)


def agree(kernel, wrapper, expected):
    """The kernel's pairs, the public ``Witness`` and the model's
    (kind, element, lhs, rhs) agree, and so does each one's verdict."""
    kind, element, lhs, rhs = kernel
    from_kernel = (kind, model_pair(element), model_pair(lhs), model_pair(rhs),
                   _violated(lhs, rhs))
    from_wrapper = model.witness_as_model(wrapper) + (wrapper.verified,)
    from_model = expected + (model_verified(expected[2], expected[3]),)
    assert from_kernel == from_wrapper == from_model
    assert from_model[-1]


def test_mask_kernel_wrappers_and_model_agree():
    kinds = set()
    for desc in descriptors():
        wide = _members_window(desc, (1 << 9) - 1)
        for mask in range(1 << 9):
            for cofinite in (False, True):
                v = (cofinite, mask)
                x = model_pair(v)
                elem = model.build(x)
                agree(_contraction_witness(v, wide),
                      contraction_obstruction_witness(elem, desc),
                      model.contraction_witness(x, desc))
                b = (not cofinite, mask)
                agree(_isometry_witness(v, b, wide),
                      isometry_obstruction_witness((elem, ~elem), desc),
                      model.isometry_witness(x, model_pair(b), desc))
        # General plane candidates (a, b), both-cofinite ones included.
        for am in range(1 << 4):
            for bm in range(1 << 4):
                for ac in (False, True):
                    for bc in (False, True):
                        a, b = (ac, am), (bc, bm)
                        kernel = _isometry_witness(a, b, _members_window(desc, am, bm))
                        kinds.add(kernel[0])
                        agree(kernel,
                              isometry_obstruction_witness(
                                  (model.build(model_pair(a)), model.build(model_pair(b))),
                                  desc),
                              model.isometry_witness(model_pair(a), model_pair(b), desc))
    assert kinds == {"ideal", "orthogonal", "overlap"}


def test_bounded_candidates_order_and_count():
    first = list(bounded_candidates(1))
    assert [c.literal for c in first] == [
        "fin{}", "cof{}", "fin{0}", "cof{0}", "fin{1}", "cof{1}",
        "fin{0,1}", "cof{0,1}"]
    assert len(list(bounded_candidates(3))) == 32


def test_witness_descriptions_are_recheckable():
    w = isometry_obstruction_witness((ALG.fin({2}), ALG.cof(())), EVENS)
    text = w.describe()
    assert "fin{0}" in text and "violates" in text
    # the re-check rejects an inequality that holds
    assert not Witness("overlap", ALG.zero, ALG.zero, None).verified
    assert not Witness("ideal", ALG.fin({0}), ALG.fin({1}), ALG.cof({0})).verified
    assert Witness("overlap", ALG.cof({0}), ALG.cof({0}), None).describe() == \
        "kind=overlap witness=cof{0} violates cof{0} = 0"


def test_line_extension_recovers_offsets():
    offset = ALG.cof({2})
    xs = [ALG.fin(()), ALG.fin({1, 3}), ALG.cof({0})]
    pm = PartialMap(tuple((Point((x,)), Point((x ^ offset,))) for x in xs))
    ext = line_extension(pm)
    assert ext.offset == offset
    probe = Point((ALG.fin({5}),))
    assert ext(probe) == Point((ALG.fin({5}) ^ offset,))
    assert check_map(ext.as_pairs([Point((x,)) for x in xs])).kind == "isometric"


def test_line_extension_over_atomic_line_is_total():
    from boolmetric import atomic_algebra
    alg = atomic_algebra(2)
    offset = alg.parse("10")
    pm = PartialMap(((Point((alg.parse("00"),)), Point((offset,))),))
    full = line_extension(pm).full_map()
    assert len(full) == 4
    assert check_map(full).kind == "isometric"


def test_line_extension_rejects_inconsistent_pairs():
    x0, x1 = Point((ALG.fin(()),)), Point((ALG.fin({1}),))
    one = Point((ALG.fin({1}),))
    with pytest.raises(InfeasibleError) as err:
        line_extension(PartialMap(((x0, one), (x1, one))))
    assert err.value.witness is not None


def test_line_extension_full_map_unsupported_over_fincof():
    pm = PartialMap(((Point((ALG.fin(()),)), Point((ALG.fin({1}),))),))
    ext = line_extension(pm)
    with pytest.raises(UnsupportedOperationError):
        ext.full_map()
