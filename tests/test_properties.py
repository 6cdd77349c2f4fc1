"""Property tests (hypothesis, an optional test dependency): the
pattern-table transport against decompose plus convex_combine point by
point, and the mask-based finite-cofinite elements against the frozenset
model in ``fincof_model``."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

import fincof_model as model
from boolmetric import (NotInHullError, Point, atomic_algebra, convex_combine,
                        decompose)
from boolmetric.counterexamples import (IdealDescriptor, contraction_obstruction_witness,
                                        isometry_obstruction_witness)
from test_oracles import transported


@st.composite
def transport_cases(draw):
    """Generators, parallel images and probe points over one finite atomic
    algebra; images may have another dimension than the generators."""
    k = draw(st.integers(1, 4))
    alg = atomic_algebra(k)
    element = st.integers(0, (1 << k) - 1).map(alg._make)
    dim, image_dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    gens = draw(st.lists(st.lists(element, min_size=dim, max_size=dim).map(Point),
                         min_size=1, max_size=5))
    images = [Point(draw(st.lists(element, min_size=image_dim, max_size=image_dim)))
              for _ in gens]
    # a probe copies some generator's coordinates on each atom, or is arbitrary
    choices = st.lists(st.integers(0, len(gens) - 1), min_size=k, max_size=k)
    spliced = choices.map(lambda c: Point(
        alg._make(sum(gens[i].coords[j].bits & 1 << t for t, i in enumerate(c)))
        for j in range(dim)))
    arbitrary = st.lists(element, min_size=dim, max_size=dim).map(Point)
    probes = draw(st.lists(spliced | arbitrary, min_size=1, max_size=6))
    return gens, images, probes


@settings(max_examples=200, deadline=None)
@given(transport_cases())
def test_transport_is_decompose_then_convex_combine(case):
    gens, images, probes = case
    expected, failure = [], None
    for x in sorted(set(probes), key=Point.sort_key):
        try:
            coeffs = decompose(x, gens)
        except NotInHullError as exc:
            failure = (x, exc.atom_index)
            break
        expected.append(convex_combine(coeffs, images))
    if failure is None:
        assert transported(probes, gens, images) == expected
    else:
        with pytest.raises(NotInHullError) as err:
            transported(probes, gens, images)
        assert (err.value.point, err.value.atom_index) == failure


model_elements = st.tuples(st.booleans(), st.frozensets(st.integers(0, 130), max_size=12))
predicates = st.integers(2, 8).flatmap(
    lambda m: st.integers(0, m - 1).map(lambda r: IdealDescriptor(r, m)))


@settings(max_examples=300, deadline=None)
@given(model_elements, model_elements, predicates)
def test_fincof_masks_follow_the_set_model(ma, mb, desc):
    a, b = model.build(ma), model.build(mb)
    assert model.as_model(a & b) == model.meet(ma, mb)
    assert model.as_model(a | b) == model.join(ma, mb)
    assert model.as_model(a ^ b) == model.symdiff(ma, mb)
    assert model.as_model(a - b) == model.difference(ma, mb)
    assert model.as_model(~a) == model.complement(ma)
    assert (a <= b) == model.leq(ma, mb) and (a == b) == (ma == mb)
    assert a.literal == model.literal(ma) and a.algebra.parse(a.literal) == a
    assert a.sort_key() == model.sort_key(ma)
    assert all(a.contains(n) == model.contains(ma, n) for n in range(132))
    w = isometry_obstruction_witness((a, b), desc)
    assert model.witness_as_model(w) == model.isometry_witness(ma, mb, desc)
    w = contraction_obstruction_witness(a, desc)
    assert model.witness_as_model(w) == model.contraction_witness(ma, desc)
