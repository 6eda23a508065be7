from fractions import Fraction

import pytest

from diffwedge.wedge import (WedgeComplex, branches_at, glue_complexes, line,
                             switch_map)


def test_two_lines_at_origin():
    g = glue_complexes(line("a"), line("b"), [(("a", 0), ("b", 0))])
    assert len(g.result.glue_classes) == 1
    assert g.result.glue_classes[0] == (("a", Fraction(0)), ("b", Fraction(0)))


def test_empty_gluing_is_disjoint_union():
    g = glue_complexes(line("a"), line("b"), [])
    assert g.result.glue_classes == ()
    assert len(g.result.charts) == 2


def test_three_consecutive_gluings():
    g1 = glue_complexes(line("a"), line("b"), [(("a", 0), ("b", 0))])
    g2 = glue_complexes(g1.result, line("c"), [(("a", 0), ("c", 0))])
    assert len(g2.result.glue_classes) == 1
    assert len(g2.result.glue_classes[0]) == 3


def test_injections():
    g = glue_complexes(line("a"), line("b"), [(("a", 0), ("b", 0))])
    assert g.i1(("a", 1)) == ("a", Fraction(1))
    with pytest.raises(ValueError):
        g.i1(("a", 0))
    assert g.i1_tilde(("a", 0)) == ("b", Fraction(0))
    assert g.i2(("b", 0)) == ("b", Fraction(0))
    # images of i1 off the locus and i2 cover everything: same point test
    assert g.result.same_point(("a", 0), ("b", 0))
    assert not g.result.same_point(("a", 1), ("b", 1))


def test_branches():
    g = glue_complexes(line("a"), line("b"), [(("a", 0), ("b", 0))])
    assert branches_at(g.result, ("a", 1)) == [("a", Fraction(1))]
    assert len(branches_at(g.result, ("a", 0))) == 2
    g2 = glue_complexes(g.result, line("c"), [(("a", 0), ("c", 0))])
    assert len(branches_at(g2.result, ("c", 0))) == 3


def test_branch_count_is_class_size():
    g = glue_complexes(line("a"), line("b"),
                       [(("a", 0), ("b", 0)), (("a", 2), ("b", -2))])
    for cls in g.result.glue_classes:
        assert branches_at(g.result, cls[0]) == list(cls)


def test_switch_map_involution():
    g = glue_complexes(line("a"), line("b"), [(("a", 0), ("b", 0))])
    rev, phi = switch_map(g)
    rev2, psi = switch_map(rev)
    pts = [("a", Fraction(k, 3)) for k in range(-5, 5)] + \
          [("b", Fraction(k, 2)) for k in range(-4, 5)]
    for p in pts:
        assert g.result.same_point(psi(phi(p)), p)
        # glue classes map to the matching classes
        assert rev.result.same_point(phi(("a", 0)), ("b", 0))


def test_errors():
    with pytest.raises(ValueError):
        glue_complexes(line("a"), line("a"), [])
    with pytest.raises(ValueError):
        glue_complexes(line("a"), line("b"),
                       [(("a", 0), ("b", 0)), (("a", 1), ("b", 0))])
    with pytest.raises(ValueError):
        WedgeComplex(("a", "b"),
                     ((("a", 0), ("b", 0)), (("a", 0), ("b", 1))))


def test_unknown_charts():
    with pytest.raises(KeyError) as exc:
        branches_at(line("a"), ("z", 0))
    assert exc.value.args == ("z",)
    for pairs, missing in (([(("z", 0), ("b", 0))], "z"),
                           ([(("a", 0), ("z", 0))], "z"),
                           # each point must lie on its own leg
                           ([(("b", 0), ("a", 0))], "b")):
        with pytest.raises(KeyError) as exc:
            glue_complexes(line("a"), line("b"), pairs)
        assert exc.value.args == (missing,)
    with pytest.raises(ValueError, match="unknown chart 'z'"):
        WedgeComplex(("a",), ((("a", 0), ("z", 0)),))
