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


def test_gluing_onto_a_glued_point_joins_its_class():
    g1 = glue_complexes(line("a"), line("b"), [(("a", 0), ("b", 0))])
    g2 = glue_complexes(line("c"), g1.result, [(("c", 0), ("b", 0))])
    assert g2.result.glue_classes == (
        (("a", Fraction(0)), ("b", Fraction(0)), ("c", Fraction(0))),)


def test_gluing_two_glued_points_merges_their_classes():
    ab = glue_complexes(line("a"), line("b"), [(("a", 0), ("b", 0))]).result
    cd = glue_complexes(line("c"), line("d"), [(("c", 0), ("d", 0))]).result
    merged = ((("a", Fraction(0)), ("b", Fraction(0)),
               ("c", Fraction(0)), ("d", Fraction(0))),)
    g = glue_complexes(ab, cd, [(("a", 0), ("c", 0))])
    assert g.result.glue_classes == merged
    # a pair whose points already share the class changes nothing
    g = glue_complexes(ab, cd, [(("a", 0), ("c", 0)), (("b", 0), ("d", 0))])
    assert g.result.glue_classes == merged


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
    g = glue_complexes(line("a"), line("b"),
                       [(("a", 0), ("b", 0)), (("a", 2), ("b", -1))])
    rev = switch_map(g)
    assert (rev.x1, rev.x2) == (g.x2, g.x1)
    assert rev.pairs == tuple((b, a) for a, b in g.pairs)
    assert switch_map(rev) == g


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
