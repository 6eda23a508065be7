"""Wedge complexes: finitely many lines glued along finite point sets.

A chart is a whole coordinate line named by its id.  Points are
chart-local pairs (chart id, coordinate); a glue class is a
set of such pairs identified to a single point of the quotient.  Gluing
two complexes along a finite bijection of points merges classes, so the
construction iterates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _as_point(p):
    chart, coord = p
    return (chart, Fraction(coord))


@dataclass(frozen=True)
class WedgeComplex:
    charts: tuple  # chart ids
    glue_classes: tuple = ()

    def __post_init__(self):
        if len(set(self.charts)) != len(self.charts):
            raise ValueError("duplicate chart ids")
        seen = set()
        classes = []
        for cls in self.glue_classes:
            pts = tuple(sorted(_as_point(p) for p in cls))
            for p in pts:
                if p in seen:
                    raise ValueError(f"point {p} appears in two glue classes")
                if p[0] not in self.charts:
                    raise ValueError(f"glue point on unknown chart {p[0]!r}")
                seen.add(p)
            classes.append(pts)
        object.__setattr__(self, "glue_classes", tuple(classes))

    def class_of(self, p):
        p = _as_point(p)
        for i, cls in enumerate(self.glue_classes):
            if p in cls:
                return i
        return None


def line(cid):
    return WedgeComplex((cid,))


def _check_chart(x, p):
    if p[0] not in x.charts:
        raise KeyError(p[0])


def branches_at(x, p):
    """All chart-incidences of the point: length 1 away from the gluing."""
    p = _as_point(p)
    _check_chart(x, p)
    i = x.class_of(p)
    if i is None:
        return [p]
    return list(x.glue_classes[i])


@dataclass(frozen=True)
class Gluing:
    """Two complexes and a finite bijection of points of the first into
    the second, plus the resulting quotient complex."""

    x1: WedgeComplex
    x2: WedgeComplex
    pairs: tuple  # ((chart1, coord1), (chart2, coord2)), ...
    result: WedgeComplex

    def leg_of_chart(self, cid):
        if cid in self.x1.charts:
            return 1
        if cid in self.x2.charts:
            return 2
        raise KeyError(cid)


def glue_complexes(x1, x2, f):
    """Quotient of the disjoint union identifying p with f(p).

    ``f`` is a list of ((chart1, coord1), (chart2, coord2)) pairs; it
    must be injective and chart ids of the two complexes disjoint.
    """
    if set(x1.charts) & set(x2.charts):
        raise ValueError("chart ids of the two complexes must be disjoint")
    pairs = tuple((_as_point(a), _as_point(b)) for a, b in f)
    dom = [a for a, _ in pairs]
    img = [b for _, b in pairs]
    if len(set(dom)) != len(dom) or len(set(img)) != len(img):
        raise ValueError("glue map must be a bijection of points")
    for a, b in pairs:
        _check_chart(x1, a)
        _check_chart(x2, b)

    # start from existing classes (as merge sets), then merge across the map
    groups = [set(cls) for cls in x1.glue_classes]
    groups += [set(cls) for cls in x2.glue_classes]
    for a, b in pairs:
        hit_a = next((g for g in groups if a in g), None)
        hit_b = next((g for g in groups if b in g), None)
        if hit_a is None and hit_b is None:
            groups.append({a, b})
        elif hit_a is None:
            hit_b.add(a)
        elif hit_b is None:
            hit_a.add(b)
        elif hit_a is not hit_b:
            hit_a |= hit_b
            groups.remove(hit_b)
    classes = tuple(tuple(sorted(g)) for g in groups if len(g) >= 2)
    result = WedgeComplex(x1.charts + x2.charts, classes)
    return Gluing(x1, x2, pairs, result)


def switch_map(gluing):
    """The reversed gluing X2 cup X1 of the same points; an involution.

    A point keeps its chart-local coordinates, so the point map between
    the two quotients is the identity on (chart id, coordinate) pairs.
    """
    return glue_complexes(gluing.x2, gluing.x1,
                          [(b, a) for a, b in gluing.pairs])
