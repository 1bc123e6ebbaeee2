"""Column monomial sets, main monomials, and the four-way partition.

Two independent routes produce the same partition of the column set: a
divisibility cascade driven by the four main monomials, and closed-form
products of multiplier sets with those main monomials.  Their agreement is
the central property test of this module.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Tuple

from .diffsys import (SystemSpec, YMonomial, YM_ONE, ym_divides, ym_key,
                      ym_mul, ym_render)


class MonomialSet:
    """Ordered, duplicate-free set of monomials in (y, y1, y2).

    A value: equal, hashed and shown by (elems, label).  Not a tuple, since
    its length and iteration are those of `elems`."""

    __slots__ = ("elems", "label")

    def __init__(self, elems: Tuple[YMonomial, ...], label: str = ""):
        self.elems = elems
        self.label = label

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.elems, self.label) == (other.elems, other.label)

    def __hash__(self) -> int:
        return hash((self.elems, self.label))

    def __repr__(self) -> str:
        return f"MonomialSet(elems={self.elems!r}, label={self.label!r})"

    @staticmethod
    def of(monomials: Iterable[YMonomial], label: str = "") -> "MonomialSet":
        return MonomialSet(tuple(sorted(set(monomials), key=ym_key)), label)

    def __len__(self) -> int:
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __contains__(self, m: YMonomial) -> bool:
        return m in self.elems

    def as_set(self) -> frozenset:
        return frozenset(self.elems)

    def scaled(self, mono: YMonomial, label: str = "") -> "MonomialSet":
        return MonomialSet.of((ym_mul(m, mono) for m in self.elems),
                              label or self.label)

    def union(self, other: "MonomialSet", label: str = "") -> "MonomialSet":
        return MonomialSet.of(list(self.elems) + list(other.elems), label)

    def to_json(self) -> dict:
        return {"label": self.label, "count": len(self.elems),
                "elems": [list(m) for m in self.elems]}

    def render(self) -> str:
        return "{" + ", ".join(ym_render(m) for m in self.elems) + "}"


class MainMonomials(NamedTuple):
    """Designated monomial of each of the four row polynomials."""

    mm1: YMonomial  # for the derivative of the first polynomial
    mm2: YMonomial  # for the derivative of the second
    mm3: YMonomial  # for the first polynomial
    mm4: YMonomial  # for the second polynomial

    def as_tuple(self) -> Tuple[YMonomial, ...]:
        return (self.mm1, self.mm2, self.mm3, self.mm4)


def default_main_monomials(spec: SystemSpec) -> MainMonomials:
    spec = SystemSpec(*spec).validate()
    return MainMonomials(
        mm1=YMonomial(0, spec.d1 - 1, 1),
        mm2=YMonomial(0, spec.d2, 0),
        mm3=YMonomial(spec.d1, 0, 0),
        mm4=YM_ONE,
    )


class Partition(NamedTuple):
    """Disjoint four-way split of the column set."""

    s1: MonomialSet
    s2: MonomialSet
    s3: MonomialSet
    s4: MonomialSet
    provenance: str = "DivisibilityCascade"

    def sets(self) -> Tuple[MonomialSet, ...]:
        return (self.s1, self.s2, self.s3, self.s4)

    def sizes(self) -> Tuple[int, int, int, int]:
        return tuple(len(s) for s in self.sets())

    def validate_cover(self, column_set: MonomialSet) -> None:
        seen: Dict[YMonomial, int] = {}
        for i, s in enumerate(self.sets(), start=1):
            for m in s:
                if m in seen:
                    raise ValueError(
                        f"{ym_render(m)} appears in both S{seen[m]} and S{i}")
                seen[m] = i
        if set(seen) != column_set.as_set():
            raise ValueError("partition does not cover the column set")

    def to_json(self) -> dict:
        return {"provenance": self.provenance,
                "sets": [s.to_json() for s in self.sets()]}


def _box(j: int, top1: int, top2: int) -> Tuple[YMonomial, ...]:
    """y^a*y1^b*y2^c with a+b+c <= j, b <= top1 and c <= top2, made in
    ascending `ym_key` order (degree, then c, then b) with no sort."""
    return tuple(YMonomial(t - b - c, b, c) for t in range(j + 1)
                 for c in range(min(t, top2) + 1)
                 for b in range(min(t - c, top1) + 1))


def bset(i: int, j: int) -> MonomialSet:
    """Monomials of total degree <= j over the first i of (1, y, y1, y2).

    i = 2 allows y only; i = 3 allows y and y1; i = 4 allows all three.
    A negative bound yields the empty set (the empty-range convention used
    by the closed forms below for degree-one systems).
    """
    if i not in (2, 3, 4):
        raise ValueError(f"i must be 2, 3 or 4, got {i}")
    return MonomialSet(_box(j, j if i >= 3 else 0, j if i == 4 else 0),
                       f"B{i}^{j}")


def column_set(spec: SystemSpec) -> MonomialSet:
    """The columns: degree <= D monomials plus y2 times degree <= D-1 ones,
    that is, those of degree <= D in which y2 appears at most once."""
    spec = SystemSpec(*spec).validate()
    out = MonomialSet(_box(spec.D, spec.D, 1), "E")
    assert len(out) == spec.N
    return out


def partition_divisibility(E: MonomialSet, mm: MainMonomials) -> Partition:
    """Divisibility cascade: first main monomial that divides wins."""
    buckets: Tuple[List[YMonomial], ...] = ([], [], [], [])
    order = mm.as_tuple()
    for m in E:
        for idx in range(3):
            if ym_divides(order[idx], m):
                buckets[idx].append(m)
                break
        else:
            buckets[3].append(m)
    sets = tuple(MonomialSet.of(b, f"S{i+1}") for i, b in enumerate(buckets))
    return Partition(*sets, provenance="DivisibilityCascade")


def is_divisibility_partition(part: Partition, spec: SystemSpec) -> bool:
    """Whether `part` has the blocks of the spec's divisibility partition."""
    divis = partition_divisibility(column_set(spec), default_main_monomials(spec))
    return all(a.as_set() == b.as_set() for a, b in zip(part.sets(), divis.sets()))


def closed_form_sets(spec: SystemSpec) -> Tuple[MonomialSet, MonomialSet,
                                                MonomialSet, MonomialSet]:
    """Multiplier sets whose products with the main monomials tile the columns.

    The first two are full two-variable boxes; the last two are unions of
    y1-slices of one-variable boxes, with a y2-lifted band that is empty when
    d1 = 1.
    """
    spec = SystemSpec(*spec).validate()
    d1, d2, D = spec.d1, spec.d2, spec.D

    m1 = bset(3, D - d1)
    m2 = bset(3, D - d2)

    # y^a y1^i y2^c, a <= bound: the slice y1^i y2^c times B2^bound
    t1 = MonomialSet.of(
        [YMonomial(a, i, 0) for i in range(d2) for a in range(D - d1 - i + 1)]
        + [YMonomial(a, i, 1) for i in range(d1 - 1) for a in range(D - d1 - i)],
        "T1")
    t2 = MonomialSet.of(
        [YMonomial(a, i, c) for c, top in ((0, d2), (1, d1 - 1))
         for i in range(top) for a in range(d1)], "T2")

    return (MonomialSet(m1.elems, "M1"), MonomialSet(m2.elems, "M2"), t1, t2)


def multiplier_sizes(spec: SystemSpec) -> Tuple[int, int, int, int]:
    return tuple(len(s) for s in closed_form_sets(spec))


def closed_form_partition(spec: SystemSpec) -> Partition:
    """The partition obtained as multiplier-set times main-monomial products."""
    mm = default_main_monomials(spec)
    m1, m2, t1, t2 = closed_form_sets(spec)
    return Partition(
        m1.scaled(mm.mm1, "S1"),
        m2.scaled(mm.mm2, "S2"),
        t1.scaled(mm.mm3, "S3"),
        t2.scaled(mm.mm4, "S4"),
        provenance="ClosedForm",
    )
