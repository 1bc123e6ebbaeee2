"""Polytopes, lattice points, the vertex-decomposition LP, and the partition."""

import hashlib
import json
import random
from collections import namedtuple
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from diffres import (DEFAULT_LIFTINGS, DEFAULT_PERTURBATION, IllegalMove,
                     Infeasible, InvalidPerturbation, Liftings, SystemSpec,
                     YMonomial, apply_moves, build_sparse_matrix,
                     build_square_matrix, column_set, common_zero_specialization,
                     default_main_monomials, delta, det_specialized,
                     generic_system, grc_partition, lattice_points,
                     nonzero_random_probe, partition_divisibility,
                     validate_liftings)
from diffres import lattice, monomials, sparse
from diffres.errors import CertificateFailure, DiffresError
from diffres.lattice import (BLOCK_SIZES, CASE_BASES, TARGET_VERTEX, var_index,
                             vertex_lists)
from diffres.lp import matrix_rank, simplex
from diffres.sparse import MOVES_TO_DIVISIBILITY_2_2, moves_to_divisibility
from test_lp import SingularBasis, verify_basis_reference

F = Fraction
HALF = (F(1, 2),) * 3   # a coarse perturbation: degenerate bases and ties
DEGREES_TO_5 = [(d1, d2) for d2 in range(1, 6) for d1 in range(1, d2 + 1)]
DEGREES_TO_4 = [d for d in DEGREES_TO_5 if d[1] <= 4]

LP = namedtuple("LP", "A b c")


def fraction_lp(q, spec, lift, delta_vec=DEFAULT_PERTURBATION):
    """The vertex-decomposition LP at q in Fractions, unscaled: the
    library's A and costs, and b(q) = (q - delta, 1, 1, 1, 1)."""
    return LP(lattice._constraint_matrix(spec),
              [q[k] - delta_vec[k] for k in range(3)] + [F(1)] * 4,
              lattice.costs(vertex_lists(spec), lift))


def at(form, q):
    """A kept form a.q + k at q, whatever its sign."""
    return form[0] * q[0] + form[1] * q[1] + form[2] * q[2] + form[3]


def kept_lp(q, spec, lift=DEFAULT_LIFTINGS):
    """The LP at q as the library holds it: the kept system's A, its
    b'(q) = D b(q), and the integer costs."""
    system = lattice.scanned(spec, DEFAULT_PERTURBATION)[0]
    return LP(system.A, system.rhs(q), lattice.costs(system.vertices, lift))


class TestNewtonData:
    def test_triangle_vertices_degree_two(self):
        assert set(vertex_lists(SystemSpec(2, 2))[2]) == {(0, 0, 0), (0, 2, 0),
                                                          (2, 0, 0)}

    def test_vertex_counts_nondegenerate(self):
        assert tuple(map(len, vertex_lists(SystemSpec(2, 3)))) == (6, 6, 3, 3)

    def test_every_support_point_in_hull(self):
        # the vertex lists span the Newton polytopes of delta f1, delta f2,
        # f1 and f2: each support point is a convex combination of its list
        for d in ((1, 2), (2, 2), (2, 3)):
            spec = SystemSpec(*d)
            f1, f2 = generic_system(spec)
            supports = [p.support_set() for p in (delta(f1), delta(f2), f1, f2)]
            for points, verts in zip(supports, vertex_lists(spec)):
                A = [[v[axis] for v in verts] for axis in range(3)]
                A.append([1] * len(verts))
                for m in points:
                    b = [m.ey, m.ey1, m.ey2, 1]
                    assert simplex(A, b, [0] * len(verts)).status == "optimal", (d, m)

    def test_vertex_lists_fix_lambda_indexing(self):
        v1, v2, v3, v4 = vertex_lists(SystemSpec(2, 3))
        assert v1[2] == (0, 1, 1)      # main monomial of the first derivative
        assert v2[3] == (0, 3, 0)
        assert v3[2] == (2, 0, 0)
        assert v4[0] == (0, 0, 0)
        assert var_index(4, 3) == 17   # 18 columns, block by block


class TestLatticePoints:
    def test_degree_one(self):
        points = lattice_points(SystemSpec(1, 1))
        assert points == [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]

    def test_shifted_column_set(self):
        for d in DEGREES_TO_5:
            spec = SystemSpec(*d)
            points = lattice_points(spec)
            expected = sorted(
                ((m.ey + 1, m.ey1 + 1, m.ey2 + 1) for m in column_set(spec)),
                key=lambda p: (sum(p), p[2], p[1], p[0]))
            assert points == expected
            assert len(points) == spec.N

    def test_perturbation_must_be_fractional(self):
        with pytest.raises(InvalidPerturbation):
            lattice_points(SystemSpec(1, 1), (F(0), F(1, 2), F(1, 2)))
        with pytest.raises(InvalidPerturbation):
            grc_partition(SystemSpec(1, 1), DEFAULT_LIFTINGS,
                          (F(1), F(1, 2), F(1, 2)))

    @pytest.mark.parametrize("delta_vec", [
        (0.01, 0.01, 0.01), (F(1, 2), F(1, 2), 0.5), (F(1, 2), F(1, 2), "1/2"),
        (F(1, 2), F(1, 2), True)])
    def test_perturbation_must_be_exact(self, delta_vec):
        # 0.01 would be read as 5764607523034235/576460752303423488
        with pytest.raises(InvalidPerturbation, match="three Fractions"):
            lattice_points(SystemSpec(1, 1), delta_vec)
        with pytest.raises(InvalidPerturbation):
            grc_partition(SystemSpec(1, 1), DEFAULT_LIFTINGS, delta_vec)

    @pytest.mark.parametrize("d", DEGREES_TO_5)
    def test_farkas_vectors_rule_out_every_point_off_the_box(self, d):
        # off lo_k < q_k <= hi_k, w = e_k - sum_i lo_ik u_i (q_k <= lo_k) or
        # w = -e_k + sum_i hi_ik u_i (q_k > hi_k), u_i block i's convexity row
        spec = SystemSpec(*d)
        A = lattice._constraint_matrix(spec)
        blocks = vertex_lists(spec)
        for k in range(3):
            lows = [min(v[k] for v in verts) for verts in blocks]
            highs = [max(v[k] for v in verts) for verts in blocks]
            below = [int(r == k) for r in range(3)] + [-x for x in lows]
            above = [-int(r == k) for r in range(3)] + highs
            for w, q_k in ((below, sum(lows)), (above, sum(highs) + 1)):
                assert all(sum(wr * row[j] for wr, row in zip(w, A)) >= 0
                           for j in range(len(A[0])))
                for delta_vec in (DEFAULT_PERTURBATION, HALF,
                                  (F(99, 100), F(1, 1000), F(1, 3))):
                    q = [1, 1, 1]
                    q[k] = q_k
                    b = [q[r] - delta_vec[r] for r in range(3)] + [1] * 4
                    assert sum(wr * br for wr, br in zip(w, b)) < 0, (k, q)




def box_scan(spec, delta_vec=DEFAULT_PERTURBATION):
    """Lattice points the slow way: a full simplex at every box point."""
    limit = 2 * spec.d1 + 2 * spec.d2
    found = []
    for q in product(range(limit + 1), repeat=3):
        inst = fraction_lp(q, spec, DEFAULT_LIFTINGS, delta_vec)
        if simplex(inst.A, inst.b, [0] * 18).status == "optimal":
            found.append(q)
    return sorted(found, key=lambda p: (sum(p), p[2], p[1], p[0]))


def reference_assignment(inst):
    """(case, vertex, basis id, lambda, objective) from the Fraction
    reference alone: the catalog in order, strict pass then weak pass; None
    if no basis fits."""
    for strict in (True, False):
        for case, bid, columns in CASE_BASES:
            try:
                report = verify_basis_reference(inst.A, inst.b, inst.c, columns)
            except SingularBasis:
                continue
            ok = report.strictly_feasible if strict else report.feasible
            if not (ok and report.optimal):
                continue
            j = TARGET_VERTEX[case]
            offset = sum(BLOCK_SIZES[:case - 1])
            block = report.x[offset:offset + BLOCK_SIZES[case - 1]]
            if block[j - 1] == 1 and sum(block) == 1:
                return case, j, bid, report.x, report.objective
    return None


def seeded_liftings(seed):
    """Heights drawn inside the intervals the merged constraints leave."""
    r = random.Random(seed).randint
    l32, l41 = r(-8, 8), r(-8, 8)
    l42 = l32 + r(0, 5)
    l31 = l32 + l41 - l42
    l11 = r(l31, l41)
    l21 = l31 - r(0, 5)
    l12 = l32 - r(0, 5)
    l22 = l12 - (l11 - l21) - r(0, 5)
    l13 = r(-8, 8)
    lift = Liftings((l11, l12, l13), (l21, l22, l13 + r(0, 5)),
                    (l31, l32, r(-8, 8)), (l41, l42, r(-8, 8)))
    assert validate_liftings(lift).passed
    return lift


seeded = st.integers(0, 10**6).map(seeded_liftings)
# heights free of the merged constraints; grc_partition rejects most
free_liftings = st.lists(st.integers(-9, 9), min_size=12, max_size=12).map(
    lambda h: Liftings(*(tuple(h[k:k + 3]) for k in range(0, 12, 3))))
ZERO_LIFTINGS = Liftings(*[(0, 0, 0)] * 4)     # every reduced cost is zero
# at (1,2) the first basis that strictly pins its target vertex is not
# optimal at 11 points, and a later catalog basis assigns 3 of them
SCAN_ON = Liftings((3, -7, -7), (-7, -3, -2), (-8, 3, -9), (-6, 3, 8))


def reference_search(inst):
    """The restricted-LP search in Fractions on fraction_lp's instance: the
    full optimum, then per case in block order the LP with lambda_{case, j}
    pinned to one (the block's columns and its convexity row dropped);
    (case, vertex, lambda, objective) of the first case that reaches the
    full optimum, None if none does."""
    best = simplex(*inst)
    for case in (1, 2, 3, 4):
        j = TARGET_VERTEX[case]
        offset = sum(BLOCK_SIZES[:case - 1])
        size = BLOCK_SIZES[case - 1]
        keep = [k for k in range(18) if not (offset <= k < offset + size)]
        pinned = offset + j - 1
        rows = [r for r in range(7) if r != 3 + (case - 1)]
        restricted = simplex([[inst.A[r][k] for k in keep] for r in rows],
                             [inst.b[r] - inst.A[r][pinned] for r in rows],
                             [inst.c[k] for k in keep])
        if (restricted.status == "optimal"
                and restricted.objective + inst.c[pinned] == best.objective):
            it = iter(restricted.x)
            lam = tuple((F(k == pinned) if offset <= k < offset + size
                         else next(it)) for k in range(18))
            return case, j, lam, best.objective
    return None


@pytest.fixture
def cold_scan():
    """An empty scan cache, emptied again after the test: a patched `lp` is
    reached beneath `lattice_points` and `grc_partition`, and what it built
    is not kept."""
    lattice.scanned.cache_clear()
    yield
    lattice.scanned.cache_clear()


def summary(result):
    """The partition blocks and, per point in order, what was assigned."""
    return ([tuple(s.elems) for s in result.partition.sets()],
            [(q, a.case, a.vertex_index, a.basis_id, a.lam, a.objective)
             for q, a in result.assignments.items()])


class TestScanCache:
    @pytest.mark.parametrize("d", [(1, 2), (2, 2), (2, 3), (3, 3)])
    def test_a_cached_result_equals_a_fresh_one(self, d):
        spec = SystemSpec(*d)
        lattice_points(spec)
        for lift in [DEFAULT_LIFTINGS] + [seeded_liftings(s) for s in range(1, 6)]:
            hits = lattice.scanned.cache_info().hits
            cached = grc_partition(spec, lift)
            assert lattice.scanned.cache_info().hits == hits + 1
            lattice.scanned.cache_clear()
            assert summary(cached) == summary(grc_partition(spec, lift)), lift

    def test_the_returned_points_are_a_fresh_list(self):
        spec = SystemSpec(1, 2)
        points = lattice_points(spec)
        expected = list(points)
        points[0] = (0, 0, 0)
        points.pop()
        assert lattice_points(spec) == expected
        assert list(grc_partition(spec).assignments) == expected

    def test_the_perturbation_is_part_of_the_key(self):
        spec = SystemSpec(1, 2)
        default = lattice_points(spec)
        assert lattice_points(spec, HALF) != default
        assert lattice_points(spec) == default


def assignments_digest(results):
    """sha256 over every assignment of the results, in order: point, case,
    vertex index, basis id, lam and objective."""
    digest = hashlib.sha256()
    for result in results:
        for q, a in result.assignments.items():
            digest.update(repr((q, a.case, a.vertex_index, a.basis_id, a.lam,
                                a.objective)).encode())
    return digest.hexdigest()


# assignments_digest of the default and the five seeded liftings, in that
# order, per degree pair: fixed values, so any changed assignment fails
PARTITION_PINS = {
    (1, 1): "9d04955a595733fa4a4eb7f05b870e23ddcbf4eb0c4d38c2eeac5ad65eafbdbe",
    (1, 2): "6bd1d57a98985dc06875af1c0c4f14c06d18e2e121a714d57cc12a09946bad38",
    (2, 2): "ff1c5333d043f3b3c0ca66ee8f8c5eabd4eb4b68285760661d7ca26e745f8f30",
    (1, 3): "42c4c51dd1475333c75dd92850c2d706a85e38fd167add2f0cd5c74795808c46",
    (2, 3): "03bdf70ca89ba72e9cec9344484056ee0d2f5258b8f125c18f7036ec472626f6",
    (3, 3): "37b718d3f9f5ad7d5d763fa4dc6dc354673e9221f3a93479e8804ec01eb76428",
    (1, 4): "9861ed661e84c69dfc4124a7ea4bbe68fc0e8d99eec5714dd896c77381b64b63",
    (2, 4): "f7e58c4b64f0b7ee148ebeed16c5514908ff4f7731dfb722f389f09bbe29e2ac",
    (3, 4): "81503a35d31476d06d168151124bf5145a597ad90dcc0bd758b951e003593b6e",
    (4, 4): "79f52711cf35d2cfabb9819b6146159eea392f25415946d7ff7501b4f3bc2d91",
}


# the same at the perturbation (1/3, 1/7, 2/5), where 18 to 204 of the
# assignments per pair from (2,2) on come from the restricted-LP search
THIRDS = (F(1, 3), F(1, 7), F(2, 5))
PARTITION_PINS_THIRDS = {
    (1, 1): "3f6cca951ceadca1bdb89d55aab987a10a14a2f9a60a55155c8f5e415cd994f5",
    (1, 2): "7a6570c98859497a1a50421658bd592632f6503ce7b8c1811cff864adedadb68",
    (2, 2): "61b67d689e24a02f44fdbe6c965cd937b9fc4fcc67d70002eb9574ef8a619807",
    (1, 3): "00d045b9b7842c948f7cb2c0b1bd3756da344b4f2da7ede7615972591f64460c",
    (2, 3): "8ad3e3da97039372690ab60b968d6aaeaa673d5a03f96e30bebf22a7def1615e",
    (3, 3): "5016807559f6a6707f96bad39b6b3d070e8add0368e65766d4f915214f810e5f",
    (1, 4): "25aac2bd3f8778624de5314a7c36991deabe1144a69a1d5b95a8d64b7e4dc4a7",
    (2, 4): "3e908823357bbae1f563219ebcfc3948bdfa1c2881424fd854d6e64855b14fc7",
    (3, 4): "dff7f99b4ef45cd52ccf7da67ddd469236febfce44fcdf0a67a5552dc7f6f3c6",
    (4, 4): "0cb967ef8770f121217daf6ccacae8de129b56b8a0674f5a88c5c6475cee21f3",
}


def cold_and_warm_digests(spec, delta_vec):
    """assignments_digest of the default and the five seeded liftings, each
    call on an emptied scan cache, then each again on the kept scan."""
    liftings = [DEFAULT_LIFTINGS] + [seeded_liftings(s) for s in range(1, 6)]
    cold = []
    for lift in liftings:
        lattice.scanned.cache_clear()
        cold.append(grc_partition(spec, lift, delta_vec))
    # every call below finds the scan and each point's feasible catalog bases
    warm = [grc_partition(spec, lift, delta_vec) for lift in liftings]
    return assignments_digest(cold), assignments_digest(warm)


@pytest.mark.usefixtures("cold_scan")
class TestAssignmentPins:
    @pytest.mark.parametrize("d", DEGREES_TO_4)
    def test_cold_and_warm_calls_match_the_pins(self, d):
        digests = cold_and_warm_digests(SystemSpec(*d), DEFAULT_PERTURBATION)
        assert digests == (PARTITION_PINS[d],) * 2

    @pytest.mark.parametrize("d", DEGREES_TO_4)
    def test_cold_and_warm_calls_match_the_pins_at_thirds(self, d):
        digests = cold_and_warm_digests(SystemSpec(*d), THIRDS)
        assert digests == (PARTITION_PINS_THIRDS[d],) * 2


class TestCertificateReuse:
    @pytest.mark.parametrize("d", [(1, 1), (1, 2), (2, 2), (2, 3)])
    def test_lattice_points_match_a_simplex_box_scan(self, d):
        spec = SystemSpec(*d)
        assert lattice_points(spec) == box_scan(spec)

    @pytest.mark.usefixtures("cold_scan")
    def test_grc_partition_sets_up_the_point_system_once(self, monkeypatch):
        # once per (spec, perturbation), whatever the liftings
        built = []

        class Counting(lattice.PointSystem):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(lattice, "PointSystem", Counting)
        spec = SystemSpec(1, 2)
        first = grc_partition(spec)
        second = grc_partition(spec, seeded_liftings(1))
        assert len(built) == 1
        assert list(first.assignments) == list(second.assignments) \
            == lattice_points(spec)
        assert len(built) == 1
        lattice_points(spec, HALF)
        assert len(built) == 2

    def test_lattice_points_at_a_coarse_perturbation(self):
        spec = SystemSpec(1, 2)
        assert lattice_points(spec, HALF) == box_scan(spec, HALF)

    def test_strict_pass_decides_degenerate_points(self):
        # at a coarse perturbation some points have a weakly feasible basis
        # ahead of a strictly feasible one in the catalog; grc_partition
        # itself rejects the extra points, so the per-point step is used.
        # The default liftings fill each basis's verdicts; the seeded ones
        # then read them on the same point system
        from diffres.lattice import PointSystem
        from diffres.sparse import _catalog_assignment
        spec = SystemSpec(1, 2)
        system = PointSystem(spec, HALF)
        for lift in [DEFAULT_LIFTINGS] + [seeded_liftings(s) for s in (1, 2, 3)]:
            costs = lattice.costs(system.vertices, lift)
            optimal = system.optimal(costs)
            for q in lattice_points(spec, HALF):
                ref = reference_assignment(fraction_lp(q, spec, lift, HALF))
                a = _catalog_assignment(q, system, optimal, costs)
                assert (a and (a.case, a.vertex_index, a.basis_id, a.lam,
                               a.objective)) == ref, (lift, q)

    @pytest.mark.parametrize("d", [(1, 2), (2, 2)])
    def test_assignments_match_verify_basis_reference(self, d):
        spec = SystemSpec(*d)
        liftings = [DEFAULT_LIFTINGS] + [seeded_liftings(s) for s in (1, 2, 3)]
        for lift in liftings:
            result = grc_partition(spec, lift)
            for q, a in result.assignments.items():
                inst = fraction_lp(q, spec, lift)
                got = (a.case, a.vertex_index, a.basis_id, a.lam, a.objective)
                ref = reference_assignment(inst)
                if ref is None:
                    assert a.basis_id == "search", (lift, q)
                    assert a.objective == simplex(*inst).objective
                else:
                    assert got == ref, (lift, q)

    @pytest.mark.parametrize("d", [(2, 3), (3, 3)])
    def test_search_assignments_match_the_fraction_search(self, d):
        spec = SystemSpec(*d)
        searched = 0
        for lift in [DEFAULT_LIFTINGS] + [seeded_liftings(s) for s in (1, 2, 3)]:
            for q, a in grc_partition(spec, lift).assignments.items():
                if a.basis_id == "search":
                    searched += 1
                    case, j, lam, objective = reference_search(fraction_lp(q, spec, lift))
                    assert (a.case, a.vertex_index, a.lam, a.objective) \
                        == (case, j, lam, objective), (lift, q)
        assert searched > 0

    @pytest.mark.usefixtures("cold_scan")
    def test_grc_partition_builds_no_per_point_lp(self, monkeypatch):
        # the scan runs phase one only, and a simplex runs only in the
        # restricted search: the full LP and at most one per case
        calls = []
        real = sparse.lp.simplex

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sparse.lp, "simplex", counted)
        for d, searches in (((2, 2), 0), ((2, 3), 1)):
            calls.clear()
            result = grc_partition(SystemSpec(*d))
            searched = [a.basis_id for a in result.assignments.values()
                        ].count("search")
            assert searched == searches
            assert 2 * searched <= len(calls) <= 5 * searched, d

    def test_one_point_takes_the_restricted_search_at_2_3(self):
        result = grc_partition(SystemSpec(2, 3))
        searched = [q for q, a in result.assignments.items()
                    if a.basis_id == "search"]
        assert len(searched) == 1
        q = searched[0]
        inst = fraction_lp(q, SystemSpec(2, 3), DEFAULT_LIFTINGS)
        assert reference_assignment(inst) is None
        assert result.assignments[q].objective == simplex(*inst).objective


class TestIntegerCertificates:
    """The integer catalog and phase-one certificates against the Fraction
    basis reference, and the exact checks that guard them."""

    # seeded liftings make every catalog basis optimal; free heights mostly
    # do not, so both verdicts are compared
    @settings(deadline=None, max_examples=30)
    @given(st.one_of(seeded, free_liftings))
    @example(lift=ZERO_LIFTINGS)
    @pytest.mark.parametrize("d", [(1, 2), (2, 2)])
    def test_optimal_catalog_matches_verify_basis(self, d, lift):
        spec = SystemSpec(*d)
        system = lattice.PointSystem(spec, DEFAULT_PERTURBATION)
        costs = lattice.costs(system.vertices, lift)
        optimal = {b.bid for b, ok in zip(system.catalog, system.optimal(costs))
                   if ok}
        nonsingular = {b.bid for b in system.catalog}
        # optimality does not depend on the right-hand side
        inst = fraction_lp((1, 1, 1), spec, lift)
        for case, bid, columns in CASE_BASES:
            try:
                report = verify_basis_reference(inst.A, inst.b, inst.c, columns)
            except SingularBasis:
                assert bid not in nonsingular
                continue
            assert bid in nonsingular
            assert report.optimal == (bid in optimal), (lift, bid)

    @pytest.mark.parametrize("delta_vec", [DEFAULT_PERTURBATION, HALF,
                                           (F(1, 3), F(2, 7), F(1, 10))])
    def test_forms_give_x_b_at_every_lattice_point(self, delta_vec):
        spec = SystemSpec(1, 2)
        system = lattice.PointSystem(spec, delta_vec)
        for q in lattice_points(spec, delta_vec):
            inst = fraction_lp(q, spec, DEFAULT_LIFTINGS, delta_vec)
            for basis in system.catalog:
                x = verify_basis_reference(inst.A, inst.b, inst.c, basis.columns).x
                assert [F(at(f, q), basis.p * system.D)
                        for f in basis.forms] == [x[j] for j in basis.columns]

    def test_a_corrupted_adjugate_entry_is_caught(self, monkeypatch):
        real = sparse.lp._row_reduce

        def corrupted(rows, ncols):
            found = real(rows, ncols)
            rows[2][-3] += 1
            return found

        monkeypatch.setattr(sparse.lp, "_row_reduce", corrupted)
        with pytest.raises(CertificateFailure):
            lattice.PointSystem(SystemSpec(1, 2), DEFAULT_PERTURBATION)

    def test_a_farkas_vector_with_a_flipped_sign_is_caught(self, monkeypatch):
        real = sparse.lp.integer_certificate

        def flipped(A, b):
            feasible, cert = real(A, b)
            if not feasible:
                k = next(i for i, w in enumerate(cert) if w)
                cert = cert[:k] + (-cert[k],) + cert[k + 1:]
            return feasible, cert

        monkeypatch.setattr(sparse.lp, "integer_certificate", flipped)
        system = lattice.PointSystem(SystemSpec(1, 2), DEFAULT_PERTURBATION)
        # w = (-1, 1, 1, 0, 0, 0, 0) keeps w b'(q) < 0 at the origin; only
        # w A >= 0 fails
        with pytest.raises(CertificateFailure, match="Farkas"):
            system.feasible((0, 0, 0))

    @pytest.mark.usefixtures("cold_scan")
    def test_a_basis_negative_at_the_point_is_caught(self, monkeypatch):
        # every phase-one verdict claims the first catalog basis, whose forms
        # are negative at (1, 4, 2), the first box point phase one decides
        spec = SystemSpec(1, 2)
        columns = lattice.PointSystem(spec, DEFAULT_PERTURBATION).catalog[0].columns
        monkeypatch.setattr(sparse.lp, "integer_certificate",
                            lambda A, b: (True, columns))
        with pytest.raises(CertificateFailure, match=r"does not certify \(1, 4, 2\)"):
            lattice_points(spec)


def optimal_reference(A, c, basis, p, adj):
    """The integer optimality test over every column, the basic ones
    included: u = c_B adj, then u A_j <= p c_j."""
    u = [sum(c[j] * adj[i][k] for i, j in enumerate(basis)) for k in range(len(adj))]
    return all(sum(u[k] * A[k][j] for k in range(len(A))) <= p * c[j]
               for j in range(len(A[0])))


def scan_reference(system, optimal_flags, q, c):
    """The catalog passes without the per-point memo: strict, then weak, over
    every optimal basis in catalog order, x_B read off the basis's forms at
    q; (basis id, lam, c.lam) of the first that pins its target vertex at q
    (lam 1 there and the block summing to 1), None when none does."""
    for floor in (1, 0):
        for basis, ok in zip(system.catalog, optimal_flags):
            values = [at(f, q) for f in basis.forms]
            lam = [F(0)] * 18
            for v, j in zip(values, basis.columns):
                lam[j] = F(v, basis.p * system.D)
            offset = var_index(basis.case, 1)
            block = lam[offset:offset + BLOCK_SIZES[basis.case - 1]]
            pinned = block[TARGET_VERTEX[basis.case] - 1] == 1 == sum(block)
            if ok and min(values) >= floor and pinned:
                return basis.bid, tuple(lam), sum(ck * x for ck, x in zip(c, lam))
    return None


class TestPerCallWork:
    """A repeated grc_partition call does only what depends on its liftings:
    the kept columns give `lp.optimal`, the per-point memo gives the full
    catalog scan, and nothing that holds no lifting is redone."""

    @settings(deadline=None, max_examples=20)
    @given(st.one_of(seeded, free_liftings))
    @example(lift=ZERO_LIFTINGS)
    @example(lift=SCAN_ON)
    def test_the_kept_columns_give_lp_optimal(self, lift):
        for d in DEGREES_TO_4:
            system, _ = lattice.scanned(SystemSpec(*d), DEFAULT_PERTURBATION)
            costs = lattice.costs(system.vertices, lift)
            for basis, ok in zip(system.catalog, system.optimal(costs)):
                B = [[row[j] for j in basis.columns] for row in system.A]
                p, adj = sparse.lp.adjugate(B)
                nonbasic = [j for j in range(18) if j not in basis.columns]
                got = sparse.lp.optimal(list(zip(*system.A)), costs, basis.columns,
                                        p, list(zip(*adj)), nonbasic)
                assert ok == got == optimal_reference(
                    system.A, costs, basis.columns, p, adj), (d, lift, basis.bid)

    @settings(deadline=None, max_examples=20)
    @given(st.one_of(seeded, free_liftings))
    @example(lift=DEFAULT_LIFTINGS)
    @example(lift=SCAN_ON)
    @pytest.mark.parametrize("delta_vec, degrees", [
        (DEFAULT_PERTURBATION, DEGREES_TO_4), (HALF, [(1, 2), (2, 2)])])
    def test_the_point_memo_gives_the_catalog_scan(self, delta_vec, degrees, lift):
        # at HALF some points have a weakly feasible basis ahead of the
        # first strictly feasible one
        for d in degrees:
            system, points = lattice.scanned(SystemSpec(*d), delta_vec)
            costs = lattice.costs(system.vertices, lift)
            flags = system.optimal(costs)
            for q in points:
                a = sparse._catalog_assignment(q, system, flags, costs)
                assert (a and (a.basis_id, a.lam, a.objective)) \
                    == scan_reference(system, flags, q, costs), (d, lift, q)

    def test_free_heights_reach_the_scan_on_path(self):
        system, points = lattice.scanned(SystemSpec(1, 2), DEFAULT_PERTURBATION)
        costs = lattice.costs(system.vertices, SCAN_ON)
        flags = system.optimal(costs)
        # the first basis feasible at q is strictly feasible and not optimal
        firsts = [(q, system.feasible_catalog(q)[:1]) for q in points]
        passed_over = [q for q, first in firsts
                       if first and min(first[0][1]) > 0 and not flags[first[0][0]]]
        assigned = [q for q in passed_over
                    if sparse._catalog_assignment(q, system, flags, costs)]
        assert (len(passed_over), len(assigned)) == (11, 3)

    @settings(deadline=None, max_examples=40)
    @given(seeded)
    def test_valid_liftings_make_every_catalog_basis_optimal(self, lift):
        # the case the memo serves in one read per point; the code does not
        # rely on it, as the free heights above show
        for d in DEGREES_TO_4:
            system, _ = lattice.scanned(SystemSpec(*d), DEFAULT_PERTURBATION)
            assert all(system.optimal(lattice.costs(system.vertices, lift))), (d, lift)

    @pytest.mark.usefixtures("cold_scan")
    @pytest.mark.parametrize("d", DEGREES_TO_4)
    def test_a_warm_call_does_no_lifting_free_work(self, d, monkeypatch):
        spec = SystemSpec(*d)
        grc_partition(spec)
        liftings = [seeded_liftings(s) for s in (7, 8, 9)]

        def refused(*args):
            raise AssertionError("a warm call redid lifting-free work")

        with monkeypatch.context() as patched:
            patched.setattr(sparse.lp, "adjugate", refused)
            patched.setattr(sparse.lp, "integer_certificate", refused)
            patched.setattr(monomials, "bset", refused)
            # no form is evaluated: each point's feasible bases are kept,
            # and `_values` is the one evaluator of catalog, phase-one and
            # Farkas forms
            patched.setattr(lattice, "_values", refused)
            warm = [grc_partition(spec, lift) for lift in liftings]
        for lift, result in zip(liftings, warm):
            lattice.scanned.cache_clear()
            assert result == grc_partition(spec, lift), lift

    @pytest.mark.usefixtures("cold_scan")
    @pytest.mark.parametrize("d", DEGREES_TO_4)
    def test_the_scan_keeps_every_lattice_points_catalog_bases(self, d, monkeypatch):
        # the scan decides each point by its feasible catalog bases, so the
        # first grc_partition after it evaluates no form
        spec = SystemSpec(*d)
        system, points = lattice.scanned(spec, DEFAULT_PERTURBATION)
        assert all(type(system.kept.get(q)) is tuple for q in points)

        def refused(*args):
            raise AssertionError("a first call after the scan evaluated a form")

        with monkeypatch.context() as patched:
            patched.setattr(sparse.lp, "adjugate", refused)
            patched.setattr(sparse.lp, "integer_certificate", refused)
            patched.setattr(lattice, "_values", refused)
            first = grc_partition(spec)
        assert list(first.assignments) == list(points)


class TestBuildLP:
    def test_cost_vector_closed_form(self):
        c = lattice.costs(vertex_lists(SystemSpec(2, 2)), DEFAULT_LIFTINGS)
        l1, l2, l3, l4 = DEFAULT_LIFTINGS.as_tuple()
        d1, d2 = 2, 2
        expected_first_block = [
            0, l1[2], (d1 - 1) * l1[1] + l1[2], d1 * l1[1],
            (d1 - 1) * l1[0] + l1[2], d1 * l1[0]]
        assert list(c[:6]) == expected_first_block
        assert list(c[12:15]) == [0, d1 * l3[1], d1 * l3[0]]
        assert list(c[15:18]) == [0, d2 * l4[1], d2 * l4[0]]
        # the three zero-cost entries sit at each block's base vertex
        assert c[0] == c[6] == c[12] == c[15] == 0

    def test_constraint_rows(self):
        A = lattice._constraint_matrix(SystemSpec(2, 3))
        assert list(A[3]) == [1, 1, 1, 1, 1, 1] + [0] * 12
        assert list(A[0]) == [0, 0, 0, 0, 1, 2,
                              0, 0, 0, 0, 2, 3,
                              0, 0, 2, 0, 0, 3]
        assert matrix_rank(A) == 7

    def test_rhs_carries_perturbation(self):
        # b'(q) = D b(q), D = 100 the lcm of the perturbation's denominators
        inst = kept_lp((2, 3, 2), SystemSpec(2, 2))
        assert inst.b == [199, 299, 199, 100, 100, 100, 100]


class TestCatalogStructure:
    """A catalog basis holds one column of its case's block, the target
    vertex's, so a basis feasible at q puts its block on the target vertex;
    `PointSystem` checks the columns when it is built."""

    def test_each_basis_holds_only_its_target_vertex_in_its_block(self):
        for case, bid, columns in CASE_BASES:
            offset = var_index(case, 1)
            in_block = [j for j in columns
                        if offset <= j < offset + BLOCK_SIZES[case - 1]]
            assert in_block == [var_index(case, TARGET_VERTEX[case])], bid

    def test_a_basis_holding_another_vertex_of_its_block_is_refused(self, monkeypatch):
        # 1.1 with column 14 for 13: the same block, not the target vertex
        swap = {var_index(1, 3): var_index(1, 4)}
        mutant = tuple((case, bid, tuple(swap.get(j, j) for j in columns)
                        if bid == "1.1" else columns)
                       for case, bid, columns in CASE_BASES)
        monkeypatch.setattr(lattice, "CASE_BASES", mutant)
        with pytest.raises(CertificateFailure, match=r"1\.1"):
            lattice.PointSystem(SystemSpec(1, 2), DEFAULT_PERTURBATION)

    @pytest.mark.parametrize("delta_vec, degrees", [
        (DEFAULT_PERTURBATION, DEGREES_TO_4), (HALF, [(1, 2), (2, 2)])])
    def test_every_feasible_basis_puts_its_block_on_the_target(self, delta_vec,
                                                               degrees):
        for d in degrees:
            system, points = lattice.scanned(SystemSpec(*d), delta_vec)
            for q in points:
                for k, values, lam in system.feasible_catalog(q):
                    case = system.catalog[k].case
                    offset = var_index(case, 1)
                    block = lam[offset:offset + BLOCK_SIZES[case - 1]]
                    assert min(values) >= 0
                    assert block[TARGET_VERTEX[case] - 1] == 1 == sum(block), (d, q, k)


class TestVerifyBasis:
    """The Fraction reference on the kept integer point system, and the
    adjugate that every catalog basis is certified by."""

    def test_case_one_basis_in_its_range(self):
        # the first range: third coordinate 2, band constraints on the rest
        inst = kept_lp((2, 3, 2), SystemSpec(2, 2))
        cols = CASE_BASES[0][2]
        report = verify_basis_reference(inst.A, inst.b, inst.c, cols)
        assert report.feasible and report.strictly_feasible and report.optimal
        # basis matrix itself has full rank
        B = [[inst.A[i][j] for j in cols] for i in range(7)]
        assert matrix_rank(B) == 7

    def test_dropping_a_block_breaks_the_basis(self):
        inst = kept_lp((2, 3, 2), SystemSpec(2, 2))
        # no variable from the fourth block: its convexity row is unsatisfiable
        bad = tuple(var_index(i, j) for i, j in
                    ((1, 3), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (1, 1)))
        assert sparse.lp.adjugate([[row[j] for j in bad] for row in inst.A]) is None

    def test_simplex_agreement_on_all_points(self):
        spec = SystemSpec(2, 2)
        for q in lattice_points(spec):
            inst = kept_lp(q, spec)
            best = simplex(*inst)
            certified = None
            for case, bid, columns in CASE_BASES:
                try:
                    report = verify_basis_reference(inst.A, inst.b, inst.c, columns)
                except SingularBasis:
                    continue
                if report.feasible and report.optimal:
                    certified = report
                    break
            assert certified is not None, q
            assert certified.objective == best.objective

    def test_point_outside_is_infeasible(self):
        system = lattice.scanned(SystemSpec(2, 2), DEFAULT_PERTURBATION)[0]
        c = lattice.costs(system.vertices, DEFAULT_LIFTINGS)
        with pytest.raises(Infeasible):
            sparse._search_assignment(system, (9, 9, 9), c)


class TestLiftings:
    def test_reference_values_pass(self):
        report = validate_liftings(DEFAULT_LIFTINGS)
        assert report.passed
        assert not report.violations

    def test_zero_liftings_pass_degenerately(self):
        report = validate_liftings(Liftings((0, 0, 0), (0, 0, 0),
                                            (0, 0, 0), (0, 0, 0)))
        assert report.passed
        assert len(report.degenerate) == 8

    def test_zeroed_fourth_vector_fails(self):
        report = validate_liftings(Liftings((7, -4, -5), (5, -9, 5),
                                            (6, 2, 1), (0, 0, 0)))
        assert not report.passed
        assert "L11 <= L41" in report.violations

    @pytest.mark.parametrize("lift", [
        ((9, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)),
        ((0, 0, 9), (0, 0, 0), (1, 0, 0), (0, 0, 0)),   # the equality too
        tuple(tuple(-v for v in l) for l in DEFAULT_LIFTINGS),  # all eight
    ])
    def test_grc_partition_refuses_failing_liftings(self, lift, monkeypatch):
        """The refusal names every violation, before any lattice point is
        scanned."""
        lift = Liftings(*lift)
        violations = validate_liftings(lift).violations
        assert len(violations) >= 2
        monkeypatch.setattr(sparse, "scanned", None)
        with pytest.raises(DiffresError) as caught:
            grc_partition(SystemSpec(1, 1), lift)
        assert str(caught.value) == f"liftings violate: {', '.join(violations)}"


class TestGrcPartition:
    def test_reference_sizes_and_moves(self):
        spec = SystemSpec(2, 2)
        result = grc_partition(spec)
        assert result.partition.sizes() == (6, 10, 8, 12)
        E = column_set(spec)
        mm = default_main_monomials(spec)
        moved = apply_moves(result.partition, MOVES_TO_DIVISIBILITY_2_2, spec)
        target = partition_divisibility(E, mm)
        for a, b in zip(moved.sets(), target.sets()):
            assert a.as_set() == b.as_set()

    def test_partition_is_disjoint_cover(self):
        for d in ((1, 1), (1, 2)):
            spec = SystemSpec(*d)
            result = grc_partition(spec)
            result.partition.validate_cover(column_set(spec))

    def test_assignments_carry_unit_lambda(self):
        spec = SystemSpec(2, 2)
        result = grc_partition(spec)
        for q, a in result.assignments.items():
            offset = sum((6, 6, 3, 3)[:a.case - 1])
            block = a.lam[offset:offset + (6, 6, 3, 3)[a.case - 1]]
            assert block[a.vertex_index - 1] == 1
            assert sum(block) == 1

    def test_printed_range_spot_checks(self):
        # third coordinate 2 with the first band lands in the first block;
        # third coordinate 1 with a small second coordinate and a large sum
        # lands in the third
        spec = SystemSpec(2, 2)
        result = grc_partition(spec)
        by_point = {q: a.case for q, a in result.assignments.items()}
        for e2 in (3, 4):
            for total in (5, 6):
                e1 = total - e2
                if e1 >= 1:
                    assert by_point[(e1, e2, 2)] == 1, (e1, e2)
        for e2 in (1, 2):
            for total in (6, 7):
                e1 = total - e2
                assert by_point[(e1, e2, 1)] == 3, (e1, e2)


class TestMoves:
    def _setup(self):
        spec = SystemSpec(2, 2)
        return spec, grc_partition(spec).partition

    def test_move_to_block_without_divisor_is_illegal(self):
        spec, part = self._setup()
        with pytest.raises(IllegalMove):
            apply_moves(part, [(YMonomial(0, 0, 0), 4, 1)], spec)

    def test_move_must_come_from_declared_block(self):
        spec, part = self._setup()
        with pytest.raises(IllegalMove):
            apply_moves(part, [(YMonomial(3, 1, 1), 4, 1)], spec)

    def test_move_to_constant_block_is_always_divisible(self):
        spec, part = self._setup()
        monomial = YMonomial(0, 1, 1)   # currently in the fourth block? no:
        # after the LP run it sits in S4 per the reference layout, move it to
        # S1 and back to S4: the constant main monomial divides everything
        moved = apply_moves(part, [(monomial, 4, 1), (monomial, 1, 4)], spec)
        assert moved.sizes() == part.sizes()

    def test_escape_is_reported(self):
        spec, part = self._setup()
        # the constant block accepts any monomial by divisibility, but the
        # top corner pushes the block polynomial's support out of the columns
        top = YMonomial(5, 0, 0)
        src = next(i + 1 for i, s in enumerate(part.sets()) if top in s)
        with pytest.raises(IllegalMove):
            apply_moves(part, [(top, src, 4)], spec)


# with the default liftings, one move per monomial outside its divisibility
# block, at every d1 <= d2 <= 5
DERIVED_MOVE_COUNTS = {
    (1, 1): 0, (1, 2): 4, (1, 3): 12, (1, 4): 22, (1, 5): 37,
    (2, 2): 8, (2, 3): 19, (2, 4): 34, (2, 5): 53,
    (3, 3): 25, (3, 4): 45, (3, 5): 67,
    (4, 4): 50, (4, 5): 77,
    (5, 5): 89,
}
SEEDED_CONFIG = json.loads(
    (Path(__file__).parent / "data" / "lp_partition_2_2_seeded_config.json").read_text())


def drawn_liftings(rng):
    """Integer heights in [-9, 9], L31 fixed by the merged equality; a draw
    that `validate_liftings` fails is drawn again."""
    while True:
        h = [rng.randint(-9, 9) for _ in range(11)]
        l32, l41, l42 = h[7], h[9], h[10]
        lift = Liftings(tuple(h[0:3]), tuple(h[3:6]),
                        (l32 + l41 - l42, l32, h[6]), (l41, l42, h[8]))
        if validate_liftings(lift).passed:
            return lift


class TestDerivedMoves:
    @staticmethod
    def _reaches_divisibility(spec, part):
        moves = moves_to_divisibility(part, spec)
        moved = apply_moves(part, moves, spec)   # raises on an illegal move
        target = partition_divisibility(column_set(spec),
                                        default_main_monomials(spec))
        assert [s.as_set() for s in moved.sets()] == [s.as_set() for s in target.sets()]
        assert moves_to_divisibility(moved, spec) == []
        return moves

    @pytest.mark.parametrize("d", DEGREES_TO_5)
    def test_default_liftings_at_every_pair_to_5(self, d):
        spec = SystemSpec(*d)
        moves = self._reaches_divisibility(spec, grc_partition(spec).partition)
        assert len(moves) == DERIVED_MOVE_COUNTS[d]

    def test_equals_the_2_2_table_as_a_set(self):
        spec = SystemSpec(2, 2)
        moves = moves_to_divisibility(grc_partition(spec).partition, spec)
        assert len(moves) == len(set(moves))
        assert set(moves) == set(MOVES_TO_DIVISIBILITY_2_2)

    def test_each_move_leaves_its_block_for_its_divisibility_block(self):
        spec = SystemSpec(2, 3)
        part = grc_partition(spec).partition
        target = partition_divisibility(column_set(spec),
                                        default_main_monomials(spec))
        moves = moves_to_divisibility(part, spec)
        for monomial, src, dst in moves:
            assert src != dst
            assert monomial in part.sets()[src - 1]
            assert monomial in target.sets()[dst - 1]
        # in block order of the source
        assert [src for _, src, _ in moves] == sorted(src for _, src, _ in moves)

    @pytest.mark.parametrize("d", [(1, 2), (2, 2), (2, 3), (3, 3)])
    def test_drawn_liftings(self, d):
        spec = SystemSpec(*d)
        rng = random.Random(7000 + 10 * d[0] + d[1])
        for _ in range(10):
            self._reaches_divisibility(
                spec, grc_partition(spec, drawn_liftings(rng)).partition)

    @pytest.mark.parametrize("d", [(2, 2), (2, 3)])
    def test_the_seeded_config(self, d):
        lift = Liftings(*(tuple(SEEDED_CONFIG["liftings"][k:k + 3])
                          for k in range(0, 12, 3)))
        delta_vec = tuple(F(v) for v in SEEDED_CONFIG["delta"])
        spec = SystemSpec(*d)
        self._reaches_divisibility(
            spec, grc_partition(spec, lift, delta_vec).partition)


class TestSparseMatrix:
    def test_divisibility_partition_reproduces_square_matrix(self):
        spec = SystemSpec(2, 2)
        part = partition_divisibility(column_set(spec),
                                      default_main_monomials(spec))
        sparse = build_sparse_matrix(part, spec)
        square = build_square_matrix(spec)
        assert sparse.row_label_map() == square.row_label_map()

    def test_lp_partition_matrix_is_nonsingular_probe(self):
        spec = SystemSpec(2, 2)
        raw = build_sparse_matrix(grc_partition(spec).partition, spec)
        ok, _ = nonzero_random_probe(raw, spec, seed=3)
        assert ok
        rng = random.Random(1)
        for seed in range(10):
            point = (F(rng.randint(-5, 5), rng.randint(1, 5)),
                     F(rng.randint(-5, 5), rng.randint(1, 5)),
                     F(rng.randint(-5, 5), rng.randint(1, 5)))
            s = common_zero_specialization(spec, point, rng_seed=seed)
            assert det_specialized(raw, s) == 0

    def test_degree_one_lp_matrix(self):
        spec = SystemSpec(1, 1)
        raw = build_sparse_matrix(grc_partition(spec).partition, spec)
        assert raw.nrows == raw.ncols == 4
        ok, _ = nonzero_random_probe(raw, spec, seed=5)
        assert ok
