"""Tests of the benchmark's reference computations against brute force.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

These do not import ficat: the references must stand on their own.
"""

import json
import math
import os
import unittest
from itertools import permutations, product

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))


def _matrices(n_mod, rows, cols):
    for data in product(range(n_mod), repeat=rows * cols):
        yield [list(data[i * cols:(i + 1) * cols]) for i in range(rows)]


def _image_size(m, n_mod):
    cols = len(m[0])
    return len({tuple(sum(row[j] * v[j] for j in range(cols)) % n_mod for row in m)
                for v in product(range(n_mod), repeat=cols)})


class Numbers(unittest.TestCase):
    def test_derangements_match_permutation_count(self):
        for n in range(8):
            brute = sum(1 for p in permutations(range(n)) if all(p[i] != i for i in range(n)))
            self.assertEqual(ref.derangements(n), brute)
        self.assertEqual(ref.derangements(7), 1854)

    def test_prime_powers_and_units(self):
        self.assertEqual(ref.prime_powers(12), [(2, 2), (3, 1)])
        self.assertEqual(ref.prime_powers(2_147_483_647), [(2_147_483_647, 1)])
        for n in range(2, 40):
            self.assertEqual(ref.unit_count(n), sum(1 for x in range(n) if math.gcd(x, n) == 1))

    def test_gl_order_against_brute_force(self):
        for n_mod, rank in ((2, 1), (2, 2), (3, 2), (4, 1), (4, 2), (6, 1), (6, 2), (2, 3)):
            brute = sum(1 for m in _matrices(n_mod, rank, rank)
                        if math.gcd(ref.det(m, n_mod), n_mod) == 1)
            self.assertEqual(ref.gl_order(n_mod, rank), brute, (n_mod, rank))

    def test_sp_order_against_brute_force(self):
        omega1 = [[0, 1], [-1, 0]]
        omega2 = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
        for n_mod, rank, omega in ((2, 1, omega1), (3, 1, omega1), (4, 1, omega1), (6, 1, omega1),
                                   (2, 2, omega2)):
            want = ref.reduce_mat(omega, n_mod)
            brute = 0
            for m in _matrices(n_mod, 2 * rank, 2 * rank):
                mt = ref.transpose(m)
                if ref.mat_mul(mt, ref.mat_mul(omega, m, n_mod), n_mod) == want:
                    brute += 1
            self.assertEqual(ref.sp_order(n_mod, rank), brute, (n_mod, rank))

    def test_surjection_count_against_image_sizes(self):
        for n_mod, rows, cols in ((4, 1, 2), (4, 2, 2), (4, 2, 3), (6, 1, 3), (6, 2, 2), (3, 2, 3)):
            brute = sum(1 for m in _matrices(n_mod, rows, cols) if _image_size(m, n_mod) == n_mod ** rows)
            self.assertEqual(ref.surjection_count(n_mod, rows, cols), brute, (n_mod, rows, cols))
        self.assertEqual(ref.surjection_count(4, 3, 2), 0)


class Homs(unittest.TestCase):
    def test_fi_homs_are_injections(self):
        fi = ref.HomCounts("FI")
        for r in range(5):
            for n in range(6):
                brute = sum(1 for t in product(range(n), repeat=r) if len(set(t)) == r)
                self.assertEqual(fi.hom(r, n), brute)

    def test_vic_homs_are_split_injections(self):
        # a VIC morphism r -> n is a pair (f, fp) with fp f = 1
        for n_mod in (2, 3, 4):
            vic = ref.HomCounts("VIC", n_mod)
            for r, n in ((1, 1), (1, 2), (2, 2)):
                brute = 0
                for f in _matrices(n_mod, n, r):
                    for fp in _matrices(n_mod, r, n):
                        if ref.mat_mul(fp, f, n_mod) == ref.identity(r):
                            brute += 1
                self.assertEqual(vic.hom(r, n), brute, (n_mod, r, n))
            self.assertEqual(vic.hom(0, 3), 1)
        self.assertEqual(ref.HomCounts("VIC", 2).hom(1, 2), 6)

    def test_vic_with_a_unit_subgroup_and_ovic(self):
        # VIC(Z/5, U={1,4}): automorphisms with determinant +-1
        vic = ref.HomCounts("VIC", 5, 2)
        brute = sum(1 for m in _matrices(5, 2, 2) if ref.det(m, 5) in (1, 4))
        self.assertEqual(vic.aut(2), brute)
        self.assertEqual(vic.hom(1, 2) * vic.aut(1), vic.aut(2))
        for n_mod in (2, 4, 6):
            for r in range(3):
                for n in range(r, 4):
                    self.assertEqual(ref.HomCounts("OVIC", n_mod).hom(r, n) * ref.gl_order(n_mod, r),
                                     ref.HomCounts("VIC", n_mod).hom(r, n))

    def test_si_counting_identity(self):
        si = ref.HomCounts("SI", 2)
        self.assertEqual((si.hom(1, 2), si.aut(2), si.aut(1)), (120, 720, 6))

    def test_axiom_counters_of_fi_rank_one(self):
        got = ref.axiom_counters(ref.HomCounts("FI").hom, 1, True, True, 10, 3)
        self.assertEqual(got["identity.checked"], 3)
        # signatures (0000) (0001) (0011) (0111) (1111), one triple each
        self.assertEqual(got["associativity.signatures"], 5)
        self.assertEqual(got["associativity.checked"], 5)
        # only hom(0, 1) is outside the endomorphisms; it acts on hom(0, 0)
        self.assertEqual((got["mono.checked"], got["mono.iso_skipped"]), (1, 2))
        self.assertEqual(got["sum_injective.checked"], 1 + 1 + 2)
        self.assertEqual(got["transitivity.pairs"], 1)
        self.assertEqual(got["complement_unique.pairs"], 3)

    def test_axiom_counters_sampling(self):
        hom = ref.HomCounts("FI").hom
        capped = ref.axiom_counters(hom, 3, False, False, 5, 2)
        full = ref.axiom_counters(hom, 3, False, False, 10 ** 9, 0)
        self.assertEqual(full["associativity.sampled_signatures"], 0)
        self.assertGreater(capped["associativity.sampled_signatures"], 0)
        self.assertLess(capped["associativity.checked"], full["associativity.checked"])
        self.assertNotIn("monoidal.checked", capped)


class Matrices(unittest.TestCase):
    def test_mat_mul_and_identity(self):
        a = [[1, 2], [3, 4]]
        b = [[2, 0, 1], [1, 3, 0]]
        self.assertEqual(ref.mat_mul(a, b, 5), [[4, 1, 1], [0, 2, 3]])
        self.assertEqual(ref.mat_mul(ref.identity(2), a, 7), a)
        with self.assertRaises(ValueError):
            ref.mat_mul(a, [[1, 2]], 5)

    def test_column_adapted_examples(self):
        self.assertTrue(ref.column_adapted([[2, 1]], 4))  # 2 is a non-unit left of the pivot
        self.assertFalse(ref.column_adapted([[3, 1]], 4))  # 3 is a unit left of the pivot
        self.assertTrue(ref.column_adapted([[1, 0, 2], [0, 1, 3]], 4))
        self.assertFalse(ref.column_adapted([[0, 1], [1, 0]], 4))  # pivots out of order
        # over Z/6 the condition holds factor by factor: [[3, 1]] is [[1, 1]]
        # mod 2 (pivot in column 0) and [[0, 1]] mod 3 (pivot in column 1)
        self.assertTrue(ref.column_adapted([[3, 1]], 6))
        # [[2, 1]] is [[2, 1]] mod 3, with the unit 2 left of the pivot
        self.assertFalse(ref.column_adapted([[2, 1]], 6))
        self.assertTrue(ref.row_adapted([[2], [1]], 4, 1))

    def test_every_surjection_has_one_adapted_quotient(self):
        # f = g f1 with f1 adapted and g invertible, for exactly one g
        for n_mod, rows, cols in ((4, 1, 2), (4, 2, 2), (6, 1, 2), (2, 2, 3)):
            group = [g for g in _matrices(n_mod, rows, rows) if ref.is_invertible(g, n_mod)]
            inverses = {}
            for g in group:
                for h in group:
                    if ref.mat_mul(g, h, n_mod) == ref.identity(rows):
                        inverses[json.dumps(g)] = h
            for m in _matrices(n_mod, rows, cols):
                if _image_size(m, n_mod) != n_mod ** rows:
                    continue
                hits = [g for g in group
                        if ref.column_adapted(ref.mat_mul(inverses[json.dumps(g)], m, n_mod), n_mod)]
                self.assertEqual(len(hits), 1, (n_mod, m))

    def test_invertibility_agrees_with_the_determinant(self):
        for n_mod in (4, 6):
            for m in _matrices(n_mod, 2, 2):
                self.assertEqual(ref.is_invertible(m, n_mod), math.gcd(ref.det(m, n_mod), n_mod) == 1)


class Elimination(unittest.TestCase):
    def test_rank_against_minors(self):
        # rank = size of the largest minor that is nonzero mod p
        for p in (2, 3, 5):
            for m in _matrices(p, 2, 3) if p < 5 else list(_matrices(p, 2, 2)):
                cols = len(m[0])
                full = any(ref.det([[m[i][j] for j in pair] for i in range(2)], p)
                           for pair in [(a, b) for a in range(cols) for b in range(a + 1, cols)])
                want = 2 if full else (1 if any(x % p for row in m for x in row) else 0)
                self.assertEqual(ref.rank_mod_p(m, p), want, (p, m))

    def test_sparse_rank_paths_agree(self):
        # the three edges of a triangle: dependent in characteristic 2 only
        triangle = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}]
        self.assertEqual(ref.sparse_rank(triangle, 2), 2)
        self.assertEqual(ref.sparse_rank(triangle, 3), 3)
        self.assertEqual(ref.sparse_rank(triangle, 2_147_483_647), 3)
        signed = [{0: 1, 3: -1}, {1: 1, 3: -1}, {0: 1, 1: -1}, {2: 1}]
        for p in (2, 3, 2_147_483_647):
            self.assertEqual(ref.sparse_rank(signed, p), 3)
            dense = [[v.get(j, 0) for j in range(4)] for v in signed]
            self.assertEqual(ref.rank_mod_p(dense, p), 3)
        self.assertEqual(ref.sparse_rank([], 3), 0)


class Benchmark(unittest.TestCase):
    def test_benchmark_json_lists_the_metrics_run_py_reports(self):
        import run

        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]],
                         [tuple(m) for m in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         [tuple(m) for m in run.PER_LAYER])


if __name__ == "__main__":
    unittest.main()
