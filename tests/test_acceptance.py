"""Acceptance suite: every release criterion, one test each, with a printed
pass/fail line per criterion.

The frozen expected numbers are reference data the project was built
against, kept verbatim.  Four symmetric-count entries of the printed p = 4
containment table are wrong: criterion 3 asserts the corrected values, that
the computation refutes each printed one, and the cause (the printed column
drops the "+1" of the symmetric step recursion).  Everything else must match
exactly.
"""

import math
import time
from fractions import Fraction
from itertools import product

import oracles
from nsg import (
    PathSystem,
    Semigroup,
    build_cone,
    count_admissible,
    count_by_genus,
    count_containing,
    edges_of_cone_star,
    fit,
    from_generators,
    genus_count_series,
    leading_coefficient_report,
    predict_quasi_period,
    verify_path_recursions,
)
from nsg.closed_forms import (
    containing_count_3,
    containing_step_3,
    containing_step_4,
    genus_count_3,
    genus_count_4,
    genus_count_4_cases,
    genus_count_5,
    pseudo_symmetric_step_3,
    pseudo_symmetric_step_4,
    symmetric_genus_count_4,
    symmetric_genus_count_5,
    symmetric_step_3,
    symmetric_step_4,
)
from oracles import (
    asymptotic_ratio_check,
    dfs_iter_points,
    interior_shift_check,
    sigma_star_set,
    verify_interior_identity,
    verify_medim_identity,
)

F = Fraction


def _report(criterion, ok, detail=""):
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


# frozen reference data -------------------------------------------------------

# genus 0..8: (total, interior, symmetric) for p = 3 and p = 4
TABLE_A = {
    3: [(1, 0, 1), (1, 0, 1), (1, 1, 0), (2, 1, 1), (2, 1, 1),
        (2, 2, 0), (3, 2, 1), (3, 2, 1), (3, 3, 0)],
    4: [(1, 0, 1), (1, 0, 1), (2, 0, 1), (3, 1, 2), (4, 1, 2),
        (5, 2, 2), (7, 3, 3), (8, 4, 3), (10, 5, 3)],
}

# q: (total, medim, symmetric, pseudo-symmetric) at p = 3
TABLE_B = {
    1: (1, 0, 1, 0), 2: (2, 0, 2, 0), 4: (4, 1, 3, 1), 5: (5, 2, 3, 2),
    7: (8, 4, 4, 3), 8: (10, 5, 5, 3), 10: (14, 8, 6, 4), 11: (16, 10, 6, 5),
    13: (21, 14, 7, 6), 14: (24, 16, 8, 6),
}

# q: (total, medim, symmetric, pseudo-symmetric) at p = 4, as printed in the
# reference table.  The symmetric entries at q = 9, 11, 13, 15 are too low
# by 1, 1, 2, 2: the printed column was chained without the "+1" of the step
# recursion, which counts <4, q> itself.  TABLE_C_SYM_CORRECTED holds the
# values brute force gives; test_acceptance_3_printed_symmetric_values_known_bad
# asserts both the refutation and its cause.
TABLE_C_PRINTED = {
    1: (1, 0, 1, 0), 3: (4, 0, 3, 1), 5: (9, 1, 5, 2), 7: (17, 4, 8, 3),
    9: (29, 9, 11, 4), 11: (45, 17, 15, 5), 13: (66, 29, 19, 6),
    15: (93, 45, 25, 7),
}
TABLE_C_SYM_CORRECTED = {9: 12, 11: 16, 13: 21, 15: 27}


def test_acceptance_1_genus_table():
    t0 = time.perf_counter()
    mismatches = []
    for p in (3, 4):
        series = {cls: genus_count_series(p, 8, cls) for cls in ("all", "medim", "sym")}
        for g in range(9):
            got = (series["all"][g], series["medim"][g], series["sym"][g])
            if got != TABLE_A[p][g]:
                mismatches.append((p, g, got, TABLE_A[p][g]))
    elapsed = time.perf_counter() - t0
    _report(1, not mismatches and elapsed < 1.0,
            f"54 genus-table entries, {elapsed:.3f}s {mismatches}")


def test_acceptance_2_containment_table_p3():
    t0 = time.perf_counter()
    mismatches = []
    for q, expected in TABLE_B.items():
        got = tuple(count_containing(3, q, cls) for cls in ("all", "medim", "sym", "psym"))
        if got != expected:
            mismatches.append((q, got, expected))
    elapsed = time.perf_counter() - t0
    _report(2, not mismatches and elapsed < 1.0,
            f"40 containment entries at p=3, {elapsed:.3f}s {mismatches}")


def test_acceptance_3_containment_table_p4_undisputed_entries():
    t0 = time.perf_counter()
    mismatches = []
    for q, (total, medim, sym, psym) in TABLE_C_PRINTED.items():
        got = tuple(count_containing(4, q, cls) for cls in ("all", "medim", "sym", "psym"))
        expected = (total, medim, TABLE_C_SYM_CORRECTED.get(q, sym), psym)
        if got != expected:
            mismatches.append((q, got, expected))
    elapsed = time.perf_counter() - t0
    _report("3 (28/32 entries + corrections)", not mismatches and elapsed < 5.0,
            f"p=4 containment table, {elapsed:.3f}s {mismatches}")


def test_acceptance_3_printed_symmetric_values_known_bad():
    """The printed symmetric counts at q = 9, 11, 13, 15 are refuted.

    The reference table prints 11, 15, 19, 25; the computation gives 12, 16,
    21, 27 (TABLE_C_SYM_CORRECTED).  Two oracles that share no code with
    ``nsg`` agree with the computation: subset exhaustion over gap sets and
    the generator-removal tree (test_corrected_symmetric_counts_brute_force
    below runs both).

    The cause: the symmetric step recursion says sym(q) - sym(q - 4) =
    symmetric_step_4(q), whose leading "+1" counts <4, q> itself (every
    semigroup with two generators is symmetric).  The printed steps agree
    with it at q = 7 and are exactly one less from q = 9 on, so the printed
    column was chained without that term.

    The test asserts the corrected values, that each printed value differs
    from the computed one, and this step pattern, so it fails if the code
    ever drifts toward the printed values.
    """
    qs = sorted(TABLE_C_SYM_CORRECTED)
    printed = {q: TABLE_C_PRINTED[q][2] for q in (3, 5, 7, *qs)}
    got = {q: count_containing(4, q, "sym") for q in (5, 7, *qs)}
    printed_steps = {q: printed[q] - printed[q - 4] for q in (7, *qs)}
    got_steps = {q: got[q] - got[q - 4] for q in qs}

    ok = {q: got[q] for q in qs} == TABLE_C_SYM_CORRECTED
    ok &= all(got[q] != printed[q] for q in qs)
    ok &= printed_steps[7] == symmetric_step_4(7)
    ok &= all(printed_steps[q] == symmetric_step_4(q) - 1 for q in qs)
    ok &= all(got_steps[q] == symmetric_step_4(q) for q in qs)
    recursion_steps = {q: symmetric_step_4(q) for q in (7, *qs)}
    _report("3 (printed symmetric entries q=9,11,13,15 refuted)", ok,
            f"printed {[printed[q] for q in qs]} vs computed "
            f"{[got[q] for q in qs]}; steps printed {printed_steps}, "
            f"computed {got_steps}, recursion {recursion_steps}")


def test_corrected_symmetric_counts_brute_force():
    def symmetric(gaps):  # 2 * genus == Frobenius number + 1
        return not gaps or 2 * len(gaps) == max(gaps) + 1

    # subset exhaustion over the gaps of <4, q>; at q = 15 it takes seconds
    for q in (9, 11):
        gapsets = oracles.brute_containing_gapsets(4, q)
        assert len(gapsets) == TABLE_C_PRINTED[q][0]
        assert sum(map(symmetric, gapsets)) == TABLE_C_SYM_CORRECTED[q]
    # every semigroup containing 4 and q contains <4, q>, whose genus is
    # 3(q - 1)/2 <= 21, so the tree to genus 21 holds all of them
    tree = oracles.tree_gapsets(21)
    for q, sym in TABLE_C_SYM_CORRECTED.items():
        gapsets = [gaps for gaps in tree if 4 not in gaps and q not in gaps]
        assert len(gapsets) == TABLE_C_PRINTED[q][0]
        assert sum(map(symmetric, gapsets)) == sym
    # the step recursion, staircase by staircase, up to q = 15
    assert verify_path_recursions(4, 15).ok


def test_acceptance_4_closed_forms():
    g3 = genus_count_series(3, 60)
    ok = all(genus_count_3(g) == g3[g] for g in range(61))
    qp3 = fit(g3, 3, 1)
    ok &= all(genus_count_3(g) == qp3.evaluate(g) for g in range(61, 201))
    g4 = genus_count_series(4, 60)
    ok &= all(genus_count_4(g) == g4[g] for g in range(61))
    ok &= all(genus_count_4(g) == genus_count_4_cases(g) for g in range(101))
    sym4 = genus_count_series(4, 60, "sym")
    ok &= all(symmetric_genus_count_4(g) == sym4[g] for g in range(61))
    ok &= all(
        containing_count_3(q) == count_containing(3, q)
        for q in range(1, 121)
        if math.gcd(q, 3) == 1
    )
    _report(4, ok, "closed forms vs enumeration and vs each other")


def test_acceptance_5_degree_three_family():
    full = genus_count_series(5, 40)
    sym = genus_count_series(5, 40, "sym")
    ok = all(genus_count_5(g) == full[g] for g in range(41))
    ok &= all(symmetric_genus_count_5(g) == sym[g] for g in range(41))
    ok &= all(sym[g] == 0 for g in range(41) if g % 5 == 3)
    _report(5, ok, "cubic family with 30 residue tails, g <= 40")


def test_acceptance_6_identities():
    ok = all(verify_interior_identity(p, 30) for p in (3, 4, 5))
    ok &= all(verify_medim_identity(p, 60) for p in (3, 4, 5))
    _report(6, ok, "interior shift and medim shift identities")


def test_acceptance_7_recursions():
    ok = True
    for q in range(4, 101):
        if math.gcd(q, 3) != 1:
            continue
        ok &= count_containing(3, q) - count_containing(3, q - 3) == containing_step_3(q)
        ok &= count_containing(3, q, "sym") - count_containing(3, q - 3, "sym") == symmetric_step_3(q)
        ok &= count_containing(3, q, "psym") - count_containing(3, q - 3, "psym") == pseudo_symmetric_step_3(q)
    for q in range(5, 61, 2):
        ok &= count_containing(4, q) - count_containing(4, q - 4) == containing_step_4(q)
        ok &= count_containing(4, q, "psym") - count_containing(4, q - 4, "psym") == pseudo_symmetric_step_4(q)
        if q >= 7:
            ok &= count_containing(4, q, "sym") - count_containing(4, q - 4, "sym") == symmetric_step_4(q)
    ok &= verify_path_recursions(5, 30).ok
    _report(7, ok, "explicit steps p=3 (q<=100), p=4 (q<=60); generic p=5 (q<=30)")


def test_acceptance_8_path_cone_agreement():
    ok = True
    for p in (3, 4, 5):
        for q in range(1, 41):
            if q == p or math.gcd(p, q) != 1:
                continue
            ok &= count_admissible(PathSystem(p, q)) + 1 == count_containing(p, q)
    _report(8, ok, "admissible paths + 1 = containment counts, p<=5, q<=40")


def test_acceptance_9_edges_and_periods():
    ok = edges_of_cone_star(3).rays == ((1, 2), (2, 1))
    ok &= predict_quasi_period(3, (1, 1)) == 3
    qp3 = fit(genus_count_series(3, 59), 3, 1)
    ok &= qp3.degree == 1
    period4 = predict_quasi_period(4, (1, 1, 1))
    ok &= period4 % 6 == 0
    qp4 = fit(genus_count_series(4, 5 * period4 - 1), period4, 2)
    report = leading_coefficient_report(qp4)
    ok &= report.constant and report.coefficients[0] == F(1, 12)
    _report(9, ok, f"edge set, predicted periods (p=4 gives {period4}), exact fits")


def test_acceptance_10_asymptotics():
    r_n3 = asymptotic_ratio_check(
        lambda q: count_containing(3, q), 2, F(1, 12), 199,
        bound_constant=F(61, 100), q_min=97, coprime_to=3,
    )
    r_sym3 = asymptotic_ratio_check(
        lambda q: count_containing(3, q, "sym"), 1, F(1, 2), 199,
        bound_constant=F(3), q_min=97, coprime_to=3,
    )
    r_psym3 = asymptotic_ratio_check(
        lambda q: count_containing(3, q, "psym"), 1, F(1, 2), 199,
        bound_constant=F(3), q_min=97, coprime_to=3,
    )
    # The first-order constant for the p = 4 total follows from its verified
    # step recursion: summing the exact increment (q^2/6 + 2q/3 + bounded
    # periodic term) along q, q-4, ... gives
    #   total(q) = q^3/72 + q^2/6 + 13q/24 + O(1),
    # so q * |total/q^3 - 1/72| -> 1/6 from above and stays below
    # 1/6 + 13/(24*61) + o(1) < 9/50 on the tested range.
    r_n4 = asymptotic_ratio_check(
        lambda q: count_containing(4, q), 3, F(1, 72), 121,
        bound_constant=F(9, 50), q_min=61, coprime_to=4,
    )
    ok = r_n3.ok and r_sym3.ok and r_psym3.ok and r_n4.ok
    _report(
        10, ok,
        f"N3 within 0.61/q (worst q*gap {float(r_n3.worst_scaled_gap):.4f}), "
        f"Sym/Psym within 3/q, N4 within 9/50/q "
        f"(worst q*gap {float(r_n4.worst_scaled_gap):.4f}, derived bound)",
    )


def test_acceptance_11_property_suites():
    t0 = time.perf_counter()
    ok = True

    # coordinate-vector round trip through generators, entries <= 6
    for p in (3, 4, 5):
        for mu in dfs_iter_points(p, (6,) * (p - 1)):
            s = Semigroup(p, mu)
            if from_generators(s.minimal_generators(), p).mu != mu:
                ok = False

    # interior shift identity on the grid
    ok &= interior_shift_check(3, 6) and interior_shift_check(4, 6)

    # paired class-minima characterization of symmetry, p <= 5, genus <= 12
    for p in (3, 4, 5):
        for mu in dfs_iter_points(p, (12,) * (p - 1), max_total=12):
            s = Semigroup(p, mu)
            ap = sorted((0, *s.apery_elements()))
            paired = all(ap[i] + ap[p - 1 - i] == ap[p - 1] for i in range(p))
            if s.is_symmetric() != paired:
                ok = False

    # pseudo-symmetric locus equivalence, p in {3, 5}, genus <= 10
    for p in (3, 5):
        loci = sigma_star_set(p)
        for mu in dfs_iter_points(p, (10,) * (p - 1), max_total=10):
            if not any(mu):
                continue
            if any(l.contains(mu) for l in loci) != Semigroup(p, mu).is_pseudo_symmetric():
                ok = False

    # locus points sit on the boundary for p in {5, 7}
    for p in (5, 7):
        cone = build_cone(p)
        loci = sigma_star_set(p)
        for x in product(range(6), repeat=p - 1):
            if cone.contains(x) and any(l.contains(x) for l in loci):
                if cone.strictly_contains(x):
                    ok = False

    # cone enumeration equals the generator-removal tree oracle
    for p in (3, 4, 5):
        tree = oracles.tree_counts_containing_p(p, 12)
        for g in range(13):
            if count_by_genus(p, g) != tree[g]:
                ok = False

    # admissible path counts are monotone along coprime q
    for p in (3, 4, 5):
        values = [
            count_admissible(PathSystem(p, q))
            for q in range(p + 1, 41)
            if math.gcd(p, q) == 1
        ]
        if values != sorted(values):
            ok = False

    elapsed = time.perf_counter() - t0
    _report(11, ok, f"property suites, {elapsed:.1f}s")
