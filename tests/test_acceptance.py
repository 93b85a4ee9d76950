"""Acceptance suite: one test per criterion, exact tolerances, stated budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion with its runtime.  Every comparison is exact (Fraction or int
equality); the budgets are wall-clock ceilings from the requirements.
"""

import time
from fractions import Fraction

from qsteiner.exactq import choose2, gauss_binom, q_int
from qsteiner.gfspaces import (
    count_fixed_intersection,
    spanning_count_formula,
    subspace_from_rows,
)
from qsteiner.grassmann import (
    SchemeInstance,
    eberlein_eigenvalue,
    eisfeld_eigenvalue,
    verify_spectrum,
)
from qsteiner.identities import run_identity_sweep
from qsteiner.linalg import mat_mul, rank_exact
from qsteiner.steiner import (
    ParamSet,
    design_from_dict,
    design_to_dict,
    dimension_formula,
    empirical_pair_counts,
    enumerate_steiner,
    gram_check,
    gram_coefficients,
    gram_matrix,
    incidence_matrix,
    intersect_count,
    kappa_i_formula,
    load_design_file,
    mu_eigenvalue,
    rank_certificate,
    sample_steiner,
    verify_design,
    verify_design_ids,
    verify_gram_spectrum,
)

from oracles import (
    block_subspaces,
    bucket_coefficients,
    count_fixed_intersection_bruteforce,
    kernel_sum_valuation,
    per_intersection_counts,
    save_design_file,
    spanning_count_bruteforce,
    transpose,
)

SWEEP_QS = (2, 3, 4, 5, 7, 8, 9)


def _finish(num: int, label: str, ok: bool, t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    in_budget = elapsed <= budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    print(f"[{status}] criterion {num}: {label} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num}: {label}"
    assert in_budget, f"criterion {num} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"


def test_criterion_1_identity_sweep():
    t0 = time.monotonic()
    summary = run_identity_sweep(qs=SWEEP_QS, max_n=10)
    ok = summary.failed == 0 and summary.checked > 100_000
    _finish(1, f"identity sweep, {summary.checked} checks, 0 failures required",
            ok, t0, 120)


def test_criterion_2_scheme_spectra():
    t0 = time.monotonic()
    ok = True
    for (n, k, q) in [(4, 2, 2), (5, 2, 2), (4, 2, 3)]:
        scheme = SchemeInstance(n, k, q)
        report = verify_spectrum(scheme)
        ok = ok and report.ok
        for i in range(k + 1):
            for r in range(scheme.r_max + 1):
                ok = ok and (
                    eberlein_eigenvalue(n, k, q, i, r)
                    == eisfeld_eigenvalue(n, k, q, i, r)
                )
    _finish(2, "Grassmann spectra on (4,2,2), (5,2,2), (4,2,3)", ok, t0, 300)


def test_criterion_3_pg32_pipeline():
    t0 = time.monotonic()
    params = ParamSet(t=1, k=2, n=4, q=2)
    designs = enumerate_steiner(params)
    n_designs = len(designs)
    ok = n_designs == 56
    ok = ok and all(verify_design_ids(params, d).ok for d in designs)

    gram = gram_matrix(params, designs)
    coeffs = gram_coefficients(n_designs, params)
    scheme = SchemeInstance(4, 2, 2)
    buckets = empirical_pair_counts(gram, scheme)
    ok = ok and buckets[2] == {8} and coeffs.kappa == 8
    ok = ok and buckets[0] == {2} and kappa_i_formula(n_designs, 0, params) == 2
    ok = ok and buckets.get(1, {0}) == {0}

    ok = ok and gram_check(buckets, coeffs, params.k)

    spec = verify_gram_spectrum(params, scheme, bucket_coefficients(buckets, 2), coeffs.kappa)
    ok = ok and [str(v) for _, v, _ in spec.spectrum] == ["40", "0", "12"]
    ok = ok and [m for _, _, m in spec.spectrum] == [1, 14, 20]
    ok = ok and spec.ok
    u = incidence_matrix(params, designs)
    ok = ok and gram == mat_mul(u, transpose(u))
    ok = ok and gram.trace() == 280 == 35 * 8

    ok = ok and rank_exact(u) == 21 == dimension_formula(params)
    _finish(3, "PG(3,2) spread pipeline (N=56, kappa=8, mu=(40,0,12), rank 21)",
            ok, t0, 60)


def test_criterion_4_pg33_certificate():
    t0 = time.monotonic()
    params = ParamSet(t=1, k=2, n=4, q=3)
    cert = None
    for count in (60, 100, 150, 250):
        result = sample_steiner(params, seed=7, count=count)
        cert = rank_certificate(params, result.designs)
        if cert.meets:
            break
    ok = (
        cert is not None
        and cert.meets
        and cert.w_rank == 40
        and cert.annihilation_ok
        and cert.upper_bound == cert.lower_bound == 91 == dimension_formula(params)
    )
    _finish(4, "PG(3,3) dimension certificate meets at 91", ok, t0, 1800)


def test_criterion_5_counting_oracles():
    t0 = time.monotonic()
    ok = True
    # spanning-set counts: closed form vs oracle for q^d <= 256, every m
    for q in SWEEP_QS:
        d = 0
        while q**d <= 256:
            points = int(q_int(d, q)) if d else 0
            for m in range(1, points + 1):
                if spanning_count_formula(m, d, q) != spanning_count_bruteforce(m, d, q):
                    ok = False
            d += 1
    # fixed-intersection counts vs exhaustive enumeration
    for q in SWEEP_QS:
        for n in range(0, 9 if q <= 3 else 7):
            for b in range(n + 1):
                for u in range(n + 1):
                    if (
                        gauss_binom(n, max(b, u), q) > 2000
                        or gauss_binom(n, u, q) > 2000
                    ):
                        continue
                    for a in range(min(b, u) + 1):
                        if count_fixed_intersection(
                            a, b, u, n, q
                        ) != count_fixed_intersection_bruteforce(a, b, u, n, q):
                            ok = False
    # per-design intersection profiles
    pg32 = ParamSet(t=1, k=2, n=4, q=2)
    for design in enumerate_steiner(pg32):
        if per_intersection_counts(pg32, design, 0) != {4}:
            ok = False
    ok = ok and intersect_count(pg32, 0) == 4
    pg33 = ParamSet(t=1, k=2, n=4, q=3)
    for design in sample_steiner(pg33, seed=5, count=10).designs:
        if per_intersection_counts(pg33, design, 0) != {int(intersect_count(pg33, 0))}:
            ok = False
    pg52 = ParamSet(t=1, k=2, n=6, q=2)
    ok = ok and intersect_count(pg52, 0) == 20
    for design in sample_steiner(pg52, seed=5, count=3).designs:
        if per_intersection_counts(pg52, design, 0) != {20}:
            ok = False
    _finish(5, "counting-lemma oracles (spanning, fixed-intersection, per-design)",
            ok, t0, 600)


def test_criterion_6_mu_zero_boundary():
    t0 = time.monotonic()
    ok = True
    for q in (2, 3):
        for n in range(4, 11):
            for k in range(2, n // 2 + 1):
                for t in range(1, k):
                    params = ParamSet(t=t, k=k, n=n, q=q)
                    ok = ok and mu_eigenvalue(params, 0, Fraction(1)) != 0
                    for r in range(1, k + 1):
                        mu = mu_eigenvalue(params, r, Fraction(1))
                        if r <= t:
                            ok = ok and mu == 0
                        else:
                            ok = ok and mu != 0
                            ok = ok and kernel_sum_valuation(n, k, t, r, q) == choose2(t)
    _finish(6, "mu_r zero exactly for 1 <= r <= t; valuation C(t,2) above", ok, t0, 120)


def test_criterion_7_file_verification_substitute(tmp_path):
    t0 = time.monotonic()
    params13 = ParamSet(t=2, k=3, n=13, q=2)
    ok = params13.admissible

    # round trip of a (2,3,13)-shaped block list
    blocks = [
        subspace_from_rows(
            [
                [1 if j == 3 * i else 0 for j in range(13)],
                [1 if j == 3 * i + 1 else 0 for j in range(13)],
                [1 if j == 3 * i + 2 else 0 for j in range(13)],
            ],
            13,
            2,
        )
        for i in range(4)
    ]
    path = tmp_path / "shape13.json"
    save_design_file(path, params13, blocks)
    loaded_params, loaded_blocks = load_design_file(path)[0]
    ok = ok and loaded_params == params13
    ok = ok and loaded_blocks == [b.key for b in blocks]

    # synthetic non-design data is rejected with a concrete witness
    result = verify_design(loaded_blocks, params13)
    ok = ok and not result.ok and result.witness is not None
    ok = ok and result.witness.dim == 2 and result.coverage == 0

    # malformed input is rejected with a parse diagnostic
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope", encoding="utf-8")
    try:
        load_design_file(bad)
        ok = False
    except ValueError as exc:
        ok = ok and "parse error" in str(exc)

    # the accept path through a file works where verification is feasible
    pg32 = ParamSet(t=1, k=2, n=4, q=2)
    spread = enumerate_steiner(pg32)[0]
    good = tmp_path / "spread.json"
    save_design_file(good, pg32, block_subspaces(pg32, spread))
    lp, lb = load_design_file(good)[0]
    ok = ok and verify_design(lb, lp).ok

    # the format also survives a dict-level round trip at the (2,3,13) shape
    obj = design_to_dict(params13, blocks)
    params_again, blocks_again = design_from_dict(obj)
    ok = ok and params_again == params13 and blocks_again == [b.key for b in blocks]
    _finish(7, "(2,3,13)-shaped file round trip; non-designs rejected with witness",
            ok, t0, 60)
