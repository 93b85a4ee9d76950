import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qsteiner
from qsteiner import cli, grassmann, steiner
from qsteiner.cli import main
from qsteiner.exactq import gauss_binom
from qsteiner.grassmann import SchemeInstance
from qsteiner.steiner import (
    ParamSet,
    designs_through_two_blocks,
    empirical_pair_counts,
    enumerate_steiner,
    gram_matrix,
)

from oracles import block_subspaces, dense_gram, save_design_file


def test_identities_writes_report_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["identities", "--q", "2,3", "--max-n", "3", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert rows and all(r.get("equal") or r.get("status") == "skipped" for r in rows)
    summary = capsys.readouterr().out
    assert "failed=0" in summary


def test_identities_empty_sweep(tmp_path):
    out = tmp_path / "empty.json"
    code = main(["identities", "--q", "2", "--max-n", "0", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text()) == []


def test_identities_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    code = main(["identities", "--q", "2", "--max-n", "2", "--format", "csv",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "identity,parameters,lhs,rhs,equal,reason"
    assert len(lines) > 10


def test_identities_unwritable_path():
    code = main(["identities", "--q", "2", "--max-n", "1",
                 "--out", "/nonexistent-dir/r.json"])
    assert code == 2


def test_reports_are_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(["identities", "--q", "2", "--max-n", "3", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    d = tmp_path / "d.json"
    for out in (c, d):
        assert main(["dimension", "--t", "1", "--k", "2", "--n", "4", "--q", "3",
                     "--sample", "--seed", "5", "--out", str(out)]) == 0
    assert c.read_bytes() == d.read_bytes()


@pytest.mark.parametrize("argv, digest", [
    (["dimension", "--t", "1", "--k", "2", "--n", "4", "--q", "2"],
     "16e645d844117ed36fa0646192f6dfe3858c5cbb32f2b4ccec81395930ad4714"),
    (["dimension", "--t", "1", "--k", "2", "--n", "4", "--q", "3"],
     "155a5eb05811511efc887653ecb3e729b6d54d27da79d1a67a668948235ceda3"),
    (["dimension", "--t", "1", "--k", "2", "--n", "4", "--q", "3", "--sample", "--seed", "7"],
     "eca7da2d6e4c4141c89db2163adf3ad438d08aec35aad4e3f487a2d516c680a0"),
    (["dimension", "--t", "1", "--k", "2", "--n", "4", "--q", "3", "--sample", "--seed", "3"],
     "b0652bf9d9fec9eb20082ab4e8edeaeb581377af11f20bb39d91a1dc200c2bab"),
    (["scheme", "--n", "4", "--k", "2", "--q", "3"],
     "29b4567b8c5d3c3dd8d1f07bd2dbb37832a67caee68667e451b974723299cdf7"),
], ids=["pg32", "pg33", "pg33-sample-seed7", "pg33-sample-seed3", "scheme-4-2-3"])
def test_reports_match_pinned_digests(argv, digest, capsys):
    """The stdout reports, byte for byte, as pinned by their sha256."""
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_dimension_report_unchanged_under_optimize():
    """``python -O`` strips asserts; no check may depend on them."""
    env = dict(os.environ)
    src = str(Path(qsteiner.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["-m", "qsteiner.cli", "dimension",
            "--t", "1", "--k", "2", "--n", "4", "--q", "2"]
    plain, optimized = [
        subprocess.run([sys.executable, *flags, *argv], env=env,
                       capture_output=True, text=True, timeout=300)
        for flags in ([], ["-O"])
    ]
    assert plain.returncode == optimized.returncode == 0
    assert json.loads(plain.stdout)["all_pass"] is True
    assert optimized.stdout == plain.stdout
    assert optimized.stderr == plain.stderr


def test_dimension_pipeline_pg32(tmp_path):
    out = tmp_path / "d.json"
    code = main(["dimension", "--t", "1", "--k", "2", "--n", "4", "--q", "2",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["N"] == 56
    assert report["rank_U"] == 21
    assert report["mu"] == ["40", "0", "12"]
    assert report["multiplicities"] == [1, 14, 20]
    assert report["kappa"] == "8"
    assert report["all_pass"] is True


def test_dimension_rejects_inadmissible(capsys):
    code = main(["dimension", "--t", "1", "--k", "2", "--n", "5", "--q", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert "inadmissible" in err


@pytest.mark.parametrize("count", ["-5", "0"])
def test_dimension_sample_rejects_nonpositive_count(count, tmp_path, capsys):
    out = tmp_path / "d.json"
    code = main(["dimension", "--t", "1", "--k", "2", "--n", "4", "--q", "2",
                 "--sample", "--count", count, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: --count must be positive\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--count", "-5", "--seed", "9"], ["--seed", "0"]])
def test_dimension_sampling_flags_need_sample(flags, tmp_path, capsys):
    out = tmp_path / "d.json"
    code = main(["dimension", "--t", "1", "--k", "2", "--n", "4", "--q", "2",
                 *flags, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {flags[0]} needs --sample\n"
    assert not out.exists()


def test_rank_u_does_not_trust_the_closed_form(tmp_path, monkeypatch):
    """With every closed-form eigenvalue off by one there is no value-0 rank
    check to read rank(U) from, so it is ranked from the Gram matrix."""
    true_spectrum = steiner.mu_spectrum
    monkeypatch.setattr(
        steiner, "mu_spectrum",
        lambda params, kappa: [(r, v + 1, m) for r, v, m in true_spectrum(params, kappa)],
    )
    out = tmp_path / "d.json"
    code = main(["dimension", "--t", "1", "--k", "2", "--n", "4", "--q", "2",
                 "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["rank_U"] == 21
    assert report["rank_matches_dimension"] is True
    assert report["all_pass"] is False
    checks = report["spectral_rank_checks"]
    assert checks and not any(c["ok"] for c in checks)


@pytest.mark.parametrize("q", [2, 3])
def test_dimension_falls_back_to_dense_bareiss_without_the_algebra(q, monkeypatch, capsys):
    """With no structure constants the spectrum proof fails, U U^T is
    expanded densely and every shifted copy is ranked by Bareiss: the report
    is byte for byte the algebra path's."""
    argv = ["dimension", "--t", "1", "--k", "2", "--n", "4", "--q", str(q)]
    assert main(argv) == 0
    proven = capsys.readouterr()
    ranked = []
    rank_exact = grassmann.rank_exact
    monkeypatch.setattr(grassmann, "rank_exact", lambda m: ranked.append(m.rows) or rank_exact(m))
    monkeypatch.setattr(grassmann.SchemeInstance, "intersection_numbers", None)
    assert main(argv) == 0
    assert capsys.readouterr() == proven
    assert ranked == [gauss_binom(4, 2, q)] * 3


def test_rank_u_is_the_size_when_0_is_proven_no_eigenvalue(monkeypatch, capsys):
    """U U^T + I has the spectrum mu + 1, without 0: once the algebra proves
    it, rank(U U^T + I) is the full size with no elimination at all."""
    row_b0_gram, true_spectrum = cli._row_b0_gram, steiner.mu_spectrum

    def plus_identity(designs, maps, scheme):
        buckets, coefficients = row_b0_gram(designs, maps, scheme)
        return buckets, [*coefficients[:-1], coefficients[-1] + 1]

    monkeypatch.setattr(cli, "_row_b0_gram", plus_identity)
    monkeypatch.setattr(
        steiner, "mu_spectrum",
        lambda params, kappa: [(r, v + 1, m) for r, v, m in true_spectrum(params, kappa)],
    )
    ranked = []
    for module in (grassmann, cli):
        monkeypatch.setattr(module, "rank_exact", lambda m: ranked.append(m) or 0)
    assert main(["dimension", "--t", "1", "--k", "2", "--n", "4", "--q", "3"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert ranked == []
    assert report["rank_U"] == 130
    assert report["mu"] == ["6481", "1", "865"]
    assert [c["rank"] for c in report["spectral_rank_checks"]] == [129, 91, 40]
    assert all(c["ok"] for c in report["spectral_rank_checks"])
    assert report["trace_check"] is False  # the trace is now [n k] (kappa + 1)
    assert report["rank_matches_dimension"] is False


@pytest.mark.parametrize("q", [2, 3])
def test_row_b0_gram_is_the_gram_matrix_of_all_designs(q):
    """The fast path against the exact path: U U^T rebuilt from row B0,
    carried by the h_j from the designs through B0 and C0, is U U^T summed
    over every enumerated design, entry for entry, with the same buckets
    and N = classes * len(maps) * N00."""
    params = ParamSet(t=1, k=2, n=4, q=q)
    scheme = SchemeInstance(4, 2, q)
    found, _, classes, maps = designs_through_two_blocks(params)
    every = enumerate_steiner(params)
    full = gram_matrix(params, every)
    buckets, coefficients = cli._row_b0_gram(found, maps.values(), scheme)
    assert classes * len(maps) * len(found) == len(every)
    assert dense_gram(scheme, coefficients) == full
    assert buckets == empirical_pair_counts(full, scheme)


def _swap_last(found, keep):
    """The last design swapped for the first PG(3,2) spread that keep takes."""
    every = enumerate_steiner(ParamSet(t=1, k=2, n=4, q=2))
    return found[:-1] + [next(d for d in every if keep(d))]


@pytest.mark.parametrize("fault, flag", [
    (lambda found, c0: found[:-1], "kappa_i_empirical_matches"),
    (lambda found, c0: _swap_last(found, lambda d: 0 not in d), "designs_verified"),
    (lambda found, c0: _swap_last(found, lambda d: 0 in d and c0 not in d), "designs_verified"),
    (lambda found, c0: found + found[:1], "kappa_i_empirical_matches"),
], ids=["dropped", "not-through-b0", "not-through-c0", "bucket-two-values"])
def test_dimension_catches_a_faulty_search_through_one_block(fault, flag, tmp_path, capsys,
                                                            monkeypatch):
    """A search through B0 and C0 that drops a design, returns one not
    through B0 or not through C0, or counts one twice fails the run with
    exit 1 and a report, not a traceback.  Each also leaves a row-B0 bucket
    with two values once the h_j carry it: row B0 then does not fix U U^T,
    so gram_check is false and the report stops before the spectrum."""
    real = cli.designs_through_two_blocks

    def faulty(params):
        found, c0, classes, maps = real(params)
        return fault(found, c0), c0, classes, maps

    monkeypatch.setattr(cli, "designs_through_two_blocks", faulty)
    out = tmp_path / "d.json"
    assert main(["dimension", "--t", "1", "--k", "2", "--n", "4", "--q", "2",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "dimension (1,2,4,2): FAILED\n"
    report = json.loads(out.read_text())
    assert report[flag] is False
    assert report["all_pass"] is False
    assert report["gram_check"] is False
    assert "mu" not in report and "rank_U" not in report


def test_dimension_builds_no_gram_from_all_designs(monkeypatch, capsys):
    """Enumerate mode reads U U^T from the designs through two blocks: it
    builds only the h_j, which fix B0, never a g_j onto another class, and
    sums no N b^2 increments."""
    calls = []
    for name in ("gram_matrix", "_class_maps", "_block_maps"):
        real = getattr(steiner, name)
        monkeypatch.setattr(steiner, name,
                            lambda *args, name=name, real=real: calls.append((name, args)) or real(*args))
    assert main(["dimension", "--t", "1", "--k", "2", "--n", "4", "--q", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["N"] == 8424
    [(name, (_, row_sets))] = calls
    units = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    assert name == "_block_maps" and len(row_sets) == 9
    assert all(rows[:2] == units[:2] for rows in row_sets)
    assert not hasattr(cli, "gram_matrix") and not hasattr(cli, "_class_maps")
    calls.clear()
    enumerate_steiner(ParamSet(t=1, k=2, n=4, q=2))  # the spy sees a caller
    assert [name for name, _ in calls] == ["_block_maps", "_class_maps", "_block_maps"]


def test_dimension_builds_one_scheme(monkeypatch, capsys):
    """One SchemeInstance serves the row-B0 buckets and the spectrum proof,
    so the relation table is built once per run."""
    built = []
    real = SchemeInstance.__init__
    monkeypatch.setattr(SchemeInstance, "__init__",
                        lambda self, *args: built.append(args) or real(self, *args))
    assert main(["dimension", "--t", "1", "--k", "2", "--n", "4", "--q", "2"]) == 0
    capsys.readouterr()
    assert built == [(4, 2, 2)]


@pytest.mark.parametrize("k, n, q, expected", [
    pytest.param(2, 4, 4, {
        "N": 5096448, "kappa": "242688", "kappa_i": ["15168", "0"],
        "mu": ["4125696", "0", "303360"], "multiplicities": [1, 84, 272],
        "rank_U": 273}, id="4-4"),
    pytest.param(3, 6, 2, {
        "N": 1904640, "kappa": "12288", "kappa_i": ["192", "0"],
        "mu": ["110592", "0", "15360", "10752"], "multiplicities": [1, 62, 588, 744],
        "rank_U": 1333}, id="3-6-2"),
])
def test_dimension_enumerates_pg34_and_1362(k, n, q, expected, capsys):
    """PG(3,4) and (1,3,6,2), out of reach of the one-block search, pass
    in enumerate mode through two blocks."""
    assert main(["dimension", "--t", "1", "--k", str(k), "--n", str(n), "--q", str(q)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert {key: report[key] for key in expected} == expected
    assert report["dimension_formula"] == expected["rank_U"]
    assert report["all_pass"] is True and report["designs_verified"] is True


def test_dimension_sampling_certificate(tmp_path):
    out = tmp_path / "d3.json"
    code = main(["dimension", "--t", "1", "--k", "2", "--n", "4", "--q", "3",
                 "--sample", "--seed", "7", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["certificate"]["meets"] is True
    assert report["certificate"]["upper_bound"] == 91
    assert report["certificate"]["lower_bound"] == 91
    assert report["dimension_formula"] == 91


def test_adaptive_sampling_builds_w_once(tmp_path, monkeypatch):
    """W and its two ranks depend only on the parameters, so the adaptive
    steps share one inclusion matrix."""
    steiner._inclusion_ranks.cache_clear()
    calls = {"inclusion_matrix": 0, "rank_certificate": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(steiner, "inclusion_matrix")
    counted(cli, "rank_certificate")
    code = main(["dimension", "--t", "1", "--k", "2", "--n", "4", "--q", "3",
                 "--sample", "--seed", "7", "--out", str(tmp_path / "d.json")])
    assert code == 0
    assert calls["rank_certificate"] >= 2
    assert calls["inclusion_matrix"] == 1


def test_adaptive_sampling_draws_one_stream(tmp_path, monkeypatch):
    """The adaptive steps 25, 50, 100 extend one another: PG(3,3) seed 7
    meets at 100 designs after 100 attempts, not 25 + 50 + 100."""
    attempts = 0
    search = steiner._ExactCover.search

    def counted(self, *args, **kwargs):
        nonlocal attempts
        attempts += 1
        return search(self, *args, **kwargs)
    monkeypatch.setattr(steiner._ExactCover, "search", counted)
    out = tmp_path / "d.json"
    code = main(["dimension", "--t", "1", "--k", "2", "--n", "4", "--q", "3",
                 "--sample", "--seed", "7", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["sampled"] == 100
    assert attempts == 100


@pytest.mark.parametrize("argv, guard", [
    (["scheme", "--n", "3000", "--k", "1500", "--q", "2"], "dense-matrix guard"),
    (["scheme", "--n", "8000", "--k", "4000", "--q", "2"], "dense-matrix guard"),
    (["enumerate", "--t", "1", "--k", "1500", "--n", "3000", "--q", "2"],
     "enumeration guard"),
    (["dimension", "--t", "1", "--k", "1500", "--n", "3000", "--q", "2",
      "--sample", "--count", "5"], "enumeration guard"),
    (["dimension", "--t", "700", "--k", "1500", "--n", "3000", "--q", "2"],
     "admissibility guard"),
    (["dimension", "--t", "700", "--k", "1500", "--n", "3000", "--q", "2",
      "--sample"], "admissibility guard"),
], ids=["scheme-3000", "scheme-8000", "enumerate", "dimension-sample",
        "dimension-lambdas", "dimension-sample-lambdas"])
def test_size_guards_refuse_before_the_product(argv, guard, capsys):
    """[n k]_q >= q^(k(n-k)) refuses huge Grassmannians without building
    [n k]_q, which would take tens of seconds and overflow int-to-str."""
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and guard in captured.err
    assert elapsed < 2


def test_admissibility_guard_passes_every_n_up_to_64(capsys):
    """t*n*bitlen(q) is 126,976 here, near its largest value at n = 64 with
    q < 2^32; the lambdas are still computed and the report is exit 1."""
    code = main(["dimension", "--t", "62", "--k", "63", "--n", "64",
                 "--q", "4294967291"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("inadmissible parameters: derived index-1 count ")
    assert err.endswith("/4294967292 is not an integer\n")


@pytest.mark.parametrize("n, q, points, sampled, target", [
    (6, 2, 63, 647, 589), (4, 4, 85, 300, 273), (4, 5, 156, 716, 651),
])
def test_adaptive_sampling_meets_without_bareiss(n, q, points, sampled, target,
                                                 tmp_path, monkeypatch):
    """Adaptive steps reach targets near and past 300 designs, and every
    step's lower bound is the F_2 rank of U: W is ranked mod p, at its full
    row rank [n 1], and Bareiss ranks nothing."""
    steiner._inclusion_ranks.cache_clear()
    ranked = []
    rank_exact = steiner.rank_exact
    monkeypatch.setattr(steiner, "rank_exact",
                        lambda m: ranked.append(m.rows) or rank_exact(m))
    out = tmp_path / "d.json"
    start = time.perf_counter()
    code = main(["dimension", "--t", "1", "--k", "2", "--n", str(n), "--q", str(q),
                 "--sample", "--seed", "1", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    report = json.loads(out.read_text())
    assert report["sampled"] == sampled
    assert report["certificate"]["lower_bound"] == report["dimension_formula"] == target
    assert report["certificate"]["w_rank"] == points
    assert ranked == []
    assert elapsed < 10


def test_a_deficient_w_rank_fails_the_certificate(tmp_path, monkeypatch):
    """W's rank mod p is only a lower bound on its rank over Q: one below
    [4 1]_3 = 40 on PG(3,3) raises the upper bound past the target, so the
    certificate fails instead of passing falsely."""
    params = steiner.ParamSet(t=1, k=2, n=4, q=3)
    designs = steiner.sample_steiner(params, seed=7, count=100).designs
    steiner._inclusion_ranks.cache_clear()
    monkeypatch.setattr(steiner, "rank_mod_p", lambda m, p: 39)
    try:
        cert = steiner.rank_certificate(params, designs)
        assert (cert.w_rank, cert.row_diff_rank) == (39, 38)
        assert cert.upper_bound == cert.target + 1 == 92
        assert cert.lower_bound == 91 and not cert.meets
        code = main(["dimension", "--t", "1", "--k", "2", "--n", "4", "--q", "3",
                     "--sample", "--seed", "7", "--out", str(tmp_path / "d.json")])
        assert code == 1
    finally:
        steiner._inclusion_ranks.cache_clear()


@pytest.mark.parametrize("qs", ["1", "2,0"])
def test_identities_rejects_q_below_two(qs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["identities", "--q", qs, "--max-n", "2"])
    assert exc.value.code == 2
    assert "q must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("qs, message", [
    ("6", "6 is not a prime power"),
    ("2,6", "6 is not a prime power"),
    ("1000000000000000003", "1000000000000000003 exceeds the prime-power guard 2^32"),
])
def test_identities_rejects_q_that_is_not_a_prime_power(qs, message):
    """The prime-power guard refuses a huge q before any trial division, so
    the run ends at once instead of sweeping a field that does not exist."""
    src = str(Path(qsteiner.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "qsteiner.cli", "identities", "--q", qs,
                           "--max-n", "3"], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 2
    assert done.stdout == ""
    errors = [line for line in done.stderr.splitlines() if "error" in line]
    assert errors == [f"qsteiner identities: error: argument --q: {message}"]
    assert "Traceback" not in done.stderr


def test_readme_library_example_runs():
    """README.md's one python block, run as a script with PYTHONPATH=src."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    [example] = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    done = subprocess.run([sys.executable, "-c", example],
                          env={**os.environ, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_scheme_command(tmp_path):
    out = tmp_path / "s.json"
    code = main(["scheme", "--n", "4", "--k", "2", "--q", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True and report["size"] == 35


def test_scheme_guard_rejected():
    assert main(["scheme", "--n", "8", "--k", "4", "--q", "2"]) == 2


@pytest.mark.parametrize("n, k, q, message", [
    (4, 2, 0, "0 is not a prime power"),
    (4, 2, -3, "-3 is not a prime power"),
    (4, 2, 1, "1 is not a prime power"),
    (2, 1, 1, "1 is not a prime power"),
    (4, 2, 16, "[4 2]_16 = 70161 exceeds the dense-matrix guard 2000"),
])
def test_scheme_rejects_bad_q_in_one_line(n, k, q, message, capsys):
    assert main(["scheme", "--n", str(n), "--k", str(k), "--q", str(q)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", [
    ["scheme", "--n", "4", "--k", "2", "--q", "2"],
    ["dimension", "--t", "1", "--k", "2", "--n", "4", "--q", "2"],
])
def test_json_only_commands_take_no_format(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


@pytest.mark.parametrize("command, k, n, q", [
    pytest.param("enumerate", 2, 6, 2, id="enumerate-6-2"),
    pytest.param("dimension", 2, 6, 2, id="dimension-6-2"),
    pytest.param("enumerate", 2, 4, 4, id="enumerate-4-4"),
    pytest.param("enumerate", 3, 6, 2, id="enumerate-3-6-2"),
])
def test_enumeration_over_its_node_budget_exits_two(command, k, n, q, capsys):
    """(1,2,6,2), (1,2,4,4) and (1,3,6,2) pass the size guards, but their
    designs are too many to write or, for (1,2,6,2), to search for: the
    search through two blocks refuses (1,2,6,2) at its node budget of
    500,000 under both commands, and enumerate refuses the other two at
    its output guard, before any design is mapped, instead of running on
    without output."""
    start = time.perf_counter()
    code = main([command, "--t", "1", "--k", str(k), "--n", str(n), "--q", str(q)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    if n == 6 and k == 2:
        budget = steiner._ENUMERATION_NODE_BUDGET
        assert captured.err.startswith(f"error: enumeration gave up after {budget} exact-cover nodes")
        assert "--sample" in captured.err
    else:
        assert captured.err.startswith("error: enumeration output guard exceeded")
        assert f"<= {steiner._ENUMERATION_OUTPUT_GUARD} blocks" in captured.err
    assert elapsed < 10


def test_enumerate_and_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "designs.json"
    code = main(["enumerate", "--t", "1", "--k", "2", "--n", "4", "--q", "2",
                 "--out", str(out)])
    assert code == 0
    assert "56 designs" in capsys.readouterr().out
    designs = json.loads(out.read_text())
    assert len(designs) == 56
    single = tmp_path / "one.json"
    single.write_text(json.dumps(designs[0]), encoding="utf-8")
    assert main(["verify-design", "--designs", str(single)]) == 0
    capsys.readouterr()
    # the whole enumerated array verifies in one call
    assert main(["verify-design", "--designs", str(out)]) == 0
    assert capsys.readouterr().out.count(": ok") == 56


def test_verify_design_failure_prints_witness(tmp_path, capsys):
    params = ParamSet(t=1, k=2, n=4, q=2)
    design = enumerate_steiner(params)[0]
    blocks = block_subspaces(params, design)[:-1]  # drop one block
    path = tmp_path / "broken.json"
    save_design_file(path, params, blocks)
    code = main(["verify-design", "--designs", str(path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAILED" in out and "witness row" in out


def test_verify_design_malformed_json(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{ definitely not json", encoding="utf-8")
    code = main(["verify-design", "--designs", str(path)])
    assert code == 2
    assert "parse error" in capsys.readouterr().err


def _set_entry(obj, value, old):
    row = next(r for r in obj["blocks"][0] if old in r)
    row[row.index(old)] = value


@pytest.mark.parametrize("edit, message", [
    (lambda obj: _set_entry(obj, 1.0, 1), "entry 1.0 is not an integer"),
    (lambda obj: _set_entry(obj, 0.0, 0), "entry 0.0 is not an integer"),
    (lambda obj: _set_entry(obj, True, 1), "entry True is not an integer"),
    (lambda obj: obj.update(t=True), "q, n, k, t must be integers"),
], ids=["float-one", "float-zero", "bool-entry", "bool-t"])
def test_verify_design_rejects_non_integers(tmp_path, capsys, edit, message):
    params = ParamSet(t=1, k=2, n=4, q=2)
    path = tmp_path / "design.json"
    save_design_file(path, params, block_subspaces(params, enumerate_steiner(params)[0]))
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["verify-design", "--designs", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


@pytest.mark.parametrize("edit, message", [
    (lambda obj: _set_entry(obj, 2, 1), "block 0: entry outside 0..q-1"),
    (lambda obj: _set_entry(obj, -1, 1), "block 0: entry outside 0..q-1"),
    (lambda obj: _set_entry(obj, 256, 0), "block 0: entry outside 0..q-1"),
    (lambda obj: obj["blocks"][0][0].pop(), "block 0: expected a 2x4 integer matrix"),
], ids=["two", "minus-one", "256", "short-row"])
def test_verify_design_rejects_bad_f2_rows(tmp_path, capsys, edit, message):
    # F_2 rows are validated while they are packed, with the same messages
    params = ParamSet(t=1, k=2, n=4, q=2)
    path = tmp_path / "design.json"
    save_design_file(path, params, block_subspaces(params, enumerate_steiner(params)[0]))
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["verify-design", "--designs", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def _bad_entry_in_design_3(designs):
    designs[3]["blocks"][2][0][1] = 2
    return designs


@pytest.mark.parametrize("edit, message", [
    (_bad_entry_in_design_3, "design 3: block 2: entry outside 0..q-1"),
    (lambda designs: [designs[0], 5], "design 1: design object must be a JSON object"),
], ids=["bad-entry", "not-an-object"])
def test_verify_design_names_the_bad_design_in_an_array(tmp_path, capsys, edit, message):
    # a design of an array that fails to load is named by its position, in
    # the form of the messages of the verify phase
    path = tmp_path / "designs.json"
    assert main(["enumerate", "--t", "1", "--k", "2", "--n", "4", "--q", "2",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    path.write_text(json.dumps(edit(json.loads(path.read_text()))), encoding="utf-8")
    assert main(["verify-design", "--designs", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def test_verify_design_missing_file():
    assert main(["verify-design", "--designs", "/no/such/file.json"]) == 2


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_verify_design_pinned_on_a_generated_spread(tmp_path, capsys, monkeypatch):
    """The seeded, relabeled line spread of F_2^10 and its perturbed copy,
    written by the benchmark's generator, which does not use qsteiner."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spreadgen

    spread = spreadgen.make_spread(5, 1)
    good, bad = tmp_path / "spread.json", tmp_path / "perturbed.json"
    spreadgen.write_design(good, spread.dim, spread.blocks)
    spreadgen.write_design(bad, spread.dim, spread.perturbed)
    assert main(["verify-design", "--designs", str(good)]) == 0
    assert capsys.readouterr().out == "design 0 (1,2,10,2): ok (341 blocks)\n"
    assert main(["verify-design", "--designs", str(bad)]) == 1
    assert capsys.readouterr().out == (
        "design 0 (1,2,10,2): FAILED - t-subspace covered 0 times, expected 1\n"
        "  witness row: [1, 1, 0, 0, 1, 1, 0, 1, 0, 1]\n"
    )
    row = [1, 1, 0, 0, 1, 1, 0, 1, 0, 1]
    assert spread.perturbed_cover[sum(b << c for c, b in enumerate(row))] == 0


@pytest.mark.parametrize("entry, message", [
    (2, "entry outside 0..q-1"),
    (-1, "entry outside 0..q-1"),
    (256, "entry outside 0..q-1"),
    ("1", "entry '1' is not an integer"),
    (None, "entry None is not an integer"),
    ([0], "entry [0] is not an integer"),
    (1.0, "entry 1.0 is not an integer"),
    (True, "entry True is not an integer"),
], ids=["two", "minus-one", "256", "string", "null", "list", "float", "true"])
def test_verify_design_names_each_bad_entry(entry, message, tmp_path, capsys):
    # the bad entry is the last one of the block, after rows that pack
    params = ParamSet(t=1, k=2, n=4, q=2)
    path = tmp_path / "design.json"
    save_design_file(path, params, block_subspaces(params, enumerate_steiner(params)[0]))
    obj = json.loads(path.read_text())
    obj["blocks"][0][1][3] = entry
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["verify-design", "--designs", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: block 0: {message}\n"


@pytest.mark.parametrize("content, message", [
    ({"q": 2, "n": 4, "k": 2, "t": 1,
      "blocks": [[[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 1, 0, 0], [1, 0, 0, 0]]]},
     "design 0: block 1 duplicates block 0"),
    ([], "no design in file"),
], ids=["duplicate-block", "empty-array"])
def test_verify_design_refuses_in_one_line(content, message, tmp_path, capsys):
    path = tmp_path / "design.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    assert main(["verify-design", "--designs", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def test_rank_certificate_refuses_bareiss_over_its_guard(capsys):
    """588 sampled (1,2,6,2) designs have F_2 rank 587, under the ceiling of
    588; Bareiss on the 651-square Gram matrix would take minutes."""
    start = time.perf_counter()
    code = main(["dimension", "--t", "1", "--k", "2", "--n", "6", "--q", "2",
                 "--sample", "--count", "588", "--seed", "1"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: Gram rank guard exceeded: the F_2 rank 587 of U misses its ceiling "
        "588 and [n k] 651 > 200; sample more designs\n"
    )
    assert elapsed < 10


@pytest.mark.parametrize("argv", [
    ["scheme", "--n", "4", "--k", "2"],
    ["enumerate", "--t", "1", "--k", "2", "--n", "4"],
    ["dimension", "--t", "1", "--k", "2", "--n", "4"],
    ["dimension", "--t", "1", "--k", "2", "--n", "4", "--sample"],
], ids=["scheme", "enumerate", "dimension", "dimension-sample"])
def test_huge_q_is_refused_before_trial_division(argv, capsys):
    """Trial division of this prime would take about 10^9 steps."""
    start = time.perf_counter()
    code = main(argv + ["--q", "1000000000000000003"])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert capsys.readouterr().err == (
        "error: 1000000000000000003 exceeds the prime-power guard 2^32\n"
    )
    assert elapsed < 2


def _spread_design(m, tmp_path, monkeypatch):
    """The seed-1 line spread of F_2^(2m) from the benchmark's generator."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spreadgen

    spread = spreadgen.make_spread(m, 1)
    path = tmp_path / "spread.json"
    spreadgen.write_design(path, spread.dim, spread.blocks)
    return json.loads(path.read_text())


_LATE = 300  # of the 341 blocks of the m = 5 spread
_MATRIX = f"block {_LATE}: expected a 2x10 integer matrix"


def _entry(value):
    return lambda blocks: blocks[_LATE][1].__setitem__(4, value)


@pytest.mark.parametrize("edit, message", [
    (_entry(True), f"block {_LATE}: entry True is not an integer"),
    (_entry(1.0), f"block {_LATE}: entry 1.0 is not an integer"),
    (_entry(2), f"block {_LATE}: entry outside 0..q-1"),
    (_entry(256), f"block {_LATE}: entry outside 0..q-1"),
    (_entry(-1), f"block {_LATE}: entry outside 0..q-1"),
    (lambda blocks: blocks[_LATE][1].pop(), _MATRIX),
    (lambda blocks: blocks[_LATE][1].append(0), _MATRIX),
    (lambda blocks: blocks[_LATE].pop(), _MATRIX),
    (lambda blocks: blocks.__setitem__(_LATE, 5), _MATRIX),
    (lambda blocks: blocks[_LATE].__setitem__(1, 5), _MATRIX),
    (lambda blocks: blocks[_LATE].__setitem__(1, list(blocks[_LATE][0])),
     f"block {_LATE}: expected dimension 2, got 1"),
    (lambda blocks: blocks.__setitem__(_LATE, blocks[40][::-1]),
     f"design 0: block {_LATE} duplicates block 40"),
], ids=["true", "float", "two", "256", "minus-one", "short-row", "long-row", "k-1-rows",
        "block-not-a-list", "row-not-a-list", "rank-deficient", "duplicate-swapped"])
def test_whole_list_ingest_names_what_the_per_block_walk_names(edit, message, tmp_path,
                                                               capsys, monkeypatch):
    # one bad block late in the list: the text route refuses the file (or,
    # for the duplicate, reads it), and the exit code, stdout and stderr
    # are those of the json route alone
    obj = _spread_design(5, tmp_path, monkeypatch)
    edit(obj["blocks"])
    path = tmp_path / "design.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    argv = ["verify-design", "--designs", str(path)]
    code, captured = main(argv), capsys.readouterr()
    monkeypatch.setattr(steiner, "_read_f2_designs", lambda text: None)
    assert (main(argv), capsys.readouterr()) == (code, captured)
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def _spread_object(q: int, k: int = 2, n: int = 4) -> dict:
    params = ParamSet(t=1, k=k, n=n, q=q)
    blocks = block_subspaces(params, steiner.sample_steiner(params, 1, 1).designs[0])
    return steiner.design_to_dict(params, blocks)


def _with_entry(raw: str, col: int = 1) -> str:
    """The compact PG(3,2) spread with entry (3, 1, col) written as raw;
    the entry is 0 at col 1 and 1 at col 3."""
    obj = _spread_object(2)
    obj["blocks"][3][1][col] = "@"
    return json.dumps(obj).replace('"@"', raw)


def _rank_deficient() -> dict:
    obj = _spread_object(2)
    obj["blocks"][-1][1] = list(obj["blocks"][-1][0])
    return obj


def _k3_spanning_sets() -> dict:
    """The seed-1 (1,3,6,2) spread with each block a spanning set that is
    not in RREF: row 0 ^= row 1, then rows 1 and 2 swapped."""
    obj = _spread_object(2, k=3, n=6)
    obj["blocks"] = [[[a ^ b for a, b in zip(r0, r1)], r2, r1] for r0, r1, r2 in obj["blocks"]]
    return obj


def _k3_rank_deficient() -> dict:
    """``_k3_spanning_sets`` with row 2 of its last block set to row 0 ^ row 1."""
    obj = _k3_spanning_sets()
    r0, r1, _ = obj["blocks"][-1]
    obj["blocks"][-1][2] = [a ^ b for a, b in zip(r0, r1)]
    return obj


_SPREAD = json.dumps(_spread_object(2))
_BLOCK = "[[[1, 0, 0, 0], [0, 1, 0, 0]]]"  # one block list, for keys other than a design's
_INDENTED = json.dumps(_spread_object(2), indent=2)


@pytest.mark.parametrize("text, taken, code", [
    (_with_entry("-0"), False, 0),
    (_with_entry("1 0"), False, 2),
    (_with_entry("01"), False, 2),
    (_with_entry("1.0"), False, 2),
    (_with_entry("true"), False, 2),
    (_with_entry("1,", col=3), False, 2),
    (_SPREAD.replace("]]]", "]],]"), False, 2),
    (json.dumps(_spread_object(2), sort_keys=True, indent=2), True, 0),
    ('{"n": 5, ' + _SPREAD[1:], True, 0),
    (_SPREAD[:-1] + ', "n": 5}', False, 2),
    ('{"name": "a PG(3,2) spread", ' + _SPREAD[1:], True, 0),
    (_SPREAD.replace('"q"', '"\\u0071"'), True, 0),
    ("﻿" + _SPREAD, False, 2),
    (_INDENTED.replace("\n", "\r\n"), True, 0),
    (_INDENTED.replace('"n": 4,', '"n": 4x,').replace("\n", "\r\n"), False, 2),
    (json.dumps([_spread_object(2), _spread_object(2)]), True, 0),
    (json.dumps([_spread_object(2), _spread_object(3)]), False, 0),
    ('{"q": 2, "n": 1, "k": 2, "t": 1, "blocks": [[[1], [0]]]}', False, 2),
    ('{"q": 2, "n": 4, "k": 4, "t": 1, "blocks": [[[1, 0, 0, 0], [0, 1, 0, 0], '
     '[0, 0, 1, 0], [0, 0, 0, 1]]]}', True, 0),
    (json.dumps(_rank_deficient()), False, 2),
    (json.dumps(_k3_spanning_sets()), True, 0),
    (json.dumps(_k3_rank_deficient()), False, 2),
    ('{"q": 2, "n": 4, "k": 2, "t": 1, "blocks": []}', False, 1),
    ('{"note": NaN, ' + _SPREAD[1:], False, 0),
    (_SPREAD[:-1] + ', "note": NaN}', False, 0),
    ('{"bound": Infinity, ' + _SPREAD[1:], False, 0),
    (_SPREAD[:-1] + f', "meta": {{"blocks": {_BLOCK}}}}}', False, 0),
    (_SPREAD.replace('"blocks"', '"\\u0062locks"'), False, 0),
    (f'{{"q": 2, "n": 4, "k": 2, "t": 1, "blocks": 0, "meta": {{"blocks": {_BLOCK}}}}}',
     False, 2),
], ids=["minus-zero", "split-number", "leading-zero", "float", "true", "comma-in-row",
        "comma-after-last-block", "sorted-indented", "duplicate-n-first", "duplicate-n-last",
        "extra-key", "escaped-q", "bom", "crlf", "crlf-error-on-line-3", "array-of-two",
        "array-q2-q3", "n-1", "k-equals-n", "rank-deficient-late", "k3-spanning-sets",
        "k3-rank-deficient-late", "empty-blocks",
        "nan-before-blocks", "nan-after-blocks", "infinity", "nested-blocks",
        "escaped-blocks", "blocks-zero-beside-nested-list"])
def test_text_route_and_json_route_give_the_same_run(text, taken, code, tmp_path, capsys,
                                                     monkeypatch):
    # a file the text route reads gives the run the json route gives it, and
    # a file it refuses falls back to the json route; the newlines are
    # written as they are, so a CRLF file stays one
    path = tmp_path / "design.json"
    path.write_bytes(text.encode("utf-8"))
    argv = ["verify-design", "--designs", str(path)]
    read = []
    real = steiner._read_f2_designs
    monkeypatch.setattr(steiner, "_read_f2_designs",
                        lambda text: read.append(real(text)) or read[-1])
    run = main(argv), capsys.readouterr()
    monkeypatch.setattr(steiner, "_read_f2_designs", lambda text: None)
    assert (main(argv), capsys.readouterr()) == run
    assert (read[0] is not None, run[0]) == (taken, code)


def test_a_rank_deficient_k3_block_is_named_by_the_json_route(tmp_path, capsys):
    # the text route refuses the (1,3,6,2) file at its last block's third
    # row, and the json route names that block
    path = tmp_path / "design.json"
    path.write_text(json.dumps(_k3_rank_deficient()), encoding="utf-8")
    assert main(["verify-design", "--designs", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: block 8: expected dimension 3, got 2\n")


def test_text_route_gives_up_at_the_first_design_over_another_field(tmp_path, capsys,
                                                                    monkeypatch):
    """The PG(3,3) enumerate file: the text route's parse stops at the first
    design, whose q is 3, and the json route reads every design."""
    path = tmp_path / "q3.json"
    assert main(["enumerate", "--t", "1", "--k", "2", "--n", "4", "--q", "3",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    hooked = []
    real = steiner._only_f2
    monkeypatch.setattr(steiner, "_only_f2", lambda obj: hooked.append(obj) or real(obj))
    designs = steiner.load_design_file(path)
    assert [obj["q"] for obj in hooked] == [3]
    assert designs == [steiner.design_from_dict(o) for o in json.loads(path.read_text())]
    assert len(designs) == 8424


def test_an_empty_block_list_fails_with_the_first_point_as_witness(tmp_path, capsys):
    path = tmp_path / "design.json"
    path.write_text(json.dumps({"q": 2, "n": 10, "k": 2, "t": 1, "blocks": []}), encoding="utf-8")
    assert main(["verify-design", "--designs", str(path)]) == 1
    assert capsys.readouterr().out == (
        "design 0 (1,2,10,2): FAILED - t-subspace covered 0 times, expected 1\n"
        "  witness row: [1, 0, 0, 0, 0, 0, 0, 0, 0, 0]\n"
    )


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_verify_design_restores_the_collector(enabled, tmp_path, capsys, monkeypatch):
    obj = _spread_design(3, tmp_path, monkeypatch)
    files = {0: obj, 1: {**obj, "blocks": obj["blocks"][:-1]},
             2: {**obj, "blocks": obj["blocks"] + obj["blocks"][:1]}}
    paused = []
    real = cli.load_design_file
    monkeypatch.setattr(cli, "load_design_file",
                        lambda path: paused.append(not gc.isenabled()) or real(path))
    try:
        for code, content in files.items():
            path = tmp_path / f"exit-{code}.json"
            path.write_text(json.dumps(content), encoding="utf-8")
            (gc.enable if enabled else gc.disable)()
            assert main(["verify-design", "--designs", str(path)]) == code
            assert gc.isenabled() is enabled
    finally:
        gc.enable()
    capsys.readouterr()
    assert paused == [True] * 3


def _capped_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("q", [2, 3])
def test_verify_design_refuses_a_block_over_the_coverage_guard(q, tmp_path):
    """One block with n = 40, k = 30, t = 20 has [30 20]_q t-subspaces to
    key; the guard refuses it from the bound q^(t(k-t)) before any is built,
    where it used to end in a MemoryError."""
    path = tmp_path / "design.json"
    block = [[int(i == j) for j in range(40)] for i in range(30)]
    path.write_text(json.dumps({"q": q, "n": 40, "k": 30, "t": 20, "blocks": [block]}),
                    encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(qsteiner.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "qsteiner.cli", "verify-design",
                           "--designs", str(path)], env=env, capture_output=True, text=True,
                          timeout=10, preexec_fn=_capped_address_space)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (f"error: {path}: design 0: coverage guard exceeded: [k t] "
                           f">= {q}^200 t-subspaces per block (<= 65536)\n")


@pytest.mark.parametrize("q", [65521, 65537, 4294967291])
def test_verify_design_refuses_a_field_over_the_coverage_guard(q, tmp_path):
    """An empty block list over a field of more than 2^16 elements is refused
    before anything is built, where the witness walk used to take range(q)
    as one tuple and end in a MemoryError at q = 4294967291.  The largest
    prime below the guard still walks to its witness."""
    path = tmp_path / "design.json"
    path.write_text(json.dumps({"q": q, "n": 2, "k": 2, "t": 1, "blocks": []}), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(qsteiner.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "qsteiner.cli", "verify-design",
                           "--designs", str(path)], env=env, capture_output=True, text=True,
                          timeout=10, preexec_fn=_capped_address_space)
    if q < 1 << 16:
        assert (done.returncode, done.stderr) == (1, "")
        assert done.stdout == (f"design 0 (1,2,2,{q}): FAILED - t-subspace covered 0 times, "
                               "expected 1\n  witness row: [1, 0]\n")
    else:
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (f"error: {path}: design 0: coverage guard exceeded: "
                               f"q {q} (<= 65536)\n")


@pytest.mark.parametrize("t, k, n", [(32, 33, 64), (1400, 1500, 3000)])
def test_verify_design_finds_a_witness_at_huge_parameters(t, k, n, tmp_path):
    """[n t]_2 is never built, and the colex walk is lazy: both files used to
    run out of time or memory.  The child gets 1 GiB of address space."""
    path = tmp_path / "design.json"
    path.write_text(json.dumps({"q": 2, "n": n, "k": k, "t": t, "blocks": []}), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(qsteiner.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "qsteiner.cli", "verify-design",
                           "--designs", str(path)], env=env, capture_output=True, text=True,
                          timeout=10, preexec_fn=_capped_address_space)
    assert (done.returncode, done.stderr) == (1, "")
    # the first t-subspace in canonical order is spanned by e_0, ..., e_(t-1)
    assert done.stdout == "".join(
        [f"design 0 ({t},{k},{n},2): FAILED - t-subspace covered 0 times, expected 1\n"]
        + [f"  witness row: {[int(j == i) for j in range(n)]}\n" for i in range(t)])
