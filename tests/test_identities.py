import hashlib
import os
import signal
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import kernel_sum_valuation

import qsteiner
from qsteiner import identities
from qsteiner.cli import main

from qsteiner.exactq import choose2
from qsteiner.identities import (
    IdentityReport,
    NonTerminatingSeries,
    PreconditionError,
    SkipRecord,
    VanishingDenominator,
    check_3phi2_transformation,
    check_alternating_column_sum,
    check_double_sum_reduction,
    check_eigenvalue_kernel_sum,
    check_pochhammer_suite,
    check_product_expansion,
    check_q_binomial_theorem,
    check_shifted_sum_transform,
    check_shifted_sum_transform_diagonal,
    check_triple_sum_closed_form,
    check_triple_sum_weighted_form,
    check_upper_negation,
    eval_3phi2,
    run_identity_sweep,
)


def test_3phi2_truncates_at_unit_parameter():
    # an upper parameter q^0 = 1 kills every term after the first
    assert eval_3phi2((0, 3, 2), (1, 1), 2) == 1
    assert eval_3phi2((0, -5, 2), (1, 1), 3) == 1


def test_3phi2_zero_order_termination():
    assert eval_3phi2((-0, 2, 2), (1, 1), 2) == 1


def test_3phi2_small_value_by_hand():
    # one nontrivial term: 3phi2 with upper (q^-1, q, q), lower (q, q), argument q
    # term at l=1: (1-q^-1)(1-q)^2 / ((1-q)^2 (1-q)) * q = (1-q^-1)q/(1-q)
    q = 2
    val = eval_3phi2((-1, 1, 1), (1, 1), q)
    expected = 1 + Fraction(1, 2) * 2 / Fraction(-1)
    assert val == expected == 0


def test_3phi2_rejections():
    with pytest.raises(NonTerminatingSeries):
        eval_3phi2((1, 2, 3), (1, 1), 2)
    with pytest.raises(VanishingDenominator):
        eval_3phi2((-3, 1, 1), (-1, 2), 2)


def test_transformation_trivial_and_derived_cases():
    assert check_3phi2_transformation(0, 1, 1, 2, 2, 2).equal
    rep = check_3phi2_transformation(1, 1, 1, 2, 2, 2)
    assert rep.equal
    rep = check_3phi2_transformation(2, 1, 2, 3, 4, 3)
    assert rep.equal


def test_pochhammer_suite_at_4_2():
    reports = check_pochhammer_suite(4, 2, 2)
    names = {r.identity_name for r in reports}
    assert "binom_from_pochhammer" in names
    assert all(r.equal for r in reports)
    binom = next(r for r in reports if r.identity_name == "binom_from_pochhammer")
    assert binom.lhs == 35


def test_pochhammer_suite_degenerate_diagonal():
    # n = k: the difference identity degenerates to (q;q)_0 = 1
    for q in (2, 3):
        reports = check_pochhammer_suite(3, 3, q)
        diff = next(r for r in reports if r.identity_name == "pochhammer_difference")
        assert diff.lhs == 1 and diff.equal


def test_upper_negation_at_negative_one():
    rep = check_upper_negation(-1, 1, 2)
    assert rep.lhs == rep.rhs == Fraction(-1, 2)


def test_q_binomial_theorem_examples():
    assert check_q_binomial_theorem(0, Fraction(5), Fraction(7), 2).equal
    rep = check_q_binomial_theorem(2, Fraction(1), Fraction(1), 2)
    assert rep.equal and rep.lhs == 6
    rep = check_q_binomial_theorem(3, Fraction(-1), Fraction(1), 2)
    assert rep.equal and rep.lhs == 0


def test_product_expansion_examples():
    # h = p: single term, both sides [x h]
    for rep in check_product_expansion(3, 5, 2, 2, 2):
        assert rep.equal
    reports = check_product_expansion(1, 2, 0, 1, 2)
    assert all(r.equal for r in reports)
    assert all(r.lhs == 1 for r in reports)
    assert all(r.equal for r in check_product_expansion(2, 5, 1, 2, 3))
    with pytest.raises(PreconditionError):
        check_product_expansion(1, 2, 2, 1, 2)


def test_alternating_column_sum_examples():
    rep = check_alternating_column_sum(5, 0, 2)
    assert rep.lhs == rep.rhs == 1
    rep = check_alternating_column_sum(1, 1, 2)
    assert rep.equal and rep.lhs == 0
    rep = check_alternating_column_sum(2, 1, 2)
    assert rep.equal and rep.lhs == -2  # 1 - 3 and 4 * (-1/2)


def test_shifted_sum_transform_examples():
    rep = check_shifted_sum_transform(5, 2, 3, 0, 1, 2)
    assert rep.equal  # u = 0: single s = 0 term each side
    assert check_shifted_sum_transform(6, 2, 3, 1, 1, 2).equal
    assert check_shifted_sum_transform(8, 3, 4, 2, 2, 3).equal
    with pytest.raises(PreconditionError):
        check_shifted_sum_transform(3, 5, 2, 1, 1, 2)  # r > n + 1
    with pytest.raises(VanishingDenominator):
        check_shifted_sum_transform(8, 0, 3, 2, 2, 2)  # [r-i+s s] vanishes


def test_shifted_sum_transform_diagonal_examples():
    assert check_shifted_sum_transform_diagonal(6, 2, 3, 0, 2).equal
    assert check_shifted_sum_transform_diagonal(6, 2, 3, 1, 2).equal
    assert check_shifted_sum_transform_diagonal(8, 3, 4, 2, 3).equal


def test_double_sum_reduction_examples():
    rep = check_double_sum_reduction(6, 2, 3, 0, 2)
    assert rep.equal and rep.lhs == 1
    assert check_double_sum_reduction(6, 2, 3, 1, 2).equal
    assert check_double_sum_reduction(8, 3, 4, 2, 2).equal


def test_triple_sum_closed_form_examples():
    rep = check_triple_sum_closed_form(4, 2, 2, 0, 2)
    q, r, k = 2, 2, 2
    assert rep.equal and rep.lhs == Fraction(q ** choose2(r), q ** (r * k))
    assert check_triple_sum_closed_form(4, 2, 2, 1, 2).equal
    assert check_triple_sum_closed_form(7, 3, 2, 2, 2).equal


def test_triple_sum_weighted_form_examples():
    assert check_triple_sum_weighted_form(4, 2, 2, 0, 2).equal
    assert check_triple_sum_weighted_form(4, 2, 2, 1, 2).equal
    assert check_triple_sum_weighted_form(7, 3, 3, 2, 3).equal


def test_kernel_sum_examples():
    rep = check_eigenvalue_kernel_sum(4, 2, 1, 1, 2)
    assert rep.equal and rep.lhs == 1
    assert check_eigenvalue_kernel_sum(6, 2, 1, 1, 3).equal
    # t = 0: empty sum on the left, nonzero right side -> documented inequality
    rep = check_eigenvalue_kernel_sum(6, 3, 0, 1, 2)
    assert rep.lhs == 0 and not rep.equal
    with pytest.raises(PreconditionError):
        check_eigenvalue_kernel_sum(6, 3, 1, 0, 2)


def test_kernel_sum_equality_window():
    # equal exactly for 1 <= r <= t on the nontrivial grid
    for q in (2, 3):
        for n in range(4, 9):
            for k in range(2, n // 2 + 1):
                for t in range(1, k):
                    for r in range(1, k + 1):
                        rep = check_eigenvalue_kernel_sum(n, k, t, r, q)
                        assert rep.equal == (r <= t), (n, k, t, r, q)


def test_kernel_sum_valuation_outside_window():
    for q in (2, 3):
        for n in range(4, 9):
            for k in range(2, n // 2 + 1):
                for t in range(1, k):
                    for r in range(t + 1, k + 1):
                        assert kernel_sum_valuation(n, k, t, r, q) == choose2(t)


def test_small_sweep_all_equal():
    summary = run_identity_sweep(qs=(2, 3), max_n=5)
    assert summary.ok
    assert summary.failed == 0
    assert summary.checked > 1000
    assert summary.skipped > 0  # vanishing denominators are recorded, not failed


def test_sweep_reports_stream_deterministically():
    rows1: list[tuple] = []
    rows2: list[tuple] = []
    run_identity_sweep(
        qs=(2,), max_n=3,
        on_report=lambda r: rows1.append((r.identity_name, tuple(r.parameters.items()), r.lhs, r.rhs)),
    )
    run_identity_sweep(
        qs=(2,), max_n=3,
        on_report=lambda r: rows2.append((r.identity_name, tuple(r.parameters.items()), r.lhs, r.rhs)),
    )
    assert rows1 == rows2


def test_empty_sweep():
    summary = run_identity_sweep(qs=(2,), max_n=0)
    assert summary.checked == 0 and summary.ok


def test_sweep_pinned_counts_and_report_hashes(tmp_path):
    """Counts and --out bytes of the q = 2, 3, max_n = 4 sweep, fixed so that
    a rewrite of the sweep must keep every case, its order and its record."""
    summary = run_identity_sweep(qs=(2, 3), max_n=4)
    assert (summary.checked, summary.failed, summary.skipped) == (8518, 0, 2654)
    assert summary.skip_counts == {
        "double_sum_reduction": 430,
        "shifted_sum_transform": 862,
        "shifted_sum_transform_diagonal": 350,
        "transformation_3phi2": 152,
        "triple_sum_closed_form": 430,
        "triple_sum_weighted_form": 430,
    }
    expected = {
        "json": "95ce0abd914bb4be01177310a418d50e917beb3b0a9a4eee6187c001ab85508b",
        "csv": "0f6c872ef621b6f67e268d8e1047ebbdfed7f8b8fe509c2fe2c9cd007718d000",
    }
    for fmt, digest in expected.items():
        out = tmp_path / f"sweep.{fmt}"
        assert main(["identities", "--q", "2,3", "--max-n", "4",
                     "--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    # q > 3: larger bigints through every unreduced numerator/denominator sum
    out = tmp_path / "sweep-q49.json"
    assert main(["identities", "--q", "4,9", "--max-n", "5", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "1dc69c2c4db325411697a51de555ca5133176c838a32c6e11797e596313b4827")


@pytest.mark.parametrize("value", [0.5, 0.1, 1.0, True, False, "1/2", None])
def test_reports_refuse_inexact_sides(value):
    for lhs, rhs in ((value, Fraction(1, 2)), (Fraction(1, 2), value)):
        with pytest.raises(TypeError):
            IdentityReport("probe", {"q": 2}, lhs, rhs)


def test_reports_store_int_sides_as_fractions():
    rep = IdentityReport("probe", {"q": 2}, 3, Fraction(3))
    assert type(rep.lhs) is type(rep.rhs) is Fraction and rep.equal


@pytest.mark.parametrize("x, y", [(0.5, Fraction(1)), (Fraction(1), 2.0), (True, 1)])
def test_q_binomial_theorem_refuses_inexact_arguments(x, y):
    with pytest.raises(TypeError):
        check_q_binomial_theorem(2, x, y, 2)


def test_sweep_reports_carry_fractions_only():
    types = set()
    run_identity_sweep(qs=(2, 3), max_n=4,
                       on_report=lambda r: types.add((type(r.lhs), type(r.rhs))))
    assert types == {(Fraction, Fraction)}


@pytest.fixture
def hang_guard():
    """Fail the test, instead of hanging the suite, if a sweep never returns."""
    def hung(signum, frame):
        raise TimeoutError("the sweep did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _record_forks(monkeypatch):
    """The pids of the workers the sweep forks from now on."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _assert_reaped(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _in_workers_only(monkeypatch, name, action):
    """Rebind the check ``name`` so that ``action`` runs first in a worker."""
    caller = os.getpid()
    real = getattr(identities, name)

    def check(*args, **kwargs):
        if os.getpid() != caller:
            action()
        return real(*args, **kwargs)

    monkeypatch.setattr(identities, name, check)


def _sweep_at_width(monkeypatch, tmp_path, width, qs, max_n, formats):
    """The summary, the report stream and the --out bytes of one sweep with
    ``width`` usable CPUs."""
    monkeypatch.setattr(identities, "_usable_cpus", lambda: width)
    stream = []
    summary = run_identity_sweep(qs=qs, max_n=max_n, on_report=stream.append,
                                 on_skip=stream.append)
    outputs = []
    for fmt in formats:
        out = tmp_path / f"sweep-{width}.{fmt}"
        assert main(["identities", "--q", ",".join(map(str, qs)), "--max-n", str(max_n),
                     "--format", fmt, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    return summary, list(summary.skip_counts), stream, outputs


@pytest.mark.parametrize("qs, max_n, formats", [((2, 3), 4, ("json", "csv")),
                                                ((4, 9), 5, ("json",))])
def test_sweep_is_identical_on_one_two_and_three_cpus(monkeypatch, tmp_path, hang_guard, qs,
                                                      max_n, formats):
    serial = _sweep_at_width(monkeypatch, tmp_path, 1, qs, max_n, formats)
    assert serial[0].checked > 0 and serial[0].skipped > 0
    assert all(isinstance(x, (IdentityReport, SkipRecord)) for x in serial[2])
    for width in (2, 3):
        assert _sweep_at_width(monkeypatch, tmp_path, width, qs, max_n, formats) == serial


def test_failures_keep_sweep_order_across_workers(monkeypatch, hang_guard):
    real = identities.check_upper_negation

    def off_by_one(*args, **kwargs):
        rep = real(*args, **kwargs)
        return IdentityReport(rep.identity_name, rep.parameters, rep.lhs, rep.rhs + 1)

    monkeypatch.setattr(identities, "check_upper_negation", off_by_one)
    summaries = []
    for width in (1, 2, 3):
        monkeypatch.setattr(identities, "_usable_cpus", lambda: width)
        summaries.append(run_identity_sweep(qs=(2, 3), max_n=3))
    assert summaries[0].failed == len(summaries[0].failures) > 40
    assert summaries[1] == summaries[0] == summaries[2]


def test_sweep_runs_inline_where_the_platform_cannot_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert identities._usable_cpus() == 1
    assert run_identity_sweep(qs=(2,), max_n=3).checked > 0


def test_worker_exception_reaches_the_caller(monkeypatch, hang_guard):
    def fail():
        raise TypeError("probe raised in a worker")

    _in_workers_only(monkeypatch, "check_alternating_column_sum", fail)
    monkeypatch.setattr(identities, "_usable_cpus", lambda: 2)
    forked = _record_forks(monkeypatch)
    with pytest.raises(TypeError, match="^probe raised in a worker$"):
        run_identity_sweep(qs=(2,), max_n=3)
    _assert_reaped(forked)


def test_a_worker_that_dies_raises_runtime_error(monkeypatch, hang_guard):
    _in_workers_only(monkeypatch, "check_upper_negation",
                     lambda: os.kill(os.getpid(), signal.SIGKILL))
    monkeypatch.setattr(identities, "_usable_cpus", lambda: 3)
    forked = _record_forks(monkeypatch)
    with pytest.raises(RuntimeError, match=r"identity sweep worker 1 \(pid \d+\) died"):
        run_identity_sweep(qs=(2,), max_n=3)
    _assert_reaped(forked)


def test_a_raising_callback_leaves_no_worker(monkeypatch, hang_guard):
    monkeypatch.setattr(identities, "_usable_cpus", lambda: 3)
    forked = _record_forks(monkeypatch)
    seen = []

    def on_report(rep):
        seen.append(rep)
        if len(seen) == 100:
            raise ValueError("the callback stops the sweep")

    with pytest.raises(ValueError, match="the callback stops the sweep"):
        run_identity_sweep(qs=(2, 3), max_n=4, on_report=on_report)
    assert len(forked) == 2
    _assert_reaped(forked)


def _running(pid):
    """Whether pid is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states in /proc")
def test_workers_leave_when_the_caller_is_killed(tmp_path):
    """A caller killed mid-sweep takes the last read end of each pipe with
    it, so every worker's next write fails and the worker exits instead of
    blocking on a full pipe."""
    script = tmp_path / "caller.py"
    script.write_text(textwrap.dedent("""
        import os, time
        from qsteiner import identities
        fork = os.fork
        def logged_fork():
            pid = fork()
            if pid:
                print(pid, flush=True)
            return pid
        os.fork = logged_fork
        identities._usable_cpus = lambda: 3
        identities.run_identity_sweep(qs=(2, 3), max_n=5, on_report=lambda rep: time.sleep(600))
    """))
    src = str(Path(qsteiner.__file__).resolve().parents[1])
    caller = subprocess.Popen([sys.executable, str(script)], stdout=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": src})
    workers = [int(caller.stdout.readline()) for _ in range(2)]
    try:
        time.sleep(0.5)
        caller.kill()
        caller.wait(timeout=30)
        deadline = time.monotonic() + 30
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))
    finally:
        caller.stdout.close()
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)
