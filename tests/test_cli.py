import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsteiner
from qsteiner import steiner
from qsteiner.cli import main
from qsteiner.steiner import ParamSet, enumerate_steiner, save_design_file


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


@pytest.mark.parametrize("qs", ["1", "2,0"])
def test_identities_rejects_q_below_two(qs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["identities", "--q", qs, "--max-n", "2"])
    assert exc.value.code == 2
    assert "q must be at least 2" in capsys.readouterr().err


def test_scheme_command(tmp_path):
    out = tmp_path / "s.json"
    code = main(["scheme", "--n", "4", "--k", "2", "--q", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True and report["size"] == 35


def test_scheme_guard_rejected():
    assert main(["scheme", "--n", "8", "--k", "4", "--q", "2"]) == 2


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
    blocks = design.block_subspaces()[:-1]  # drop one block
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


def test_verify_design_missing_file():
    assert main(["verify-design", "--designs", "/no/such/file.json"]) == 2


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
