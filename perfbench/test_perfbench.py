"""Tests of the benchmark's own parts: tracer, spread generator, metric list."""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spreadgen  # noqa: E402
from tracer import Tracer, _package_modules, traced_targets  # noqa: E402

import qsteiner.cli as cli  # noqa: E402
from qsteiner import grassmann, linalg, steiner  # noqa: E402
from qsteiner.steiner import load_design_file, verify_design  # noqa: E402


def _bindings():
    """Identity of every value held by a qsteiner namespace or module dict."""
    snap = {}
    for module in _package_modules():
        for attr, value in vars(module).items():
            snap[(module.__name__, attr)] = id(value)
            if isinstance(value, dict) and attr != "__builtins__":
                for key, item in value.items():
                    snap[(module.__name__, attr, key)] = id(item)
    for attr, value in vars(grassmann.SchemeInstance).items():
        snap[("SchemeInstance", attr)] = id(value)
    return snap


def test_tracer_rebinds_by_identity_and_restores_everything():
    before = _bindings()
    original_rank = linalg.rank_exact
    original_adjacency = vars(grassmann.SchemeInstance)["adjacency_matrix"]
    tracer = Tracer()
    with tracer:
        assert linalg.rank_exact is not original_rank
        assert steiner.rank_exact is linalg.rank_exact
        assert cli.rank_exact is linalg.rank_exact
        assert cli._RUNNERS["scheme"] is cli.run_scheme
        assert vars(grassmann.SchemeInstance)["adjacency_matrix"] is not original_adjacency
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["scheme", "--n", "4", "--k", "2", "--q", "2"]) == 0
    assert _bindings() == before
    assert linalg.rank_exact is original_rank

    summary = tracer.summary()
    layers = summary["layers"]
    assert layers["cli.main"]["calls"] == 1
    assert layers["cli.run_scheme"]["calls"] == 1
    assert layers["linalg.rank_exact"]["calls"] > 0
    assert layers["grassmann.SchemeInstance.adjacency_matrix"]["calls"] > 0
    assert summary["counts"]["linalg.rank_exact.cells"] > 0
    self_total = sum(v["self_s"] for v in layers.values())
    assert abs(self_total - summary["covered_s"]) < 1e-6
    assert abs(layers["cli.main"]["total_s"] - summary["covered_s"]) < 1e-9


def test_generators_are_left_to_the_caller():
    names = {name for name, *_ in traced_targets()}
    assert "gfspaces.iter_subspaces" not in names
    assert "gfspaces.rref" in names


def test_every_per_layer_metric_has_a_source():
    names = {name for name, *_ in traced_targets()}
    summary = {"layers": {n: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for n in names},
               "counts": Tracer().counts, "wall_s": 1.0, "covered_s": 1.0}
    metrics = run.layer_metrics(summary, 1.0, 1.0)
    assert list(metrics) == run.PER_LAYER
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_f4_arithmetic():
    for a in range(4):
        assert spreadgen.f4_mul(1, a) == a
        for b in range(4):
            assert spreadgen.f4_mul(a, b) == spreadgen.f4_mul(b, a)
    w = spreadgen.OMEGA
    assert spreadgen.f4_mul(w, w) == w ^ 1  # w^2 = w + 1
    assert spreadgen.f4_mul(w, w ^ 1) == 1  # w^3 = 1


def _witness_mask(witness):
    (row,) = witness.to_lists()
    return sum(bit << c for c, bit in enumerate(row))


def test_generated_spread_verifies_and_perturbed_copy_fails(tmp_path):
    for seed in (0, 1, 2):
        spread = spreadgen.make_spread(3, seed)
        assert len(spread.blocks) == 21
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        spreadgen.write_design(good, spread.dim, spread.blocks)
        spreadgen.write_design(bad, spread.dim, spread.perturbed)

        ((params, blocks),) = load_design_file(good)
        assert (params.t, params.k, params.n, params.q) == (1, 2, 6, 2)
        assert verify_design(blocks, params).ok

        ((params, blocks),) = load_design_file(bad)
        result = verify_design(blocks, params)
        assert not result.ok
        assert result.coverage in (0, 2)
        assert spread.perturbed_cover[_witness_mask(result.witness)] == result.coverage


def test_spread_workload_checks_cli_output(tmp_path):
    workload = run.SpreadVerify(5, tmp_path, m=3)
    results = []
    for argv in workload.calls():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        results.append({"code": code, "stdout": out.getvalue(), "stderr": ""})
    assert workload.check(results) == [None, None]
    results[1]["stdout"] = results[1]["stdout"].replace("covered 0", "covered 1")
    results[1]["stdout"] = results[1]["stdout"].replace("covered 2", "covered 1")
    assert workload.check(results)[1] is not None
