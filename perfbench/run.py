"""qsteiner benchmark: four CLI workloads timed end to end, plus a layer trace.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...      # every workload in turn

Each sample is a fresh, single-threaded Python process (``child.py``) that
imports ``qsteiner.cli`` from ``src/`` and calls ``qsteiner.cli.main(argv)``
for each of the workload's CLI calls, one after another: a closed loop with
one client, one process at a time.  Fresh processes keep the package's
``functools.cache`` tables cold, as they are for every CLI invocation.
Samples repeat while one more, as long as the last, still fits in
``--seconds``; the first always runs.  Every exit code and report is checked
against exact known values.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` one more sample runs under the layer
tracer (``tracer.py``) and the object holds the per-layer metrics instead.
See README.md for why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
# Import-only processes spawned before each sample and after the last one, so
# that the setup_s median spreads over the whole run, not one moment of it.
SETUP_SPAWNS = 3
CHILD_TIMEOUT_S = 150
sys.path.insert(0, str(HERE))

import spreadgen  # noqa: E402

PG33 = ["--t", "1", "--k", "2", "--n", "4", "--q", "3"]
SPREAD_M = 9  # F_4^9, read as F_2^18: 87,381 blocks


# ---------------------------------------------------------------------------
# workloads: inputs from the seed, and the exact expected outputs
# ---------------------------------------------------------------------------

class Workload:
    """Builds the CLI calls for one seed and checks each call's result.

    ``check`` returns one error string per call, or None when the call's
    exit code and report are exactly as expected.
    """

    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def calls(self) -> list[list[str]]:
        raise NotImplementedError

    def before_sample(self) -> None:
        """Remove output files so that a stale report cannot pass."""

    def check(self, results: list[dict]) -> list[str | None]:
        raise NotImplementedError


def _expect(got: dict, want: dict) -> str | None:
    for key, value in want.items():
        if got.get(key) != value:
            return f"{key}: got {got.get(key)!r}, expected {value!r}"
    return None


class JsonReportWorkload(Workload):
    """One ``dimension`` call whose JSON report must match ``expected``."""

    expected: dict = {}

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.out = work / "report.json"

    def before_sample(self):
        self.out.unlink(missing_ok=True)

    def check(self, results):
        res = results[0]
        if res["code"] != 0:
            return [f"exit code {res['code']}: {res['stderr'][-500:]}"]
        try:
            report = json.loads(self.out.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"report unreadable: {exc}"]
        return [_expect(report, self.expected) or self.extra_check(report)]

    def extra_check(self, report: dict) -> str | None:
        return None


class IdentitySweep(Workload):
    name = "identity-sweep"
    why = ("exactq scalars and identity checks only, bigints growing from q=2 "
           "to q=9; the no-change control for every pipeline optimisation")
    expected_stdout = ("identities: q=2,3,4,5,7,8,9 max_n=7 "
                       "checked=77630 failed=0 skipped=23317\n")

    def calls(self):
        return [["identities", "--q", "2,3,4,5,7,8,9", "--max-n", "7"]]

    def check(self, results):
        res = results[0]
        if res["code"] != 0 or res["stdout"] != self.expected_stdout:
            return [f"exit {res['code']}, stdout {res['stdout']!r}"]
        return [None]


class Pg33Enumerate(JsonReportWorkload):
    name = "pg33-enumerate"
    why = ("all 8424 PG(3,3) spreads: dense U*U^T and exact ranks dominate, "
           "the target of a sparse Gram layer")
    expected = {
        "all_pass": True, "mode": "enumerate", "N": 8424,
        "designs_verified": True, "kappa": "648",
        "kappa_empirical_matches": True, "kappa_i": ["72", "0"],
        "kappa_i_empirical_matches": True, "gram_check": True,
        "mu": ["6480", "0", "864"], "multiplicities": [1, 39, 90],
        "trace_check": True, "rank_U": 91, "dimension_formula": 91,
        "rank_matches_dimension": True,
    }

    def calls(self):
        return [["dimension", *PG33, "--out", str(self.out)]]

    def extra_check(self, report):
        checks = report.get("spectral_rank_checks")
        if not checks or not all(c.get("ok") for c in checks):
            return f"spectral rank checks: {checks!r}"
        return None


class Pg33Sample(JsonReportWorkload):
    name = "pg33-sample"
    why = ("3000 sampled PG(3,3) spreads and the rank certificate: exact rank "
           "of a rank-deficient 130x3000 U, no Gram matrix")
    expected = {
        "all_pass": True, "mode": "sample", "sampled": 3000,
        "sampling_complete": True, "designs_verified": True,
        "dimension_formula": 91,
        "certificate": {
            "n_designs": 3000, "w_rank": 40, "row_diff_rank": 39,
            "annihilation_ok": True, "upper_bound": 91, "lower_bound": 91,
            "target": 91, "meets": True,
        },
    }

    def calls(self):
        return [["dimension", *PG33, "--sample", "--count", "3000",
                 "--seed", str(self.seed), "--out", str(self.out)]]

    def extra_check(self, report):
        return _expect(report, {"seed": self.seed})


_FAILED = re.compile(
    r"design 0 \(1,2,(\d+),2\): FAILED - t-subspace covered (\d+) times, expected 1\n"
    r"  witness row: \[([01, ]+)\]\n\Z"
)


class SpreadVerify(Workload):
    name = "spread-verify"
    why = ("verify-design on a relabeled 87,381-block line spread of F_2^18 "
           "and a perturbed copy: gfspaces elimination and JSON ingest")

    def __init__(self, seed, work, m=SPREAD_M):
        super().__init__(seed, work)
        self.valid = work / "spread.json"
        self.bad = work / "spread-perturbed.json"
        self.spread = spreadgen.make_spread(m, seed)
        spreadgen.write_design(self.valid, self.spread.dim, self.spread.blocks)
        spreadgen.write_design(self.bad, self.spread.dim, self.spread.perturbed)

    def calls(self):
        return [["verify-design", "--designs", str(self.valid)],
                ["verify-design", "--designs", str(self.bad)]]

    def check(self, results):
        dim = self.spread.dim
        ok_line = f"design 0 (1,2,{dim},2): ok ({len(self.spread.blocks)} blocks)\n"
        good, bad = results
        errors = [None, None]
        if good["code"] != 0 or good["stdout"] != ok_line:
            errors[0] = f"valid spread: exit {good['code']}, {good['stdout'][:300]!r}"
        match = _FAILED.match(bad["stdout"])
        if bad["code"] != 1 or match is None or int(match[1]) != dim:
            errors[1] = f"perturbed spread: exit {bad['code']}, {bad['stdout'][:300]!r}"
        else:
            row = [int(x) for x in match[3].split(",")]
            witness = sum(b << c for c, b in enumerate(row))
            printed = int(match[2])
            actual = self.spread.perturbed_cover[witness] if len(row) == dim else -1
            if actual not in (0, 2) or printed != actual:
                errors[1] = (f"witness {row} covered {actual} times by the "
                             f"perturbed spread, CLI printed {printed}")
        return errors


WORKLOADS = {w.name: w for w in (IdentitySweep, Pg33Enumerate, Pg33Sample, SpreadVerify)}


# ---------------------------------------------------------------------------
# per-layer metrics reported by the traced run
# ---------------------------------------------------------------------------

def _timed(layer: str, *stats: str) -> list[str]:
    return [f"{layer}.{s}" for s in stats]


PER_LAYER = [
    *_timed("linalg.mat_mul", "calls", "self_s"), "linalg.mat_mul.mults",
    *_timed("linalg.rank_exact", "calls", "self_s"), "linalg.rank_exact.cells",
    *_timed("linalg.rank_mod_p", "calls", "self_s"),
    "steiner.gram_check.total_s", "steiner.verify_gram_spectrum.total_s",
    "steiner.incidence_matrix.self_s", "steiner.empirical_pair_counts.self_s",
    "steiner.enumerate_steiner.self_s", "steiner.sample_steiner.self_s",
    "steiner.sample.attempts", "steiner.sample.distinct",
    "steiner.sample.useful_ratio", "steiner.rank_certificate.total_s",
    "steiner.inclusion_matrix.self_s", "steiner.load_design_file.self_s",
    "steiner.design_from_dict.self_s", "steiner.verify_design.self_s",
    *[m for f in ("rref", "gf_matmul", "subspace_from_rows", "rows_rank",
                  "intersection_dim")
      for m in _timed(f"gfspaces.{f}", "calls", "self_s")],
    *_timed("grassmann.SchemeInstance.adjacency_matrix", "calls", "self_s"),
    *[m for f in ("gauss_binom", "q_pow", "q_int", "q_pochhammer")
      for m in _timed(f"exactq.{f}", "calls", "self_s")],
    *[f"identities.check_{f}.self_s" for f in (
        "shifted_sum_transform", "triple_sum_closed_form", "triple_sum_weighted_form",
        "double_sum_reduction", "shifted_sum_transform_diagonal")],
    "identities.eval_3phi2.self_s", "identities.checked", "identities.skipped",
    *[f"cli.{f}.self_s" for f in ("main", "run_identities", "run_dimension",
                                  "run_verify_design")],
    "process.cpu_s", "trace.wall_s", "trace.overhead_s", "trace.unattributed_s",
]


def layer_metrics(summary: dict, untraced_wall: float, untraced_cpu: float) -> dict:
    layers, counts = summary["layers"], summary["counts"]
    attempts = counts["steiner.sample.attempts"]
    derived = {
        "steiner.sample.useful_ratio":
            counts["steiner.sample.distinct"] / attempts if attempts else 0.0,
        "process.cpu_s": untraced_cpu,
        "trace.wall_s": summary["wall_s"],
        "trace.overhead_s": summary["wall_s"] - untraced_wall,
        "trace.unattributed_s": summary["wall_s"] - summary["covered_s"],
    }
    out = {}
    for name in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name in counts:
            value = counts[name]
        else:
            layer, stat = name.rsplit(".", 1)
            value = layers[layer][stat]
        out[name] = value
    return out


def metric_unit(name: str) -> str:
    if name == "peak_rss_mib":
        return "MiB"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


# ---------------------------------------------------------------------------
# running samples
# ---------------------------------------------------------------------------

class ChildError(RuntimeError):
    pass


def spawn(args: list[str]) -> tuple[float, str]:
    """Run child.py with args; (seconds from spawn to 'ready', rest of stdout)."""
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), *args]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - t0
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first != "ready\n" or proc.returncode != 0:
        raise ChildError(f"child exited {proc.returncode} after {first!r}")
    return ready, rest


def run_sample(calls_file: Path, trace_file: Path | None = None) -> tuple[float, dict]:
    args = [str(calls_file)] + ([str(trace_file)] if trace_file else [])
    ready, rest = spawn(args)
    return ready, json.loads(rest.strip().splitlines()[-1])


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        workload = WORKLOADS[name](seed, work)
        calls = workload.calls()
        calls_file = work / "calls.json"
        calls_file.write_text(json.dumps(calls), encoding="utf-8")

        setups, walls, rss, cpus, errors = [], [], [], [], []
        attempted = 0
        start = last = perf_counter()
        # Start another sample only if one more, as long as the last, still
        # ends within the run's seconds; the first sample always runs.
        while not walls or 2 * perf_counter() - last - start <= seconds:
            last = perf_counter()
            setups += [spawn([])[0] for _ in range(SETUP_SPAWNS)]
            workload.before_sample()
            ready, record = run_sample(calls_file)
            setups.append(ready)
            walls.append(record["wall_s"])
            cpus.append(record["cpu_s"])
            rss.append(record["maxrss_kib"] / 1024)
            attempted += len(calls)
            errors += [e for e in workload.check(record["calls"]) if e]
        setups += [spawn([])[0] for _ in range(SETUP_SPAWNS)]
        result = {
            "workload": name, "seed": seed, "attempted": attempted,
            "errors": errors, "walls": walls, "setups": setups, "rss": rss,
            "metrics": {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(setups),
                "peak_rss_mib": statistics.median(rss),
            },
        }
        if trace:
            workload.before_sample()
            trace_file = work / "trace.json"
            _, record = run_sample(calls_file, trace_file)
            attempted += len(calls)
            errors += [e for e in workload.check(record["calls"]) if e]
            summary = json.loads(trace_file.read_text(encoding="utf-8"))
            shutil.copyfile(trace_file, WORK / f"trace-{name}-seed{seed}.json")
            result["attempted"] = attempted
            result["layers"] = layer_metrics(summary, statistics.median(walls),
                                             statistics.median(cpus))
            result["spans"] = summary["spans"]
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def report_lines(result: dict, trace: bool) -> list[str]:
    m = result["metrics"]
    failed = len(result["errors"])
    lines = [
        f"== {result['workload']} (seed {result['seed']})",
        f"  wall_s        {m['wall_s']:.4f} s    median of {len(result['walls'])} "
        f"(min {min(result['walls']):.4f}, max {max(result['walls']):.4f})",
        f"  setup_s       {m['setup_s']:.4f} s    median of {len(result['setups'])} "
        f"(min {min(result['setups']):.4f}, max {max(result['setups']):.4f})",
        f"  peak_rss_mib  {m['peak_rss_mib']:.1f} MiB  median of {len(result['rss'])}",
        f"  fail_frac     {failed / result['attempted']:.4f} ratio "
        f"({failed} of {result['attempted']} CLI calls)",
    ]
    lines += [f"  FAILED: {e}" for e in result["errors"]]
    if trace:
        layers = result["layers"]
        lines.append(f"  traced run: {result['spans']} spans, "
                     f"{layers['trace.wall_s']:.4f} s traced, "
                     f"overhead {layers['trace.overhead_s']:+.4f} s")
        top = sorted((v, k) for k, v in layers.items()
                     if k.endswith(".self_s") and v > 0)[::-1][:8]
        lines += [f"    {k:<48} {v:9.4f} s" for v, k in top]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qsteiner" / "cli.py").is_file():
        print(f"error: no qsteiner sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            result = measure(name, args.seed, args.seconds, bool(args.trace))
        except (ChildError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        results.append(result)
        print("\n".join(report_lines(result, bool(args.trace))), flush=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(len(r["errors"]) for r in results)
    metrics = {}
    for r in results:
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        values = r["layers"] if args.trace else r["metrics"]
        for key, value in values.items():
            metrics[prefix + key] = {"value": value, "unit": metric_unit(key)}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
