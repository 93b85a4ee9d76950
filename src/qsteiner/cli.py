"""Command-line front end.

Subcommands: ``identities`` (grid sweep of every identity check),
``scheme`` (Grassmann spectrum verification), ``enumerate`` (exact-cover
design enumeration), ``dimension`` (the full pipeline: designs, Gram
coefficients, spectrum, rank vs the closed-form dimension) and
``verify-design`` (file-based design verification).

Exit status is 0 exactly when every executed check passed.  All randomness
comes from the --seed flag and reports render every scalar as an exact
fraction string, so runs with the same configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import identities as ident
from .grassmann import SchemeInstance, verify_spectrum
from .linalg import rank_exact
from .steiner import (
    Design,
    ParamSet,
    design_to_dict,
    dimension_formula,
    empirical_kappa,
    empirical_pair_counts,
    enumerate_steiner,
    gram_check,
    gram_coefficients,
    gram_matrix,
    kappa_i_formula,
    lambda_i,
    load_design_file,
    rank_certificate,
    sample_steiner,
    verify_design,
    verify_design_ids,
    verify_gram_spectrum,
)

_ADAPTIVE_SAMPLE_STEPS = (25, 50, 100, 150, 200, 300)


class CLIError(Exception):
    """Invalid configuration or I/O failure; maps to exit code 2."""


@dataclass
class RunConfig:
    command: str
    t: int | None = None
    k: int | None = None
    n: int | None = None
    q: int | None = None
    qs: tuple[int, ...] = ()
    max_n: int = 6
    seed: int = 0
    sample: bool = False
    count: int | None = None
    out: str | None = None
    format: str = "json"
    designs: str | None = None


def _frac(x) -> str:
    return str(Fraction(x))


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CLIError(f"cannot write {path}: {exc}") from exc


def _require(config: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise CLIError(f"--{name} is required for '{config.command}'")


def _params(config: RunConfig) -> ParamSet:
    _require(config, "t", "k", "n", "q")
    try:
        return ParamSet(t=config.t, k=config.k, n=config.n, q=config.q)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def _row_params(parameters: dict) -> str:
    return ";".join(f"{k}={v}" for k, v in parameters.items())


def run_identities(config: RunConfig) -> int:
    if config.max_n < 0:
        raise CLIError("--max-n must be nonnegative")
    qs = config.qs or (2, 3)
    rows_out = None
    csv_writer = None
    first_row = True

    def json_row(obj: dict) -> None:
        nonlocal first_row
        rows_out.write(",\n" if not first_row else "")
        rows_out.write(json.dumps(obj, sort_keys=True))
        first_row = False

    def on_report(rep: ident.IdentityReport) -> None:
        if rows_out is None:
            return
        if config.format == "csv":
            csv_writer.writerow(
                [rep.identity_name, _row_params(rep.parameters),
                 _frac(rep.lhs), _frac(rep.rhs), str(rep.equal).lower(), ""]
            )
        else:
            json_row(
                {
                    "identity": rep.identity_name,
                    "parameters": rep.parameters,
                    "lhs": _frac(rep.lhs),
                    "rhs": _frac(rep.rhs),
                    "equal": rep.equal,
                }
            )

    def on_skip(skip: ident.SkipRecord) -> None:
        if rows_out is None:
            return
        if config.format == "csv":
            csv_writer.writerow(
                [skip.identity_name, _row_params(skip.parameters),
                 "", "", "skipped", skip.reason]
            )
        else:
            json_row(
                {
                    "identity": skip.identity_name,
                    "parameters": skip.parameters,
                    "status": "skipped",
                    "reason": skip.reason,
                }
            )

    if config.out:
        try:
            rows_out = open(config.out, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise CLIError(f"cannot write {config.out}: {exc}") from exc

    try:
        if rows_out is not None:
            if config.format == "csv":
                csv_writer = csv.writer(rows_out)
                csv_writer.writerow(
                    ["identity", "parameters", "lhs", "rhs", "equal", "reason"]
                )
            else:
                rows_out.write("[\n")
        summary = ident.run_identity_sweep(
            qs=qs, max_n=config.max_n, on_report=on_report, on_skip=on_skip
        )
        if rows_out is not None and config.format != "csv":
            rows_out.write("\n]\n" if not first_row else "]\n")
    finally:
        if rows_out is not None:
            rows_out.close()

    print(
        f"identities: q={','.join(map(str, qs))} max_n={config.max_n} "
        f"checked={summary.checked} failed={summary.failed} "
        f"skipped={summary.skipped}"
    )
    for rep in summary.failures[:20]:
        print(
            f"  FAIL {rep.identity_name} {rep.parameters}: "
            f"{_frac(rep.lhs)} != {_frac(rep.rhs)}",
            file=sys.stderr,
        )
    return 0 if summary.ok else 1


# ---------------------------------------------------------------------------
# scheme
# ---------------------------------------------------------------------------

def run_scheme(config: RunConfig) -> int:
    _require(config, "n", "k", "q")
    try:
        scheme = SchemeInstance(config.n, config.k, config.q)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    report = verify_spectrum(scheme)
    text = _dump_json(report.to_dict())
    if config.out:
        _write_text(config.out, text)
    else:
        sys.stdout.write(text)
    print(f"scheme ({config.n},{config.k},{config.q}): "
          f"{'ok' if report.ok else 'FAILED'}", file=sys.stderr)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def run_enumerate(config: RunConfig) -> int:
    params = _params(config)
    try:
        designs = enumerate_steiner(params)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    if config.out:
        payload = [design_to_dict(params, d.block_subspaces()) for d in designs]
        _write_text(config.out, _dump_json(payload))
    print(f"enumerate ({params.t},{params.k},{params.n},{params.q}): "
          f"{len(designs)} designs")
    return 0


# ---------------------------------------------------------------------------
# dimension pipeline
# ---------------------------------------------------------------------------

def _admissibility_error(params: ParamSet) -> str:
    for i in range(params.t + 1):
        v = lambda_i(params, i, 1)
        if v.denominator != 1:
            return (
                f"inadmissible parameters: derived index-{i} count "
                f"{v.numerator}/{v.denominator} is not an integer"
            )
    return "inadmissible parameters"


def _dimension_enumerate(params: ParamSet, report: dict) -> bool:
    designs = enumerate_steiner(params)
    n_designs = len(designs)
    report["mode"] = "enumerate"
    report["N"] = n_designs
    if n_designs == 0:
        report["error"] = "no designs exist for these parameters"
        return False
    designs_ok = all(verify_design_ids(d).ok for d in designs)
    report["designs_verified"] = designs_ok

    gram = gram_matrix(params, designs)
    coeffs = gram_coefficients(n_designs, params)
    kappa_seen, kappa_const = empirical_kappa(gram)
    kappa_ok = kappa_const and kappa_seen == {coeffs.kappa}
    report["kappa"] = _frac(coeffs.kappa)
    report["kappa_empirical_matches"] = kappa_ok

    scheme = SchemeInstance(params.n, params.k, params.q)
    buckets = empirical_pair_counts(gram, scheme)
    kappa_i_ok = True
    kappa_i_vals = []
    for i in range(params.t + 1):
        kappa_i_vals.append(_frac(coeffs.kappa_i[i]))
    for dim, counts in sorted(buckets.items()):
        expected = kappa_i_formula(n_designs, dim, params)
        if len(counts) != 1 or counts != {expected}:
            kappa_i_ok = False
    report["kappa_i"] = kappa_i_vals
    report["kappa_i_empirical_matches"] = kappa_i_ok

    gram_ok = gram_check(gram, coeffs, scheme)
    report["gram_check"] = gram_ok

    spectrum_report = verify_gram_spectrum(params, gram, coeffs.kappa)
    report["mu"] = [_frac(v) for _, v, _ in spectrum_report.spectrum]
    report["multiplicities"] = [m for _, _, m in spectrum_report.spectrum]
    report["spectral_rank_checks"] = [c.to_dict() for c in spectrum_report.checks]
    report["trace_check"] = spectrum_report.trace_ok

    # rank(U) == rank(U U^T) over Q; the value-0 rank check has already
    # ranked U U^T - 0*I, and the closed form need not contain 0.
    rank_u = next((c.rank for c in spectrum_report.checks if c.value == 0), None)
    if rank_u is None:
        rank_u = rank_exact(gram)
    target = dimension_formula(params)
    report["rank_U"] = rank_u
    report["dimension_formula"] = target
    report["rank_matches_dimension"] = rank_u == target

    return all(
        [designs_ok, kappa_ok, kappa_i_ok, gram_ok, spectrum_report.ok,
         rank_u == target]
    )


def _dimension_sample(params: ParamSet, config: RunConfig, report: dict) -> bool:
    report["mode"] = "sample"
    report["seed"] = config.seed
    target = dimension_formula(params)
    if config.count is not None and config.count < 1:
        raise CLIError("--count must be positive")
    counts = (config.count,) if config.count else _ADAPTIVE_SAMPLE_STEPS
    cert = None
    designs: list[Design] = []
    complete = True
    for count in counts:
        result = sample_steiner(params, config.seed, count)
        designs = result.designs
        complete = result.complete
        cert = rank_certificate(params, designs)
        if cert.meets:
            break
    designs_ok = cert.annihilation_ok  # verify_design_ids on every design
    report["sampled"] = len(designs)
    report["sampling_complete"] = complete
    report["designs_verified"] = designs_ok
    report["certificate"] = cert.to_dict()
    report["dimension_formula"] = target
    return designs_ok and cert.meets


def run_dimension(config: RunConfig) -> int:
    params = _params(config)
    report: dict = {
        "command": "dimension",
        "t": params.t,
        "k": params.k,
        "n": params.n,
        "q": params.q,
        "admissible": params.admissible,
    }
    if not params.admissible:
        msg = _admissibility_error(params)
        print(msg, file=sys.stderr)
        report["error"] = msg
        if config.out:
            _write_text(config.out, _dump_json(report))
        return 1
    try:
        if config.sample:
            ok = _dimension_sample(params, config, report)
        else:
            ok = _dimension_enumerate(params, report)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    report["all_pass"] = ok
    text = _dump_json(report)
    if config.out:
        _write_text(config.out, text)
    else:
        sys.stdout.write(text)
    print(
        f"dimension ({params.t},{params.k},{params.n},{params.q}): "
        f"{'ok' if ok else 'FAILED'}",
        file=sys.stderr,
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verify-design
# ---------------------------------------------------------------------------

def run_verify_design(config: RunConfig) -> int:
    if not config.designs:
        raise CLIError("--designs <file> is required for 'verify-design'")
    try:
        loaded = load_design_file(config.designs)
    except (OSError, ValueError) as exc:
        raise CLIError(f"{config.designs}: {exc}") from exc
    all_ok = True
    for idx, (params, blocks) in enumerate(loaded):
        result = verify_design(blocks, params, lam=1)
        tag = f"design {idx} ({params.t},{params.k},{params.n},{params.q})"
        if result.ok:
            print(f"{tag}: ok ({len(blocks)} blocks)")
        else:
            all_ok = False
            print(f"{tag}: FAILED - {result.message}")
            if result.witness is not None:
                for row in result.witness.to_lists():
                    print(f"  witness row: {row}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_q_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad q list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty q list")
    if min(values) < 2:
        raise argparse.ArgumentTypeError(f"q must be at least 2: {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsteiner",
        description="Exact verification toolkit for q-Steiner systems and "
                    "the Grassmann scheme.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identities", help="run the identity grid sweep")
    p.add_argument("--q", type=_parse_q_list, default=(2, 3), dest="qs",
                   help="comma-separated prime powers (default 2,3)")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--out", help="write one row per checked tuple")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("scheme", help="verify a Grassmann scheme spectrum")
    for flag in ("--n", "--k", "--q"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json",), default="json")

    p = sub.add_parser("enumerate", help="enumerate all designs")
    for flag in ("--t", "--k", "--n", "--q"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--out", help="write the designs as a JSON array")

    p = sub.add_parser("dimension", help="run the dimension pipeline")
    for flag in ("--t", "--k", "--n", "--q"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--sample", action="store_true",
                   help="sample designs and use the rank certificate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int,
                   help="number of designs to sample (default adaptive)")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json",), default="json")

    p = sub.add_parser("verify-design", help="verify a design file")
    p.add_argument("--designs", required=True, help="JSON design file")

    return parser


_RUNNERS = {
    "identities": run_identities,
    "scheme": run_scheme,
    "enumerate": run_enumerate,
    "dimension": run_dimension,
    "verify-design": run_verify_design,
}


def main(argv: list[str] | None = None) -> int:
    config = RunConfig(**vars(build_parser().parse_args(argv)))
    try:
        return _RUNNERS[config.command](config)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
