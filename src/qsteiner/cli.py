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
import gc
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from . import identities as ident
from .exactq import prime_power_parts
from .grassmann import SchemeInstance, verify_spectrum
from .linalg import ExactMatrix, rank_exact
from .steiner import (
    ParamSet,
    design_context,
    design_to_dict,
    designs_through_two_blocks,
    dimension_formula,
    empirical_pair_counts,
    enumerate_steiner,
    gram_check,
    gram_coefficients,
    load_design_file,
    rank_certificate,
    sample_steiner,
    sample_steps,
    verify_design,
    verify_design_ids,
    verify_gram_spectrum,
)

_ADAPTIVE_SAMPLE_STEPS = (25, 50, 100, 150, 200, 300)
# the lambdas' products hold at most t*n*bitlen(q) bits; every n <= 64
# with q < 2^32 stays under it, and under it the lambdas take under a second
_LAMBDA_BITS_GUARD = 1 << 17


def _adaptive_steps(params: ParamSet):
    """The fixed design counts, then one a tenth past the target when that
    is more than 300: seeded streams have met within a few designs past it.
    The target is computed only after the fixed steps ran, so sampling's
    own guards have refused huge Grassmannians by then."""
    yield from _ADAPTIVE_SAMPLE_STEPS
    last = dimension_formula(params) * 11 // 10
    if last > _ADAPTIVE_SAMPLE_STEPS[-1]:
        yield last


class CLIError(Exception):
    """Invalid configuration or I/O failure; maps to exit code 2."""


def _frac(x) -> str:
    return str(Fraction(x))


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CLIError(f"cannot write {path}: {exc}") from exc


def _params(config: argparse.Namespace) -> ParamSet:
    try:
        return ParamSet(t=config.t, k=config.k, n=config.n, q=config.q)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def _row_params(parameters: dict) -> str:
    return ";".join(f"{k}={v}" for k, v in parameters.items())


def run_identities(config: argparse.Namespace) -> int:
    if config.max_n < 0:
        raise CLIError("--max-n must be nonnegative")
    qs = config.qs
    callbacks = {}
    if config.out:
        try:
            rows_out = open(config.out, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise CLIError(f"cannot write {config.out}: {exc}") from exc
        if config.format == "csv":
            csv_writer = csv.writer(rows_out)
            csv_writer.writerow(["identity", "parameters", "lhs", "rhs", "equal", "reason"])
        else:
            rows_out.write("[\n")
        first_row = True

        def write_row(row: dict) -> None:
            """One report or skip row, given as its JSON object."""
            nonlocal first_row
            if config.format == "csv":
                csv_writer.writerow(
                    [row["identity"], _row_params(row["parameters"]),
                     row.get("lhs", ""), row.get("rhs", ""),
                     row.get("status", str(row.get("equal")).lower()), row.get("reason", "")]
                )
            else:
                rows_out.write(",\n" if not first_row else "")
                rows_out.write(json.dumps(row, sort_keys=True))
            first_row = False

        callbacks = {
            "on_report": lambda rep: write_row(
                {"identity": rep.identity_name, "parameters": rep.parameters,
                 "lhs": _frac(rep.lhs), "rhs": _frac(rep.rhs), "equal": rep.equal}),
            "on_skip": lambda skip: write_row(
                {"identity": skip.identity_name, "parameters": skip.parameters,
                 "status": "skipped", "reason": skip.reason}),
        }

    try:
        summary = ident.run_identity_sweep(qs=qs, max_n=config.max_n, **callbacks)
        if config.out and config.format != "csv":
            rows_out.write("\n]\n" if not first_row else "]\n")
    finally:
        if config.out:
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

def run_scheme(config: argparse.Namespace) -> int:
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

def run_enumerate(config: argparse.Namespace) -> int:
    params = _params(config)
    try:
        designs = enumerate_steiner(params)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    if config.out:
        k_subspaces = design_context(params).k_subspaces
        payload = [design_to_dict(params, [k_subspaces[b] for b in d]) for d in designs]
        _write_text(config.out, _dump_json(payload))
    print(f"enumerate ({params.t},{params.k},{params.n},{params.q}): "
          f"{len(designs)} designs")
    return 0


# ---------------------------------------------------------------------------
# dimension pipeline
# ---------------------------------------------------------------------------

def _admissibility_error(params: ParamSet) -> str:
    for i, v in enumerate(params.lambdas):
        if v.denominator != 1:
            return (
                f"inadmissible parameters: derived index-{i} count "
                f"{v.numerator}/{v.denominator} is not an integer"
            )
    return "inadmissible parameters"


def _row_b0_gram(designs: list[tuple[int, ...]], maps: Iterable[list[int]],
                 scheme: SchemeInstance) -> tuple[dict[int, set[int]], list[int] | None]:
    """Row B0 of U U^T (entry Y: the designs through B0 that contain Y),
    bucketed by dim(B0 ^ Y), and the coefficients c_0..c_k of
    U U^T = sum_d c_d A_(k-d) if every bucket holds one value c_d, else
    None.  The designs through B0 are the images of the given designs
    through B0 and C0 under the maps h_j, which fix B0, so row B0 is the
    given designs' row, row00, carried by each h_j: row[h_j[y]] += row00[y].
    U U^T commutes with GL(n,q), which is transitive on the pairs of
    k-subspaces meeting in each dimension, so row B0 fixes every entry; two
    values in a bucket mean that fails here."""
    row00 = [0] * scheme.size
    for d in designs:
        for y in d:
            row00[y] += 1
    row = [0] * scheme.size
    for h in maps:
        for y, count in zip(h, row00):
            row[y] += count
    buckets = empirical_pair_counts(ExactMatrix([row]), scheme)
    if any(len(entries) != 1 for entries in buckets.values()):
        return buckets, None
    return buckets, [min(buckets.get(d, {0})) for d in range(scheme.k + 1)]


def _dimension_enumerate(params: ParamSet, report: dict) -> bool:
    designs, c0, classes, maps = designs_through_two_blocks(params)
    n_designs = classes * len(maps) * len(designs)
    report["mode"] = "enumerate"
    report["N"] = n_designs
    if n_designs == 0:
        report["error"] = "no designs exist for these parameters"
        return False
    # GL(n,q) maps these onto all designs; a list, so every index is checked before the row count
    designs_ok = all([verify_design_ids(params, d).ok and 0 in d and c0 in d for d in designs])
    report["designs_verified"] = designs_ok

    coeffs = gram_coefficients(n_designs, params)
    scheme = SchemeInstance(params.n, params.k, params.q)
    buckets, coefficients = _row_b0_gram(designs, maps.values(), scheme)
    kappa_ok = gram_check({params.k: buckets.pop(params.k)}, coeffs, params.k)
    kappa_i_ok = gram_check(buckets, coeffs, params.k)
    gram_ok = kappa_ok and kappa_i_ok  # row B0's buckets fix every entry of U U^T
    report.update(kappa=_frac(coeffs.kappa), kappa_empirical_matches=kappa_ok,
                  kappa_i=[_frac(v) for v in coeffs.kappa_i],
                  kappa_i_empirical_matches=kappa_i_ok, gram_check=gram_ok)
    if coefficients is None:  # row B0 does not fix U U^T, so the report stops here
        return False

    spectrum_report = verify_gram_spectrum(params, scheme, coefficients, coeffs.kappa)
    report["mu"] = [_frac(v) for _, v, _ in spectrum_report.spectrum]
    report["multiplicities"] = [m for _, _, m in spectrum_report.spectrum]
    report["spectral_rank_checks"] = [c.to_dict() for c in spectrum_report.checks]
    report["trace_check"] = spectrum_report.trace_ok

    # rank(U) == rank(U U^T) over Q; the value-0 rank check has already
    # ranked U U^T - 0*I, and the closed form need not contain 0: then a
    # proven spectrum leaves U U^T full rank, and an unproven one is ranked
    rank_u = next((c.rank for c in spectrum_report.checks if c.value == 0), None)
    if rank_u is None:
        dense = spectrum_report.dense
        rank_u = scheme.size if dense is None else rank_exact(dense)
    target = dimension_formula(params)
    report.update(rank_U=rank_u, dimension_formula=target,
                  rank_matches_dimension=rank_u == target)

    return designs_ok and gram_ok and spectrum_report.ok and rank_u == target


def _dimension_sample(params: ParamSet, config: argparse.Namespace,
                      report: dict) -> bool:
    if config.count is not None and config.count < 1:
        raise CLIError("--count must be positive")
    report["mode"] = "sample"
    seed = config.seed or 0
    report["seed"] = seed
    if config.count:
        results = [sample_steiner(params, seed, config.count)]
    else:
        results = sample_steps(params, seed, _adaptive_steps(params))
    for result in results:
        cert = rank_certificate(params, result.designs)
        if cert.meets:
            break
    designs_ok = cert.annihilation_ok  # verify_design_ids on every design
    report["sampled"] = len(result.designs)
    report["sampling_complete"] = result.complete
    report["designs_verified"] = designs_ok
    report["certificate"] = cert.to_dict()
    report["dimension_formula"] = cert.target
    return designs_ok and cert.meets


def run_dimension(config: argparse.Namespace) -> int:
    params = _params(config)
    if not config.sample:
        for flag in ("count", "seed"):
            if getattr(config, flag) is not None:
                raise CLIError(f"--{flag} needs --sample")
    bits = params.t * params.n * params.q.bit_length()
    if bits > _LAMBDA_BITS_GUARD:
        raise CLIError(f"admissibility guard exceeded: t*n*bitlen(q) = {bits} "
                       f"(<= {_LAMBDA_BITS_GUARD})")
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

def run_verify_design(config: argparse.Namespace) -> int:
    if not config.designs:
        raise CLIError("--designs <file> is required for 'verify-design'")
    # A design file is read into acyclic block keys, tuples and ints (lists
    # on the json.loads route), which refcounting frees; the cyclic
    # collector would only rescan them as they are built, so it is paused.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            loaded = load_design_file(config.designs)
        except (OSError, ValueError) as exc:
            raise CLIError(f"{config.designs}: {exc}") from exc
        all_ok = True
        for idx, (params, blocks) in enumerate(loaded):
            try:
                result = verify_design(blocks, params)
            except ValueError as exc:
                raise CLIError(f"{config.designs}: design {idx}: {exc}") from exc
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
    finally:
        if gc_was_enabled:
            gc.enable()


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
    for q in values:
        try:
            prime_power_parts(q)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
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

    p = sub.add_parser("enumerate", help="enumerate all designs")
    for flag in ("--t", "--k", "--n", "--q"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--out", help="write the designs as a JSON array")

    p = sub.add_parser("dimension", help="run the dimension pipeline")
    for flag in ("--t", "--k", "--n", "--q"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--sample", action="store_true",
                   help="sample designs and use the rank certificate")
    p.add_argument("--seed", type=int,
                   help="sampling seed (default 0); needs --sample")
    p.add_argument("--count", type=int,
                   help="number of designs to sample (default adaptive); "
                        "needs --sample")
    p.add_argument("--out")

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
    config = build_parser().parse_args(argv)
    try:
        return _RUNNERS[config.command](config)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
