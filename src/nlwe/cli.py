"""Command-line surface: construction, verification, and export.

Exit status 0 means every requested check passed; 1 means at least one
check failed; 2 signals an input or precondition error, reported on stderr
as one line ``error:<code>: <message>``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import serialize
from .boundent import (
    MEMBER_ANNIHILATION_TOL,
    be_state,
    member_annihilation,
    ppt_report,
    separability_report,
    state_rank,
)
from .circuit import check_commutation, validate_exclusivity
from .config import tolerance
from .ensembles import generate_basis, local_factor_census, preset_circuit
from .errors import MalformedJsonError, NlweError, PreconditionError
from .lemma import (
    lemma_check,
    preserves_orthogonality,
    random_gaussian_operator,
    random_scaled_unitary,
    weyl_operators,
)
from .linalg import dft_matrix
from .report import VerificationReport, party_label
from .upb import extract_upb, is_unextendible

VERIFY_CHECKS = ("orth", "product", "exclusivity", "commutation", "census")


def _write_or_print(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_excluded(spec: str | None, n_parties: int):
    if not spec:
        return None
    spec = spec.strip()
    try:
        if spec.startswith("all="):
            value = int(spec[4:])
            return {p: value for p in range(n_parties)}
        mapping = {}
        for token in spec.split(","):
            if "=" not in token:
                raise ValueError(f"entry {token!r} has no '='")
            p, v = token.split("=", 1)
            mapping[int(p)] = int(v)
    except ValueError as exc:
        raise PreconditionError(
            f"bad --excluded-index {spec!r}; use all=<k> or <party>=<k>,... ({exc})"
        ) from exc
    return mapping


def cmd_generate(args) -> int:
    circuit = preset_circuit(args.preset)
    basis = generate_basis(circuit)
    _write_or_print(serialize.dumps(serialize.basis_to_obj(basis, circuit)), args.out)
    return 0


def cmd_verify(args) -> int:
    basis, circuit = serialize.basis_from_obj(serialize.load_file(args.infile))
    if args.checks:
        names = tuple(tok.strip() for tok in args.checks.split(",") if tok.strip())
        for name in names:
            if name not in VERIFY_CHECKS:
                raise PreconditionError(
                    f"unknown check {name!r}; choose from {','.join(VERIFY_CHECKS)}"
                )
    else:
        names = ("orth", "product") + (
            ("exclusivity", "commutation", "census") if circuit else ()
        )
    report = VerificationReport()
    tol = tolerance()
    if "orth" in names:
        deviation = basis.gram_deviation()
        report.add("orthogonality", deviation <= tol, residual=deviation,
                   detail="max deviation of the Gram matrix from identity")
    if "product" in names:
        worst = basis.norm_deviation()
        report.add("product-form", worst <= 1e-10, residual=worst,
                   detail="max state-norm deviation from 1")
    if "exclusivity" in names:
        if circuit is None:
            raise PreconditionError("basis file has no embedded circuit for exclusivity")
        report.merge(validate_exclusivity(circuit))
    if "commutation" in names:
        if circuit is None:
            raise PreconditionError("basis file has no embedded circuit for commutation")
        report.merge(check_commutation(circuit))
    if "census" in names:
        for p, d in enumerate(basis.dims):
            census = local_factor_census(basis, p)
            report.add(
                f"census[{party_label(p)}]",
                len(census) <= 2 * d,
                residual=float(len(census)),
                detail=f"{len(census)} distinct local factors (bound {2 * d})",
            )
    print(report.table())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(serialize.dumps(report.to_obj()))
    return 0 if report.passed else 1


def cmd_upb(args) -> int:
    if getattr(args, "upb_cmd", None) == "check":
        upb = serialize.upb_from_obj(serialize.load_file(args.infile))
        report = is_unextendible(upb)
        print(report.checks[0].detail)
        print(report.table())
        return 0 if report.passed else 1
    if not args.preset:
        raise PreconditionError("upb extraction needs --preset")
    circuit = preset_circuit(args.preset)
    excluded = _parse_excluded(args.excluded_index, len(circuit.dims))
    upb = extract_upb(circuit, excluded)
    _write_or_print(serialize.dumps(serialize.upb_to_obj(upb)), args.out)
    return 0


def cmd_bestate(args) -> int:
    upb = serialize.upb_from_obj(serialize.load_file(args.infile))
    rho = be_state(upb)
    report = VerificationReport()
    total = rho.total_dimension()
    trace_dev = abs(complex(np.trace(rho.matrix)) - 1.0)
    report.add("trace", trace_dev <= 1e-10, residual=float(trace_dev),
               detail="deviation of trace from 1")
    rank = state_rank(rho)
    expected_rank = total - len(upb)
    report.add("rank", rank == expected_rank, residual=float(rank),
               detail=f"complement rank (expected {expected_rank})")
    annihilation = member_annihilation(rho, upb)
    report.add("annihilation", annihilation <= MEMBER_ANNIHILATION_TOL,
               residual=annihilation, detail="max <psi|rho|psi> over members")
    if args.ppt:
        report.merge(ppt_report(rho))
    if args.separability:
        report.merge(separability_report(upb))
    print(report.table())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(serialize.dumps(serialize.density_to_obj(rho.matrix, rho.dims)))
    return 0 if report.passed else 1


def _lemma_single(path: str) -> int:
    obj = serialize.load_file(path)
    try:
        matrix = np.array(
            [[complex(p[0], p[1]) for p in row] for row in obj["matrix"]]
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise MalformedJsonError(f"bad operator file: {exc}") from exc
    result = lemma_check(matrix)
    report = VerificationReport()
    implication = (not result.constraints_hold) or result.isotropy_residual <= 1e-8
    report.add(
        "lemma-implication",
        implication,
        residual=result.isotropy_residual,
        detail=(
            f"constraints_hold={result.constraints_hold}, "
            f"isotropy residual of K†K"
        ),
    )
    print(report.table())
    return 0 if report.passed else 1


def cmd_lemma(args) -> int:
    if args.kraus:
        return _lemma_single(args.kraus)
    d = args.dim
    if d is None:
        raise PreconditionError("lemma needs --dim (or --kraus file.json)")
    if d < 1 or args.samples < 0:
        raise PreconditionError("lemma needs --dim >= 1 and --samples >= 0")
    weyl = weyl_operators(d)  # first, so an oversized --dim is refused before sampling
    rng = np.random.default_rng(args.seed)
    report = VerificationReport()

    worst_unitary = 0.0
    unitary_ok = True
    for _ in range(args.samples):
        result = lemma_check(random_scaled_unitary(d, rng))
        unitary_ok &= result.constraints_hold
        worst_unitary = max(worst_unitary, result.isotropy_residual)
    report.add(
        "scaled-unitary-family",
        unitary_ok and worst_unitary <= 1e-10,
        residual=worst_unitary,
        detail=f"{args.samples} scaled unitaries: constraints + isotropy",
    )

    db = [dft_matrix(d)[:, i] for i in range(d)]
    cb = [np.eye(d, dtype=complex)[:, i] for i in range(d)]
    weyl_ok = all(
        preserves_orthogonality(w, cb) and preserves_orthogonality(w, db)
        for w in weyl
    )
    report.add("weyl-family", weyl_ok,
               detail=f"{d * d} shift-and-phase operators preserve both bases")

    passing = 0
    implication_ok = True
    for _ in range(args.samples):
        result = lemma_check(random_gaussian_operator(d, rng))
        if result.constraints_hold:
            passing += 1
            implication_ok &= result.isotropy_residual <= 1e-8
    report.add(
        "gaussian-implication",
        implication_ok,
        residual=float(passing),
        detail=f"{passing} of {args.samples} random operators satisfied the constraints",
    )
    print(report.table())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlwe",
        description="Construct and verify control-DFT product bases, UPBs, "
        "and bound-entangled states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="emit a preset product basis as JSON")
    p_gen.add_argument("--preset", required=True)
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=cmd_generate)

    p_ver = sub.add_parser("verify", help="run checks on a basis JSON file")
    p_ver.add_argument("--in", dest="infile", required=True)
    p_ver.add_argument("--checks", help="comma list: " + ",".join(VERIFY_CHECKS))
    p_ver.add_argument("--json", help="also write the report as JSON")
    p_ver.set_defaults(func=cmd_verify)

    p_upb = sub.add_parser("upb", help="extract a UPB, or check one (upb check)")
    p_upb.add_argument("--preset")
    p_upb.add_argument("--excluded-index", dest="excluded_index",
                       help="all=<k> or comma list <party>=<k> (0-based)")
    p_upb.add_argument("--out")
    p_upb.set_defaults(func=cmd_upb)
    upb_sub = p_upb.add_subparsers(dest="upb_cmd")
    p_check = upb_sub.add_parser("check", help="unextendibility report")
    p_check.add_argument("--in", dest="infile", required=True)
    p_check.set_defaults(func=cmd_upb)

    p_be = sub.add_parser("bestate", help="complement mixture of a UPB + reports")
    p_be.add_argument("--in", dest="infile", required=True)
    p_be.add_argument("--ppt", action="store_true")
    p_be.add_argument("--separability", action="store_true")
    p_be.add_argument("--out")
    p_be.set_defaults(func=cmd_bestate)

    p_lem = sub.add_parser("lemma", help="measurement-branch lemma report")
    p_lem.add_argument("--dim", type=int)
    p_lem.add_argument("--seed", type=int, default=0)
    p_lem.add_argument("--samples", type=int, default=100)
    p_lem.add_argument("--kraus", help="JSON file with a single operator")
    p_lem.set_defaults(func=cmd_lemma)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NlweError as exc:
        print(f"error:{exc.code}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
