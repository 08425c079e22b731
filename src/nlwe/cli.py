"""Command-line surface: construction, verification, and export.

Exit status 0 means every requested check passed; 1 means at least one
check failed; 2 signals an input or precondition error, reported on stderr
as one line ``error:<code>: <message>``.

The parser holds data only and is built once per process
(``build_parser``); ``main`` runs the module's ``cmd_<command>``, looked
up by name at call time, so a replaced ``cmd_*`` attribute is the one
that runs.  ``upb check`` is handled inside ``cmd_upb``.  Files are read
and written through ``serialize``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from . import serialize
from .boundent import be_state, ppt_report, separability_report, state_report
from .circuit import check_commutation, generate_basis, require_basis_size, validate_exclusivity
from .config import tolerance
from .ensembles import local_factor_census, preset_circuit
from .errors import NlweError, PreconditionError
from .lemma import isotropy_dimension, lemma_check
from .report import VerificationReport, party_label
from .upb import extract_upb, is_unextendible, require_upb_size

VERIFY_CHECKS = ("orth", "product", "exclusivity", "commutation", "census")


def _write_or_print(pieces, path: str | None) -> None:
    """Write the str ``pieces`` in turn to ``path``, or to stdout when no
    path is given; a path that cannot be written is a precondition error."""
    if not path:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc}") from exc


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
            p, v = (int(x) for x in token.split("=", 1))
            if p in mapping:
                raise ValueError(f"party {p} named twice")
            mapping[p] = v
    except ValueError as exc:
        raise PreconditionError(
            f"bad --excluded-index {spec!r}; use all=<k> or <party>=<k>,... ({exc})"
        ) from exc
    return mapping


def cmd_generate(args) -> int:
    circuit = preset_circuit(args.preset, size=require_basis_size)
    basis = generate_basis(circuit)
    _write_or_print(serialize.basis_pieces(basis, circuit), args.out)
    return 0


def cmd_verify(args) -> int:
    basis, circuit = serialize.read_basis(args.infile)
    if args.checks:
        names = tuple(tok.strip() for tok in args.checks.split(",") if tok.strip())
        if not names:
            raise PreconditionError(f"--checks {args.checks!r} names no check")
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
        _write_or_print((serialize.dumps(report.to_obj()),), args.json)
    return 0 if report.passed else 1


def cmd_upb(args) -> int:
    if getattr(args, "upb_cmd", None) == "check":
        upb = serialize.read_upb(args.infile)
        report = is_unextendible(upb)
        print(report.checks[0].detail)
        print(report.table())
        return 0 if report.passed else 1
    if not args.preset:
        raise PreconditionError("upb extraction needs --preset")
    circuit = preset_circuit(args.preset, size=require_upb_size)
    excluded = _parse_excluded(args.excluded_index, len(circuit.dims))
    upb = extract_upb(circuit, excluded)
    _write_or_print(serialize.upb_pieces(upb), args.out)
    return 0


def cmd_bestate(args) -> int:
    upb = serialize.read_upb(args.infile)
    rho = be_state(upb)
    report = state_report(rho)
    if args.ppt:
        report.merge(ppt_report(rho))
    if args.separability:
        report.merge(separability_report(upb))
    print(report.table())
    if args.out:
        _write_or_print(serialize.density_pieces(rho.matrix, rho.dims), args.out)
    return 0 if report.passed else 1


def _lemma_single(path: str) -> int:
    result = lemma_check(serialize.operator_from_obj(serialize.load_file(path)))
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
    if d < 1:
        raise PreconditionError(f"lemma needs --dim >= 1, got {d}")
    dimension = isotropy_dimension(d)
    report = VerificationReport()
    report.add(
        "isotropy-dimension",
        dimension == 1,
        residual=float(dimension),
        detail=(
            f"dim of {{E : <i|E|j> = <Fi|E|Fj> = 0 for i != j}} at d={d}; "
            "E = K†K for any K keeping both bases orthogonal, "
            "so dim 1 certifies K†K = c*1"
        ),
    )
    print(report.table())
    return 0 if report.passed else 1


@functools.cache
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

    p_ver = sub.add_parser("verify", help="run checks on a basis JSON file")
    p_ver.add_argument("--in", dest="infile", required=True)
    p_ver.add_argument("--checks", help="comma list: " + ",".join(VERIFY_CHECKS))
    p_ver.add_argument("--json", help="also write the report as JSON")

    p_upb = sub.add_parser("upb", help="extract a UPB, or check one (upb check)")
    p_upb.add_argument("--preset")
    p_upb.add_argument("--excluded-index", dest="excluded_index",
                       help="all=<k> or comma list <party>=<k> (0-based)")
    p_upb.add_argument("--out")
    upb_sub = p_upb.add_subparsers(dest="upb_cmd")
    p_check = upb_sub.add_parser("check", help="unextendibility report")
    p_check.add_argument("--in", dest="infile", required=True)

    p_be = sub.add_parser("bestate", help="complement mixture of a UPB + reports")
    p_be.add_argument("--in", dest="infile", required=True)
    p_be.add_argument("--ppt", action="store_true")
    p_be.add_argument("--separability", action="store_true")
    p_be.add_argument("--out")

    p_lem = sub.add_parser("lemma", help="measurement-branch lemma report")
    p_lem.add_argument("--dim", type=int)
    p_lem.add_argument("--kraus", help="JSON file with a single operator")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            code = globals()["cmd_" + args.command](args)
            sys.stdout.flush()  # here, so a full or closed stdout fails inside the try
        except OSError as exc:
            # every file a command opens reports its own OSError, so this one
            # is stdout's; its unwritten text stays buffered, and the flush at
            # exit would fail again and print "Exception ignored"
            with contextlib.suppress(OSError, ValueError):  # no descriptor
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise PreconditionError(f"cannot write stdout: {exc}") from exc
        return code
    except NlweError as exc:
        print(f"error:{exc.code}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
