"""Command-line front end.

Each command takes only the flags it reads, spelled in full; spectrum and
theorem-check also reject a flag their input source does not read (--theta
outside example2, --seed outside haar, --tol without --matrix-file, --n or
--family with --matrix-file).

Exit codes are a stable contract:
  0  success
  1  usage error (a flag the command or its input does not take, an
     abbreviated flag, bad theta, a tolerance not positive and finite,
     samples < 1, ...)
  2  invariant violation / failed check
  3  input file missing or unparseable
  4  input matrix not unitary
  5  matrix has (near-)zero entries where nonzero ones are required
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import sys

import numpy as np

from .errors import (
    BerezinLabError,
    InvariantViolation,
    MatrixFileError,
    NotUnitaryError,
    ZeroEntryError,
)
from .matrices import Unitary, haar_random_unitary, load_matrix, validate_unitary
from .spectral import spectrum, standardized_matrix
from .submersion import jacobian_report, submersion_sweep
from .symbols import (
    WeightedSpace,
    berezin_from_composition,
    build_berezin,
    c_symbol_to_operator,
    d_symbol_to_operator,
)
from .symmetry import (
    check_permutation_equivariance,
    check_shift_commutation,
    check_theta,
    check_weyl_relations,
    fourier_eigenfunction_check,
    fourier_matrix,
    symmetric_family_matrix,
    verify_symmetric_family_spectrum,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_IO = 3
EXIT_NOT_UNITARY = 4
EXIT_ZERO_ENTRY = 5

THETA_HELP = "'re,im' or 'angle:<radians>'"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract reserves 2
    # for invariant violations, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def parse_theta(text: str) -> complex:
    """"angle:x" gives exp(ix) (unit modulus by construction); "re,im" is
    accepted when within 1e-8 of the unit circle and normalized onto it."""
    if text.startswith("angle:"):
        return cmath.exp(1j * float(text[len("angle:"):]))
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"theta must be 're,im' or 'angle:<radians>', got {text!r}")
    z = complex(float(parts[0]), float(parts[1]))
    if abs(abs(z) - 1.0) > 1e-8:
        raise ValueError(f"|theta| = {abs(z):.6g} is not within 1e-8 of 1")
    return z / abs(z)


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        print(text)


def _json(obj) -> str:
    return json.dumps(obj, indent=2)


# the flags each input source reads
INPUT_FLAGS = {
    "matrix-file": ("tol",),
    "fourier": ("n",),
    "example2": ("n", "theta"),
    "haar": ("n", "seed"),
}
INPUT_DEFAULTS = {"n": 3, "seed": 0, "theta": "0,1", "tol": 1e-8}


def _input_flag(args, flag):
    value = getattr(args, flag)
    return INPUT_DEFAULTS[flag] if value is None else value


def _load_input_matrix(args) -> Unitary:
    """The matrix named by --matrix-file or --family.  A flag the chosen
    source does not read is a usage error, not a value dropped unread."""
    if args.matrix_file and args.family:
        raise ValueError("give --matrix-file or --family, not both")
    source = "matrix-file" if args.matrix_file else args.family
    if source is None:
        raise ValueError("need --matrix-file or --family {fourier, example2, haar}")
    unread = [f"--{flag}" for flag in INPUT_DEFAULTS
              if getattr(args, flag) is not None
              and flag not in INPUT_FLAGS[source]]
    if unread:
        raise ValueError(f"{source} input does not take {', '.join(unread)}")
    if source == "matrix-file":
        return validate_unitary(load_matrix(args.matrix_file), tol=_input_flag(args, "tol"))
    n = _input_flag(args, "n")
    if source == "fourier":
        return fourier_matrix(n)
    if source == "example2":
        return symmetric_family_matrix(n, parse_theta(_input_flag(args, "theta")))
    return haar_random_unitary(n, _input_flag(args, "seed"))


def cmd_spectrum(args) -> int:
    summary = spectrum(build_berezin(_load_input_matrix(args)))
    try:
        summary.check()
    except ValueError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        _emit(_json(summary.to_dict()), args.output)
        return EXIT_INVARIANT

    if args.format == "csv":
        rows = ["re,im,modulus,cluster_id"]
        for z, cid in zip(summary.eigenvalues, summary.cluster_ids):
            rows.append(f"{z.real:.17g},{z.imag:.17g},{abs(z):.17g},{cid}")
        _emit("\n".join(rows), args.output)
    elif args.format == "text":
        lines = [f"n = {summary.n}", f"multiplicity of 1 = {summary.multiplicity_of_one}"]
        for rep, mult in summary.clusters:
            lines.append(f"  {rep.real:+.12f}{rep.imag:+.12f}i  x{mult}")
        _emit("\n".join(lines), args.output)
    else:
        _emit(_json(summary.to_dict()), args.output)
    return EXIT_OK


def cmd_theorem_check(args) -> int:
    u = _load_input_matrix(args)
    report = jacobian_report(u)
    _emit(_json(report.to_dict()), args.output)
    print(
        f"kernel_dim = {report.kernel_dim}, "
        f"berezin multiplicity of 1 = {report.berezin_multiplicity_of_one}, "
        f"rank = {report.rank}",
        file=sys.stderr,
    )
    return EXIT_OK if report.theorem_holds else EXIT_INVARIANT


def cmd_sweep(args) -> int:
    stream_writer = None
    stream_fh = None
    if args.per_sample:
        stream_fh = open(args.per_sample, "w", newline="")
        stream_writer = csv.writer(stream_fh)
        stream_writer.writerow(
            ["sample", "skipped", "rank", "kernel_dim", "berezin_multiplicity_of_one",
             "theorem_holds", "is_submersion"]
        )

    def on_sample(i, report):
        if stream_writer is None:
            return
        if report is None:
            stream_writer.writerow([i, 1, "", "", "", "", ""])
        else:
            stream_writer.writerow(
                [i, 0, report.rank, report.kernel_dim,
                 report.berezin_multiplicity_of_one,
                 int(report.theorem_holds), int(report.is_submersion)]
            )
        stream_fh.flush()

    try:
        report = submersion_sweep(args.n, args.samples, args.seed, on_sample=on_sample)
    finally:
        if stream_fh:
            stream_fh.close()
    _emit(_json(report.to_dict()), args.output)
    return EXIT_OK if report.theorem_violations == 0 else EXIT_INVARIANT


def _verify_checks(n, theta, tol, seed):
    """Yield (name, deviation, limit) for each check of the full property
    suite at size n; tol, if not None, replaces every check's limit."""
    rng = np.random.default_rng(seed)

    def limit(default):
        return tol if tol is not None else default

    u = haar_random_unitary(n, rng.integers(2**63))
    space = WeightedSpace.from_unitary(u)
    dev = 0.0
    cdev = 0.0
    for _ in range(10):
        f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        cf, cg = c_symbol_to_operator(u, f), c_symbol_to_operator(u, g)
        df, dg = d_symbol_to_operator(u, f), d_symbol_to_operator(u, g)
        hs_c = np.trace(cf @ cg.conj().T)
        hs_d = np.trace(df @ dg.conj().T)
        dev = max(dev, abs(hs_c - space.inner(f, g)), abs(hs_d - space.inner(f, g)))
        cdev = max(cdev, np.max(np.abs(cf.conj().T - d_symbol_to_operator(u, np.conj(f)))))
    yield "isometry", dev, limit(1e-10)
    yield "conjugation", cdev, limit(1e-12)

    w = np.abs(u.matrix).ravel()
    composed = w[:, np.newaxis] * berezin_from_composition(u) / w[np.newaxis, :]
    consistency = np.max(np.abs(standardized_matrix(build_berezin(u)) - composed))
    yield "berezin-consistency", float(consistency), limit(1e-9)

    yield "weyl", check_weyl_relations(n), limit(1e-12)
    yield "fourier-eigenfunctions", fourier_eigenfunction_check(n).max_residual, limit(1e-9)
    yield "fourier-shifts", check_shift_commutation(n, 3, rng.integers(2**63)), limit(1e-10)

    if n >= 3:
        equi = check_permutation_equivariance(n, theta, 10, rng.integers(2**63))
        yield "permutation-equivariance", equi, limit(1e-10)
        table = verify_symmetric_family_spectrum(n, theta)
        yield "spectrum-table", (0.0 if table.all_match else 1.0), 0.5


def cmd_verify_all(args) -> int:
    n = args.n
    theta = check_theta(parse_theta(args.theta))
    rows = [(name, n, dev, lim, "pass" if dev <= lim else "FAIL")
            for name, dev, lim in _verify_checks(n, theta, args.tol_override, args.seed)]

    if args.format == "json":
        _emit(_json([
            {"check": r[0], "n": r[1], "deviation": r[2], "limit": r[3], "status": r[4]}
            for r in rows
        ]), args.output)
    else:
        width = max(len(r[0]) for r in rows)
        lines = [f"{'check':<{width}}  n  max deviation   limit        status"]
        for name, n, dev, lim, status in rows:
            lines.append(f"{name:<{width}}  {n}  {dev:<14.3e}  {lim:<11.1e}  {status}")
        _emit("\n".join(lines), args.output)
    return EXIT_OK if all(r[4] == "pass" for r in rows) else EXIT_INVARIANT


def build_parser() -> _Parser:
    parser = _Parser(prog="berezin-lab", description=__doc__, allow_abbrev=False,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", default=None, help="write report here instead of stdout")
        return p

    def matrix_input(p):
        # None marks a flag not given, so _load_input_matrix can reject the
        # ones its source does not read; INPUT_DEFAULTS fills in the rest
        p.set_defaults(n=None, seed=None)
        p.add_argument("--family", choices=["fourier", "example2", "haar"], default=None)
        p.add_argument("--matrix-file", default=None)
        p.add_argument("--theta", default=None, help=f"{THETA_HELP} (example2 only)")
        p.add_argument("--tol", type=_positive_float, default=None,
                       help="unitarity tolerance of --matrix-file")

    p = command("spectrum", cmd_spectrum, "Berezin spectrum of a matrix or family")
    matrix_input(p)
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")

    p = command("theorem-check", cmd_theorem_check, "Jacobian kernel vs Berezin multiplicity")
    matrix_input(p)

    p = command("sweep", cmd_sweep, "Haar sweep of the kernel/multiplicity check")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--per-sample", default=None, help="stream per-sample CSV here")

    p = command("verify-all", cmd_verify_all, "run the full property suite")
    p.add_argument("--theta", default="0,1", help=THETA_HELP)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--tol-override", type=_positive_float, default=None,
                   help="replace every check's tolerance (diagnostic)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "samples", 1) < 1:
        parser.error("samples must be >= 1")
    if args.n is not None and args.n < 1:
        parser.error("n must be >= 1")
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MatrixFileError as exc:
        print(f"error: cannot parse input file: {exc}", file=sys.stderr)
        return EXIT_IO
    except NotUnitaryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_UNITARY
    except ZeroEntryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ZERO_ENTRY
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, BerezinLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
