"""Command-line front end.

Each command takes only the flags it reads, spelled in full; spectrum and
theorem-check also reject a flag their input source does not read (--theta
outside example2, --seed outside haar, --tol without --matrix-file, --n or
--family with --matrix-file).

Exit codes are a stable contract, each raised as the exception type named:
  0  success
  1  ValueError: usage error (a flag the command or its input does not
     take, an abbreviated flag, bad theta, a tolerance not positive and
     finite, samples < 1, an n past the size cap, ...)
  2  InvariantViolation: invariant violation / failed check; also
     np.linalg.LinAlgError, a linear-algebra solver that did not converge
  3  MatrixFileError: input file unparseable; also OSError, input file
     missing or unreadable
  4  NotUnitaryError: input matrix not unitary
  5  ZeroEntryError: matrix has (near-)zero entries where nonzero ones
     are required
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from .matrices import (
    MatrixFileError,
    NotUnitaryError,
    Unitary,
    ZeroEntryError,
    haar_random_unitary,
    load_matrix,
    validate_unitary,
)
from .spectral import InvariantViolation, spectrum, standardized_matrix
from .submersion import (
    SAMPLE_BYTES_PER_N4,
    JacobianReport,
    check_sweep_args,
    jacobian_report,
    submersion_sweep,
)
from .symbols import (
    WeightedSpace,
    berezin_from_composition,
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

# Each command is charged its peak of numpy arrays in bytes per n^4, as
# tracemalloc measures it at n = 12 to 20 (the multiple falls as n grows):
# spectrum, 44 n^4, holds S, the buffer of the pencil it solves and its
# eigenvectors, then a copy of Y and Y Q in place of the buffer (40 n^4);
# theorem-check and a sweep, 44 n^4, charge one ranked sample,
# SAMPLE_BYTES_PER_N4, which peaks with spectrum where its pencil does not
# count 2n - 1; verify-all, 64 n^4, peaks at the berezin-consistency
# row, where S stands beside the composed Berezin matrix and their
# difference (56 to 57 n^4), and frees the composed matrix before the later
# rows.  LAPACK's own copy of the matrix it works on, up to 8 n^4 more, is
# not counted.  A sweep chunk holds several samples only while they fit
# 8 MiB, and past n = 17 it holds one.  An n whose charge passes the cap
# (n above 70, 70 and 64 respectively) is refused before anything of that
# size is built.  keep_freed_pages changes where arrays live, not what
# tracemalloc charges for them.
STACK_BYTES_PER_N4 = {"spectrum": 44, "theorem-check": SAMPLE_BYTES_PER_N4,
                      "sweep": SAMPLE_BYTES_PER_N4, "verify-all": 64}
MAX_STACK_BYTES = 2**30


def _require_size(command: str, n: int) -> None:
    charge = STACK_BYTES_PER_N4[command] * n**4
    if charge > MAX_STACK_BYTES:
        raise ValueError(f"n = {n} needs stacks of {charge} bytes, "
                         f"more than the cap of {MAX_STACK_BYTES}")


# glibc's mallopt parameters, and the mmap threshold it pins: the ceiling of
# glibc's own dynamic threshold on 64-bit
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 * 2**20


@functools.cache
def keep_freed_pages() -> bool:
    """Once per process, on glibc only: pin malloc's mmap threshold at
    32 MiB and its trim threshold at twice that (glibc's own rule), so that
    arrays under 32 MiB come from the heap and up to 64 MiB of freed heap
    stays in the process.  The next command then reuses those pages instead
    of having the kernel zero fresh ones for its n^4 arrays.  Returns
    whether both thresholds were set."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # the mmap threshold first: setting the trim threshold alone would also
    # pin the mmap threshold, at glibc's 128 KiB default
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) != 1:
        return False
    return mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD_BYTES) == 1


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
    """"angle:x" gives exp(ix), x finite; "re,im" is accepted when within
    1e-8 of the unit circle and normalized onto it."""
    if text.startswith("angle:"):
        x = float(text[len("angle:"):])
        if not math.isfinite(x):
            raise ValueError(f"theta angle must be finite, got {text!r}")
        return complex(math.cos(x), math.sin(x))
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"theta must be 're,im' or 'angle:<radians>', got {text!r}")
    z = complex(float(parts[0]), float(parts[1]))
    if not abs(abs(z) - 1.0) <= 1e-8:  # also rejects nan
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


def _check_seed(seed: int) -> int:
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return seed


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
        m = load_matrix(args.matrix_file)
        _require_size(args.command, len(m))
        validate_unitary(m, tol=_input_flag(args, "tol"))
        # rank the nearest unitary, the polar factor: a unitarity defect of
        # up to --tol would move the Jacobian's n - 1 zero right-phase
        # singular values and S's eigenvalues at 1 by about as much, up to
        # the rank threshold
        w, _, vh = np.linalg.svd(m)
        return validate_unitary(w @ vh)
    n = _input_flag(args, "n")
    if source == "fourier":
        return fourier_matrix(n)
    if source == "example2":
        return symmetric_family_matrix(n, parse_theta(_input_flag(args, "theta")))
    return haar_random_unitary(n, _check_seed(_input_flag(args, "seed")))


def cmd_spectrum(args) -> int:
    summary = spectrum(_load_input_matrix(args))
    try:
        summary.check()
    except InvariantViolation as exc:
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
            # + 0.0 turns a part that rounds to -0 into +0
            re_part, im_part = (round(x, 12) + 0.0 for x in (rep.real, rep.imag))
            lines.append(f"  {re_part:+.12f}{im_part:+.12f}i  x{mult}")
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
    check_sweep_args(args.n, args.samples, args.seed)  # before the per-sample file is truncated
    # the per-sample columns: JacobianReport's fields between n and singular_values
    columns = [field.name for field in dataclasses.fields(JacobianReport)][1:-1]
    stream_writer = None
    stream_fh = None
    if args.per_sample:
        stream_fh = open(args.per_sample, "w", newline="")
        stream_writer = csv.writer(stream_fh)
        stream_writer.writerow(["sample", "skipped", *columns])

    def on_chunk(chunk):
        if stream_writer is None:
            return
        for i, report in chunk:
            if report is None:
                stream_writer.writerow([i, 1, *[""] * len(columns)])
            else:
                stream_writer.writerow([i, 0, *(int(getattr(report, c)) for c in columns)])
        stream_fh.flush()

    try:
        report = submersion_sweep(args.n, args.samples, args.seed, on_chunk=on_chunk)
    finally:
        if stream_fh:
            stream_fh.close()
    _emit(_json(report.to_dict()), args.output)
    return EXIT_OK if report.theorem_violations == 0 else EXIT_INVARIANT


def _verify_checks(n, theta, tol, seed):
    """Yield (name, deviation, limit) for each check of the full property
    suite at size n; tol, if not None, replaces the limit of every check
    but the yes/no spectrum-table row, whose limit stays 0.5."""
    rng = np.random.default_rng(_check_seed(seed))

    def limit(default):
        return tol if tol is not None else default

    u = haar_random_unitary(n, rng.integers(2**63))
    space = WeightedSpace.from_unitary(u)
    # 10 trials of (re f, im f, re g, im g), the draws of taking each part
    # in turn; fg[t] is the pair (f, g) of trial t
    z = rng.standard_normal((10, 4, n, n))
    fg = z[:, 0::2] + 1j * z[:, 1::2]
    c, d = c_symbol_to_operator(u, fg), d_symbol_to_operator(u, fg)
    inner = space.inner(fg[:, 0], fg[:, 1])
    # <A, B>_HS = trace(A B*) = sum of A o conj(B)
    hs_c = np.sum(c[:, 0] * c[:, 1].conj(), axis=(-2, -1))
    hs_d = np.sum(d[:, 0] * d[:, 1].conj(), axis=(-2, -1))
    dev = np.max(np.abs(np.concatenate([hs_c - inner, hs_d - inner])))
    cf_star = np.swapaxes(c[:, 0].conj(), -1, -2)
    cdev = np.max(np.abs(cf_star - d_symbol_to_operator(u, fg[:, 0].conj())))
    yield "isometry", float(dev), limit(1e-10)
    yield "conjugation", float(cdev), limit(1e-12)

    w = np.abs(u.matrix).ravel()
    # the composed matrix (16 n^4 bytes) has no name, so it is freed before
    # this generator runs the later rows
    consistency = np.max(np.abs(w[:, np.newaxis] * berezin_from_composition(u) / w[np.newaxis, :]
                                - standardized_matrix(u.matrix)))
    yield "berezin-consistency", float(consistency), limit(1e-9)

    yield "weyl", check_weyl_relations(n), limit(1e-12)
    yield "fourier-eigenfunctions", fourier_eigenfunction_check(n), limit(1e-9)
    yield "fourier-shifts", check_shift_commutation(n, 3, rng.integers(2**63)), limit(1e-10)

    if n >= 3:
        equi = check_permutation_equivariance(n, theta, 10, rng.integers(2**63))
        yield "permutation-equivariance", equi, limit(1e-10)
        yield "spectrum-table", (0.0 if verify_symmetric_family_spectrum(n, theta) else 1.0), 0.5


def cmd_verify_all(args) -> int:
    n = args.n
    theta = check_theta(parse_theta(args.theta))
    rows = [{"check": name, "n": n, "deviation": dev, "limit": lim,
             "status": "pass" if dev <= lim else "FAIL"}
            for name, dev, lim in _verify_checks(n, theta, args.tol_override, args.seed)]

    if args.format == "json":
        _emit(_json(rows), args.output)
    else:
        width, n_width = max(len(r["check"]) for r in rows), len(str(n))
        lines = [f"{'check':<{width}}  {'n':<{n_width}}  max deviation   limit        status"]
        for r in rows:
            lines.append(f"{r['check']:<{width}}  {r['n']:<{n_width}}  {r['deviation']:<14.3e}  "
                         f"{r['limit']:<11.1e}  {r['status']}")
        _emit("\n".join(lines), args.output)
    return EXIT_OK if all(r["status"] == "pass" for r in rows) else EXIT_INVARIANT


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once per process.  Each command is dispatched by
    the name of its cmd_* function, looked up when it runs, so a function
    rebound in this module after the first call is the one called."""
    parser = _Parser(prog="berezin-lab", description=__doc__, allow_abbrev=False,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(func=func.__name__)
        p.add_argument("--n", type=int, default=INPUT_DEFAULTS["n"])
        p.add_argument("--seed", type=int, default=INPUT_DEFAULTS["seed"])
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
    p.add_argument("--theta", default=INPUT_DEFAULTS["theta"], help=THETA_HELP)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--tol-override", type=_positive_float, default=None,
                   help="replace the tolerance of every check but the yes/no "
                        "spectrum-table row (diagnostic)")
    return parser


def main(argv=None) -> int:
    keep_freed_pages()
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "samples", 1) < 1:
        parser.error("samples must be >= 1")
    if args.n is not None and args.n < 1:
        parser.error("n must be >= 1")
    try:
        if args.n is not None:
            _require_size(args.command, args.n)
        return globals()[args.func](args)
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
    except np.linalg.LinAlgError as exc:  # a ValueError, but no usage error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
