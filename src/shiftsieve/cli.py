"""Command-line surface: validated dispatch to the library plus CSV/JSON
report emission.

Exit codes: 0 success, 1 validation or usage error (a non-finite number
included), a numerical failure or a table too large for memory, 2 a
mathematical property that must always hold was found violated (e.g. a
sieve instance with brute-force count above the large-sieve bound).
Output is a pure function of the arguments, seed included, down to the
byte.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import decimal
import functools
import json
import math
import os
import random
import stat
import sys
from typing import IO, Iterator, Sequence

import numpy as np

from . import arith, equidist, largesieve, qexpansion, shifted, specfun

__all__ = [
    "main",
    "entry",
    "UsageError",
    "WWEIGHT_ROWS_MAX",
    "SIEVECHECK_COUNT_MAX",
    "SHIFTED_LIMIT_MAX",
    "CUTOFF_MAX",
    "AELL_ELL_MAX",
    "THETA_RE_MAX",
    "THETA_IM_MAX",
    "GAMMARATIO_K_MAX",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

# Rows `specfun wweight` writes at most, over all its (k, Y) pairs: at about
# 70 us and 70 bytes a row (2-core x86 machine), 7 s and 7 MB of CSV.
WWEIGHT_ROWS_MAX = 100_000

# Instances `sievecheck` draws at most: at about 0.23 ms and 650 bytes of
# rows held a row (2-core x86 machine), 12 s and 33 MB.
SIEVECHECK_COUNT_MAX = 50_000

# Largest table `shifted` builds, x + |ell|, per coefficient source: a
# budget of 1 GiB over the peak bytes per table entry.  --function holds
# about 50 (the float handle, its int64 build, the smooth-part table;
# 228 MB at x = 4e6) and --weight up to about 1000 (the exact q-expansion
# and its products; 112 MB at x = 1e5 for weight 26), measured on a 2-core
# x86 machine with CPython integers.
SHIFTED_LIMIT_MAX = {"function": (1 << 30) // 50, "weight": (1 << 30) // 1000}

# Largest `eigenform` and `mk` --cutoff: the q-expansion budget of `shifted
# --weight`, 1 GiB over about 1000 bytes per entry.
CUTOFF_MAX = SHIFTED_LIMIT_MAX["weight"]

# Largest |ell| `specfun aell` takes: its bound_ratio's tau(|ell|) and the
# spectral divisor sum factor |ell| by trial division up to PRIME_TABLE_MAX.
AELL_ELL_MAX = arith.PRIME_TABLE_MAX**2

# Largest |Re s| `specfun theta` takes: theta(s) = pi^{-s} Gamma(s) zeta(2s)
# leaves the float range near Re s = 219, and, as theta(s) = theta(1/2 - s),
# near Re s = -219 on the other side.
THETA_RE_MAX = 200

# Largest |Im s| `specfun theta` takes: zeta sums 1.6 |Im s| + 20 terms of
# zeta(2s) directly, about 100 bytes per unit of |Im s| at peak, so a budget
# of 1 GiB (2-core x86 machine: 90 MB and 0.3 s at |Im s| = 1e6, 835 MB and
# about 6 s a point at the cap).
THETA_IM_MAX = (1 << 30) // 100

# Largest `specfun gammaratio` --k: past 2^53 the float k - 1 that the
# log-gamma route takes is no longer exact.
GAMMARATIO_K_MAX = 2**53


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for violations
        raise UsageError(message)


def _int_text(n: int) -> str:
    """n in full below 18 digits, else as 1.234e+56: a number of hundreds
    of digits must not fill the one line of an error."""
    return str(n) if abs(n) < 10**18 else f"{decimal.Decimal(n):.3e}"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


@contextlib.contextmanager
def atomic_open(path: str) -> Iterator[IO[bytes]]:
    """Open path for binary writing, as open(path, "wb") would.

    A new file, or a regular file with one link in a directory that takes new
    files, is written to a temporary file next to it and renamed over it once
    the block ends, so path holds either its old bytes or all the new ones; on
    an exception the temporary file is removed.  Anything else (a device, a
    FIFO, /dev/stdout, a hard-linked or read-only file) is written in place.
    A symlink at path is written through, and the file ends up with the
    permissions open would give it.
    """
    target = os.path.realpath(path) if os.path.islink(path) else path
    directory = os.path.dirname(target) or "."
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not (
        stat.S_ISREG(st.st_mode)
        and st.st_nlink == 1
        and os.access(target, os.W_OK)
        and os.access(directory, os.W_OK)
    ):
        with open(path, "wb") as fh:
            yield fh
        return
    tmp = os.path.join(directory, f".{os.path.basename(target)}.{os.urandom(8).hex()}")
    try:  # the kernel applies the umask to 0o666, as open does
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the path asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            if st is not None:
                os.fchmod(fd, stat.S_IMODE(st.st_mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_rows(args: argparse.Namespace, header: list[str], rows: list[list]) -> None:
    if args.format == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "command": args.command,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        text = json.dumps(payload, sort_keys=True, default=_fmt) + "\n"
    with atomic_open(args.out) as handle:
        handle.write(text.encode())


# ---------------------------------------------------------------------------
# option types: each rejects what the library must never see

def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite value {text!r}")
    return value


def _values(text: str, convert) -> list:
    """The comma-separated items of text through convert, blank items
    skipped; an empty, malformed or non-finite list is a usage error."""
    try:
        values = [convert(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad {convert.__name__} list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty list {text!r}")
    if not all(isinstance(v, int) or cmath.isfinite(v) for v in values):  # an int may pass 1e308
        raise argparse.ArgumentTypeError(f"non-finite value in {text!r}")
    return values


def _floats(text: str) -> list[float]:
    return _values(text, float)


def _ints(text: str) -> list[int]:
    return _values(text, int)


def _complexes(text: str) -> list[complex]:
    return _values(text, complex)


# ---------------------------------------------------------------------------
# command implementations

def _check_cutoff(cutoff: int) -> None:
    if cutoff > CUTOFF_MAX:
        raise UsageError(f"--cutoff {_int_text(cutoff)} is above the cap of {CUTOFF_MAX}")


def _run_eigenform(args: argparse.Namespace) -> int:
    if args.cutoff < 1:
        raise UsageError("cutoff must be >= 1")
    _check_cutoff(args.cutoff)
    form = qexpansion.eigenform(args.weight, args.cutoff)
    coeffs = form.qexp.coeffs
    lam = form.eigenvalue_array(args.cutoff).tolist()
    rows = [[n, str(coeffs[n]), lam[n]] for n in range(1, args.cutoff + 1)]
    _write_rows(args, ["n", "a_f", "lambda"], rows)
    return EXIT_OK


def _run_shifted(args: argparse.Namespace) -> int:
    x, ell, epsilon = args.x, args.ell, args.epsilon
    if ell == 0 or abs(ell) > x:
        raise UsageError("need 0 < |ell| <= x")
    if not 0 < epsilon < 1:
        raise UsageError("epsilon must lie in (0, 1)")
    limit = int(x) + abs(ell)
    source = "function" if args.weight is None else "weight"
    if limit > SHIFTED_LIMIT_MAX[source]:
        raise UsageError(
            f"--x {x:g} --ell {ell} need tables to {limit}, above the --{source} "
            f"cap of {SHIFTED_LIMIT_MAX[source]}"
        )
    if args.weight is not None:
        handle = shifted.eigenform_handle(qexpansion.eigenform(args.weight, limit))
    elif args.function == "one":
        handle = shifted.unit_handle(limit)
    else:
        handle = shifted.tau_handle(int(args.function[3:]), limit)
    report = shifted.theorem2_report(handle, handle, x, epsilon, ell)
    header = ["x", "ell", "epsilon", "s_total", "s_big", "s_small", "m_of_x", "rhs", "ratio"]
    row = [
        report.x, report.ell, report.epsilon, report.s_total, report.s_big,
        report.s_small, report.m_of_x, report.rhs, report.ratio,
    ]
    _write_rows(args, header, [row])
    identity_gap = abs(report.s_small + report.s_big - report.overlap - report.s_total)
    if identity_gap > 1e-9 * max(report.s_total, 1.0):
        return EXIT_VIOLATION
    return EXIT_OK


def _run_sievecheck(args: argparse.Namespace) -> int:
    if not 1 <= args.count <= SIEVECHECK_COUNT_MAX:
        raise UsageError(f"--count must lie in 1..{SIEVECHECK_COUNT_MAX}, got {args.count}")
    rng = random.Random(args.seed)
    header = ["index", "a", "a_ell", "w", "v", "z", "x", "Q", "N", "brute", "bound", "holds"]
    rows = []
    violated = False
    for i in range(args.count):
        sys_i, q = largesieve.random_admissible_system(rng)
        brute = largesieve.sift_bruteforce(sys_i)
        bound = largesieve.ls_bound(sys_i, q)
        holds = brute <= bound
        violated = violated or not holds
        rows.append([
            i, sys_i.a, sys_i.a_ell, sys_i.w, sys_i.v, sys_i.z, sys_i.x,
            q, sys_i.n_range, brute, bound, holds,
        ])
    _write_rows(args, header, rows)
    return EXIT_VIOLATION if violated else EXIT_OK


def _run_mk(args: argparse.Namespace) -> int:
    if args.cutoff < args.weight:
        raise UsageError("cutoff must reach the weight")
    _check_cutoff(args.cutoff)
    form = qexpansion.eigenform(args.weight, args.cutoff)
    report = equidist.corollary3_report(form, args.cutoff)
    header = [
        "weight", "cutoff", "L_sym2", "gap", "M_k", "sqrt_M_k", "Y_star", "ems_lhs", "ems_rhs",
    ]
    row = [
        report.weight, report.cutoff, report.l_sym2, report.l_sym2_gap, report.m_k,
        report.sqrt_m_k, report.y_star, report.ems_lhs, report.ems_rhs,
    ]
    _write_rows(args, header, [row])
    return EXIT_OK


def _checked_ratio(args: argparse.Namespace, ratio, point: str) -> float:
    """ratio(--A, --eps); a nan there is a usage error naming the point if the default
    exponents fail there too, else --A if it fails at the default --eps, else --eps."""
    result = ratio(args.A, args.eps)
    if not math.isnan(result):
        return result
    a_default, eps_default = args.exponent_defaults
    if math.isnan(ratio(a_default, eps_default)):
        fault = point
    elif math.isnan(ratio(args.A, eps_default)):
        fault = f"--A {args.A}"
    else:
        fault = f"--eps {args.eps}"
    raise UsageError(f"{fault} puts bound_ratio outside the float range")


def _run_bessel(args: argparse.Namespace) -> int:
    rows = []
    for t in args.t:
        for w in args.w:
            check = functools.partial(specfun.bessel_bound_check, t, w)
            ratio = _checked_ratio(args, lambda a, e: check(A=a, eps=e).ratio, f"--w {w}")
            rows.append([t, w, specfun.bessel_k_it(t, w), ratio])
    _write_rows(args, ["t", "w", "value", "bound_ratio"], rows)
    return EXIT_OK


def _run_theta(args: argparse.Namespace) -> int:
    for option, values, cap in (("--re", args.re, THETA_RE_MAX), ("--im", args.im, THETA_IM_MAX)):
        for value in values:
            if abs(value) > cap:
                raise UsageError(f"{option} {value:g} is above the cap of {cap} in absolute value")
    rows = []
    for re in args.re:
        for im in args.im:
            s = complex(re, im)
            th = specfun.theta_s(s)
            rows.append([re, im, th.real, th.imag, abs(specfun.varphi_s(s))])
    _write_rows(args, ["re", "im", "theta_re", "theta_im", "abs_phi"], rows)
    return EXIT_OK


def _run_wweight(args: argparse.Namespace) -> int:
    ell = args.ell
    if abs(ell) > sys.float_info.max:  # ell / 2 below would overflow
        raise UsageError(f"--ell {_int_text(ell)} is past the float range")
    ranges = []  # (k, Y, n_lo, n_hi) around each peak, counted before any work
    for k in args.k:
        for y_val in args.Y:
            try:
                scale = y_val * (k - 1) / (4.0 * math.pi)
            except OverflowError:  # k itself past the float range
                scale = math.inf
            if not math.isfinite(scale):
                raise UsageError(f"--k {_int_text(k)} --Y {y_val} put the W peak past the "
                                 f"float range, far above the cap of {WWEIGHT_ROWS_MAX} rows")
            n_lo = max(1, 1 - ell, int(scale / 2 - ell / 2) - 1)
            ranges.append((k, y_val, n_lo, int(scale - ell / 2) + 2))
    count = sum(max(0, n_hi - n_lo + 1) for _, _, n_lo, n_hi in ranges)
    if count > WWEIGHT_ROWS_MAX:
        # a finite peak can still give a count of hundreds of digits
        raise UsageError(f"--k and --Y would make wweight write {_int_text(count)} rows, "
                         f"above the cap of {WWEIGHT_ROWS_MAX}")
    rows = []
    for k, y_val, n_lo, n_hi in ranges:
        for n in range(n_lo, n_hi + 1):
            wv = specfun.w_weight(n, ell, y_val, k)
            main, env = specfun.w_main_term(n, ell, y_val, k)
            rows.append([k, y_val, n, wv, main, env])
    _write_rows(args, ["k", "Y", "n", "w_weight", "main_term", "envelope"], rows)
    return EXIT_OK


def _run_gammaratio(args: argparse.Namespace) -> int:
    for k in args.k:
        if k > GAMMARATIO_K_MAX:
            raise UsageError(f"--k {_int_text(k)} is above the cap of {GAMMARATIO_K_MAX}")
    rows = []
    for k in args.k:
        for s in args.s:
            try:
                chk = specfun.gamma_ratio_check(k, s)
            except OverflowError:
                raise UsageError(f"--s {s} at --k {k} puts the Gamma ratio outside "
                                 f"the float range") from None
            rows.append([k, s.real, s.imag, chk.error, chk.normalized])
    _write_rows(args, ["k", "s_re", "s_im", "error", "normalized"], rows)
    return EXIT_OK


def _run_aell(args: argparse.Namespace) -> int:
    for ell in args.ell:
        if abs(ell) > AELL_ELL_MAX:
            raise UsageError(f"--ell {_int_text(ell)} is above the cap of {AELL_ELL_MAX}")
    for ell in args.ell:
        for y_val in args.y:
            if ell:  # a_ell_y refuses ell = 0 itself
                try:
                    specfun.check_aell_w(ell, y_val)
                except ValueError as exc:
                    raise UsageError(f"--y {y_val} at --ell {ell}: {exc}") from None
    mellin = specfun.MellinTransform()
    rows = []
    for ell in args.ell:
        for y_val in args.y:
            val = specfun.a_ell_y(mellin, ell, y_val, tol=1e-6).real
            ratio = functools.partial(
                specfun.bound_ratio, val, arith.tau(abs(ell)) * math.sqrt(y_val), 1.0 / (abs(ell) * y_val)
            )
            rows.append([ell, y_val, val, _checked_ratio(args, ratio, f"--y {y_val}")])
    _write_rows(args, ["ell", "y", "value", "bound_ratio"], rows)
    return EXIT_OK


def _command(group, name: str, run, help: str) -> _Parser:
    """A subparser that runs `run` and writes its rows to --out."""
    parser = group.add_parser(name, help=help)
    parser.set_defaults(run=run)
    output = parser.add_argument_group("output")
    output.add_argument("--out", required=True, help="file to write")
    output.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


def _bound_exponents(parser: _Parser, a_exp: int, eps: float) -> None:
    """--A and --eps, the exponents of the bound that bound_ratio divides by."""
    parser.add_argument("--A", type=int, default=a_exp, help="(default %(default)s)")
    parser.add_argument("--eps", type=_finite, default=eps, help="(default %(default)s)")
    parser.set_defaults(exponent_defaults=(a_exp, eps))  # for _checked_ratio's fault


@functools.cache
def build_parser() -> _Parser:
    """The whole command line, built once per process: building the nine
    subparsers costs more than parsing a small job's arguments."""
    parser = _Parser(prog="shiftsieve", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    weights = qexpansion.SUPPORTED_EIGEN_WEIGHTS

    p = _command(commands, "eigenform", _run_eigenform, "dump n, a_f(n), lambda(n)")
    p.add_argument("--weight", type=int, choices=weights, required=True)
    p.add_argument("--cutoff", type=int, required=True)

    p = _command(commands, "shifted", _run_shifted, "shifted convolution sum report")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--weight", type=int, choices=weights)
    source.add_argument("--function", choices=["one"] + [f"tau{m}" for m in range(1, 7)])
    p.add_argument("--x", type=_finite, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)

    p = _command(commands, "sievecheck", _run_sievecheck, "random large-sieve instances")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = _command(commands, "mk", _run_mk, "M_k(f) / symmetric-square report")
    p.add_argument("--weight", type=int, choices=weights, required=True)
    p.add_argument("--cutoff", type=int, required=True)

    verbs = commands.add_parser("specfun", help="special-function CSV grids").add_subparsers(
        dest="verb", required=True)

    p = _command(verbs, "bessel", _run_bessel, "K_it(w) over a (t, w) grid")
    p.add_argument("--t", type=_floats, required=True)
    p.add_argument("--w", type=_floats, required=True)
    _bound_exponents(p, 0, 0.0)

    p = _command(verbs, "theta", _run_theta, "theta(s) and |varphi(s)| over a grid")
    p.add_argument("--re", type=_floats, required=True)
    p.add_argument("--im", type=_floats, required=True)

    p = _command(verbs, "wweight", _run_wweight, "W(n, ell; Y) around its peak")
    p.add_argument("--k", type=_ints, required=True)
    p.add_argument("--Y", type=_floats, required=True)
    p.add_argument("--ell", type=int, required=True)

    p = _command(verbs, "gammaratio", _run_gammaratio, "the Stirling ratio check")
    p.add_argument("--k", type=_ints, required=True)
    p.add_argument("--s", type=_complexes, required=True)

    p = _command(verbs, "aell", _run_aell, "Eisenstein coefficients a_ell(y)")
    p.add_argument("--ell", type=_ints, required=True)
    p.add_argument("--y", type=_floats, required=True)
    _bound_exponents(p, 4, 0.1)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # a numpy overflow, division by zero or invalid operation is an error,
        # never a value written beside a warning; underflow to 0 is relied on
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.run(args)
    except (ValueError, ArithmeticError) as exc:  # Usage-, Tolerance-, Overflow-, FloatingPointError
        print(f"error: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
    except MemoryError as exc:  # a table too large for this machine
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
    return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
