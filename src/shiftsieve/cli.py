"""Command-line surface: validated dispatch to the library plus CSV/JSON
report emission.

Exit codes: 0 success, 1 validation or usage error (a non-finite number
included), a numerical failure or a table too large for memory, 2 a
mathematical property that must always hold was found violated (e.g. a
sieve instance with brute-force count above the large-sieve bound).
Output is a pure function of the run configuration, seed included, down
to the byte.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass
from typing import Sequence

from . import arith, equidist, largesieve, qexpansion, shifted, specfun

__all__ = ["main", "entry", "RunConfig", "UsageError"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for violations
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; equal configs produce identical bytes."""

    command: str
    params: tuple[tuple[str, object], ...]
    seed: int | None
    out: str
    fmt: str

    def get(self, key, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


def _write_rows(cfg: RunConfig, header: list[str], rows: list[list]) -> None:
    if cfg.fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "command": cfg.command,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        text = json.dumps(payload, sort_keys=True, default=_fmt) + "\n"
    with arith.atomic_open(cfg.out) as handle:
        handle.write(text.encode())


def _floats(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad numeric list {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"non-finite value in {text!r}")
    return values


def _ints(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}") from exc


# ---------------------------------------------------------------------------
# command implementations

def _run_eigenform(cfg: RunConfig) -> int:
    weight = cfg.get("weight")
    cutoff = cfg.get("cutoff")
    form = qexpansion.eigenform(weight, cutoff)
    header = ["n", "a_f", "lambda"]
    rows = [[n, str(form.a(n)), form.eigenvalue(n)] for n in range(1, cutoff + 1)]
    _write_rows(cfg, header, rows)
    return EXIT_OK


def _make_handle(cfg: RunConfig, limit: int) -> shifted.CoefficientHandle:
    weight = cfg.get("weight")
    function = cfg.get("function")
    if (weight is None) == (function is None):
        raise UsageError("pass exactly one of --weight or --function")
    if weight is not None:
        form = qexpansion.eigenform(weight, limit)
        return shifted.eigenform_handle(form)
    if function == "one":
        return shifted.unit_handle(limit)
    if function.startswith("tau"):
        try:
            m = int(function[3:])
        except ValueError:
            raise UsageError(f"unknown function {function!r}")
        if not 1 <= m <= 6:
            raise UsageError("tau order must be in 1..6")
        return shifted.tau_handle(m, limit)
    raise UsageError(f"unknown function {function!r}")


def _run_shifted(cfg: RunConfig) -> int:
    x = cfg.get("x")
    ell = cfg.get("ell")
    epsilon = cfg.get("epsilon")
    if ell == 0 or abs(ell) > x:
        raise UsageError("need 0 < |ell| <= x")
    if not 0 < epsilon < 1:
        raise UsageError("epsilon must lie in (0, 1)")
    handle = _make_handle(cfg, int(x) + abs(ell))
    report = shifted.theorem2_report(handle, handle, x, epsilon, ell)
    _write_rows(cfg, shifted.report_csv_header(), [shifted.report_csv_row(report)])
    identity_gap = abs(report.s_small + report.s_big - report.overlap - report.s_total)
    if identity_gap > 1e-9 * max(report.s_total, 1.0):
        return EXIT_VIOLATION
    return EXIT_OK


def _run_sievecheck(cfg: RunConfig) -> int:
    count = cfg.get("count")
    seed = cfg.seed if cfg.seed is not None else 0
    rng = random.Random(seed)
    header = ["index", "a", "a_ell", "w", "v", "z", "x", "Q", "N", "brute", "bound", "holds"]
    rows = []
    violated = False
    for i in range(count):
        sys_i, q = largesieve.random_admissible_system(rng)
        brute = largesieve.sift_bruteforce(sys_i)
        bound = largesieve.ls_bound(sys_i, q)
        holds = brute <= bound
        violated = violated or not holds
        rows.append([
            i, sys_i.a, sys_i.a_ell, sys_i.w, sys_i.v, sys_i.z, sys_i.x,
            q, sys_i.n_range, brute, bound, holds,
        ])
    _write_rows(cfg, header, rows)
    return EXIT_VIOLATION if violated else EXIT_OK


def _run_mk(cfg: RunConfig) -> int:
    weight = cfg.get("weight")
    cutoff = cfg.get("cutoff")
    form = qexpansion.eigenform(weight, cutoff)
    report = equidist.corollary3_report(form, cutoff)
    _write_rows(
        cfg,
        equidist.corollary3_csv_header(),
        [equidist.corollary3_csv_row(report)],
    )
    return EXIT_OK


def _run_specfun(cfg: RunConfig) -> int:
    verb = cfg.get("verb")
    if verb == "bessel":
        ts = cfg.get("t")
        ws = cfg.get("w")
        if not ts or not ws:
            raise UsageError("bessel grid needs --t and --w lists")
        a_exp = cfg.get("A", 0)
        eps = cfg.get("eps", 0.0)
        header = ["t", "w", "value", "bound_ratio"]
        rows = []
        for t in ts:
            for w in ws:
                check = specfun.bessel_bound_check(t, w, A=a_exp, eps=eps)
                rows.append([t, w, specfun.bessel_k_it(t, w), check.ratio])
    elif verb == "theta":
        res = cfg.get("re")
        ims = cfg.get("im")
        if not res or not ims:
            raise UsageError("theta grid needs --re and --im lists")
        header = ["re", "im", "theta_re", "theta_im", "abs_phi"]
        rows = []
        for re in res:
            for im in ims:
                s = complex(re, im)
                th = specfun.theta_s(s)
                rows.append([re, im, th.real, th.imag, abs(specfun.varphi_s(s))])
    elif verb == "wweight":
        ks = cfg.get("k")
        y_list = cfg.get("Y")
        ell = cfg.get("ell")
        if not ks or not y_list or ell is None:
            raise UsageError("wweight grid needs --k, --Y and --ell")
        header = ["k", "Y", "n", "w_weight", "main_term", "envelope"]
        rows = []
        for k in ks:
            for y_val in y_list:
                scale = y_val * (k - 1) / (4.0 * math.pi)
                n_lo = max(1, 1 - ell, int(scale / 2 - ell / 2) - 1)
                n_hi = int(scale - ell / 2) + 2
                for n in range(n_lo, n_hi + 1):
                    wv = specfun.w_weight(n, ell, y_val, k)
                    main, env = specfun.w_main_term(n, ell, y_val, k)
                    rows.append([k, y_val, n, wv, main, env])
    elif verb == "gammaratio":
        ks = cfg.get("k")
        ss = cfg.get("s")
        if not ks or not ss:
            raise UsageError("gammaratio grid needs --k and --s lists")
        header = ["k", "s_re", "s_im", "error", "normalized"]
        rows = []
        for k in ks:
            for s_txt in ss:
                try:
                    s = complex(s_txt)
                except ValueError:
                    raise UsageError(f"bad complex value {s_txt!r}")
                chk = specfun.gamma_ratio_check(k, s)
                rows.append([k, s.real, s.imag, chk.error, chk.normalized])
    elif verb == "aell":
        ells = cfg.get("ell_list")
        ys = cfg.get("y")
        if not ells or not ys:
            raise UsageError("aell grid needs --ell and --y lists")
        a_exp = cfg.get("A", 4)
        eps = cfg.get("eps", 0.1)
        mellin = specfun.MellinTransform()
        header = ["ell", "y", "value", "bound_ratio"]
        rows = []
        for ell in ells:
            for y_val in ys:
                val = specfun.a_ell_y(mellin, ell, y_val, tol=1e-6).real
                scale = 1.0 / (abs(ell) * y_val)
                denom = (
                    arith.tau(abs(ell))
                    * math.sqrt(y_val)
                    * scale**a_exp
                    * (1.0 + scale) ** eps
                )
                rows.append([ell, y_val, val, abs(val) / denom])
    else:
        raise UsageError(f"unknown specfun verb {verb!r}")
    _write_rows(cfg, header, rows)
    return EXIT_OK


_RUNNERS = {
    "eigenform": _run_eigenform,
    "shifted": _run_shifted,
    "sievecheck": _run_sievecheck,
    "mk": _run_mk,
    "specfun": _run_specfun,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="shiftsieve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eig = sub.add_parser("eigenform", help="dump n, a_f(n), lambda(n)")
    p_eig.add_argument("--weight", type=int, required=True)
    p_eig.add_argument("--cutoff", type=int, required=True)

    p_sh = sub.add_parser("shifted", help="shifted convolution sum report")
    p_sh.add_argument("--weight", type=int)
    p_sh.add_argument("--function", type=str)
    p_sh.add_argument("--x", type=float, required=True)
    p_sh.add_argument("--ell", type=int, required=True)
    p_sh.add_argument("--epsilon", type=float, required=True)

    p_sc = sub.add_parser("sievecheck", help="random large-sieve instances")
    p_sc.add_argument("--count", type=int, required=True)

    p_mk = sub.add_parser("mk", help="M_k(f) / symmetric-square report")
    p_mk.add_argument("--weight", type=int, required=True)
    p_mk.add_argument("--cutoff", type=int, required=True)

    p_sf = sub.add_parser("specfun", help="special-function CSV grids")
    p_sf.add_argument("verb", choices=["bessel", "theta", "wweight", "gammaratio", "aell"])
    p_sf.add_argument("--t", type=str)
    p_sf.add_argument("--w", type=str)
    p_sf.add_argument("--re", type=str)
    p_sf.add_argument("--im", type=str)
    p_sf.add_argument("--k", type=str)
    p_sf.add_argument("--s", type=str)
    p_sf.add_argument("--Y", type=str)
    p_sf.add_argument("--ell", type=str)
    p_sf.add_argument("--y", type=str)
    p_sf.add_argument("--A", type=int)
    p_sf.add_argument("--eps", type=float)

    for p in (p_eig, p_sh, p_sc, p_mk, p_sf):
        p.add_argument("--out", type=str, required=True)
        p.add_argument("--format", type=str, choices=["csv", "json"], default="csv")
        p.add_argument("--seed", type=int, default=None)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    command = args.command
    params: dict[str, object] = {}
    if command == "eigenform":
        if args.weight not in qexpansion.SUPPORTED_EIGEN_WEIGHTS:
            raise UsageError(
                f"weight {args.weight} unsupported "
                f"(one-dimensional weights: {qexpansion.SUPPORTED_EIGEN_WEIGHTS})"
            )
        if args.cutoff < 1:
            raise UsageError("cutoff must be >= 1")
        params = {"weight": args.weight, "cutoff": args.cutoff}
    elif command == "shifted":
        if args.weight is not None and args.weight not in qexpansion.SUPPORTED_EIGEN_WEIGHTS:
            raise UsageError(f"weight {args.weight} unsupported")
        if not math.isfinite(args.x):
            raise UsageError(f"x must be finite, got {args.x}")
        params = {
            "weight": args.weight,
            "function": args.function,
            "x": args.x,
            "ell": args.ell,
            "epsilon": args.epsilon,
        }
    elif command == "sievecheck":
        if args.count < 1:
            raise UsageError("count must be >= 1")
        params = {"count": args.count}
    elif command == "mk":
        if args.weight not in qexpansion.SUPPORTED_EIGEN_WEIGHTS:
            raise UsageError(f"weight {args.weight} unsupported")
        if args.cutoff < args.weight:
            raise UsageError("cutoff must reach the weight")
        params = {"weight": args.weight, "cutoff": args.cutoff}
    elif command == "specfun":
        params = {"verb": args.verb}
        if args.t is not None:
            params["t"] = tuple(_floats(args.t))
        if args.w is not None:
            params["w"] = tuple(_floats(args.w))
        if args.re is not None:
            params["re"] = tuple(_floats(args.re))
        if args.im is not None:
            params["im"] = tuple(_floats(args.im))
        if args.k is not None:
            params["k"] = tuple(_ints(args.k))
        if args.s is not None:
            params["s"] = tuple(args.s.split(","))
        if args.Y is not None:
            params["Y"] = tuple(_floats(args.Y))
        if args.verb == "aell":
            if args.ell is not None:
                params["ell_list"] = tuple(_ints(args.ell))
            if args.y is not None:
                params["y"] = tuple(_floats(args.y))
        elif args.ell is not None:
            ells = _ints(args.ell)
            if len(ells) != 1:
                raise UsageError("this verb takes a single --ell")
            params["ell"] = ells[0]
        if args.A is not None:
            params["A"] = args.A
        if args.eps is not None:
            if not math.isfinite(args.eps):
                raise UsageError(f"eps must be finite, got {args.eps}")
            params["eps"] = args.eps
    return RunConfig(
        command=command,
        params=tuple(sorted(params.items(), key=lambda kv: kv[0])),
        seed=args.seed,
        out=args.out,
        fmt=args.format,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        return _RUNNERS[cfg.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, qexpansion.UnsupportedWeightError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # ToleranceError, OverflowError, ZeroDivisionError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a table too large for this machine
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
