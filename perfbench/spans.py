"""Per-layer spans and counters, installed from outside the library.

`PER_LAYER` lists every per-layer metric.  Each function it gives a `calls`
or `self_s` metric is traced: `Tracer.install()` replaces it with a wrapper
that records a span (calls, total time, self time) and, for a few
functions, a counter read from the arguments or the result.  The
replacement is made in every `shiftsieve` module that holds a reference to
the original, because modules import functions by name
(`from .intpoly import mul_trunc`); wrapping only the defining module would
miss those callers.  Methods are replaced on their class.

Self time is a span's duration minus the time covered by traced child
spans.  The wrapper for `cli.main` therefore reports, as self time, the
parsing, validation, formatting and writing that no traced library call
covers.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Per-layer metrics reported by a traced run: name -> (unit, better).
PER_LAYER = {}


def _layer(name: str, unit: str, better: str = "lower") -> None:
    PER_LAYER[name] = (unit, better)


def _timed(function: str, calls: bool = True) -> None:
    if calls:
        _layer(f"{function}.calls", "count")
    _layer(f"{function}.self_s", "s")


_timed("intpoly.mul_trunc")
_layer("intpoly.mul_trunc.coeffs", "count")
_layer("intpoly.mul_trunc.operand_mb", "MB")
for _f in ("eigenform", "delta_qexp", "delta_qexp_from_eisenstein", "eisenstein_qexp",
           "EigenForm.eigenvalue"):
    _timed(f"qexpansion.{_f}")
_timed("qexpansion.EigenForm.eigenvalue_array", calls=False)
for _f in ("prime_table", "smooth_part_table", "smooth_numbers_upto", "factorize"):
    _timed(f"arith.{_f}")
for _f in ("tau_handle", "partition_sums", "m_of_x", "theorem2_report"):
    _timed(f"shifted.{_f}", calls=False)
_timed("shifted.sieve_side_bound")
_layer("shifted.sieve_side_bound.cells", "count")
_layer("shifted.sieve_side_bound.contributing_cells", "count")
_layer("shifted.sieve_side_bound.useful_share", "ratio", "higher")
for _f in ("build_omega", "big_h", "sift_bruteforce"):
    _timed(f"largesieve.{_f}")
_timed("largesieve.random_admissible_system", calls=False)
_timed("specfun.a_ell_y")
_layer("specfun.a_ell_y.t_max", "order")
for _f in ("bessel_k_scaled", "zeta", "clgamma", "MellinTransform.values_at", "bessel_k_it",
           "w_weight"):
    _timed(f"specfun.{_f}")
_timed("specfun.theta_s", calls=False)
_timed("specfun.gamma_ratio_check", calls=False)
_timed("equidist.corollary3_report")
_timed("equidist.l1_sym2", calls=False)
_timed("equidist.ems_sum_check", calls=False)
_timed("cli.main")
_layer("cli.output_bytes", "B")
_layer("trace.wall_s", "s")
_layer("trace.untraced_wall_s", "s")
_layer("trace.overhead_pct", "%")

# (module, qualified name) of every function with a calls or self_s metric
TRACED = tuple(dict.fromkeys(
    tuple(name.rsplit(".", 1)[0].split(".", 1))
    for name in PER_LAYER if name.endswith((".calls", ".self_s"))
))


def _operand_bits(coeffs, n: int) -> int:
    """len x max bit size of the part of a series operand a product reads."""
    part = coeffs[:n]
    if not part:
        return 0
    return len(part) * max(max(part), -min(part)).bit_length()


class Tracer:
    """Aggregated spans and counters for one round of jobs."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._child_ns: list[int] = []  # per open span: time of traced children
        self._aell_depth = 0
        self._installed: list = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_ns.clear()
        self.counters.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter_ns

        def before(args) -> None:
            if name == "intpoly.mul_trunc" and len(args) == 3:
                a, b, n = args
                tracer.counters["intpoly.mul_trunc.coeffs"] += max(n, 0)
                bits = _operand_bits(a, n) + _operand_bits(b, n)
                tracer.counters["intpoly.mul_trunc.operand_mb"] += bits / 8e6
            elif name == "specfun.bessel_k_scaled" and tracer._aell_depth:
                t_max = "specfun.a_ell_y.t_max"
                tracer.counters[t_max] = max(tracer.counters[t_max], abs(float(args[0])))

        def after(result) -> None:
            if name == "shifted.sieve_side_bound":
                tracer.counters["shifted.sieve_side_bound.cells"] += result.cells
                tracer.counters["shifted.sieve_side_bound.contributing_cells"] += (
                    result.contributing_cells
                )

        def wrapper(*args, **kwargs):
            before(args)
            stack = tracer._child_ns
            stack.append(0)
            is_aell = name == "specfun.a_ell_y"
            tracer._aell_depth += is_aell
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                tracer._aell_depth -= is_aell
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                tracer.calls[name] += 1
                tracer.self_ns[name] += elapsed - children
            after(result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Replace every traced function in every module that refers to it."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "shiftsieve" or key.startswith("shiftsieve."))
        ]
        self._installed = []
        for module_name, qualname in TRACED:
            module = sys.modules[f"shiftsieve.{module_name}"]
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owners = [(getattr(module, cls_name), attr)]
                original = owners[0][0].__dict__[attr]
            else:
                original = getattr(module, qualname)
                owners = [(mod, key) for mod in modules
                          for key, value in list(vars(mod).items()) if value is original]
            wrapped = self._wrap(name, original)
            for owner, key in owners:
                setattr(owner, key, wrapped)
                self._installed.append((owner, key, original))

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed = []

    def snapshot(self) -> dict[str, float]:
        """The round's values of every span and counter metric in PER_LAYER,
        0 for a function the round never called."""
        out: dict[str, float] = {}
        for module_name, qualname in TRACED:
            name = f"{module_name}.{qualname}"
            out[f"{name}.calls"] = float(self.calls.get(name, 0))
            out[f"{name}.self_s"] = self.self_ns.get(name, 0) / 1e9
        for key in (
            "intpoly.mul_trunc.coeffs",
            "intpoly.mul_trunc.operand_mb",
            "specfun.a_ell_y.t_max",
            "shifted.sieve_side_bound.cells",
            "shifted.sieve_side_bound.contributing_cells",
        ):
            out[key] = float(self.counters.get(key, 0.0))
        cells = out["shifted.sieve_side_bound.cells"]
        out["shifted.sieve_side_bound.useful_share"] = (
            out["shifted.sieve_side_bound.contributing_cells"] / cells if cells else 0.0
        )
        return {k: v for k, v in out.items() if k in PER_LAYER}
