"""Seeded job lists for the four workloads.

A job is one `shiftsieve.cli.main(argv)` call, or one call of the public
`shifted.sieve_side_bound`.  `make_jobs(workload, seed)` is a pure function
of its arguments: the same seed gives the same argv, byte for byte.  Each
workload fixes the *shape* of a round (which subcommands, how many, at
which sizes) and lets the seed pick the values inside it, so that the work
per round, and with it every timing, moves little from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WEIGHTS = (12, 16, 18, 20, 22, 26)
EIGEN_CUTOFF = 5000
SIEVE_X = 50_000


@dataclass(frozen=True)
class Job:
    name: str                       # unique in a round; names the output file
    argv: tuple[str, ...] = ()      # CLI arguments before --out and --format
    fmt: str = "csv"
    check: str = ""                 # which check reads the output
    params: dict = field(default_factory=dict)
    fault: bool = False             # fails today because of a known program fault


def _num(value: float, digits: int = 4) -> str:
    return repr(round(value, digits))


def _eigen_tables(rng: random.Random) -> list[Job]:
    c = EIGEN_CUTOFF
    jobs = []
    for k in WEIGHTS:
        jobs.append(Job(f"eigenform-{k}", ("eigenform", "--weight", str(k), "--cutoff", str(c)),
                        check="eigenform", params={"weight": k, "cutoff": c}))
        jobs.append(Job(f"mk-{k}", ("mk", "--weight", str(k), "--cutoff", str(c)),
                        check="mk", params={"weight": k, "cutoff": c, "table": f"eigenform-{k}"}))
    ell = rng.choice((-1, 1)) * rng.randint(1, 6)
    x = rng.randint(c // 2, c - 6)
    eps = _num(rng.uniform(0.2, 0.6), 3)
    jobs.append(Job("shifted-12", ("shifted", "--weight", "12", "--x", str(x), "--ell", str(ell),
                                   "--epsilon", eps),
                    check="shifted", params={"table": "eigenform-12", "x": float(x), "ell": ell,
                                             "epsilon": float(eps)}))
    return jobs


def _sieve_shifts(rng: random.Random) -> list[Job]:
    """Six shifted configurations plus a sievecheck sweep.

    tau2, tau3 and one each run twice.  First at epsilon = 0.5, where
    z < x and the sieve side does real work, with ell = 1, -2, 3.  Then at
    a seeded epsilon in [0.3, 0.35), where z > x and the sieve side is
    cheap, with |ell| = 4, 5, 6 and a seeded sign.  x is SIEVE_X +- 3%.
    Sieve-side cost grows steeply with epsilon, falls with |ell| and
    depends on the sign of ell, and the tau3 table is the dearest handle
    to build.  So the seed picks none of these for the dear configurations,
    and the per-round work, and which job is the median or the slowest
    one, stay the same for every seed.
    """
    configs = [(fn, ell, "0.5") for fn, ell in zip(("tau2", "tau3", "one"), (1, -2, 3))]
    configs += [(fn, rng.choice((-1, 1)) * size, _num(rng.uniform(0.3, 0.35), 3))
                for fn, size in zip(("tau2", "tau3", "one"), (4, 5, 6))]
    jobs = []
    for fn, ell, eps in configs:
        x = str(int(SIEVE_X * rng.uniform(0.97, 1.03)))
        name = f"shifted-{fn}-{abs(ell)}"
        params = {"function": fn, "x": float(x), "ell": ell, "epsilon": float(eps)}
        jobs.append(Job(name, ("shifted", "--function", fn, "--x", x, "--ell", str(ell),
                               "--epsilon", eps), check="shifted", params=params))
        jobs.append(Job(f"bound-{fn}-{abs(ell)}", check="sieve_bound",
                        params={**params, "shifted": name}))
    seed = rng.randint(0, 10**6)
    jobs.append(Job("sievecheck", ("sievecheck", "--count", "200", "--seed", str(seed)),
                    check="sievecheck", params={"count": 200}))
    return jobs


def _eisenstein_aell(rng: random.Random) -> list[Job]:
    """Three points: (e1, y1), (-e1, y1) for the symmetry, and (e2, y2),
    with e1 != e2 drawn from 1..3 and y from [0.1, 0.5]."""
    e1, e2 = rng.sample((1, 2, 3), 2)
    y1, y2 = (_num(rng.uniform(0.1, 0.5)) for _ in range(2))
    points = (("aell-a", e1, y1, {}), ("aell-minus", -e1, y1, {"mirror": "aell-a"}),
              ("aell-b", e2, y2, {}))
    return [Job(name, ("specfun", "aell", "--ell", str(ell), "--y", y), check="aell",
                params={"ell": ell, "y": float(y), **extra})
            for name, ell, y, extra in points]


def _cli_small(rng: random.Random) -> list[Job]:
    """Every subcommand and cheap specfun verb: first at the sizes of the
    CLI determinism criterion (CSV), then seeded variants (JSON) that cover
    all six weights and all three closed-form functions in narrow size
    bands, so that the round's work hardly moves with the seed, then the
    three operations that fail today."""
    jobs = []

    def add(name, argv, check, fmt="csv", fault=False, **params):
        jobs.append(Job(name, tuple(str(a) for a in argv), fmt, check, params, fault))

    def floats(lo, hi, n, digits=3):
        return ",".join(_num(rng.uniform(lo, hi), digits) for _ in range(n))

    add("eigenform", ["eigenform", "--weight", 12, "--cutoff", 30], "eigenform",
        weight=12, cutoff=30)
    add("table", ["eigenform", "--weight", 12, "--cutoff", 1000], "eigenform",
        weight=12, cutoff=1000)
    add("mk", ["mk", "--weight", 12, "--cutoff", 1000], "mk", weight=12, cutoff=1000,
        table="table")
    add("shifted", ["shifted", "--function", "tau2", "--x", 1000, "--ell", 1, "--epsilon", 0.5],
        "shifted", function="tau2", x=1000.0, ell=1, epsilon=0.5)
    add("sievecheck", ["sievecheck", "--count", 15, "--seed", 42], "sievecheck", count=15)
    add("bessel", ["specfun", "bessel", "--t", "0,1,5", "--w", "0.1,1,10"], "bessel")
    add("theta", ["specfun", "theta", "--re", 2, "--im", "0,1,5"], "theta")
    add("wweight", ["specfun", "wweight", "--k", 50, "--Y", 1, "--ell", 1], "wweight", ell=1)
    add("gammaratio", ["specfun", "gammaratio", "--k", "100,1000", "--s", "0,1,1+1j"],
        "gammaratio")

    js = "json"
    for k in WEIGHTS:
        c = rng.randint(100, 150)
        add(f"eigenform-{k}", ["eigenform", "--weight", k, "--cutoff", c], "eigenform", js,
            weight=k, cutoff=c)
    k, c = rng.choice(WEIGHTS), rng.randint(250, 300)
    add("table-seeded", ["eigenform", "--weight", k, "--cutoff", c], "eigenform", js,
        weight=k, cutoff=c)
    add("mk-seeded", ["mk", "--weight", k, "--cutoff", c], "mk", js, weight=k, cutoff=c,
        table="table-seeded")
    for fn in ("tau2", "tau3", "one"):
        x, ell = rng.randint(900, 1100), rng.choice((-1, 1)) * rng.randint(1, 6)
        eps = _num(rng.uniform(0.2, 0.8), 3)
        add(f"shifted-{fn}", ["shifted", "--function", fn, "--x", x, "--ell", ell,
                              "--epsilon", eps], "shifted", js,
            function=fn, x=float(x), ell=ell, epsilon=float(eps))
    add("sievecheck-seeded", ["sievecheck", "--count", 15, "--seed", rng.randint(0, 10**6)],
        "sievecheck", js, count=15)
    add("bessel-seeded", ["specfun", "bessel", "--t", floats(0, 8, 3), "--w", floats(0.1, 10, 3)],
        "bessel", js)
    add("theta-seeded", ["specfun", "theta", "--re", 0.5, "--im", floats(0.5, 20, 3)],
        "theta", js)
    ell = rng.randint(1, 4)
    add("wweight-seeded", ["specfun", "wweight", "--k", rng.randint(80, 120),
                           "--Y", _num(rng.uniform(2, 3), 3), "--ell", ell], "wweight", js, ell=ell)
    s = f"0,1,{round(rng.uniform(-0.5, 3), 2)!r}{round(rng.uniform(-3, 3), 2):+}j"
    add("gammaratio-seeded", ["specfun", "gammaratio", "--k",
                              f"{rng.randint(12, 100)},{rng.randint(100, 5000)}", "--s", s],
        "gammaratio", js)

    # Known faults, on fixed inputs: each fails in every round today.
    add("fault-x-inf", ["shifted", "--function", "tau2", "--x", "inf", "--ell", 1,
                        "--epsilon", 0.5], "rejected", fault=True)
    add("fault-Y-inf", ["specfun", "wweight", "--k", 50, "--Y", "inf", "--ell", 1],
        "rejected", fault=True)
    add("fault-bessel-large-t", ["specfun", "bessel", "--t", "30,40", "--w", "1,10"],
        "bessel", fault=True)
    return jobs


WORKLOADS = {
    "eigen-tables": _eigen_tables,
    "sieve-shifts": _sieve_shifts,
    "eisenstein-aell": _eisenstein_aell,
    "cli-small": _cli_small,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
