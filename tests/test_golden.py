"""Golden CLI outputs: the criterion-13 commands, in CSV and in JSON, must
write exactly the bytes stored under tests/golden/.

A file there is the output of its command, e.g.

    python -m shiftsieve specfun aell --ell 1 --y 0.4 --format json \
        --out tests/golden/specfun_aell.json

and changes only when the output is meant to change.
"""

from pathlib import Path

import pytest

from shiftsieve.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "eigenform": ["eigenform", "--weight", "12", "--cutoff", "30"],
    "shifted": ["shifted", "--function", "tau2", "--x", "1000", "--ell", "1", "--epsilon", "0.5"],
    "sievecheck": ["sievecheck", "--count", "15", "--seed", "42"],
    "mk": ["mk", "--weight", "12", "--cutoff", "1000"],
    "specfun_bessel": ["specfun", "bessel", "--t", "0,1,5", "--w", "0.1,1,10"],
    "specfun_theta": ["specfun", "theta", "--re", "2", "--im", "0,1,5"],
    "specfun_wweight": ["specfun", "wweight", "--k", "50", "--Y", "1", "--ell", "1"],
    "specfun_gammaratio": ["specfun", "gammaratio", "--k", "100,1000", "--s", "0,1,1+1j"],
    "specfun_aell": ["specfun", "aell", "--ell", "1", "--y", "0.4"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(COMMANDS))
def test_output_matches_golden(tmp_path, name, fmt):
    out = tmp_path / f"{name}.{fmt}"
    assert cli_main(COMMANDS[name] + ["--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.{fmt}").read_bytes()
