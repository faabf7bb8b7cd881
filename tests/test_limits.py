"""End-to-end tests of higher_limits against known values of lim^i."""

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from frlimits import intlin
from frlimits.frcode import parse
from frlimits.intlin import FinPresAb, tensor_Z, tor_Z
from frlimits.limits import higher_limits
from frlimits.permgrp import load_group_file
from frlimits.truncring import GroupContext

SRC = Path(__file__).resolve().parents[1] / "src"
GROUP_DIR = SRC / "frlimits" / "groups"


@lru_cache(maxsize=None)
def context(name):
    return GroupContext(load_group_file(GROUP_DIR / f"{name}.json"))


def lims(code, name):
    ctx = context(name)
    report = higher_limits(parse(code), ctx.group, ctx=ctx)
    return [g.describe() for g in report.lims]


def free(rank):
    return FinPresAb.free(rank).describe()


@pytest.mark.parametrize(
    "name,n", [("z2", 1), ("z2", 2), ("z2", 3), ("z3", 1), ("z3", 2)]
)
def test_r_power_is_free_in_top_degree(name, n):
    order = context(name).group.order
    assert lims("r" * n, name) == ["0"] * n + [free((order - 1) ** n)]


@pytest.mark.parametrize("name", ["z2", "z3"])
def test_ff_vanishes(name):
    assert lims("ff", name) == ["0", "0", "0"]


@pytest.mark.parametrize("name,h3", [("z2", "Z/2"), ("z3", "Z/3")])
def test_lim1_rr_frf_is_h3(name, h3):
    assert lims("rr+frf", name)[1] == h3


def test_rr_fff_is_tor_and_tensor_of_abelianization():
    gab = FinPresAb.from_invariants(context("z2").group.abelianization(), 0)
    got = lims("rr+fff", "z2")
    assert got[1] == tor_Z(gab, gab).describe()
    assert got[2] == tensor_Z(gab, gab).describe()


@pytest.mark.parametrize("name", ["z2", "z3"])
@pytest.mark.parametrize("code", ["rr&f", "rr&ff"])
def test_intersections_with_a_larger_ideal(name, code, monkeypatch):
    # rr lies in f and in ff, so both codes are the ideal rr; a fresh
    # context makes sure the code lattice really goes through
    # lattice_intersection rather than a cache
    calls = []

    def counted(a, b):
        calls.append((a.n, b.n))
        return intlin.lattice_intersection(a, b)

    monkeypatch.setattr("frlimits.truncring.lattice_intersection", counted)
    group = context(name).group
    report = higher_limits(parse(code), group, ctx=GroupContext(group))
    assert [g.describe() for g in report.lims] == lims("rr", name)
    assert calls


@pytest.mark.parametrize(
    "code,name,expected",
    [
        ("fr&rf", "z2", ["0", "0", "Z"]),
        ("fr&rf", "z3", ["0", "0", "Z^2"]),
        ("r&ff", "z2", ["0", "Z", "0"]),
        ("r&ff", "z3", ["0", "Z^2", "0"]),
    ],
)
def test_pinned_intersection_codes(code, name, expected):
    # regression pins with no closed form yet; they guard lattice_intersection
    assert lims(code, name) == expected


def test_report_checks_in_both_modes():
    ctx = context("z2")
    plain = higher_limits(parse("rr+frf"), ctx.group, ctx=ctx)
    crossed = higher_limits(parse("rr+frf"), ctx.group, ctx=ctx, cross_validate=True)
    assert plain.checks["d_squared_zero"] and crossed.checks["d_squared_zero"]
    assert crossed.checks["moore_vs_alternate"] is True
    assert "moore_vs_alternate" not in plain.checks
    assert [g.describe() for g in crossed.lims] == [g.describe() for g in plain.lims]
    assert plain.moore_vanishing == {0: False, 1: False, 2: True, 3: True}


OPTIMIZED_SCRIPT = """
import sys
from frlimits.freegrp import FreeHom, gen_word
from frlimits.frcode import parse
from frlimits.limits import higher_limits
from frlimits.permgrp import load_group_file

if __debug__:
    sys.exit("asserts are still on")
try:
    FreeHom(1, 2, 1, 1, (gen_word(0, 0),))
except ValueError:
    pass
else:
    sys.exit("a FreeHom with too few images was accepted")
report = higher_limits(parse("rr+frf"), load_group_file(sys.argv[1]))
print(" | ".join(g.describe() for g in report.lims))
"""


def test_validation_and_answers_survive_python_O():
    # python -O strips asserts: validation must still raise and no answer
    # may depend on an assert having run
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SCRIPT, str(GROUP_DIR / "z2.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0 | Z/2 | Z | 0"
