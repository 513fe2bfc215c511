"""Golden lock on the bundled apps' native C and kernel fingerprints.

The files under ``golden/`` were captured while every app statement
still carried a hand-written ``KExpr`` next to its kernel.  Each
statement's tree is now traced from its one kernel; byte equality here
proves the trace reproduces those trees exactly, so the emitted
translation units, the ``.so`` cache keys built on their hash, and the
``kernel_fingerprint`` recorded in stored artifacts are all unchanged.

A diff is never fixed by re-capturing: it means every cached shared
object and artifact of the bundled apps would miss.
"""

import json
import os

import pytest

from repro.apps import adi, heat, jacobi, sor
from repro.cli import main
from repro.native.kexpr import kernel_fingerprint

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CODEGEN = [
    pytest.param(["--app", "sor", "-s", "8", "12", "-t", "2", "3", "4"],
                 "sor_s8_12_t2_3_4.c", id="sor"),
    pytest.param(["--app", "jacobi", "-s", "4", "6", "6", "-t", "2", "2",
                  "3", "--shape", "nonrect"],
                 "jacobi_s4_6_6_t2_2_3_nonrect.c", id="jacobi-nonrect"),
    pytest.param(["--app", "adi", "-s", "4", "5", "-t", "2", "3", "3",
                  "--shape", "rect"],
                 "adi_s4_5_t2_3_3_rect.c", id="adi-rect"),
]


@pytest.mark.parametrize("args,golden", CODEGEN)
def test_native_translation_unit_is_byte_identical(capsys, args, golden):
    assert main(["codegen", "--engine", "native", *args]) == 0
    with open(os.path.join(GOLDEN, golden), encoding="utf-8") as f:
        assert capsys.readouterr().out == f.read()


def test_kernel_fingerprints_are_unchanged():
    with open(os.path.join(GOLDEN, "kernel_fingerprints.json"),
              encoding="utf-8") as f:
        want = json.load(f)
    got = {
        "sor": kernel_fingerprint(sor.app(8, 12).nest),
        "jacobi": kernel_fingerprint(jacobi.app(4, 6, 6).nest),
        "adi": kernel_fingerprint(adi.app(4, 5).nest),
        "heat": kernel_fingerprint(heat.app(6, 10).nest),
    }
    assert got == want
