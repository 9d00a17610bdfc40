"""Digit audit: what `state` and `limit` print at 256 bits against a
1024-bit run.

Deep rungs are where a cancelling float sum loses bits, so the audit runs
`state` at n = 20 and n = 64 on a heavy eps = +1 channel and on the
hydrogen ground channel. The bound is check_tolerance(256) = 2^-240,
relative for the normalization constant and relative to the grid's
largest |F| and |G| for the samples, which vanish at the nodes. `limit`'s
difference from the Bohr value cancels all but about (Z/c)^2 of the
binding, so its default schedule, up to c = 10^4, and one up to c = 10^5
are audited with the same bound, relative for each binding and each
difference.
"""

import json

import mpmath as mp
import pytest

from dirac_su11.cli import main
from dirac_su11.params import check_tolerance

LOW, HIGH = 256, 1024
SAMPLES = "60"


def json_doc(capsys, argv, precision):
    assert main(argv + ["--precision", str(precision), "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def state_doc(capsys, Z, j, eps, n, precision):
    return json_doc(capsys, ["state", "--Z", str(Z), "--j", j, "--eps", str(eps),
                             "--n", str(n), "--samples", SAMPLES], precision)


def bits(err, scale) -> str:
    """The relative error as a power of two, for the failure message."""
    return f"relative error 2^{mp.nstr(mp.log(abs(err) / abs(scale), 2), 5)}"


@pytest.mark.parametrize("n", [20, 64])
@pytest.mark.parametrize("Z, j, eps", [(80, "5/2", 1), (1, "1/2", -1)])
def test_state_digits_hold_at_depth(capsys, Z, j, eps, n):
    low = state_doc(capsys, Z, j, eps, n, LOW)
    ref = state_doc(capsys, Z, j, eps, n, HIGH)
    tol = check_tolerance(LOW)
    with mp.workprec(HIGH + 64):
        const, const_ref = mp.mpf(low["norm_constant"]), mp.mpf(ref["norm_constant"])
        assert abs(const - const_ref) <= tol * const_ref, bits(const - const_ref, const_ref)
        rows = [[mp.mpf(v) for v in row] for row in low["samples"]]
        rows_ref = [[mp.mpf(v) for v in row] for row in ref["samples"]]
        for col in (1, 2):
            scale = max(abs(row[col]) for row in rows_ref)
            worst = max(abs(a[col] - b[col]) for a, b in zip(rows, rows_ref))
            assert worst <= tol * scale, (col, bits(worst, scale))


@pytest.mark.parametrize("argv", [["limit"], ["limit", "--c-schedule", "1e3,1e5"]],
                         ids=" ".join)
def test_limit_digits_hold(capsys, argv):
    low = json_doc(capsys, argv, LOW)["rows"]
    ref = json_doc(capsys, argv, HIGH)["rows"]
    tol = check_tolerance(LOW)
    with mp.workprec(HIGH + 64):
        for row, row_ref in zip(low, ref, strict=True):
            for key in ("binding", "difference"):
                got, want = mp.mpf(row[key]), mp.mpf(row_ref[key])
                assert abs(got - want) <= tol * abs(want), (row["c"], key,
                                                            bits(got - want, want))
