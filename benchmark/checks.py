"""Correctness checks on the CLI's outputs, independent of the package.

Nothing here imports dirac_su11. Reference values come from the closed
form E = c^2 [1 + zeta^2/(s+n)^2]^(-1/2), s = sqrt((j+1/2)^2 - zeta^2),
zeta = Z/c, evaluated in mpmath with 64 guard bits, and are compared with
the printed decimals to (precision - 16) bits.

Each ``check_*`` function returns the number of checks it decided and
raises ``CheckFailed`` on the first mismatch. The count includes every
verdict the program printed and the benchmark confirmed (residual rows,
witnesses, detuned controls, Gram, commutator and Casimir flags, state
checks, oracle levels) plus one per value verified against the closed form
(spectrum row, JL row, limit command, state energy).
"""

from __future__ import annotations

import json
from fractions import Fraction

import mpmath as mp

ORACLE_REL_TOL = 1e-10
LIMIT_EXPONENT, LIMIT_EXPONENT_TOL = -2.0, 0.1
JL_DIAGONAL = ["1s", "2p", "3d"]
_GUARD = 64
_LETTERS = "spdfghik"


class CheckFailed(Exception):
    pass


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def _mpf(x: Fraction) -> mp.mpf:
    return mp.mpf(x.numerator) / x.denominator


def closed_form(c: Fraction, Z: int, j: Fraction, n: int, precision: int) -> dict:
    """E, binding E - c^2 and quantum defect j + 1/2 - s of level (j, n)."""
    with mp.workprec(precision + _GUARD):
        c2 = _mpf(c) ** 2
        zeta = _mpf(Fraction(Z) / c)
        s = mp.sqrt(_mpf(j + Fraction(1, 2)) ** 2 - zeta ** 2)
        w = mp.sqrt((s + n) ** 2 + zeta ** 2)
        E = c2 * (s + n) / w
        return {"E": E, "binding": E - c2, "quantum_defect": _mpf(j) + 0.5 - s,
                "s": s, "w": w, "zeta": zeta}


def close(printed: str, ref: mp.mpf, precision: int, scale=None) -> bool:
    """|printed - ref| <= 2^-(precision-16) * scale, scale defaulting to |ref|."""
    with mp.workprec(precision + _GUARD):
        got = mp.mpf(printed)
        tol = mp.mpf(2) ** -(precision - 16) * (abs(ref) if scale is None else scale)
        return abs(got - ref) <= tol


def _check_level(row: dict, c: Fraction, Z: int, j: Fraction, n: int,
                 precision: int, keys=("E", "binding")) -> None:
    ref = closed_form(c, Z, j, n, precision)
    for key in keys:
        require(close(row[key], ref[key], precision),
                f"{key} of Z={Z} j={j} n={n} is {row[key]}, closed form "
                f"{mp.nstr(ref[key], 30)}")


def _label(j: Fraction, eps: int, n: int) -> str:
    ell = int(j + Fraction(eps, 2))
    return f"{int(j + Fraction(1, 2) + n)}{_LETTERS[ell]}"


def _grid(j_max: Fraction):
    j = Fraction(1, 2)
    while j <= j_max:
        for eps in (-1, 1):
            yield j, eps
        j += 1


def check_spectrum(stdout: str, p: dict, c: Fraction, precision: int) -> int:
    doc = json.loads(stdout)
    require(doc["kind"] == "spectrum" and doc["Z"] == p["Z"], "wrong spectrum header")
    expected = {(j, eps, n) for j, eps in _grid(p["j_max"])
                for n in range(p["N_max"]) if not (n == 0 and eps == 1)
                and int(j + Fraction(1, 2)) + n <= p["N_max"]}
    got = {(Fraction(r["j"]), r["eps"], r["n"]) for r in doc["rows"]}
    require(got == expected and len(doc["rows"]) == len(expected),
            f"spectrum rows {sorted(got)} != expected {sorted(expected)}")
    for r in doc["rows"]:
        j, eps, n = Fraction(r["j"]), r["eps"], r["n"]
        require(r["N"] == int(j + Fraction(1, 2)) + n, f"bad N in {r}")
        require(r["label"] == _label(j, eps, n), f"bad label in {r}")
        _check_level(r, c, p["Z"], j, n, precision,
                     keys=("E", "binding", "quantum_defect"))
    return len(doc["rows"])


def check_state(stdout: str, p: dict, c: Fraction, precision: int,
                samples: int) -> int:
    doc = json.loads(stdout)
    require(doc["kind"] == "state" and doc["physical"] is True, "state not physical")
    checks = doc["checks"]
    require(isinstance(checks, dict) and checks, "state reports no checks")
    for name, verdict in checks.items():
        require(verdict is True, f"state check {name} is {verdict!r}")
    _check_level(doc, c, p["Z"], p["j"], p["n"], precision)
    rows = doc["samples"]
    require(len(rows) == samples, f"{len(rows)} samples, expected {samples}")
    with mp.workprec(precision):
        rho = [mp.mpf(r[0]) for r in rows]
        f_signs = [mp.sign(mp.mpf(r[1])) for r in rows]
    require(all(a < b for a, b in zip(rho, rho[1:])), "sample grid not increasing")
    f_signs = [s for s in f_signs if s != 0]
    seen = sum(1 for a, b in zip(f_signs, f_signs[1:]) if a != b)
    # sampled sign changes can miss node pairs but never exceed the roots
    require(seen <= doc["f_nodes"] <= p["n"],
            f"f_nodes={doc['f_nodes']} outside [{seen}, {p['n']}]")
    return len(checks) + 1


def check_jl(stdout: str, p: dict, c: Fraction, precision: int) -> int:
    first, _, rest = stdout.partition("\n")
    doc = json.loads(rest)
    require(doc["diagonal_labels"] == JL_DIAGONAL,
            f"diagonal set {doc['diagonal_labels']} != {JL_DIAGONAL}")
    require(first.split(":")[1].split() == JL_DIAGONAL, f"summary line {first!r}")
    expected = {(j, eps, n) for j, eps in _grid(p["j_max"]) for n in range(p["n_max"] + 1)}
    got = {(Fraction(r["j"]), r["eps"], r["n"]) for r in doc["rows"]}
    require(got == expected and len(doc["rows"]) == len(expected), "jl rows differ")
    for r in doc["rows"]:
        j, eps, n = Fraction(r["j"]), r["eps"], r["n"]
        ref = closed_form(c, p["Z"], j, n, precision)
        tau = eps * (j + Fraction(1, 2))
        with mp.workprec(precision + _GUARD):
            # zeta (1 -+ tau/w): one of them vanishes at the bottom rung, so
            # compare against zeta, not against the coefficient itself
            minus = ref["zeta"] * (1 - _mpf(tau) / ref["w"])
            plus = ref["zeta"] * (1 + _mpf(tau) / ref["w"])
        for key, val in (("coeff_minus", minus), ("coeff_plus", plus)):
            require(close(r[key], val, precision, scale=ref["zeta"]),
                    f"{key} of j={j} eps={eps} n={n} is {r[key]}")
        require(r["is_diagonal"] == (r["label"] in JL_DIAGONAL and n == 0 and eps == -1),
                f"is_diagonal wrong in {r}")
        require(r["physical"] == (not (n == 0 and eps == 1)), f"physical wrong in {r}")
    return len(doc["rows"])


def limit_slope(c_schedule, Z: int, j: Fraction, n: int, precision: int) -> mp.mpf:
    """Least-squares slope of log|binding - Bohr| against log c, closed form."""
    N = int(j + Fraction(1, 2)) + n
    with mp.workprec(precision + _GUARD):
        bohr = -mp.mpf(Z) ** 2 / (2 * N * N)
        xs = [mp.log(_mpf(c)) for c in c_schedule]
        ys = [mp.log(abs(closed_form(c, Z, j, n, precision)["binding"] - bohr))
              for c in c_schedule]
        xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
        return (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
                / sum((x - xbar) ** 2 for x in xs))


def check_limit(stdout: str, p: dict, c: Fraction, precision: int) -> int:
    """The printed fit must equal the closed-form fit, and the two largest c
    values must show the c^-2 approach to the Bohr level.

    The band -2 +- 0.1 is tested on the slope between the two largest c of
    the schedule, not on the fit over all of them: at c = 100 and Z > 80,
    Z/c is no longer small, so the fit over the whole schedule is correctly
    steeper than -2.1.
    """
    doc = json.loads(stdout)
    require([Fraction(r["c"]) for r in doc["rows"]] == list(p["c_schedule"]),
            "limit rows do not follow the c schedule")
    fit = limit_slope(p["c_schedule"], p["Z"], p["j"], p["n"], precision)
    require(abs(float(doc["fitted_exponent"]) - float(fit)) <= 1e-9,
            f"fitted exponent {doc['fitted_exponent']}, closed form {mp.nstr(fit, 15)}")
    N = int(p["j"] + Fraction(1, 2)) + p["n"]
    with mp.workprec(precision + _GUARD):
        bohr = -mp.mpf(p["Z"]) ** 2 / (2 * N * N)
    for r in doc["rows"]:
        ref = closed_form(Fraction(r["c"]), p["Z"], p["j"], p["n"], precision)
        require(close(r["binding"], ref["binding"], precision), f"binding wrong in {r}")
        require(close(r["bohr"], bohr, precision), f"bohr value wrong in {r}")
        with mp.workprec(precision + _GUARD):
            diff = ref["binding"] - bohr
        # the difference inherits the rounding of binding, so its tolerance
        # scales with |binding|, not with the (much smaller) difference
        require(close(r["difference"], diff, precision, scale=abs(ref["binding"])),
                f"difference wrong in {r}")
    (c1, d1), (c2, d2) = [(Fraction(r["c"]), r["difference"]) for r in doc["rows"][-2:]]
    with mp.workprec(precision):
        local = ((mp.log(abs(mp.mpf(d2))) - mp.log(abs(mp.mpf(d1))))
                 / (mp.log(_mpf(c2)) - mp.log(_mpf(c1))))
    require(abs(local - LIMIT_EXPONENT) <= LIMIT_EXPONENT_TOL,
            f"slope {mp.nstr(local, 8)} between c={c1} and c={c2} not within "
            f"{LIMIT_EXPONENT} +- {LIMIT_EXPONENT_TOL}")
    return 1


def _residual_verdicts(row: dict, tau_positive: bool) -> int:
    decided = 0
    bottom_witness = row["n"] == 0 and tau_positive
    require(row["physical"] == (not bottom_witness), f"physical flag wrong at n={row['n']}")
    for which, res in row["residuals"].items():
        expect_zero = not (bottom_witness and which == "ladder-split-raise")
        require(res["exact_zero"] == expect_zero,
                f"residual {which} at n={row['n']} exact_zero={res['exact_zero']}")
        decided += 1
    if bottom_witness:
        require(row.get("bottom_rung_witness_nonzero") is True, "bottom-rung witness")
        decided += 1
    elif row["n"] >= 1:
        require(row.get("detuned_nonzero") is True, f"detuned control at n={row['n']}")
        decided += 1
    return decided


def check_verify(doc: dict, p: dict, precision: int) -> int:
    """Verify report of one Z; with p['inject'] exactly one row is corrupted."""
    require(doc["kind"] == "verify" and len(doc["runs"]) == 1, "verify payload shape")
    run = doc["runs"][0]
    require(run["Z"] == p["Z"] and run["precision"] == precision, "verify run header")
    require(run["commutators_exact"] is True, "commutators not exact")
    require(run["casimir_routes_agree"] is True, "Casimir routes disagree")
    decided = 2
    injected = []
    grid = list(_grid(p["j_max"]))
    require([(Fraction(b["j"]), b["eps"]) for b in run["channels"]] == grid,
            "verify channel grid differs")
    for block in run["channels"]:
        tau_positive = block["eps"] == 1
        require([r["n"] for r in block["rows"]] == list(range(p["n_max"] + 1)),
                "verify rows differ")
        for row in block["rows"]:
            if row.get("injected_off_shell"):
                injected.append((block["j"], block["eps"], row["n"]))
                require(sorted(row.get("failed", [])) == ["radial-row-f", "radial-row-g"],
                        f"injected row reports {row.get('failed')}")
                row = dict(row, residuals={k: v for k, v in row["residuals"].items()
                                           if not k.startswith("radial-row")})
                decided += 2
            else:
                require("failed" not in row, f"row reports failures {row.get('failed')}")
            decided += _residual_verdicts(row, tau_positive)
        require(block["gram_offdiagonal_exact_zero"] is True, "Gram off-diagonal")
        require(block["gram_identity_ok"] is True, "Gram matrix not the identity")
        decided += 2
    if p["inject"]:
        require(injected == [("1/2", -1, 1)], f"injected rows {injected}")
        require(run["all_exact"] is False, "injected run claims all_exact")
    else:
        require(not injected, "uninjected run has an injected row")
        require(run["all_exact"] is True, "all_exact is false")
    if p["oracle"]:
        levels = [(str(j), eps, n) for j, eps in grid
                  for n in range(min(p["n_max"], 5) + 1) if not (n == 0 and eps == 1)]
        got = [(r["j"], r["eps"], r["n"]) for r in run["oracle"]]
        require(got == levels, f"oracle levels {got} != {levels}")
        for r in run["oracle"]:
            require(float(r["rel_binding_error"]) <= ORACLE_REL_TOL,
                    f"oracle error {r['rel_binding_error']} at {r}")
        require(float(run["oracle_worst_rel_error"]) <= ORACLE_REL_TOL, "oracle worst error")
        decided += len(levels)
    else:
        require("oracle" not in run, "oracle ran although skipped")
    return decided


def oracle_worst(doc: dict) -> float:
    return max((float(r["oracle_worst_rel_error"]) for r in doc["runs"]
                if "oracle_worst_rel_error" in r), default=0.0)
