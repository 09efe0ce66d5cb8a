"""Layer microbenchmarks, run untraced in their own interpreter.

Usage: python3 perfbench/micro.py

Prints one JSON object mapping metric name to the median of several
repeats.  The inputs are fixed: SurdSum operations on 2-, 3- and 4-term
sums, the eigenvalue identities on one table of each kind (type I, type
III, conference), verify_axioms at two scheme sizes, and a cold build of
GF(3^11).  The p_values_ms metrics time p_from_table, which is the
eigenvalue identity plus its integrality gate.
"""

from __future__ import annotations

import json
import statistics
import time
from fractions import Fraction

from skewfiss import constructions, exactnum, scheme_core, spectra


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _per_op_ns(fn, ops: int, repeats: int = 7) -> float:
    def loop():
        for _ in range(ops):
            fn()
    return _median_s(loop, repeats) / ops * 1e9


def _surd(*terms) -> exactnum.SurdSum:
    total = exactnum.SurdSum(0)
    for coeff, radicand in terms:
        total = total + Fraction(coeff) * exactnum.surd_sqrt(radicand)
    return total


def exactnum_metrics() -> dict:
    a2 = _surd((Fraction(1, 2), 1), (Fraction(3, 4), 5))
    b2 = _surd((Fraction(-5, 8), 1), (Fraction(7, 4), 5))
    a4 = _surd((Fraction(1, 2), 1), (Fraction(3, 4), 2), (Fraction(-5, 6), 3), (Fraction(7, 8), 5))
    b4 = _surd((Fraction(-2, 3), 1), (Fraction(1, 4), 2), (Fraction(5, 2), 3), (Fraction(-3, 8), 7))
    # sqrt(2) + sqrt(3) - sqrt(10) is about -0.016: mixed signs over three
    # radicands, so sign() has to refine its rational interval.
    s3 = _surd((1, 2), (1, 3), (-1, 10))
    if s3.sign() != -1:
        raise RuntimeError("sign(sqrt2 + sqrt3 - sqrt10) must be -1")
    return {
        "exactnum.surd_mul_2term_ns": _per_op_ns(lambda: a2 * b2, 1500),
        "exactnum.surd_mul_4term_ns": _per_op_ns(lambda: a4 * b4, 500),
        "exactnum.surd_add_4term_ns": _per_op_ns(lambda: a4 + b4, 5000),
        "exactnum.sign_3term_ns": _per_op_ns(s3.sign, 2000),
    }


def _srg_table(quad, table_type, z=None) -> spectra.CharacterTable:
    p = spectra.srg_derive(*quad)
    return spectra.character_table(p, spectra.make_candidate(p, table_type, z))


def spectra_metrics() -> dict:
    tables = {
        "I_729": _srg_table((729, 182, 55, 42), spectra.TYPE_I),
        "III_57": _srg_table((57, 14, 1, 4), spectra.TYPE_III, 27),
        "III_105": _srg_table((105, 26, 13, 4), spectra.TYPE_III, 540),
        "conf_125": spectra.conference_table(125, constructions.two_squares(125)[0].g),
        "conf_325": spectra.conference_table(325, constructions.two_squares(325)[0].g),
    }
    out = {}
    for key, table in tables.items():
        out[f"spectra.p_values_ms.{key}"] = _median_s(lambda: spectra.p_from_table(table), 5) * 1e3
    for key in ("I_729", "III_57", "conf_325"):
        table = tables[key]
        out[f"spectra.q_ms.{key}"] = _median_s(lambda: spectra.q_from_table(table), 5) * 1e3
    return out


def scheme_metrics() -> dict:
    out = {}
    for q in (173, 1013):
        scheme = constructions.cyclotomic_scheme(q, 4)
        out[f"scheme_core.verify_ms.n{q}"] = _median_s(lambda: scheme_core.verify_axioms(scheme), 3) * 1e3
    return out


def field_metrics() -> dict:
    def cold():
        constructions.field_build.cache_clear()
        constructions.field_build(3, 11)
    return {"constructions.field_build_ms.3_11": _median_s(cold, 3) * 1e3}


if __name__ == "__main__":
    metrics = {}
    for part in (exactnum_metrics, spectra_metrics, scheme_metrics, field_metrics):
        metrics.update(part())
    print(json.dumps(metrics))
