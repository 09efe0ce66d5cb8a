"""Float diagnostic for conference tables, used only by the test suite.

The package decides everything exactly; this module evaluates the
eigenvalue identity at 128-bit precision with mpmath so a test can
cross-check an exact conference tensor against an independent numeric one.
"""

import mpmath as mp

from skewfiss.scheme_core import IntersectionTensor
from skewfiss.spectra import CharacterTable, ConferenceEntry, ConsistencyError


def conference_numeric_check(t: CharacterTable, tensor: IntersectionTensor,
                             tol: float = 1e-9) -> float:
    """Cross-check the conference tensor at 128-bit float precision.

    Returns the largest deviation found and raises ConsistencyError if it
    exceeds tol.
    """
    with mp.workprec(128):
        sq = mp.sqrt(t.q)

        def val(e: ConferenceEntry):
            re = mp.mpf(e.a.numerator) / e.a.denominator + mp.mpf(e.b.numerator) / e.b.denominator * sq
            rad = mp.mpf(e.c.numerator) / e.c.denominator + mp.mpf(e.e.numerator) / e.e.denominator * sq
            return re + e.im_sign * 1j * mp.sqrt(rad)

        P = [[val(e) for e in row] for row in t.entries]
        worst = mp.mpf(0)
        for l in range(5):
            kl = mp.mpf(t.valencies[l].numerator) / t.valencies[l].denominator
            for i in range(5):
                for j in range(5):
                    acc = mp.mpc(0)
                    for hh in range(5):
                        m = mp.mpf(t.multiplicities[hh].numerator) / t.multiplicities[hh].denominator
                        acc += m * P[hh][i] * P[hh][j] * mp.conj(P[hh][l])
                    approx = acc / (t.n * kl)
                    dev = abs(approx - tensor[i, j, l])
                    worst = max(worst, dev)
        if worst > tol:
            raise ConsistencyError(
                f"numeric tensor deviates from exact by {float(worst)} > {tol}")
        return float(worst)
