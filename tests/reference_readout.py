"""Reference oracle for two record read-outs (tests only).

A frozen copy of ``ClosedForm.tensor()`` and ``CharacterTable.to_json_dict()``
as the package wrote them before each was rewritten for speed: the closed
form's planes gated as one int64 (or Python-int) array of integer ratios,
and the table serialized cell by cell, one new dict per position.  The
tests compare the package's read-outs with these on every scan record.
"""

from __future__ import annotations

import numpy as np

from skewfiss.exactnum import _triples
from skewfiss.scheme_core import IntersectionTensor
from skewfiss.spectra import CharacterTable, ClosedForm, InfeasibleError


def _int_array(values) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _gate(num, div, irrational, value, valencies) -> IntersectionTensor:
    bad = np.argwhere((num < 0) | (num % div != 0) | irrational)
    if len(bad):
        i, j, l = bad[0].tolist()
        x = value(i, j, l)
        raise InfeasibleError(f"p^{l}_({i},{j}) = {x} is not a nonnegative integer",
                              where=(i, j, l), value=x)
    return IntersectionTensor(p=tuple(tuple(map(tuple, plane)) for plane in (num // div).tolist()),
                              valencies=tuple(int(v) for v in valencies))


def closed_form_tensor(cf: ClosedForm) -> IntersectionTensor:
    """The completed integer tensor through _gate, on each entry's integer ratio."""
    planes = cf.planes()
    ratios = _int_array([[[x.as_integer_ratio() for x in row] for row in p] for p in planes])
    return _gate(ratios[..., 0], ratios[..., 1], False, lambda i, j, l: planes[i][j][l],
                 cf.valencies)


def table_json_dict(t: CharacterTable) -> dict:
    """The table as JSON-ready data, one cell dict built per position."""
    if t.kind == "surd":
        cells = [[{"re": _triples([x for x in e._num.items() if x[0] > 0], e._den),
                   "im": _triples([(-n, c) for n, c in e._num.items() if n < 0], e._den)}
                  for e in row] for row in t.entries]
    else:
        cells = [[{"a": [e.a.numerator, e.a.denominator],
                   "b": [e.b.numerator, e.b.denominator],
                   "c": [e.c.numerator, e.c.denominator],
                   "e": [e.e.numerator, e.e.denominator],
                   "q": e.q, "im_sign": e.im_sign} for e in row]
                 for row in t.entries]
    return {
        "kind": t.kind,
        "n": t.n,
        "multiplicities": [[m.numerator, m.denominator] for m in t.multiplicities],
        "valencies": [[v.numerator, v.denominator] for v in t.valencies],
        "entries": cells,
    }
