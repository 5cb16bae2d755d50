"""Write the compile_skewed gate set: the Paulis, H and T', where T' = T R.

R is a rotation by 1e-3 rad about the fixed axis (1, 2, 3) / sqrt(14).  No
net word is an exact inverse of T', so its inverse must come from a real
symmetrization pass.  Run from the repository root:

    python3 perfbench/make_tprime.py

The output, perfbench/gatesets/pauli_ht_tprime.json, is committed; the
benchmark only reads it.
"""

import json
from pathlib import Path

import numpy as np

SKEW_AXIS = (1.0, 2.0, 3.0)
SKEW_ANGLE = 1e-3
OUT = Path(__file__).resolve().parent / "gatesets" / "pauli_ht_tprime.json"


def literal(m):
    return [[float(v.real), float(v.imag)] for v in np.asarray(m).reshape(-1)]


def tprime():
    n = np.asarray(SKEW_AXIS) / np.linalg.norm(SKEW_AXIS)
    sigma = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
             np.array([[1, 0], [0, -1]]))
    nsig = sum(c * s for c, s in zip(n, sigma))
    r = np.cos(SKEW_ANGLE / 2) * np.eye(2) - 1j * np.sin(SKEW_ANGLE / 2) * nsig
    t = np.diag([1.0, np.exp(1j * np.pi / 4)])
    return t @ r


def main():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    doc = {
        "dimension": 2,
        "mode": "su",
        "tolerance": 1e-09,
        "irrep": {"builtin": "pauli"},
        "gates": [{"name": "H", "matrix": literal(h)},
                  {"name": "Tp", "matrix": literal(tprime())}],
    }
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
