"""Finite matrix groups: tables, averaging, irreducibility, covers."""

import dataclasses
import hashlib

import numpy as np
import pytest

import irrepsk.finitegroup as finitegroup
from irrepsk.errors import (
    AmbiguousMatch,
    ExtensionOverflow,
    NotClosed,
    NotIrreducible,
    ProjectiveUnsupported,
)
from irrepsk.finitegroup import (
    BUILTIN_GROUPS,
    build_builtin,
    builtin_matrices,
    central_extend,
    check_irreducible,
    check_schur_orthogonality,
    infer_group,
)
from irrepsk.linalg import dist, op_norm, su_normalize

from helpers import average, check_cover_equivalence

BUILTIN_SHAPES = {
    # name -> (dim, order, projective)
    "pauli": (2, 4, True),
    "q8": (2, 8, False),
    "s3": (2, 6, True),
}


def test_builtin_catalog():
    assert set(BUILTIN_GROUPS) == {"pauli", "weyl", "q8", "s3"}


@pytest.mark.parametrize("name", ["pauli", "q8", "s3"])
def test_builtin_shapes(name):
    dim, order, projective = BUILTIN_SHAPES[name]
    rep = build_builtin(name)
    assert (rep.dim, rep.order, rep.projective) == (dim, order, projective)
    assert np.allclose(rep.elements[0], np.eye(dim), atol=1e-12)
    assert rep.closure_residual <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_builtin_weyl(d):
    rep = build_builtin("weyl", d)
    assert rep.dim == d
    assert rep.order == d * d
    assert rep.projective == (d > 1)
    for m in rep.elements:
        assert abs(np.linalg.det(m) - 1.0) <= 1e-10


def test_cayley_tables_match_products():
    rep = build_builtin("q8")
    rng = np.random.default_rng(0)
    for _ in range(40):
        i, j = rng.integers(rep.order, size=2)
        p = rep.elements[i] @ rep.elements[j]
        k = rep.cayley_index[i, j]
        ph = np.exp(1j * rep.cayley_phase[i, j])
        assert np.allclose(p, ph * rep.elements[k], atol=1e-10)


def test_cayley_associativity_spot_checks():
    rep = build_builtin("s3")
    rng = np.random.default_rng(1)
    for _ in range(60):
        i, j, k = rng.integers(rep.order, size=3)
        ij_k = rep.cayley_index[rep.cayley_index[i, j], k]
        i_jk = rep.cayley_index[i, rep.cayley_index[j, k]]
        assert ij_k == i_jk


def test_inverse_tables():
    for name in ("pauli", "q8", "s3"):
        rep = build_builtin(name)
        phases = rep.phase_candidates
        for g in range(rep.order):
            p = rep.elements[g] @ rep.elements[rep.inverse_index[g]]
            assert dist(p, np.eye(rep.dim), phases) <= 1e-10
            # inv_elements are exact inverses, not table representatives
            q = rep.elements[g] @ rep.inv_elements[g]
            assert np.allclose(q, np.eye(rep.dim), atol=1e-10)


@pytest.mark.parametrize("name,dim", [("pauli", None), ("weyl", 3), ("q8", None), ("s3", None)])
def test_averaging_collapses_to_trace(name, dim):
    rep = build_builtin(name, dim)
    rng = np.random.default_rng(2)
    d, n = rep.dim, rep.order
    for _ in range(25):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        want = n * np.trace(m) / d * np.eye(d)
        assert op_norm(average(rep, m) - want) <= 1e-9 * n * op_norm(m)


def test_averaging_annihilates_traceless():
    rep = build_builtin("pauli")
    z = np.diag([1.0 + 0j, -1.0])
    assert op_norm(average(rep, z)) <= 1e-12
    assert np.allclose(average(rep, np.eye(2)), 4 * np.eye(2), atol=1e-12)


def test_infer_group_roundtrip():
    rep = build_builtin("s3")
    again = infer_group(list(rep.elements))
    assert again.order == rep.order
    assert again.projective == rep.projective


def test_infer_group_rejects_reducible():
    z = su_normalize(np.diag([1.0 + 0j, -1.0]))
    with pytest.raises(NotIrreducible):
        infer_group([np.eye(2), z])
    with pytest.raises(NotIrreducible):
        infer_group([np.eye(2)])


def test_infer_group_rejects_open_set():
    rep = build_builtin("pauli")
    # {I, X, Y} without Z: the product XY leaves the set even up to phase
    with pytest.raises(NotClosed):
        infer_group([rep.elements[0], rep.elements[1], rep.elements[2]])


def test_infer_group_rejects_empty():
    with pytest.raises(NotClosed):
        infer_group([])


def test_infer_group_rejects_duplicates():
    i, x, y, z = build_builtin("pauli").elements
    with pytest.raises(AmbiguousMatch, match="equal"):
        infer_group([i, x, y, z, x.copy()])
    # -x is x up to phase; the set is not closed without phases, so the
    # projective fallback meets the duplicate
    with pytest.raises(AmbiguousMatch, match="phase-equivalent"):
        infer_group([i, x, y, z, -x])


def test_irreducibility_checked_once(monkeypatch):
    calls = []
    check = finitegroup.check_irreducible
    monkeypatch.setattr(finitegroup, "check_irreducible",
                        lambda rep: calls.append(rep) or check(rep))
    build_builtin("pauli")
    assert len(calls) == 1


# SHA-256 over elements, cayley_index and inverse_index (as int64) of the
# builtins below, recorded before the batched matcher replaced the
# per-product loops; a change to the matching must leave it unchanged.
# Re-recorded once (61f45605... before, under the SkylakeX OpenBLAS kernel)
# when the weyl elements began to be built without matrix products and the
# Cayley rows to be formed by linalg.matmul_stack: the tables are unchanged,
# the d = 3 and d = 5 elements moved by at most 2.5e-16, and the hash is now
# the same under every OpenBLAS kernel
GROUP_TABLES_SHA256 = "9eae13c30f5fa51a97ba8f20952e55896def10944f172f82620f9fb79a5de95e"


def test_group_tables_stay_bit_identical():
    h = hashlib.sha256()
    for name, dim in (("pauli", None), ("q8", None), ("s3", None),
                      ("weyl", 2), ("weyl", 3), ("weyl", 4), ("weyl", 5)):
        rep = build_builtin(name, dim)
        for a in (rep.elements, rep.cayley_index.astype(np.int64),
                  rep.inverse_index.astype(np.int64)):
            h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == GROUP_TABLES_SHA256


def test_irreducibility_report_is_quantitative():
    rep = build_builtin("pauli")
    report = check_irreducible(rep)
    assert report.irreducible
    assert report.residual <= 1e-10


def test_central_extend_orders():
    # d-th roots of unity only, so the cover order is |G| * k with k | d
    pauli = central_extend(build_builtin("pauli"))
    assert pauli.order == 8 and not pauli.projective
    weyl = central_extend(build_builtin("weyl", 3))
    assert weyl.order == 27 and not weyl.projective
    q8 = build_builtin("q8")
    assert central_extend(q8) is q8  # genuine rep is its own cover


def test_weyl5_cover_is_the_root_multiples():
    rep = build_builtin("weyl", 5)
    cover = central_extend(rep)
    assert cover.order == 125 and not cover.projective
    assert check_schur_orthogonality(cover) <= 1e-10
    roots = np.exp(2j * np.pi * np.arange(5) / 5)
    want = (roots[:, None, None, None] * rep.elements).reshape(-1, 5, 5)
    for m in cover.elements:
        assert dist(want, m).min() <= 1e-12


def test_central_extend_rejects_off_root_phases():
    rep = build_builtin("weyl", 3)
    phase = rep.cayley_phase.copy()
    phase[1, 2] += 0.1
    with pytest.raises(ExtensionOverflow):
        central_extend(dataclasses.replace(rep, cayley_phase=phase))


def test_schur_orthogonality():
    assert check_schur_orthogonality(build_builtin("q8")) <= 1e-10
    assert check_schur_orthogonality(central_extend(build_builtin("pauli"))) <= 1e-10
    with pytest.raises(ProjectiveUnsupported):
        check_schur_orthogonality(build_builtin("pauli"))


def test_cover_equivalence_residual():
    rng = np.random.default_rng(3)
    for name, dim in (("pauli", None), ("weyl", 3)):
        rep = build_builtin(name, dim)
        cover = central_extend(rep)
        for _ in range(10):
            m = rng.normal(size=(rep.dim, rep.dim)) + 1j * rng.normal(size=(rep.dim, rep.dim))
            assert check_cover_equivalence(rep, m, cover) <= 1e-10


def test_conjugation_stays_in_group():
    rep = build_builtin("pauli")
    phases = rep.phase_candidates
    for g in range(rep.order):
        for h in range(rep.order):
            c = rep.elements[g] @ rep.elements[h] @ rep.inv_elements[g]
            best = min(
                dist(c, rep.elements[k], phases) for k in range(rep.order)
            )
            assert best <= 1e-10


def test_builtin_matrices_names_align():
    mats, names = builtin_matrices("pauli")
    assert len(mats) == len(names) == 4
    assert names[0] == "I"
