"""Gate-set documents: parsing, validation, words, the basin constant."""

import json
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from irrepsk import load_gateset, parse_gateset
from irrepsk.errors import BallError, ClassError, IrrepError, SchemaError
from irrepsk.finitegroup import build_builtin
from irrepsk.gateset import (
    GateWord,
    eps0_constant,
    make_word,
    matrix_to_literal,
    parse_matrix_literal,
    word_product,
)
from irrepsk.linalg import matmul_stack, random_su

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def doc_su(gates=(), irrep=None):
    return {
        "dimension": 2,
        "mode": "su",
        "irrep": irrep or {"builtin": "pauli"},
        "gates": list(gates),
    }


def gate(name, m):
    return {"name": name, "matrix": matrix_to_literal(np.asarray(m, dtype=complex))}


def test_parse_pauli_ht(ht_gateset):
    gs = ht_gateset
    assert gs.names == ("I", "X", "Y", "Z", "H", "T")
    # the irrep's elements come first, then the extra gates
    assert gs.rep.order == 4
    assert np.array_equal(gs.matrices[:gs.rep.order], gs.rep.elements)
    assert len(gs.matrices) == gs.rep.order + 2
    assert gs.mode == "su"
    # su mode stores determinant-1 representatives
    assert np.allclose(gs.matrices[4], -1j * H, atol=1e-12)
    assert np.allclose(
        gs.matrices[5],
        np.diag([np.exp(-1j * np.pi / 8), np.exp(1j * np.pi / 8)]),
        atol=1e-12,
    )
    for m in gs.matrices:
        assert abs(np.linalg.det(m) - 1.0) <= 1e-10


def test_eps0_constants():
    # 1 / (6 n (d-1)! + 2 n^2) for group order n in dimension d, to the bit:
    # it is 1 / (2 C) for the contraction constant C, and 2 C is an exact
    # integer
    assert eps0_constant(build_builtin("pauli")) == 1 / 56
    assert eps0_constant(build_builtin("weyl", 3)) == 1 / 270
    assert eps0_constant(build_builtin("q8")) == 1 / 176
    # larger groups shrink the basin
    assert eps0_constant(build_builtin("pauli")) > eps0_constant(build_builtin("q8"))


def test_eps0_accepts_gateset(ht_gateset):
    assert eps0_constant(ht_gateset) == pytest.approx(1 / 56)


def test_parse_requires_schema_fields():
    with pytest.raises(SchemaError):
        parse_gateset({"mode": "su", "irrep": {"builtin": "pauli"}})
    with pytest.raises(SchemaError):
        parse_gateset({"dimension": 2, "mode": "xx", "irrep": {"builtin": "pauli"}})
    with pytest.raises(SchemaError):
        parse_gateset(doc_su(irrep={"wrong": 1}))
    with pytest.raises(SchemaError):
        parse_gateset(doc_su(gates=[{"name": "H"}]))
    with pytest.raises(SchemaError):
        parse_gateset("not valid json {")


def test_parse_refuses_booleans_for_numbers():
    # Python counts a bool as an int, but a JSON true or false is no number:
    # "tolerance": true was read as 1.0 and "dimension": true as 1
    for doc, field in (({**doc_su(), "dimension": True}, "'dimension'"),
                       ({**doc_su(), "tolerance": True}, "'tolerance'"),
                       ({**doc_su(), "mode": "sl", "sl_radius": True}, "'sl_radius'")):
        with pytest.raises(SchemaError, match=field):
            parse_gateset(json.dumps(doc))


def test_matrix_literal_refuses_booleans():
    # [true, false] was read as 1 + 0j, so a gate of booleans parsed
    eye = [[True, False], [False, False], [False, False], [True, False]]
    with pytest.raises(SchemaError, match="target: entries must be"):
        parse_matrix_literal(eye, 2, "target")
    with pytest.raises(SchemaError, match="gate 'B': entries must be"):
        parse_gateset(json.dumps(doc_su(gates=[{"name": "B", "matrix": eye}])))


def test_parse_rejects_duplicate_names():
    d = doc_su(gates=[gate("X", H)])  # clashes with the irrep element name
    with pytest.raises(SchemaError):
        parse_gateset(d)


def test_parse_rejects_reducible_irrep():
    z = np.diag([1.0 + 0j, -1.0 + 0j])
    d = doc_su(irrep={"matrices": [matrix_to_literal(np.eye(2, dtype=complex)),
                                   matrix_to_literal(z)]})
    with pytest.raises(IrrepError):
        parse_gateset(d)


def test_parse_rejects_nonunitary_gate_in_su_mode():
    d = doc_su(gates=[gate("D", np.diag([2.0, 0.5]))])
    with pytest.raises(ClassError):
        parse_gateset(d)


def test_matrix_literal_roundtrip():
    rng = np.random.default_rng(12)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    lit = matrix_to_literal(m)
    back = parse_matrix_literal(lit, 3, "test")
    assert np.array_equal(back, m)
    with pytest.raises(SchemaError):
        parse_matrix_literal(lit[:-1], 3, "test")


def test_sl_ball_check_covers_every_generator():
    base = {
        "dimension": 2,
        "mode": "sl",
        "irrep": {"builtin": "pauli"},
        "gates": [gate("D", np.diag([2.0, 0.5]))],
    }
    # su-form Paulis sit at distance sqrt(2) from I, D at distance 1
    ok = parse_gateset({**base, "sl_radius": 1.5})
    assert ok.sl_radius == 1.5
    with pytest.raises(BallError):
        parse_gateset({**base, "sl_radius": 1.0})
    with pytest.raises(SchemaError):
        parse_gateset(base)  # sl mode needs the radius


def tree_product(gens, idx):
    """The pairwise tree over gens[idx] itself: each round multiplies
    neighbours (0, 1), (2, 3), ... and carries an odd last factor."""
    m = gens[np.asarray(idx, dtype=np.intp)]
    while len(m) > 1:
        pairs = matmul_stack(m[0:-1:2], m[1::2])
        m = np.concatenate([pairs, m[-1:]]) if len(m) % 2 else pairs
    return m[0] if len(m) else np.eye(gens.shape[1], dtype=complex)


@pytest.mark.parametrize("length", [0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 1000, 4096, 4097])
@pytest.mark.parametrize("gateset", ["ht_gateset", "slp_gateset", "weyl3", "random70"])
def test_word_monoid(request, gateset, length):
    # word_product regroups the factors into a tree, so it matches the left
    # fold up to round-off that grows with the length (and the norm, in sl
    # mode); the d = 3 stack runs the product kernel's loop past k = 1.  The
    # lengths straddle the block sizes: 4 tokens for the 5- and 6-generator
    # sets, 2 for the nine Weyl elements, 1 (no table) for 70 generators
    if gateset == "weyl3":
        gens = build_builtin("weyl", 3).elements
    elif gateset == "random70":
        rng = np.random.default_rng(70)
        gens = np.stack([random_su(2, rng) for _ in range(70)])
    else:
        gens = request.getfixturevalue(gateset).matrices
    rng = np.random.default_rng(13)
    idx = tuple(int(i) for i in rng.integers(len(gens), size=length))
    w = make_word(gens, idx)
    assert w.length == length
    d = gens.shape[1]
    oracle = reduce(np.matmul, [gens[i] for i in idx], np.eye(d, dtype=complex))
    tol = 4 * max(length, 1) * 2.0 ** -52 * max(1.0, np.linalg.norm(oracle, 2))
    assert np.linalg.norm(w.product - oracle, 2) <= tol
    # the block table holds what the tree's first rounds compute: bit for bit
    assert np.array_equal(word_product(gens, idx), tree_product(gens, idx))
    assert np.array_equal(word_product(gens, idx), w.product)
    # an int array (empty at length 0) builds the same word; tokens are a
    # read-only 1-D intp array either way
    wa = make_word(gens, np.array(idx, dtype=int))
    assert wa.tokens.tolist() == list(idx)
    for t in (w.tokens, wa.tokens):
        assert t.dtype == np.intp and t.ndim == 1 and not t.flags.writeable
    assert np.array_equal(wa.product, w.product)


def test_word_product_reads_current_entries():
    # the block table is cached per generator array; every call must still
    # multiply the entries the array holds at that call
    rng = np.random.default_rng(21)
    a = np.stack([random_su(2, rng) for _ in range(6)])
    b = np.stack([random_su(2, rng) for _ in range(6)])
    idx = rng.integers(6, size=103)
    for gens in (a, b, a):  # same shape, different entries
        assert np.array_equal(word_product(gens, idx), tree_product(gens, idx))
    a[2] = random_su(2, rng)  # changed in place between two calls
    assert np.array_equal(word_product(a, idx), tree_product(a, idx))
    real = rng.normal(size=(6, 2, 2))
    p = word_product(real, idx)
    assert p.dtype == np.float64
    assert np.array_equal(p, tree_product(real, idx))
    # the same bytes as a, read as twelve real matrices
    flat = a.view(np.float64).reshape(12, 2, 2)
    idx12 = rng.integers(12, size=103)
    assert np.array_equal(word_product(flat, idx12), tree_product(flat, idx12))
    with pytest.raises(IndexError):
        word_product(a, [0, 1, 2, 6])
    with pytest.raises(IndexError):
        word_product(a, [0, -1, 2, 3])


def test_word_product_memory(ht_gateset):
    # the fold gathers one 2x2 complex matrix (64 B) per block of four
    # tokens, so its gather and tree temporaries stay well below 64 B a token
    gens = ht_gateset.matrices
    idx = np.random.default_rng(3).integers(len(gens), size=40_000)
    word_product(gens, idx)  # builds the table outside the measurement
    tracemalloc.start()
    try:
        word_product(gens, idx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * len(idx)


def test_make_word_owns_its_tokens(ht_gateset):
    # an intp array is what np.asarray would hand back unchanged; make_word
    # copies it, and the word's own arrays refuse writes
    gens = ht_gateset.matrices
    idx = np.array([1, 4, 5, 2, 5, 3, 4], dtype=np.intp)
    w = make_word(gens, idx)
    product = w.product.copy()
    idx[:] = 0
    assert w.tokens.tolist() == [1, 4, 5, 2, 5, 3, 4]
    assert np.array_equal(w.product, product)
    assert np.array_equal(w.product, word_product(gens, w.tokens))
    with pytest.raises(ValueError):
        w.tokens[0] = 0
    with pytest.raises(ValueError):
        w.product[0, 0] = 0


def test_gateword_converts_a_token_sequence(ht_gateset):
    # a tuple of ints, the tokens' old form, still builds a word
    gens = ht_gateset.matrices
    w = GateWord((1, 4, 5), word_product(gens, np.array([1, 4, 5])))
    assert w.tokens.dtype == np.intp and w.tokens.ndim == 1
    assert w.tokens.tolist() == [1, 4, 5] and not w.tokens.flags.writeable
    assert GateWord((), np.eye(2)).length == 0


def test_empty_word_is_identity(ht_gateset):
    w = make_word(ht_gateset.matrices, ())
    assert w.length == 0
    assert np.allclose(w.product, np.eye(2), atol=1e-15)


def test_fingerprint_tracks_content():
    doc = {
        "dimension": 2,
        "mode": "su",
        "irrep": {"builtin": "pauli"},
        "gates": [gate("H", H)],
    }
    a = parse_gateset(json.loads(json.dumps(doc)))
    b = parse_gateset(json.loads(json.dumps(doc)))
    assert a.fingerprint == b.fingerprint
    doc["tolerance"] = 1e-8
    c = parse_gateset(doc)
    assert c.fingerprint != a.fingerprint


def test_load_gateset_roundtrip(tmp_path):
    doc = doc_su(gates=[gate("H", H)])
    p = tmp_path / "set.json"
    p.write_text(json.dumps(doc))
    gs = load_gateset(p)
    assert gs.names[-1] == "H"
    assert isinstance(gs, type(parse_gateset(doc)))
