"""Command-line behavior, exit codes, and artifact files."""

import csv
import hashlib
import inspect
import json
import re
import shlex
import warnings
from pathlib import Path

import pytest

import irrepsk.cli
import irrepsk.net
from irrepsk import errors
from irrepsk.cli import main
from irrepsk.gateset import load_gateset

ROOT = Path(__file__).resolve().parent.parent
GATESETS = ROOT / "gatesets"
HT = str(GATESETS / "pauli_ht.json")
SKEW = str(GATESETS / "pauli_skew.json")
SLP = str(GATESETS / "sl_perturbed.json")
SL = str(GATESETS / "sl_pauli_scale.json")


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_validate_projective_set(capsys):
    rc, out, _ = run(capsys, "validate", "--gateset", HT)
    assert rc == 0
    assert "6 generators (2 extra)" in out
    assert "projective irrep" in out
    assert "eps0 0.0178571" in out
    assert "cover: order 8 (k = 2)" in out
    assert "fingerprint:" in out


def test_validate_genuine_set(capsys, tmp_path):
    p = tmp_path / "q8.json"
    p.write_text(json.dumps({
        "dimension": 2, "mode": "su", "irrep": {"builtin": "q8"}, "gates": [],
    }))
    rc, out, _ = run(capsys, "validate", "--gateset", str(p))
    assert rc == 0
    assert "genuine irrep" in out
    assert "Schur residual:" in out


def test_validate_missing_file(capsys):
    rc, _, err = run(capsys, "validate", "--gateset", "/nonexistent.json")
    assert rc == 3
    assert "error:" in err


def test_validate_schema_error(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"dimension": 2}))
    rc, _, err = run(capsys, "validate", "--gateset", str(p))
    assert rc == 1
    assert "error:" in err


def test_net_build_probe_save(capsys, tmp_path):
    out_file = tmp_path / "net.json"
    rc, out, _ = run(capsys, "net", "--gateset", SKEW, "--length", "3",
                     "--probe", "20", "--out", str(out_file))
    assert rc == 0
    assert "net: " in out
    assert "probed density:" in out
    assert f"saved: {out_file}" in out
    assert out_file.exists()


def test_net_requires_length_or_auto(capsys):
    rc, _, err = run(capsys, "net", "--gateset", SKEW)
    assert rc == 1
    assert "error:" in err


def test_net_auto_gives_up_when_density_stalls(capsys, tmp_path):
    # the bare Pauli products close into 8 points: density never reaches eps0
    p = tmp_path / "pauli.json"
    p.write_text(json.dumps({
        "dimension": 2, "mode": "su", "irrep": {"builtin": "pauli"}, "gates": [],
    }))
    rc, _, err = run(capsys, "net", "--gateset", str(p), "--auto")
    assert rc == 2
    assert "error:" in err


def _no_net(*args, **kwargs):
    raise AssertionError("a net was built or loaded")


def test_net_auto_refuses_a_set_outside_su_mode(capsys, monkeypatch):
    # an sl set's probed density against SU(2) targets stays at 0.92-0.95
    # up to length 10, far above eps0, so --auto never ended; it is refused
    # before anything is built
    monkeypatch.setattr(irrepsk.net, "_nets", _no_net)
    rc, out, err = run(capsys, "net", "--gateset", SLP, "--auto")
    assert rc == 1 and out == ""
    assert err == "error: --auto probes SU(d) targets and needs su mode, not sl\n"


@pytest.mark.parametrize("argv", [
    ("compile", "--target", "[[1,0],[0,0],[0,0],[1,0]]", "--epsilon", "1e-3"),
    ("bench", "--epsilon", "1e-3", "--trials", "2"),
], ids=["compile", "bench"])
@pytest.mark.parametrize("nets", [("--base-length", "10", "--refine-length", "6"),
                                  ("--base-net", "base.net", "--refine-net", "refine.net")],
                         ids=["built", "loaded"])
def test_base_compiler_refuses_an_sl_set_before_any_net(capsys, monkeypatch, argv, nets):
    # the base compiler needs d = 2, su mode; compile and bench built (or
    # loaded) both nets before they found out.  Exit code 2 as before
    monkeypatch.setattr(irrepsk.cli, "build_gateset_net", _no_net)
    monkeypatch.setattr(irrepsk.cli, "load_net", _no_net)
    rc, out, err = run(capsys, argv[0], "--gateset", SLP, *argv[1:], *nets)
    assert rc == 2 and out == ""
    assert err == "error: the base compiler handles d = 2, su mode only\n"


def test_refine_inverse_needs_finer_net(capsys, tmp_path):
    # identity-only net: no start word lands inside the contraction basin
    net_file = tmp_path / "coarse.json"
    rc, *_ = run(capsys, "net", "--gateset", SKEW, "--length", "0",
                 "--out", str(net_file))
    assert rc == 0
    rc, _, err = run(capsys, "refine-inverse", "--gateset", SKEW,
                     "--gate", "S", "--epsilon", "1e-6", "--net", str(net_file))
    assert rc == 2
    assert "error:" in err


def test_refine_inverse_with_naive_compare(capsys):
    rc, out, _ = run(capsys, "refine-inverse", "--gateset", SKEW,
                     "--gate", "S", "--epsilon", "1e-6", "--length", "4",
                     "--naive-compare")
    assert rc == 0
    assert "inverse word for S: length 109" in out
    assert "iteration errors:" in out
    assert "naive power inverse needs 967141 gates" in out


def test_refine_inverse_json_report(capsys):
    rc, out, _ = run(capsys, "refine-inverse", "--gateset", SKEW,
                     "--gate", "S", "--epsilon", "1e-6", "--length", "4",
                     "--naive-compare", "--json")
    assert rc == 0
    doc = json.loads(out)  # --json output is a single document
    assert doc["gate"] == "S"
    assert doc["ok"] is True
    assert doc["length"] == 109
    assert doc["error"] <= 1e-6
    assert doc["trace"]["lengths"] == [5, 26, 110]
    assert doc["naive_length"] == 967141


def test_refine_inverse_sl_mode(capsys):
    rc, out, _ = run(capsys, "refine-inverse", "--gateset", SLP,
                     "--gate", "P", "--epsilon", "1e-6", "--length", "3",
                     "--mode", "sl")
    assert rc == 0
    assert "inverse word for P: length 21" in out


@pytest.mark.parametrize("path, gate, modulus", [(SL, "D", "modulus 2,"),
                                                 (SLP, "P", "modulus 2.002")])
def test_naive_compare_refuses_an_eigenvalue_modulus_off_one(capsys, path, gate, modulus):
    # no power of a gate with an eigenvalue modulus off 1 by more than eps
    # comes within eps of a phase times I: exit 2 naming the modulus, before
    # a power loop that would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, _, err = run(capsys, "refine-inverse", "--gateset", path, "--gate", gate,
                         "--epsilon", "1e-6", "--length", "3", "--naive-compare")
    assert rc == 2
    assert modulus in err


def test_refine_inverse_exact_table(capsys):
    rc, out, _ = run(capsys, "refine-inverse", "--gateset", HT,
                     "--gate", "X", "--epsilon", "1e-8", "--length", "2")
    assert rc == 0
    assert "exact table inverse" in out


def test_compile_axis_target_and_word_file(capsys, tmp_path):
    word_file = tmp_path / "word.txt"
    rc, out, _ = run(capsys, "compile", "--gateset", HT,
                     "--target", "axis:0,0,1:0.7", "--epsilon", "1e-3",
                     "--base-length", "12", "--refine-length", "8",
                     "--out", str(word_file))
    assert rc == 0
    assert "error" in out and "wall time" in out
    names = word_file.read_text().split()
    assert names  # non-empty word
    assert set(names) <= {"I", "X", "Y", "Z", "H", "T"}  # no inverse marks


def test_compile_json_report(capsys):
    rc, out, _ = run(capsys, "compile", "--gateset", HT,
                     "--target", "random", "--seed", "3", "--epsilon", "1e-2",
                     "--base-length", "10", "--refine-length", "8", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["error"] <= 1e-2
    assert doc["inverted_extras"] >= 0
    assert isinstance(doc["depth"], int) and doc["depth"] >= 0
    assert isinstance(doc["rotation"], int) and 0 <= doc["rotation"] < 2 * 16
    assert sum(doc["inverted_counts"].values()) == doc["inverted_extras"]


def test_compile_json_with_word_file_prints_one_document(capsys, tmp_path):
    # stdout is the report alone; the word file's confirmation goes to stderr
    word_file = tmp_path / "word.txt"
    rc, out, err = run(capsys, "compile", "--gateset", HT, "--target", "axis:0,0,1:0.7",
                       "--epsilon", "1e-2", "--base-length", "8", "--refine-length", "6",
                       "--json", "--out", str(word_file))
    assert rc == 0
    doc = json.loads(out)
    assert err == f"saved word: {word_file}\n"
    names = word_file.read_text().split()
    assert len(names) == doc["length"] == len(doc["indices"])
    assert names == [load_gateset(HT).names[i] for i in doc["indices"]]


def test_compile_inline_matrix_target(capsys):
    # su-form X as an explicit [re, im] literal
    target = "[[0,0],[0,-1],[0,-1],[0,0]]"
    rc, out, _ = run(capsys, "compile", "--gateset", HT,
                     "--target", target, "--epsilon", "1e-6",
                     "--base-length", "8", "--refine-length", "6")
    assert rc == 0


def test_compile_target_file(capsys, tmp_path):
    tfile = tmp_path / "target.json"
    tfile.write_text("[[0,0],[0,-1],[0,-1],[0,0]]")
    rc, out, _ = run(capsys, "compile", "--gateset", HT,
                     "--target", f"@{tfile}", "--epsilon", "1e-6",
                     "--base-length", "8", "--refine-length", "6")
    assert rc == 0


def test_compile_mode_mismatch(capsys):
    rc, _, err = run(capsys, "compile", "--gateset", SL, "--mode", "su",
                     "--target", "random", "--epsilon", "1e-3",
                     "--base-length", "4", "--refine-length", "3")
    assert rc == 1
    assert "error:" in err


def test_compile_bad_axis_spec(capsys):
    rc, _, err = run(capsys, "compile", "--gateset", HT,
                     "--target", "axis:1,2:0.5", "--epsilon", "1e-3",
                     "--base-length", "6", "--refine-length", "4")
    assert rc == 1
    assert "axis" in err


def test_booleans_for_numbers_exit_as_their_file_is_refused(capsys, tmp_path):
    # a boolean in a gate set or a target exits 1 (SchemaError), in a net
    # header 3 (FormatError), each naming the field
    doc = json.loads(Path(HT).read_text()) | {"tolerance": True}
    (tmp_path / "gs.json").write_text(json.dumps(doc))
    rc, _, err = run(capsys, "validate", "--gateset", str(tmp_path / "gs.json"))
    assert rc == 1 and "'tolerance'" in err
    target = "[[true,false],[false,false],[false,false],[true,false]]"
    rc, _, err = run(capsys, "compile", "--gateset", HT, "--target", target,
                     "--epsilon", "1e-2", "--base-length", "4", "--refine-length", "4")
    assert rc == 1 and "target: entries must be" in err
    net = tmp_path / "net.json"
    assert run(capsys, "net", "--gateset", HT, "--length", "4", "--out", str(net))[0] == 0
    head, body = net.read_text().split("\n", 1)
    header = json.loads(head)
    header["levels"][:2] = [False, True]
    net.write_text(json.dumps(header) + "\n" + body)
    rc, _, err = run(capsys, "refine-inverse", "--gateset", HT, "--gate", "T",
                     "--epsilon", "1e-6", "--net", str(net))
    assert rc == 3 and "'levels'" in err


def test_compile_with_saved_nets(capsys, tmp_path):
    base_file = tmp_path / "base.json"
    refine_file = tmp_path / "refine.json"
    rc, *_ = run(capsys, "net", "--gateset", HT, "--length", "10",
                 "--with-inverses", "--out", str(base_file))
    assert rc == 0
    rc, *_ = run(capsys, "net", "--gateset", HT, "--length", "8",
                 "--out", str(refine_file))
    assert rc == 0
    rc, out, _ = run(capsys, "compile", "--gateset", HT,
                     "--target", "random", "--seed", "5", "--epsilon", "1e-2",
                     "--base-net", str(base_file), "--refine-net", str(refine_file))
    assert rc == 0


def test_a_net_over_the_other_alphabet_is_named_as_such(capsys, tmp_path):
    # compile's base net holds the inverses, refine-inverse's net does not;
    # each refuses the other kind with exit 3, naming --with-inverses
    fwd, inv = tmp_path / "fwd.net", tmp_path / "inv.net"
    assert run(capsys, "net", "--gateset", HT, "--length", "6", "--out", str(fwd))[0] == 0
    assert run(capsys, "net", "--gateset", HT, "--length", "6", "--with-inverses",
               "--out", str(inv))[0] == 0
    rc, _, err = run(capsys, "compile", "--gateset", HT, "--target", "axis:0,0,1:0.7",
                     "--epsilon", "1e-2", "--base-net", str(fwd))
    assert rc == 3
    assert "net without inverses" in err and "--with-inverses" in err
    assert "different gate set" not in err
    rc, _, err = run(capsys, "refine-inverse", "--gateset", HT, "--gate", "T",
                     "--epsilon", "1e-6", "--net", str(inv))
    assert rc == 3
    assert "net with inverses" in err and "--with-inverses" in err
    assert "different gate set" not in err


def test_bench_csv_is_deterministic(capsys, tmp_path):
    args = ("bench", "--gateset", HT, "--epsilon", "1e-2,1e-3", "--trials", "2",
            "--seed", "9", "--base-length", "10", "--refine-length", "8",
            "--naive-compare")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc1, out1, _ = run(capsys, *args, "--csv", str(a))
    rc2, out2, _ = run(capsys, *args, "--csv", str(b))
    assert rc1 == rc2 == 0
    assert a.read_bytes() == b.read_bytes()
    with open(a, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert all(r["status"] == "ok" for r in rows)
    assert {r["eps"] for r in rows} == {"0.01", "0.001"}
    assert all(int(r["naive_length"]) >= 1 for r in rows)
    assert "summary:" in out1


# main's exit code for an exception escaping a command: 1 for a gate-set or
# argument failure, 2 when the compiler cannot reach the tolerance, 3 for a
# file problem.  No package path lets a json.JSONDecodeError escape (each
# parser turns it into a SchemaError or FormatError), so one that did would
# get the code of its base class, ValueError
EXIT_CODES = {
    "CompilerError": 1, "InvalidMatrix": 1, "DimError": 1, "ClassError": 1,
    "GroupError": 1, "NotClosed": 1, "NotIrreducible": 1, "AmbiguousMatch": 1,
    "ProjectiveUnsupported": 1, "ExtensionOverflow": 1, "GroupTooLarge": 1,
    "SchemaError": 1, "IrrepError": 1, "BallError": 1, "ValueError": 1,
    "CompileFailure": 2, "NetTooCoarse": 2, "DimUnsupported": 2, "TooFar": 2,
    "Stalled": 2, "NonConvergent": 2, "BallExit": 2, "EmptyNet": 2,
    "BudgetExceeded": 2,
    "CacheError": 3, "FormatError": 3, "StaleGateSet": 3, "OSError": 3,
    "JSONDecodeError": 1,
}
ERROR_CLASSES = [c for _, c in inspect.getmembers(errors, inspect.isclass)
                 if c.__module__ == errors.__name__]


def _raised(cls):
    if cls is errors.Stalled:
        return cls("stalled", best_error=1e-9, best_pass=3, floor=1e-13)
    if cls is json.JSONDecodeError:
        return cls("bad document", "{", 1)
    return cls("failed")


@pytest.mark.parametrize("cls", ERROR_CLASSES + [OSError, ValueError, json.JSONDecodeError],
                         ids=lambda c: c.__name__)
def test_exit_code_of_each_error_class(capsys, monkeypatch, cls):
    def fail(path):
        raise _raised(cls)

    monkeypatch.setattr(irrepsk.cli, "load_gateset", fail)
    rc, out, err = run(capsys, "validate", "--gateset", HT)
    assert rc == EXIT_CODES[cls.__name__]
    assert out == "" and err.startswith("error: ")


# SHA-256 of the CSV below.  Rows print errors to 7 digits, so a change that
# keeps the algorithm keeps these bytes.  Re-recorded when compile_target
# began to accept an SK depth on the measured total error (trial 1 at 1e-2
# and trial 0 at 1e-3 drop a depth: lengths 9774 -> 1990 and 46290 -> 9210),
# and again when each SK depth began to search its top commutator pair
# (every trial ends a depth shallower: lengths 2030, 1990, 1704 -> 396, 344,
# 346 at 1e-2 and 9210, 9774, 9144 -> 1780, 1852, 1902 at 1e-3), and again
# when the base word began to be freely reduced before substitution (every
# error is the same to 7 digits and every trial shorter: lengths 396, 344,
# 346 -> 384, 252, 288 at 1e-2 and 1780, 1852, 1902 -> 1694, 1622, 1764 at
# 1e-3, with base lengths and inverted extras falling alike), and again when
# the base net began to work up to sign over the phase-reduced alphabet
# (hash fd4cef39... before; every error is the same to 7 digits and no trial
# longer: lengths 384, 252, 288 -> 360, 252, 282 at 1e-2 and 1694, 1622,
# 1764 -> 1650, 1550, 1686 at 1e-3, inverted extras 123, 80, 92 -> 63, 44,
# 50 and 545, 518, 570 -> 282, 269, 289), and again when the refinement
# seed scan became one scan for every mode (hash 2e6dcf11... before): the
# seed word and every other field are the same, and eps_k's first entry,
# the seed's round-off error, is now measured as dist(V U, I), as every
# later pass is, rather than dist(V, U^-1): 1.110223e-16 -> 1.557827e-16.
BENCH_CSV_SHA256 = "417705a2c5bf9337da18aadaf93cc2d26ceecbcba4cc4e8359cbdb589e2f2247"


def test_bench_csv_is_byte_stable(capsys, tmp_path):
    out = tmp_path / "bench.csv"
    rc, *_ = run(capsys, "bench", "--gateset", HT, "--epsilon", "1e-2,1e-3",
                 "--trials", "3", "--base-length", "12", "--refine-length", "6",
                 "--naive-compare", "--csv", str(out))
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BENCH_CSV_SHA256


def test_bench_reports_misses(capsys, tmp_path):
    rc, out, err = run(capsys, "bench", "--gateset", HT, "--epsilon", "1e-6",
                       "--trials", "1", "--base-length", "6",
                       "--refine-length", "6", "--max-depth", "3")
    assert rc == 2
    assert "FAILED" in out or "MISS" in out


def test_bench_without_trials_writes_header_only(capsys, tmp_path):
    out = tmp_path / "empty.csv"
    rc, _, _ = run(capsys, "bench", "--gateset", HT, "--epsilon", "1e-2",
                   "--trials", "0", "--base-length", "4", "--refine-length", "4",
                   "--csv", str(out))
    assert rc == 0
    assert out.read_text() == ("trial,eps,status,error,length,base_length,"
                               "inverted_extras,eps_k,ell_k,naive_length\n")


@pytest.mark.parametrize("argv", [
    ("compile", "--gateset", HT, "--target", "random", "--base-length", "12",
     "--refine-length", "6"),
    ("refine-inverse", "--gateset", SKEW, "--gate", "S", "--length", "4"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("eps", ["0", "-1e-3", "nan", "inf"])
def test_impossible_epsilon_is_rejected_up_front(capsys, argv, eps):
    # checked before the nets are built: no depth meets eps = 0, so compile
    # would run all ten SK depths (about 1 GB) and then blame the net with
    # exit code 2
    rc, out, err = run(capsys, *argv, f"--epsilon={eps}")
    assert rc == 1 and out == ""
    assert err == f"error: --epsilon must be positive and finite, got {float(eps):g}\n"


def test_bench_rejects_each_impossible_epsilon(capsys):
    rc, out, err = run(capsys, "bench", "--gateset", HT, "--epsilon", "1e-2,0",
                       "--trials", "1", "--base-length", "12", "--refine-length", "6")
    assert rc == 1 and out == ""
    assert err == "error: --epsilon must be positive and finite, got 0\n"


def test_bench_rejects_negative_trials(capsys):
    # SeedSequence.spawn(-1) raises OverflowError, which has no exit code
    rc, out, err = run(capsys, "bench", "--gateset", HT, "--epsilon", "1e-2",
                       "--trials", "-1", "--base-length", "4", "--refine-length", "4")
    assert rc == 1 and out == ""
    assert err == "error: --trials must be at least 0, got -1\n"


@pytest.mark.parametrize("argv, message", [
    (("compile", "--gateset", HT, "--target", "random", "--epsilon", "1e-3",
      "--base-length", "12", "--refine-length", "6", "--max-depth", "-1"),
     "--max-depth must be at least 0, got -1"),
    (("compile", "--gateset", HT, "--target", "random", "--epsilon", "1e-3",
      "--base-length", "-2", "--refine-length", "6"),
     "net word length must be at least 0, got -2"),
    (("net", "--gateset", HT, "--length", "-1"),
     "net word length must be at least 0, got -1"),
], ids=["max-depth", "base-length", "net-length"])
def test_impossible_depth_and_length_are_rejected_up_front(capsys, argv, message):
    # a negative depth cap ran no depth and blamed the net with exit code 2;
    # a negative word length surfaced islice's own message
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("net", "--gateset", HT, "--length", "3", "--probe", "-3"),
     "--probe must be at least 0, got -3"),
    (("net", "--gateset", HT, "--length", "3", "--budget", "-1"),
     "net word budget must be at least 1, got -1"),
    (("net", "--gateset", HT, "--length", "0", "--budget", "0"),
     "net word budget must be at least 1, got 0"),
    (("net", "--gateset", HT, "--auto", "--budget", "0"),
     "net word budget must be at least 1, got 0"),
    (("compile", "--gateset", HT, "--target", "random", "--epsilon", "1e-3",
      "--base-length", "4", "--refine-length", "3", "--budget", "0"),
     "net word budget must be at least 1, got 0"),
    (("bench", "--gateset", HT, "--epsilon", "1e-2", "--trials", "1",
      "--base-length", "4", "--refine-length", "3", "--budget", "0"),
     "net word budget must be at least 1, got 0"),
    (("refine-inverse", "--gateset", SKEW, "--gate", "S", "--epsilon", "1e-3",
      "--length", "3", "--budget", "0"),
     "net word budget must be at least 1, got 0"),
    (("scan-orderings", "--builtin", "s3", "--show", "-1"),
     "--show must be at least 0, got -1"),
], ids=["net-probe", "net-budget", "net-budget-zero", "net-auto-budget", "compile-budget",
        "bench-budget", "refine-inverse-budget", "scan-show"])
def test_impossible_probe_budget_and_show_are_rejected_up_front(capsys, argv, message):
    # a negative probe count died in su2_to_quaternion with an IndexError; a
    # budget below 1, which even the empty word exceeds, built a level and
    # then blamed the budget with exit code 2, or passed at length 0; a
    # negative --show silently dropped the last ordering
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("target, code, message", [
    ("[[1,0]", 1, "target: not valid JSON: "),
    ("@bad.json", 1, "target: not valid JSON: "),
    ("axis:0,0,1:inf", 1, "axis target needs a finite axis and angle\n"),
    ("axis:nan,0,1:0.7", 1, "axis target needs a finite axis and angle\n"),
    ("@missing.json", 3, "[Errno 2] "),
], ids=["inline-json", "file-json", "axis-angle-inf", "axis-nan", "missing-file"])
def test_bad_targets_are_argument_errors(capsys, monkeypatch, tmp_path, target, code, message):
    # bad JSON exited 3, the code for file problems, which now only a file
    # that cannot be read gets; a non-finite axis target printed a
    # RuntimeWarning and then blamed the target's SU(2) residual, nan.
    # Warnings are errors here, so none may be raised
    (tmp_path / "bad.json").write_text("[[1,0]")
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "compile", "--gateset", HT, "--target", target,
                           "--epsilon", "1e-3", "--base-length", "4", "--refine-length", "3")
    assert rc == code and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_scan_orderings_rejects_zero_samples(capsys):
    # no samples make every ordering's coefficient the mean of nothing, NaN
    rc, out, err = run(capsys, "scan-orderings", "--builtin", "s3", "--samples", "0")
    assert rc == 1 and out == ""
    assert err == "error: --samples must be at least 1, got 0\n"


def test_net_budget_is_a_compile_failure(capsys, tmp_path):
    rc, _, err = run(capsys, "compile", "--gateset", HT, "--target", "axis:0,0,1:0.7",
                     "--epsilon", "1e-3", "--base-length", "12", "--refine-length", "6",
                     "--budget", "300")
    assert rc == 2
    assert "word budget 300 exceeded" in err


# SHA-256 of the CSV below.  Its coefficients print to 10 digits, so it
# changes with the scan's perturbations, eps values or orderings.
# Re-recorded (1c56c9c3... before) when symmetrize_matrix began to multiply
# with linalg.matmul_stack instead of BLAS: the same 6 of 120 orderings
# vanish, the other coefficients moved by at most 6.2e-9 relative and the 6
# at the round-off floor (about 1.124e-4) by at most 4.7e-5.  Re-recorded
# again (640296f6... under the SkylakeX OpenBLAS kernel, 8c89b33d... under
# Haswell) when the perturbations W began to be formed by a degree-6 Taylor
# series with matmul_stack instead of scipy's expm, which used BLAS: the same
# 6 orderings vanish, the other 114 print the same 10 digits, and the 6 at
# the floor moved by at most 1.8e-8 relative.  Like the other pins it now
# holds under every BLAS kernel.
SCAN_CSV_SHA256 = "3bf60af5a3b303c3f1664c8abe38a76ca33a99cb0f8d760549d4cb8082c127f7"


def test_scan_orderings_cli(capsys, tmp_path):
    out_csv = tmp_path / "scan.csv"
    rc, out, _ = run(capsys, "scan-orderings", "--builtin", "s3",
                     "--samples", "4", "--seed", "1", "--csv", str(out_csv))
    assert rc == 0
    assert "orderings scanned" in out
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["ordering", "coefficient", "vanishing"]
    assert len(rows) == 121
    assert all(r[2] in ("0", "1") for r in rows[1:])
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == SCAN_CSV_SHA256


def test_scan_orderings_from_gateset(capsys):
    rc, out, _ = run(capsys, "scan-orderings", "--gateset", SKEW,
                     "--samples", "4")
    assert rc == 0
    assert "6 orderings scanned" in out


def test_readme_examples(capsys, monkeypatch, tmp_path):
    # every README block that starts with "$ irrepsk <command>" must print
    # its lines verbatim, except for the wall time and the net build time
    monkeypatch.chdir(ROOT)
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```\n\$ (irrepsk .*?)^```", readme, re.M | re.S)
    built = re.compile(r", built in [0-9.]+ s$")
    checked = []
    for block in blocks:
        lines = block.splitlines()
        n = 1 + next(i for i, line in enumerate(lines) if not line.endswith("\\"))
        argv = shlex.split(" ".join(line.rstrip("\\") for line in lines[:n]))[1:]
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        keep = [not line.startswith("wall time ") for line in lines[n:]]
        assert len(out.splitlines()) == len(keep)
        assert [built.sub("", line) for line, k in zip(out.splitlines(), keep) if k] == \
            [built.sub("", line) for line, k in zip(lines[n:], keep) if k]
        checked.append(argv[0])
    assert checked == ["validate", "refine-inverse", "compile", "net"]
    # the net example pins the gate-set net's word count and the probe draws
    # (its words are the same at any tolerance up to eps0; NETS_SHA256 pins that)
    assert "net: 320 words up to length 8, built in" in readme
    assert "probed density: 0.2716 over 100 samples" in readme
    # the unprompted block's commands must exit 0; their CSVs go to tmp_path
    block = re.search(r"^```\n(irrepsk .*?)^```", readme, re.M | re.S).group(1)
    ran = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line)[1:]
        at = argv.index("--csv") + 1
        argv[at] = str(tmp_path / argv[at])
        rc, *_ = run(capsys, *argv)
        assert rc == 0, line
        ran.append(argv[0])
    assert ran == ["bench", "scan-orderings"]
