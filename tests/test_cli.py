from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley import _fillcore, enumeration
from cayley.cli import main
from cayley.core import cyclic_group, symmetric_group
from cayley.errors import BudgetExceededError, SizeCapError
from cayley.fileformat import read_group, write_group


@pytest.fixture()
def s3_file(tmp_path):
    path = tmp_path / "s3.cayley"
    write_group(symmetric_group(3), path)
    return str(path)


@pytest.fixture()
def c6_file(tmp_path):
    path = tmp_path / "c6.cayley"
    write_group(cyclic_group(6), path)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_cyclic_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "c12.cayley"
    code, out, _ = run(capsys, ["construct", "cyclic", "12", "--out", str(out_file)])
    assert code == 0
    assert read_group(out_file) == cyclic_group(12)
    code, out, _ = run(capsys, ["construct", "cyclic", "3"])
    assert code == 0
    assert out.endswith("\n")
    assert "0 1 2" in out


def test_construct_direct(tmp_path, capsys, c6_file):
    out_file = tmp_path / "c6xc6.cayley"
    code, _, _ = run(capsys, ["construct", "direct", c6_file, c6_file, "--out", str(out_file)])
    assert code == 0
    assert read_group(out_file).order == 36


def test_construct_sdp(tmp_path, capsys, s3_file):
    out_file = tmp_path / "sdp.cayley"
    code, _, _ = run(capsys, ["construct", "sdp", "3", "2", "--k", "2", "--out", str(out_file)])
    assert code == 0
    built = read_group(out_file)
    assert built.order == 6 and not built.is_abelian()
    # Invalid action exponent: 2^3 = 8 is not 1 mod 5.
    code, _, err = run(capsys, ["construct", "sdp", "5", "3", "--k", "2"])
    assert code == 1
    assert "InvalidAction" in err
    # k must be a unit mod q.
    code, _, err = run(capsys, ["construct", "sdp", "6", "2", "--k", "2"])
    assert code == 1
    assert "InvalidAction" in err


def test_construct_sdp_composite_factors(tmp_path, capsys):
    # C5 x| C4 with r -> r^2 (2^4 = 16 = 1 mod 5): the full holomorph-style twist.
    out_file = tmp_path / "f20.cayley"
    code, _, _ = run(capsys, ["construct", "sdp", "5", "4", "--k", "2", "--out", str(out_file)])
    assert code == 0
    built = read_group(out_file)
    assert built.order == 20 and not built.is_abelian()
    # C9 x| C3 with r -> r^4 (4^3 = 64 = 1 mod 9): composite normal factor.
    out_file2 = tmp_path / "g27.cayley"
    code, _, _ = run(capsys, ["construct", "sdp", "9", "3", "--k", "4", "--out", str(out_file2)])
    assert code == 0
    built2 = read_group(out_file2)
    assert built2.order == 27 and not built2.is_abelian()


def test_classify_s3(capsys, s3_file):
    code, out, _ = run(capsys, ["classify", s3_file])
    assert code == 0
    assert out.splitlines()[0] == "SemidirectQP p=2 q=3 k=2"
    assert out.splitlines()[1].startswith("map: ")
    code, out, _ = run(capsys, ["classify", s3_file, "--json"])
    payload = json.loads(out)
    assert payload["kind"] == "SemidirectQP" and payload["k"] == 2
    assert len(payload["iso"]) == 6


def test_classify_unsupported_order(capsys, tmp_path):
    path = tmp_path / "c12.cayley"
    write_group(cyclic_group(12), path)
    code, _, err = run(capsys, ["classify", str(path)])
    assert code == 1
    assert "UnsupportedOrder" in err


def test_iso_negative(capsys, c6_file, s3_file):
    code, out, _ = run(capsys, ["iso", c6_file, s3_file])
    assert code == 1
    assert out.strip() == "not isomorphic: element-order multisets differ"


def test_iso_positive(capsys, tmp_path, s3_file):
    other = tmp_path / "other.cayley"
    run(capsys, ["construct", "sdp", "3", "2", "--k", "2", "--out", str(other)])
    code, out, _ = run(capsys, ["iso", str(other), s3_file])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "isomorphic"
    mapping = [int(v) for v in lines[1].split()[1:]]
    assert sorted(mapping) == list(range(6))


def test_aut(capsys, c6_file):
    code, out, _ = run(capsys, ["aut", c6_file])
    assert code == 0
    assert out.splitlines() == ["automorphism group order: 2", "cyclic: yes"]
    code, out, _ = run(capsys, ["aut", c6_file, "--json"])
    assert json.loads(out) == {"cyclic": True, "order": 2}


def test_recognize_direct(capsys, c6_file):
    code, out, _ = run(capsys, ["recognize", c6_file, "--n", "0,2,4", "--h", "0,3"])
    assert code == 0
    assert out.splitlines()[0] == "internal direct product"
    assert "map: " in out


def test_recognize_semidirect(capsys, s3_file):
    code, out, _ = run(capsys, ["recognize", s3_file, "--n", "0,3,4", "--h", "0,1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "internal semidirect product"
    # The emitted product table re-parses to a valid group.
    from cayley.fileformat import read_group_text

    start = lines.index("# product group")
    stop = next(i for i, line in enumerate(lines) if line.startswith("map: "))
    emitted = read_group_text("\n".join(lines[start:stop]) + "\n")
    assert emitted.order == 6 and not emitted.is_abelian()


def test_recognize_failure(capsys, s3_file):
    code, _, err = run(capsys, ["recognize", s3_file, "--n", "0,1", "--h", "0,3,4"])
    assert code == 1
    assert "NotNormal" in err


def test_recognize_runs_one_recognizer(capsys, c6_file, monkeypatch):
    # A failure is reported as it is, not retried by a second recognizer.
    import cayley.recognition
    from cayley.errors import BudgetExceededError

    calls = []

    def over_budget(group):
        calls.append(group.order)
        raise BudgetExceededError("automorphism search budget")

    monkeypatch.setattr(cayley.recognition, "automorphism_group", over_budget)
    code, out, err = run(capsys, ["recognize", c6_file, "--n", "0,2,4", "--h", "0,3"])
    assert (code, out, calls) == (1, "", [3])
    assert err == "error: BudgetExceeded: automorphism search budget\n"


def test_recognize_index_out_of_range(capsys, tmp_path):
    path = tmp_path / "c3.cayley"
    write_group(cyclic_group(3), path)
    code, _, err = run(capsys, ["recognize", str(path), "--n", "0,1,2", "--h", "0,7"])
    assert code == 1
    assert err == "error: NotSubgroup: index 7 out of range\n"


def test_recognize_negative_index(capsys, tmp_path):
    path = tmp_path / "c3.cayley"
    write_group(cyclic_group(3), path)
    code, _, err = run(capsys, ["recognize", str(path), "--n", "0,1,2", "--h", "0,-1"])
    assert code == 1
    assert err == "error: NotSubgroup: index -1 out of range\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "cyclic", "1000000"],
        ["construct", "sdp", "1000000", "2", "--k", "999999"],
    ],
)
def test_size_cap_is_checked_before_allocating(capsys, argv):
    # An n x n table of a million elements would need terabytes: the cap
    # must reject the order before anything of that size is built.
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError):
            cyclic_group(10**6)
        code, out, err = run(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err.startswith("error: SizeCap: ")
    assert peak < 1 << 20


def test_construct_unwritable_out(capsys, tmp_path):
    target = tmp_path / "missing" / "x.cayley"
    code, out, err = run(capsys, ["construct", "cyclic", "5", "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="ascii")
    code, _, err = run(capsys, ["enumerate", "4", "--out", str(blocker / "reps")])
    assert code == 2
    assert err.startswith(f"error: cannot write {blocker / 'reps'}: ")


def test_enumerate(capsys, tmp_path):
    out_dir = tmp_path / "reps"
    code, out, _ = run(capsys, ["enumerate", "8", "--out", str(out_dir)])
    assert code == 0
    assert "order 8: 5 isomorphism classes" in out
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == [f"order8_class{k}.cayley" for k in range(5)]
    for name in files:
        assert read_group(out_dir / name).order == 8


def test_enumerate_budget_gate(capsys):
    code, _, err = run(capsys, ["enumerate", "21"])
    assert code == 1
    assert "BudgetExceeded" in err
    code, out, _ = run(capsys, ["enumerate", "21", "--budget", "33"])
    assert code == 0
    assert "order 21: 2 isomorphism classes" in out


@pytest.mark.parametrize("n", ["0", "-2"])
def test_enumerate_below_order_one_is_a_usage_error(capsys, n):
    code, out, err = run(capsys, ["enumerate", n])
    assert (code, out) == (2, "")
    assert err == f"error: order {n} is not a group order; it must be at least 1\n"


def test_enumerate_deterministic_stdout(capsys):
    _, first, _ = run(capsys, ["enumerate", "9", "--json"])
    _, second, _ = run(capsys, ["enumerate", "9", "--json"])
    assert first == second
    payload = json.loads(first)
    assert payload["count"] == 2


def test_verify(capsys):
    code, out, _ = run(capsys, ["verify", "--max", "10"])
    assert code == 0
    assert "all orders pass: yes" in out
    code, out, _ = run(capsys, ["verify", "--max", "10", "--json"])
    payload = json.loads(out)
    assert payload["all_pass"] is True


def test_budget_hint_names_the_cli_option(capsys):
    code, out, err = run(capsys, ["enumerate", "17"])
    assert (code, out) == (1, "")
    assert err == "error: BudgetExceeded: order 17 exceeds the enumeration budget 16; pass --budget 17\n"
    code, _, err = run(capsys, ["verify", "--max", "10", "--budget", "8"])
    assert code == 1
    assert err == "error: BudgetExceeded: order 9 exceeds the enumeration budget 8; pass --budget 9\n"
    # The library names its own keyword.
    with pytest.raises(BudgetExceededError, match=r"budget 16; pass budget=17$"):
        enumeration.enumerate_groups(17)


@pytest.mark.parametrize("max_order", ["3", "1", "-5"])
def test_verify_below_the_smallest_checked_order_is_a_usage_error(capsys, max_order):
    code, out, err = run(capsys, ["verify", "--max", max_order])
    assert (code, out) == (2, "")
    assert err == (
        f"error: --max {max_order} checks no order; "
        "the smallest order of shape p^2 or p*q is 4\n"
    )
    code, out, _ = run(capsys, ["verify", "--max", "4"])
    assert code == 0
    assert "all orders pass: yes" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["bogus-command"])
    assert excinfo.value.code == 2


def test_input_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.cayley"
    bad.write_text("2\n0 1\n1 2\n", encoding="ascii")
    code, _, err = run(capsys, ["classify", str(bad)])
    assert code == 3
    assert "line 3" in err
    missing = tmp_path / "missing.cayley"
    code, _, _ = run(capsys, ["iso", str(missing), str(bad)])
    assert code == 3
    latin = tmp_path / "latin.cayley"
    latin.write_bytes(b"1\n\xff\n")
    code, _, err = run(capsys, ["classify", str(latin)])
    assert code == 3
    assert err == "input error: line 1: file is not ASCII\n"


def test_invalid_group_file_exit_code(capsys, tmp_path):
    # Parses but fails the Latin-square check: still an input error.
    bad = tmp_path / "notlatin.cayley"
    bad.write_text("3\n0 1 2\n1 1 0\n2 0 1\n", encoding="ascii")
    code, _, err = run(capsys, ["classify", str(bad)])
    assert code == 3


# Input files: small tables (groups, non-groups, out-of-range entries) or
# arbitrary bytes.
_table_text = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, n), min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: f"{n}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
).map(str.encode)
_file_bytes = st.one_of(st.binary(max_size=80), _table_text)
_index_list = st.one_of(
    st.text(max_size=12),
    st.lists(st.integers(-8, 8), max_size=6).map(lambda xs: ",".join(map(str, xs))),
)


def _exit_code(argv: list[str]) -> int:
    """Exit code of an in-process CLI run; argparse usage errors exit via SystemExit."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=200, deadline=None)
@given(data=_file_bytes, n=_index_list, h=_index_list)
def test_cli_fuzz_exits_cleanly(data, n, h):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cayley"
        path.write_bytes(data)
        s3 = Path(tmp) / "s3.cayley"
        write_group(symmetric_group(3), s3)
        runs = [
            ["classify", str(path)],
            ["aut", str(path)],
            ["iso", str(path), str(s3)],
            ["construct", "direct", str(path), str(s3)],
            ["recognize", str(s3), "--n", n, "--h", h],
        ]
        for argv in runs:
            assert _exit_code(argv) in {0, 1, 2, 3}, argv


# sha256 of stdout for two fixed invocations: identical invocations must
# print byte-identical output, on the pure and the compiled kernel alike.
GOLDEN_STDOUT_SHA256 = {
    ("enumerate", "16", "--json"): "cf5a804e6a0c43a6c96163c70c01557904523d1725f4884e7174d5e8f474e345",
    ("verify", "--max", "33", "--json"): "8e9e314a2373665c72739baf46ee14b8dd62abf87e091809ae3307a765925eb0",
}


@pytest.mark.parametrize("backend", ["pure", "compiled"])
@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT_SHA256))
def test_golden_stdout(capsys, monkeypatch, request, backend, argv):
    kernel = _fillcore if backend == "pure" else request.getfixturevalue("compiled_kernel")
    monkeypatch.setattr(enumeration, "_kernel", kernel)
    code, out, _ = run(capsys, list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[argv]


# Fixed relabelled tables built from formulas, not from the library's
# constructors: C_n as (i + j) mod n, C_p x C_p and C_q x| C_p as pairs
# a * p + b with (a1, b1)(a2, b2) = (a1 + k^b1 a2 mod q, b1 + b2 mod p).
# Each is relabelled by rotating its nonzero labels, so no table is in
# the canonical form.
def _pair_table(q: int, p: int, k: int) -> np.ndarray:
    a, b = np.divmod(np.arange(q * p), p)
    twist = np.array([pow(k, int(e), q) for e in b])
    return (a[:, None] + twist[:, None] * a[None, :]) % q * p + (b[:, None] + b[None, :]) % p


def _cyclic_table(n: int) -> np.ndarray:
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


def _golden_groups():
    """(table, N members, H members) per group; recognize gets N and H."""
    out = [(_cyclic_table(n), range(0, n, n // d), range(0, n, d)) for n, d in
           [(10, 5), (15, 5), (35, 5)]]
    for q, p, k in [(3, 3, 1), (5, 5, 1), (3, 2, 2), (7, 3, 2), (7, 3, 4), (11, 5, 3), (13, 3, 3)]:
        out.append((_pair_table(q, p, k), range(0, q * p, p), range(p)))
    # The join variant: H trivial, so N join H = N is not the whole group.
    out.append((_pair_table(7, 3, 2), range(0, 21, 3), [0]))
    return out


def _relabel(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = len(table)
    s = np.concatenate([[0], np.roll(np.arange(1, n), 1)])
    out = np.empty_like(table)
    out[np.ix_(s, s)] = s[table]
    return out, s


# sha256 of the concatenated stdout of each command over those groups.
GOLDEN_PRODUCT_STDOUT_SHA256 = {
    ("classify",): "6d25eb5c4c8adfbbafc4829a0cc8021ffaf440030602f890fd427e59599d58da",
    ("classify", "--json"): "2cf507a2934db5b0b0b80f0d800d63d7ac17225092e9928c473be34f7a169500",
    ("aut",): "fb6d32318983c9c5219e1a2b691a6e3bca2858d3b50ac88450fe3de02caa2759",
    ("recognize", "--json"): "08c1fd7805698db48f28d7fa74764bec3f7db83d16fda17a3b0f960340614b3f",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_PRODUCT_STDOUT_SHA256))
def test_golden_product_stdout(capsys, tmp_path, command):
    digest = hashlib.sha256()
    for i, (table, n_members, h_members) in enumerate(_golden_groups()):
        relabelled, s = _relabel(table)
        path = tmp_path / f"g{i}.cayley"
        path.write_text(f"{len(table)}\n" + "".join(
            " ".join(map(str, row)) + "\n" for row in relabelled.tolist()))
        argv = [command[0], str(path), *command[1:]]
        if command[0] == "recognize":
            argv += ["--n", ",".join(str(s[x]) for x in n_members),
                     "--h", ",".join(str(s[x]) for x in h_members)]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv
        digest.update(out.encode())
    assert digest.hexdigest() == GOLDEN_PRODUCT_STDOUT_SHA256[command]
