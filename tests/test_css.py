import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import in_rowspace
from shuttleplan import gf2
from shuttleplan.chip import build_grid
from shuttleplan.css import (CheckTask, CodeError, CssCode, compute_logicals,
                             default_layout, layout_for, load_css, parse_css,
                             surface_code, tasks_from_code)


def test_commuting_pair_accepted_even_overlap():
    # one X and one Z check with even overlap commute; full-rank checks so k=0
    code = CssCode(hx=[[1, 1]], hz=[[1, 1]], name="pair")
    assert code.n == 2 and code.k == 0


def test_bool_and_integer_matrices_accepted():
    """Bool arrays and any integer dtype with 0/1 entries are check
    matrices; each is stored as uint8."""
    for hx in ([[True, True]], np.array([[1, 1]], dtype=np.int64),
               np.array([[1, 1]], dtype=object)):
        code = CssCode(hx=hx, hz=np.array([[True, True]]))
        assert code.hx.dtype == code.hz.dtype == np.uint8
        assert code.hx.tolist() == code.hz.tolist() == [[1, 1]]


def test_odd_overlap_rejected_with_row_pair():
    with pytest.raises(CodeError, match="row 0 anticommutes with Hz row 0"):
        CssCode(hx=[[1, 1]], hz=[[1, 0]])


def test_zero_weight_row_rejected():
    with pytest.raises(CodeError, match="no support"):
        CssCode(hx=[[0, 0]], hz=[[1, 1]])


@pytest.mark.parametrize("orders,match", [
    ([[0, 1]], r"^orders: expected 2 rows, got 1$"),
    ([[0, 1], [1, 0], [0, 1]], r"^orders: expected 2 rows, got 3$"),
    ([[0, 1], [1]], r"^check row 1: ORDER entries do not match support$"),
    ([[0, 0], [1, 0]], r"^check row 0: ORDER entries do not match support$"),
    ([[0, 1], [1, 2]], r"^check row 1: ORDER entries do not match support$"),
], ids=["too-few", "too-many", "short-row", "repeat", "other-qubit"])
def test_orders_must_give_each_check_row_its_support(orders, match):
    """One visit order per row of [Hx; Hz], X rows first, each a permutation
    of its row's support; a mismatch names the row."""
    with pytest.raises(CodeError, match=match):
        CssCode(hx=[[1, 1, 0]], hz=[[1, 1, 0]], orders=orders)


def test_surface_d3_parameters():
    code, layout = surface_code(3)
    assert code.n == 9 and code.k == 1
    assert code.hx.shape[0] == 4 and code.hz.shape[0] == 4
    assert code.hx.sum(axis=1).max() == code.hz.sum(axis=1).max() == 4
    assert code.ordered
    assert layout[4] == (1, 1)


def test_surface_d5_parameters():
    code, _ = surface_code(5)
    assert code.n == 25 and code.k == 1
    assert code.hx.sum(axis=1).max() == code.hz.sum(axis=1).max() == 4


@pytest.mark.parametrize("d", [2, 1, 4, 3.0, "3"])
def test_surface_rejects_bad_distance(d):
    with pytest.raises(CodeError):
        surface_code(d)


def test_surface_takes_a_numpy_distance():
    code, layout = surface_code(np.int64(3))
    ref, ref_layout = surface_code(3)
    assert (code.name, code.orders, layout) == (ref.name, ref.orders,
                                                ref_layout)
    assert np.array_equal(code.hx, ref.hx) and np.array_equal(code.hz, ref.hz)


def test_default_layout_rejects_a_code_without_qubits():
    empty = np.zeros((0, 0), dtype=np.uint8)
    with pytest.raises(CodeError, match="no data qubits"):
        default_layout(CssCode(hx=empty, hz=empty), build_grid(1, 1))


def test_surface_d3_distance_is_three():
    """No weight-<3 logical exists; a weight-3 logical Z does."""
    code, _ = surface_code(3)
    found_w3 = False
    for w in (1, 2, 3):
        for support in combinations(range(9), w):
            v = np.zeros(9, dtype=np.uint8)
            v[list(support)] = 1
            for ker, row in ((code.hx, code.hz), (code.hz, code.hx)):
                if np.any(gf2.matmul(ker, v.reshape(-1, 1))):
                    continue  # not in the kernel
                if in_rowspace(v, row):
                    continue  # a stabilizer, not a logical
                assert w == 3, f"logical of weight {w} found: {support}"
                if ker is code.hx:  # commutes with all X checks -> Z-type
                    found_w3 = True
    assert found_w3


def test_default_layout_formula():
    code, _ = surface_code(3)
    grid = build_grid(3, 3)
    layout = default_layout(code, grid)
    assert layout[4] == (1, 1)
    assert layout[8] == (2, 2)


def test_default_layout_non_square_n():
    code = CssCode(hx=np.zeros((0, 72), dtype=np.uint8),
                   hz=[[1] * 72], name="wide")
    layout = default_layout(code, build_grid(9, 8))
    assert layout[71] == (8, 7)
    assert len(set(layout.values())) == 72


def test_default_layout_too_small():
    code, _ = surface_code(3)
    with pytest.raises(CodeError, match="too small"):
        default_layout(code, build_grid(2, 3))


@given(st.integers(1, 1024))
@settings(max_examples=60, deadline=None)
def test_default_layout_injective(n):
    code = CssCode(hx=np.zeros((0, n), dtype=np.uint8),
                   hz=np.ones((1, n), dtype=np.uint8))
    side = 1
    while side * side < n:
        side += 1
    layout = default_layout(code, build_grid(side, side))
    assert len(set(layout.values())) == n


def _assert_symplectic(code, logs):
    k = code.k
    assert logs.x.shape == (k, code.n) and logs.z.shape == (k, code.n)
    # logicals commute with every check
    assert not np.any(gf2.matmul(code.hz, logs.x.T))
    assert not np.any(gf2.matmul(code.hx, logs.z.T))
    # pairing: anticommute with partner, commute across pairs
    assert np.array_equal(gf2.matmul(logs.x, logs.z.T), np.eye(k, dtype=np.int64))
    # not stabilizers
    for row in logs.x:
        assert not in_rowspace(row, code.hx)
    for row in logs.z:
        assert not in_rowspace(row, code.hz)


def test_logicals_surface_d3():
    code, _ = surface_code(3)
    _assert_symplectic(code, compute_logicals(code))


def test_logicals_repetition_code():
    # 3-qubit repetition: Z checks on adjacent pairs, no X checks
    code = CssCode(hx=np.zeros((0, 3), dtype=np.uint8),
                   hz=[[1, 1, 0], [0, 1, 1]])
    assert code.k == 1
    logs = compute_logicals(code)
    _assert_symplectic(code, logs)
    # brute force over all 8 vectors: the minimum-weight logical Z is weight 1
    best = 3
    for bits in range(1, 8):
        v = np.array([(bits >> i) & 1 for i in range(3)], dtype=np.uint8)
        if np.any(gf2.matmul(code.hx, v.reshape(-1, 1))):
            continue
        if in_rowspace(v, code.hz):
            continue
        best = min(best, int(v.sum()))
    assert best == 1


def test_logicals_raise_when_pairing_fails(monkeypatch):
    """The pairing check raises CodeError, so it survives `python -O`."""
    code, _ = surface_code(3)
    monkeypatch.setattr(gf2, "inverse", lambda m: np.zeros_like(m))
    with pytest.raises(CodeError, match="do not pair up"):
        compute_logicals(code)


def test_logicals_k0_empty():
    code = CssCode(hx=[[1, 1]], hz=[[1, 1]])
    logs = compute_logicals(code)
    assert logs.x.shape == logs.z.shape == (0, 2)


def test_tasks_surface_d3():
    code, layout = surface_code(3)
    tasks = tasks_from_code(code)
    assert len(tasks) == 8
    assert all(len(t.targets) in (2, 4) for t in tasks)
    assert [t.targets for t in tasks] == code.orders
    assert [t.ancilla for t in tasks] == list(range(8))
    assert {t.basis for t in tasks} == {"X", "Z"}


def test_tasks_only_z_when_hx_empty():
    code = CssCode(hx=np.zeros((0, 3), dtype=np.uint8),
                   hz=[[1, 1, 0], [0, 1, 1]])
    tasks = tasks_from_code(code)
    assert [t.basis for t in tasks] == ["Z", "Z"]


def test_load_surface_roundtrip(tmp_path):
    code, _ = surface_code(3)
    lines = [f"9 1 3 surface_d3", "HX"]
    lines += [" ".join(map(str, row)) for row in code.hx]
    lines.append("HZ")
    lines += [" ".join(map(str, row)) for row in code.hz]
    path = tmp_path / "surface.code"
    path.write_text("\n".join(lines) + "\n")
    loaded = load_css(str(path))
    assert loaded.n == 9 and loaded.k == 1
    assert np.array_equal(loaded.hx, code.hx)


def test_load_bb72(bb72_path):
    code = load_css(str(bb72_path))
    assert code.n == 72 and code.k == 12
    assert code.hx.sum(axis=1).max() == code.hz.sum(axis=1).max() == 6
    assert code.d_claimed == 6
    assert not code.ordered
    tasks = tasks_from_code(code)
    assert len(tasks) == 72
    assert all(len(t.targets) == 6 for t in tasks)


def test_load_rejects_wrong_k(tmp_path):
    path = tmp_path / "bad.code"
    path.write_text("2 1 - pair\nHX\n1 1\nHZ\n1 1\n")
    with pytest.raises(CodeError, match="k=1"):
        load_css(str(path))


def test_load_rejects_anticommuting(tmp_path):
    path = tmp_path / "bad.code"
    path.write_text("2 0 - pair\nHX\n1 1\nHZ\n1 0\n")
    with pytest.raises(CodeError, match="anticommutes"):
        load_css(str(path))


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.code"
    path.write_text("2 0 - pair\nHX\n1 2\nHZ\n1 1\n")
    with pytest.raises(CodeError, match=re.escape(
            f"{path}: Hx row 0: entry 2 is not an int 0 or 1")):
        load_css(str(path))


def test_layout_and_order_sections():
    lines = [
        "4 0 - toy",
        "HX", "1 1 0 0", "0 0 1 1",
        "HZ", "1 1 0 0", "0 0 1 1",
        "LAYOUT", "0 0", "1 0", "0 1", "1 1",
        "ORDER", "1 0", "3 2", "0 1", "2 3",
    ]
    code = parse_css(lines)
    assert code.ordered
    assert code.orders == [[1, 0], [3, 2], [0, 1], [2, 3]]
    assert code.file_layout[2] == (0, 1)
    chip = build_grid(2, 2)
    assert layout_for(code, chip)[3] == (1, 1)
    tasks = tasks_from_code(code)
    assert tasks[0].targets == [1, 0]


def test_order_must_match_support():
    lines = ["2 0 - pair", "HX", "1 1", "HZ", "1 1",
             "ORDER", "0 1", "1 1"]
    with pytest.raises(CodeError, match="ORDER"):
        parse_css(lines)


@pytest.mark.parametrize("section,body", [("ORDER", ["1 x", "0 1"]),
                                          ("LAYOUT", ["0 q", "1 0"])])
def test_non_integer_entry_names_file_and_section(section, body):
    lines = ["2 0 - pair", "HX", "1 1", "HZ", "1 1", section, *body]
    with pytest.raises(CodeError, match=f"^pair.code: {section} "):
        parse_css(lines, name_hint="pair.code")


@pytest.mark.parametrize("section", ["HX", "HZ", "LAYOUT", "ORDER"])
def test_repeated_section_is_rejected(section):
    lines = ["2 0 - pair", "HX", "1 1", "HZ", "1 1", "LAYOUT", "0 0", "1 0",
             "ORDER", "0 1", "1 0"]
    repeat = {"HX": ["1 1"], "HZ": ["1 1"], "LAYOUT": ["0 0", "1 0"],
              "ORDER": ["0 1", "1 0"]}[section]
    with pytest.raises(CodeError, match=f"^pair.code: repeated {section} "):
        parse_css(lines + [section, *repeat], name_hint="pair.code")


@pytest.mark.parametrize("n", [0, -1])
def test_header_needs_a_positive_qubit_count(n):
    with pytest.raises(CodeError, match=f"n >= 1, got {n}"):
        parse_css([f"{n} 0 - empty", "HX", "HZ"])


PAIR = ["2 0 - pair", "HX", "1 1", "HZ", "1 1"]


def _pair_with_orders(orders):
    return CssCode(hx=[[1, 1]], hz=[[1, 1]], orders=orders)


def _layout_off_chip():
    code = parse_css(PAIR + ["LAYOUT", "0 0", "5 0"])
    return layout_for(code, build_grid(2, 2))


CSS_ERRORS = [  # (id, call, message)
    ("empty-file", lambda: parse_css(["# comment only", "  "], "pair.code"),
     r"^pair.code: empty code file$"),
    ("short-header", lambda: parse_css(["2 0 -", "HX", "1 1"], "pair.code"),
     r"^pair.code: header must be 'n k d name'$"),
    ("bad-header-n", lambda: parse_css(["two 0 - pair", *PAIR[1:]],
                                       "pair.code"),
     r"^pair.code: bad header numbers: "),
    ("bad-header-d", lambda: parse_css(["2 0 x pair", *PAIR[1:]], "pair.code"),
     r"^pair.code: bad header numbers: "),
    ("data-first", lambda: parse_css(["2 0 - pair", "1 1", *PAIR[1:]],
                                     "pair.code"),
     r"^pair.code: data before any section header$"),
    ("no-hz", lambda: parse_css(PAIR[:3], "pair.code"),
     r"^pair.code: HX and HZ sections are required$"),
    ("no-hx", lambda: parse_css([PAIR[0], *PAIR[3:]], "pair.code"),
     r"^pair.code: HX and HZ sections are required$"),
    ("row-length", lambda: parse_css([*PAIR[:4], "1 1 0"], "pair.code"),
     r"^pair.code: HZ row has 3 entries, expected 2$"),
    ("order-lines", lambda: parse_css(PAIR + ["ORDER", "0 1"], "pair.code"),
     r"^pair.code: orders: expected 2 rows, got 1$"),
    ("layout-lines", lambda: parse_css(PAIR + ["LAYOUT", "0 0"], "pair.code"),
     r"^pair.code: LAYOUT needs one line per data qubit$"),
    ("layout-not-x-y", lambda: parse_css(PAIR + ["LAYOUT", "0 0", "1 0 0"],
                                         "pair.code"),
     r"^pair.code: LAYOUT lines are 'x y'$"),
    ("layout-repeat", lambda: parse_css(PAIR + ["LAYOUT", "1 0", "1 0"],
                                        "pair.code"),
     r"^pair.code: LAYOUT coordinates must be distinct$"),
    ("layout-off-chip", _layout_off_chip,
     r"^layout places qubit 1 at \(5, 0\), outside 2x2$"),
    ("column-mismatch", lambda: CssCode(hx=[[1, 1]], hz=[[1, 1, 0]]),
     r"^Hx and Hz must have the same number of columns$"),
    ("task-basis", lambda: CheckTask(0, "Y", [0]), r"^bad basis 'Y'$"),
    ("task-empty", lambda: CheckTask(3, "X", []),
     r"^ancilla 3: empty target list$"),
    ("task-duplicate", lambda: CheckTask(3, "Z", [0, 2, 0]),
     r"^ancilla 3: duplicate targets$"),
    ("order-float", lambda: _pair_with_orders([[0.0, 1.0], [0, 1]]),
     r"^orders row 0: entries must be ints$"),
    ("order-bool", lambda: _pair_with_orders([[0, 1], [False, True]]),
     r"^orders row 1: entries must be ints$"),
    ("order-string", lambda: _pair_with_orders([[0, 1], ["1", "0"]]),
     r"^orders row 1: entries must be ints$"),
    ("matrix-two", lambda: CssCode(hx=[[1, 1]], hz=[[1, 1], [2, 0]]),
     r"^Hz row 1: entry 2 is not an int 0 or 1$"),
    ("matrix-half", lambda: CssCode(hx=[[1, 1], [0.5, 1]], hz=[[1, 1]]),
     r"^Hx row 1: entry 0.5 is not an int 0 or 1$"),
    ("matrix-string", lambda: CssCode(hx=[[1, "1"]], hz=[[1, 1]]),
     r"^Hx row 0: entry '1' is not an int 0 or 1$"),
    ("file-entry-minus-one",
     lambda: parse_css(["2 0 - pair", "HX", "1 -1", "HZ", "1 1"], "pair.code"),
     r"^pair.code: Hx row 0: entry -1 is not an int 0 or 1$"),
    ("file-entry-huge",
     lambda: parse_css(["2 0 - pair", "HX", f"1 {2 ** 63}", "HZ", "1 1"],
                       "pair.code"),
     r"^pair.code: HX entries must be 0 or 1: "),
    ("file-anticommuting",
     lambda: parse_css(["2 0 - pair", "HX", "1 1", "HZ", "1 0"], "pair.code"),
     r"^pair.code: Hx row 0 anticommutes with Hz row 0 \(odd overlap\)$"),
]


@pytest.mark.parametrize("call,match", [case[1:] for case in CSS_ERRORS],
                         ids=[case[0] for case in CSS_ERRORS])
def test_css_named_errors(call, match):
    """Each malformed code, layout or check raises CodeError naming what is
    wrong; a code file's errors name the file."""
    with pytest.raises(CodeError, match=match):
        call()


@pytest.mark.parametrize("matrix,match", [
    ([[1, 1]], "not square"),
    ([[1, 1], [1, 1]], "singular"),
], ids=["non-square", "singular"])
def test_gf2_inverse_named_errors(matrix, match):
    with pytest.raises(ValueError, match=f"^matrix is {match}"):
        gf2.inverse(np.array(matrix, dtype=np.uint8))
