import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpscoh import chenruan, cli
from wpscoh.chenruan import CrRing, KernelRelation, ProductRelation
from wpscoh.cli import main
from wpscoh.kawasaki import KawasakiRing
from wpscoh.kunneth import ProductGroups
from wpscoh.orbifold import OrbifoldRing
from wpscoh.verify import CheckResult

from test_golden import ALL_GOLDEN


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def canonical(text: str) -> str:
    return json.dumps(json.loads(text), indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "argv",
    [
        ("kawasaki", "--weights", "1,2,2,3,3,3"),
        ("orbifold", "--weights", "1,2,2,3,3,3"),
        ("chenruan", "--weights", "1,2,2,3,3,3", "--multtable"),
        ("chenruan", "--weights", "1,2"),
        ("kunneth", "--weights", "1,2", "--weights-b", "1,2", "--max-degree", "9"),
        ("eval", "--weights", "1,2", "--ring", "chenruan", "a1*a1"),
        ("check", "--weights", "1,1,2"),
    ],
)
def test_json_outputs_round_trip(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert canonical(out) == out.strip()


def test_sector_chart_text(capsys):
    code, out, _ = run_cli(capsys, "chenruan", "--weights", "1,2,2,3,3,3", "--sectors")
    assert code == 0
    lines = {line.split()[0]: line for line in out.splitlines() if line.strip()}
    assert "108u^6" in lines["euler"] and "27u^3" in lines["euler"] and "4u^2" in lines["euler"]
    assert "14/3" in lines["2*age"] and "22/3" in lines["2*age"]
    assert "3C_(3)" in lines["fixed"] and "2C_(2)" in lines["fixed"] and "{0}" in lines["fixed"]
    # selector narrows the output: no presentation section
    assert "kernel relations" not in out


def test_eval_golden(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--weights", "1,2,2,3,3,3", "--ring", "chenruan", "a3*a3"
    )
    assert code == 0
    assert out.splitlines() == ["27u^4", "degree: 8"]


def test_eval_inhomogeneous(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--weights", "1,2,2,3,3,3", "--ring", "chenruan", "a2 + u"
    )
    assert code == 0
    assert "inhomogeneous" in out


def test_eval_degree_in_json_and_text_agree(capsys):
    args = ("eval", "--weights", "1,2,2,3,3,3", "--ring", "chenruan", "a2*a2")
    _, text_out, _ = run_cli(capsys, *args)
    _, json_out, _ = run_cli(capsys, *args, "--format", "json")
    doc = json.loads(json_out)
    assert doc["value"] == "4u^2a4"
    assert doc["value"] in text_out
    assert f"degree: {doc['degree']}" in text_out


def test_eval_bad_expression_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--weights", "1,2", "--ring", "orbifold", "u^^2")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("expression, position", [("u²", 1), ("u^" + "9" * 5000, 2)])
def test_eval_bad_literal_exits_2_with_its_position(capsys, expression, position):
    code, out, err = run_cli(capsys, "eval", "--weights", "1,2", "--ring", "orbifold", expression)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.rstrip("\n").endswith(f"(at position {position})")


def test_eval_foreign_symbol_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--weights", "1,2", "--ring", "kawasaki", "u")
    assert code == 2
    assert "coarse-space" in err
    # one weight: g0, the unit, is the only generator
    code, _, err = run_cli(capsys, "eval", "--weights", "5", "--ring", "kawasaki", "u")
    assert code == 2
    assert "use g0..g0 (u and sector generators" in err


def test_bad_weights_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["orbifold", "--weights", "1,x"])
    assert exc.value.code == 2


def test_check_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--weights", "1,1,1")
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_check_json_contains_all_results(capsys):
    code, out, _ = run_cli(capsys, "check", "--weights", "2,2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert all(r["passed"] for r in doc["results"])
    assert any("gerbe" in r["detail"] for r in doc["results"])


def test_kunneth_text_reports_witness(capsys):
    code, out, _ = run_cli(
        capsys, "kunneth", "--weights", "1,2", "--weights-b", "1,2", "--max-degree", "9"
    )
    assert code == 0
    assert "first odd degree with nonzero group: 7" in out


def test_kawasaki_text_and_json_agree(capsys):
    _, text_out, _ = run_cli(capsys, "kawasaki", "--weights", "1,2,2,3,3,3")
    _, json_out, _ = run_cli(capsys, "kawasaki", "--weights", "1,2,2,3,3,3", "--format", "json")
    doc = json.loads(json_out)
    assert doc["ell"] == [1, 6, 36, 108, 108, 108]
    for rel in doc["relations"]:
        assert f"g{rel['i']}*g{rel['j']} = {rel['product']}" in text_out


def test_orbifold_json_schema(capsys):
    _, out, _ = run_cli(capsys, "orbifold", "--weights", "2,2", "--format", "json")
    doc = json.loads(out)
    assert doc["relation"] == {"coefficient": 4, "exponent": 2}
    assert doc["qstar"] == [{"generator": "g1", "image": "2u"}]


def test_latex_sector_table(capsys):
    code, out, _ = run_cli(
        capsys, "chenruan", "--weights", "1,2,2,3,3,3", "--sectors", "--format", "latex"
    )
    assert code == 0
    assert r"\begin{array}" in out
    assert r"\frac{14}{3}" in out
    assert "108u^{6}" in out


def test_module_entry_point():
    # the child needs the package's directory on its path, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "wpscoh", "eval", "--weights", "1,2", "--ring", "chenruan", "a1^2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "u"


# ell = 14,535,931 sectors, of which 135 are nonzero
HUGE = "19,23,29,31,37"


@pytest.mark.parametrize(
    "argv",
    [
        ("chenruan", "--weights", HUGE),
        ("chenruan", "--weights", HUGE, "--sectors"),
        ("chenruan", "--weights", HUGE, "--presentation", "--format", "json"),
        ("chenruan", "--weights", HUGE, "--multtable", "--sectors"),
        ("check", "--weights", HUGE),
    ],
)
def test_dense_listings_refuse_huge_ell(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "limit of 100000" in err


@pytest.mark.parametrize(
    "weights, hint",
    [
        # 135 nonzero sectors: both sparse queries pass their limits
        (HUGE, "; chenruan --multtable and eval still work"),
        # sum 199,980 is above the index bound, so neither is named
        ("99991,99989", ""),
        # 2,004 nonzero twisted sectors are above the product limit
        ("997,1009", "; eval still works"),
    ],
)
def test_dense_refusal_names_the_queries_that_still_work(capsys, weights, hint):
    ell = math.lcm(*map(int, weights.split(",")))
    code, out, err = run_cli(capsys, "check", "--weights", weights)
    assert (code, out) == (2, "")
    assert err == (
        f"error: check needs ell within the limit of 100000, got ell = {ell}{hint}\n"
    )
    code, out, err = run_cli(capsys, "chenruan", "--weights", weights, "--sectors")
    assert (code, out) == (2, "")
    assert err.endswith(f"limit of 100000, got ell = {ell}{hint}\n")
    # a query is named exactly when it answers
    queries = {
        "eval": ("eval", "--ring", "chenruan", "u"),
        "chenruan --multtable": ("chenruan", "--multtable"),
    }
    for name, (command, *rest) in queries.items():
        code = run_cli(capsys, command, "--weights", weights, *rest)[0]
        assert (code == 0) == (name in hint), name


def test_sparse_queries_work_on_huge_ell(capsys):
    code, out, _ = run_cli(capsys, "chenruan", "--weights", HUGE, "--multtable")
    assert code == 0
    twisted = 134
    assert out.count(" = ") == twisted * (twisted + 1) // 2
    # sector ell/19 fixes only the weight-19 coordinate, as does its double,
    # so the coefficient is reduced mod 19
    code, out, _ = run_cli(
        capsys, "eval", "--weights", HUGE, "--ring", "chenruan", "a765049*a765049"
    )
    assert code == 0
    assert out.splitlines() == ["13u^3a1530098", "degree: 176/19"]


def test_sparse_queries_build_no_column_of_all_sectors(capsys, monkeypatch):
    def refuse(ring, *args):
        raise AssertionError(f"a column of all {ring.ell} sectors")

    monkeypatch.setattr(CrRing, "shift_column", refuse)
    monkeypatch.setattr(CrRing, "generator_names", refuse)
    monkeypatch.setattr(cli, "_rotation_cells", refuse)
    monkeypatch.setattr(cli, "_nonzero_cells", refuse)
    assert run_cli(capsys, "chenruan", "--weights", HUGE, "--multtable")[0] == 0
    argv = ("eval", "--weights", HUGE, "--ring", "chenruan", "a1*a1 + a765049*u")
    assert run_cli(capsys, *argv)[0] == 0


def test_dense_limit_boundary(capsys, monkeypatch):
    monkeypatch.setattr("wpscoh.chenruan.DENSE_SECTOR_LIMIT", 6)
    assert run_cli(capsys, "chenruan", "--weights", "1,2,3", "--sectors")[0] == 0
    assert run_cli(capsys, "check", "--weights", "1,2,3")[0] == 0
    assert run_cli(capsys, "chenruan", "--weights", "1,2,4,3", "--sectors")[0] == 2
    assert run_cli(capsys, "check", "--weights", "1,2,4,3")[0] == 2


def test_product_limit_boundary_for_check(capsys, monkeypatch):
    # (1,2,3) has 3 nonzero twisted sectors, (2,3,4) has 5
    monkeypatch.setattr("wpscoh.chenruan.PRODUCT_SECTOR_LIMIT", 3)
    assert run_cli(capsys, "check", "--weights", "1,2,3")[0] == 0
    code, out, err = run_cli(capsys, "check", "--weights", "2,3,4")
    assert (code, out) == (2, "")
    assert err == (
        "error: check forms products of 5 nonzero twisted sectors, more than the limit of 3\n"
    )
    monkeypatch.undo()
    # all 9972 twisted sectors of (1,9973) are nonzero
    code, out, err = run_cli(capsys, "check", "--weights", "1,9973")
    assert code == 2 and out == "" and "9972 nonzero twisted sectors" in err


def test_kunneth_builds_the_product_groups_once(capsys, monkeypatch):
    from wpscoh import cli

    calls = []
    build = cli.product_groups

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(cli, "product_groups", counting)
    code, out, _ = run_cli(
        capsys, "kunneth", "--weights", "1,2", "--weights-b", "1,2", "--max-degree", "9"
    )
    assert code == 0 and len(calls) == 1
    assert "first odd degree with nonzero group: 7 (Z/2)" in out


@pytest.mark.parametrize(
    "argv, last_line",
    [
        (("kawasaki", "--weights", "1,2,3"), "  degree 0: Z"),
        (("orbifold", "--weights", "1,2,3"), "  q*(g2) = 6u^2"),
        (("chenruan", "--weights", "1,2,3", "--presentation"), "  degree 0: Z"),
        (("kunneth", "--weights", "1,2", "--weights-b", "3"),
         "no odd-degree torsion up to degree 0"),
    ],
)
def test_max_degree_zero_is_honoured(capsys, argv, last_line):
    code, out, _ = run_cli(capsys, *argv, "--max-degree", "0")
    assert code == 0
    assert "up to 0)" in out or "up to degree 0:" in out
    assert "degree 2" not in out.split("up to")[1]
    assert out.splitlines()[-1] == last_line


@pytest.mark.parametrize("command", ["kawasaki", "orbifold", "kunneth"])
def test_fractional_max_degree_is_rejected_where_degrees_are_integral(capsys, command):
    argv = [command, "--weights", "1,2,3", "--max-degree", "7/2"]
    if command == "kunneth":
        argv += ["--weights-b", "2,2"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {command} needs an integral --max-degree, got 7/2\n"


def test_fractional_max_degree_still_works_for_chenruan(capsys):
    code, out, _ = run_cli(
        capsys, "chenruan", "--weights", "1,2", "--presentation", "--max-degree", "7/2"
    )
    assert code == 0 and "groups by degree (up to 7/2):" in out


def test_deeply_nested_expression_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "eval", "--weights", "1,2", "--ring", "orbifold", "(" * 3000 + "u" + ")" * 3000
    )
    assert code == 2 and out == ""
    assert err.startswith("error: expression nests deeper than") and len(err.splitlines()) == 1


_degree_texts = st.one_of(
    st.just("0"),
    st.integers(-40, 60).map(str),
    st.tuples(st.integers(-40, 60), st.integers(1, 7)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.sampled_from(["-0", "1e1", "2.5", "x", "1/0", ""]),
)


@given(
    st.sampled_from(["kunneth", "kawasaki", "orbifold"]),
    st.lists(st.integers(1, 7), min_size=1, max_size=4),
    _degree_texts,
    st.sampled_from(["text", "json", "latex"]),
)
@settings(max_examples=150, deadline=None)
def test_max_degree_fuzz(command, weights, degree, fmt):
    csv = ",".join(map(str, weights))
    argv = [command, "--weights", csv, "--format", fmt, "--max-degree", degree]
    if command == "kunneth":
        argv += ["--weights-b", csv[::-1]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
    else:
        assert err.getvalue() == ""
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ("kawasaki", "--weights", "1,2"),
        ("orbifold", "--weights", "1,2"),
        ("chenruan", "--weights", "1,2", "--presentation"),
        ("chenruan", "--weights", "1,2", "--multtable"),
        ("kunneth", "--weights", "1", "--weights-b", "2"),
    ],
)
def test_max_degree_limit(capsys, argv):
    from wpscoh.cli import MAX_DEGREE_LIMIT

    code, out, err = run_cli(capsys, *argv, "--max-degree", str(MAX_DEGREE_LIMIT))
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, *argv, "--max-degree", str(MAX_DEGREE_LIMIT + 1))
    assert code == 2 and out == ""
    assert err == f"error: --max-degree {MAX_DEGREE_LIMIT + 1} is above the limit of {MAX_DEGREE_LIMIT}\n"
    code, _, err = run_cli(capsys, *argv, "--max-degree", f"{2 * MAX_DEGREE_LIMIT + 1}/2")
    assert code == 2 and "above the limit" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("orbifold", "--weights", "1,2", "--max-degree", "1e10000000"),
        ("chenruan", "--weights", "1,2", "--max-degree", "1e-3000000"),
    ],
)
def test_long_degree_exponent_is_refused_at_once(capsys, argv):
    # Fraction would compute 10**exponent, and the messages would then
    # format a number of millions of digits
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert exc.value.code == 2 and len(err.splitlines()) == 1
    assert f"bad degree '{argv[-1]}'" in err and "set_int_max_str_digits" not in err


@pytest.mark.parametrize(
    "text", ["1" * 5000, "0." + "0" * 4400 + "1"], ids=["5000-digit", "4400-zero-decimal"]
)
def test_long_degree_is_quoted_short(capsys, text):
    # int() would repeat the whole input and add its set_int_max_str_digits advice
    with pytest.raises(SystemExit) as exc:
        main(["orbifold", "--weights", "1,2", "--max-degree", text])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and len(err.splitlines()) == 1
    assert len(err.encode()) < 200 and "set_int_max_str_digits" not in err
    assert f"bad degree {text[:20]!r}... of {len(text)} characters" in err


@pytest.mark.parametrize(
    "entry",
    ["9" * 5000, "x" * 100, "-" + "9" * 4000],
    ids=["5000-digit", "100-letter", "4000-digit-negative"],
)
def test_long_weight_is_quoted_short(capsys, entry):
    # int() would add its set_int_max_str_digits advice, or repeat the entry
    with pytest.raises(SystemExit) as exc:
        main(["kawasaki", "--weights", f"1,{entry}"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and len(err.splitlines()) == 1
    assert len(err.encode()) < 200 and "set_int_max_str_digits" not in err
    assert "weights must be comma-separated positive integers: " in err
    assert f"bad weight {entry[:20]!r}... of {len(entry)} characters" in err


@pytest.mark.parametrize("sections", [(), ("--presentation",), ("--multtable",)])
def test_listed_products_are_bounded(capsys, sections):
    # ell = 99991 passes the dense limit, but all 99990 twisted sectors are nonzero
    code, out, err = run_cli(capsys, "chenruan", "--weights", "1,99991", *sections)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert "99990 nonzero twisted sectors, more than the limit of 1000" in err


@pytest.mark.parametrize("argv", [("eval", "--ring", "chenruan", "u"), ("chenruan", "--multtable")])
def test_sector_index_is_bounded(capsys, monkeypatch, argv):
    # a ring of 1,1000000000 would index 10^9 nonzero sectors, about 200 GB,
    # so a sector table built before the refusal fails the test instead
    def refuse(weights):
        raise AssertionError("the sector table was built before the bound was checked")

    monkeypatch.setattr(chenruan, "_sector_table", refuse)
    message = (
        "the sector ring indexes up to min(ell, sum of the weights) = 1000000000 "
        "nonzero sectors, more than the limit of 100000"
    )
    code, out, err = run_cli(capsys, argv[0], "--weights", "1,1000000000", *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    # the ring refuses itself, called from the library too
    with pytest.raises(ValueError) as exc:
        CrRing((1, 10**9))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "argv, message",
    [
        (("chenruan", "--multtable", "--weights", "1,99991"),
         "the presentation and multiplication table list products of 99990"),
        (("check", "--weights", "1,9973"), "check forms products of 9972"),
    ],
)
def test_product_limit_is_checked_before_any_product(capsys, monkeypatch, argv, message):
    def refuse(ring, i, j):
        raise AssertionError("a product was formed before the product limit was checked")

    monkeypatch.setattr(CrRing, "_raw_product", refuse)
    calls = Counter()
    _count_calls(monkeypatch, chenruan, "_sector_table", calls)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message} nonzero twisted sectors, more than the limit of 1000\n"
    assert calls["_sector_table"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--weights", "4,9,14"),
        ("chenruan", "--weights", "7,8,15"),
        ("chenruan", "--weights", "7,8,15", "--multtable"),
        ("eval", "--weights", "7,8,15", "--ring", "chenruan", "a105*a56"),
    ],
)
def test_each_call_builds_one_sector_table(capsys, monkeypatch, argv):
    calls = Counter()
    _count_calls(monkeypatch, chenruan, "_sector_table", calls)
    assert run_cli(capsys, *argv)[0] == 0
    assert calls["_sector_table"] == 1


def test_check_builds_one_sector_ring(capsys, monkeypatch):
    calls = Counter()
    _count_calls(monkeypatch, CrRing, "__init__", calls)
    assert run_cli(capsys, "check", "--weights", "4,9,14")[0] == 0
    assert calls["__init__"] == 1


def test_sector_index_limit_boundary(capsys, monkeypatch):
    monkeypatch.setattr("wpscoh.chenruan.DENSE_SECTOR_LIMIT", 5)
    # (2,3): ell 6 but sum 5; (3,3,3): sum 9 but ell 3; (1,2,3): both 6
    for weights, code in (("2,3", 0), ("3,3,3", 0), ("1,2,3", 2)):
        assert run_cli(capsys, "eval", "--weights", weights, "--ring", "chenruan", "u")[0] == code
        assert run_cli(capsys, "chenruan", "--weights", weights, "--multtable")[0] == code


def test_product_limit_boundary(capsys, monkeypatch):
    monkeypatch.setattr("wpscoh.chenruan.PRODUCT_SECTOR_LIMIT", 3)
    # (1,2,3) has 3 nonzero twisted sectors, (2,3,4) has 5
    assert run_cli(capsys, "chenruan", "--weights", "1,2,3")[0] == 0
    assert run_cli(capsys, "chenruan", "--weights", "1,2,3", "--multtable")[0] == 0
    assert run_cli(capsys, "chenruan", "--weights", "2,3,4", "--multtable")[0] == 2
    assert run_cli(capsys, "chenruan", "--weights", "2,3,4", "--sectors")[0] == 0
    assert run_cli(capsys, "eval", "--weights", "2,3,4", "--ring", "chenruan", "a3*a4")[0] == 0


_SYMBOLS = ["u", "g0", "g1", "g2", "a0", "a1", "a3", "a12", "7", "0", "12"]
_BAD = ["", "x", "^", "u^^2", "(", ")", "2u", "a", "g", "--", "1/2", "u^-1", "é"]


@st.composite
def _expressions(draw, depth=0):
    kind = draw(st.integers(0, 5 if depth < 3 else 1))
    if kind == 0:
        return draw(st.sampled_from(_SYMBOLS))
    if kind == 1:
        return draw(st.sampled_from(_SYMBOLS + _BAD))
    if kind == 2:
        return f"({draw(_expressions(depth + 1))})^{draw(st.integers(0, 6))}"
    if kind == 3:
        return "-" + draw(_expressions(depth + 1))
    op = draw(st.sampled_from([" + ", " - ", "*"]))
    return draw(_expressions(depth + 1)) + op + draw(_expressions(depth + 1))


@st.composite
def _argvs(draw):
    weights = ",".join(map(str, draw(st.lists(st.integers(1, 12), min_size=1, max_size=5))))
    command = draw(st.sampled_from(["kawasaki", "orbifold", "chenruan", "kunneth", "eval", "check"]))
    argv = [command, "--weights", weights, "--format", draw(st.sampled_from(["text", "json", "latex"]))]
    if command in ("kawasaki", "orbifold", "chenruan", "kunneth") and draw(st.booleans()):
        small = st.tuples(st.integers(0, 30), st.sampled_from(["", "/2", "/3"]))
        over = st.tuples(st.sampled_from([4001, 4010, 10**9]), st.just(""))
        argv += ["--max-degree", "%d%s" % draw(st.one_of(small, over))]
    if command == "chenruan":
        argv += draw(st.lists(st.sampled_from(["--sectors", "--presentation", "--multtable"]),
                              max_size=3, unique=True))
    if command == "kunneth":
        argv += ["--weights-b", ",".join(map(str, draw(st.lists(st.integers(1, 12), min_size=1,
                                                                 max_size=3))))]
    if command == "eval":
        argv += ["--ring", draw(st.sampled_from(["kawasaki", "orbifold", "chenruan"])),
                 draw(_expressions())]
    return argv


@given(_argvs())
@settings(max_examples=150, deadline=None)
def test_cli_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""


# -- the shared parser ----------------------------------------------------------


def _call(argv):
    """Exit code, stdout and stderr of one main call, usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# each call follows one that could leave state behind in a shared parser
_LEAK_SEQUENCE = [
    ["chenruan", "--weights", "1,2", "--sectors"],
    ["chenruan", "--weights", "1,2"],
    ["chenruan", "--weights", "1,2,3", "--multtable", "--format", "latex"],
    ["chenruan", "--weights", "1,2,3", "--presentation"],
    ["kawasaki", "--weights", "1,2,3", "--max-degree", "5"],
    ["kawasaki", "--weights", "1,2,3"],
    ["orbifold", "--weights", "2,2", "--format", "json"],
    ["orbifold", "--weights", "2,2"],
    ["kunneth", "--weights", "1,x", "--weights-b", "2"],
    ["kunneth", "--weights", "1,2", "--weights-b", "2"],
    ["eval", "--weights", "1,2", "--ring", "nowhere", "u"],
    ["eval", "--weights", "1,2", "--ring", "kawasaki", "u"],
    ["eval", "--weights", "1,2", "--ring", "chenruan", "a1*a1"],
    ["check", "--weights", "1,2"],
    ["orbifold", "--weights", "1,2", "--max-degree", "7/2"],
    ["orbifold", "--weights", "1,2"],
]


def test_parser_is_built_once_per_process(monkeypatch):
    builds = []
    init = cli._ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        if kwargs.get("prog") == "wpscoh":
            builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._ArgumentParser, "__init__", counting)
    cli._build_parser.cache_clear()
    for argv in _LEAK_SEQUENCE * 3:
        _call(argv)
    assert len(builds) == 1
    assert cli._build_parser() is builds[0]


def test_shared_parser_leaks_no_state_between_calls():
    expected = []
    for argv in _LEAK_SEQUENCE:
        cli._build_parser.cache_clear()
        expected.append(_call(argv))
    assert {code for code, _, _ in expected} == {0, 2}

    cli._build_parser.cache_clear()
    parser = cli._build_parser()
    for argv, want in zip(_LEAK_SEQUENCE, expected):
        assert _call(argv) == want, argv
    assert cli._build_parser() is parser


# argv whose parse is decided by argparse's edge cases: help, abbreviated
# names and options, extras, option-like positionals, "--", repeated
# options, missing arguments and options before the subcommand
_DISPATCH_EDGES = [
    [],
    ["-h"],
    ["--help"],
    ["eval", "-h"],
    ["kunneth", "--help"],
    ["kaw", "--weights", "1,2"],
    ["nowhere", "--weights", "1,2"],
    ["kawasaki", "--wei", "1,2"],
    ["kawasaki", "--weights=1,2"],
    ["kawasaki", "--weights", "1,2", "extra", "more"],
    ["kawasaki", "--weights", "1,2", "--bogus", "x"],
    ["eval", "--weights", "1,2", "--ring", "orbifold", "u", "extra"],
    ["eval", "--weights", "1,2", "--ring", "orbifold", "-u"],
    ["eval", "--weights", "1,2", "--ring", "orbifold", "--", "-u"],
    ["eval", "--weights", "1,2", "--ring", "kawasaki", "-g1^3"],
    ["--", "kawasaki", "--weights", "1,2"],
    ["kawasaki", "--weights", "1,2", "--weights", "1,3"],
    ["chenruan", "--weights", "1,2", "--sectors", "--sectors", "--format", "json"],
    ["kawasaki"],
    ["eval", "--weights", "1,2", "--ring", "orbifold"],
    ["--weights", "1,2", "kawasaki"],
]


@pytest.mark.parametrize(
    "argv", _DISPATCH_EDGES + [list(argv) for argv, _ in ALL_GOLDEN], ids=" ".join
)
def test_subcommand_dispatch_matches_the_top_level_parse(monkeypatch, argv):
    """main parses with the subcommand's own parser; the top-level
    parse_args, which hands argv on through the subparsers action, is
    its oracle: the same exit code, stdout and stderr."""
    got = _call(argv)
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._build_parser().parse_args(argv))
    assert got == _call(argv)


def test_subcommand_dispatch_reads_sys_argv(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["wpscoh", "eval", "--weights", "1,2", "--ring", "orbifold", "u"])
    assert _call(None) == (0, "u\ndegree: 2\n", "")


def test_usage_error_goes_to_the_current_stderr(capsys):
    cli._build_parser.cache_clear()
    assert _call(["orbifold", "--weights", "1,2"])[0] == 0  # built under other streams
    with pytest.raises(SystemExit) as exc:
        main(["orbifold", "--weights", "1,x"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "wpscoh orbifold: error: argument --weights: weights must be "
        "comma-separated positive integers: invalid literal for int() with base 10: 'x'\n"
    )
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: wpscoh")


# -- the dimension bound ----------------------------------------------------------


def _ones(k):
    return ",".join(["1"] * k)


@pytest.mark.parametrize(
    "argv",
    [
        ("kawasaki", "--weights", "{}"),
        ("orbifold", "--weights", "{}"),
        ("chenruan", "--weights", "{}"),
        ("kunneth", "--weights", "{}", "--weights-b", "2"),
        ("kunneth", "--weights", "2", "--weights-b", "{}"),
        ("eval", "--weights", "{}", "--ring", "kawasaki", "g1*g2"),
        ("check", "--weights", "{}"),
    ],
)
def test_weights_limit(argv):
    limit = cli.MAX_WEIGHTS
    code, out, err = _call([a.format(_ones(limit)) for a in argv])
    assert code == 0 and out and err == ""
    code, out, err = _call([a.format(_ones(limit + 1)) for a in argv])
    flag = argv[argv.index("{}") - 1]
    assert code == 2 and out == ""
    assert err == (
        f"wpscoh {argv[0]}: error: argument {flag}: "
        f"{limit + 1} weights, more than the limit of {limit}\n"
    )


def test_weights_limit_boundary_for_check(monkeypatch):
    monkeypatch.setattr(cli, "MAX_WEIGHTS", 3)
    assert _call(["check", "--weights", "1,2,3"])[0] == 0
    code, out, err = _call(["check", "--weights", "1,2,3,4"])
    assert code == 2 and out == "" and "4 weights, more than the limit of 3" in err


def test_default_degrees_stay_within_the_degree_limit(capsys):
    # kunneth's default 2(n+2) is the largest: n counts both factors
    wide = _ones(cli.MAX_WEIGHTS)
    code, out, _ = run_cli(capsys, "kunneth", "--weights", wide, "--weights-b", wide)
    top = 2 * (2 * (cli.MAX_WEIGHTS - 1) + 2)
    assert code == 0 and f"up to degree {top}:" in out
    assert top <= cli.MAX_DEGREE_LIMIT


# -- one document per call, and the views of it --------------------------------

FORMATS = ("text", "json", "latex")
SECTION_SETS = [
    (), ("--sectors",), ("--presentation",), ("--multtable",),
    ("--sectors", "--presentation"), ("--presentation", "--multtable"),
    ("--sectors", "--multtable"), ("--sectors", "--presentation", "--multtable"),
]


def _count_calls(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize(
    "argv, owner, name",
    [
        (("chenruan", "--weights", "3,4", "--presentation"), CrRing, "graded_dimensions"),
        (("chenruan", "--weights", "3,4"), CrRing, "graded_dimensions"),
        (("orbifold", "--weights", "1,2,2,3,3,3"), OrbifoldRing, "groups"),
        (("kawasaki", "--weights", "1,2,2,3,3,3"), KawasakiRing, "groups"),
        (("kunneth", "--weights", "1,2", "--weights-b", "1,2"), ProductGroups,
         "odd_torsion_witness"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_latex_does_not_compute_what_it_leaves_out(capsys, monkeypatch, argv, owner, name):
    calls = Counter()
    _count_calls(monkeypatch, owner, name, calls)
    for fmt, expected in (("latex", 0), ("text", 1), ("json", 1)):
        calls.clear()
        code, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0 and out
        assert calls[name] == expected, fmt


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("sections", SECTION_SETS, ids=lambda s: "+".join(s) or "default")
def test_presentation_and_mult_table_are_built_at_most_once(capsys, monkeypatch, fmt, sections):
    calls = Counter()
    _count_calls(monkeypatch, CrRing, "presentation", calls)
    _count_calls(monkeypatch, CrRing, "mult_table", calls)
    code, _, _ = run_cli(capsys, "chenruan", "--weights", "1,2,2,3,3,3", "--format", fmt, *sections)
    assert code == 0
    # one path: the presentation's product relations are the multiplication table
    shown = set(sections) or {"--sectors", "--presentation"}
    assert calls["presentation"] == bool(shown & {"--presentation", "--multtable"})
    assert calls["mult_table"] == 0


@pytest.mark.parametrize("fmt", FORMATS)
def test_each_product_relation_renders_once(capsys, monkeypatch, fmt):
    """--presentation and --multtable show one holder of the product
    relations, and each relation renders its monomial once per call."""
    relations = CrRing((4, 9, 14)).presentation().product_relations
    assert len(relations) > 10
    calls = Counter()
    _count_calls(monkeypatch, ProductRelation, "render", calls)
    argv = ("chenruan", "--weights", "4,9,14", "--presentation", "--multtable", "--format", fmt)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls["render"] == len(relations)
    if fmt == "text":
        for rel in relations:
            assert out.count(f" {rel}\n") == 2


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("sections", SECTION_SETS, ids=lambda s: "+".join(s) or "default")
def test_chenruan_builds_nothing_per_sector(capsys, monkeypatch, fmt, sections):
    """The chart and the presentation are written from the ring's
    columns: no KernelRelation, no rotations(j) tuple and no per-sector
    shift; the graded sweep reads the shifts of the nonzero sectors."""
    calls = Counter()
    for owner, name in ((KernelRelation, "__init__"), (CrRing, "rotations"),
                        (CrRing, "_shift_units"), (CrRing, "_record")):
        _count_calls(monkeypatch, owner, name, calls)
    code, _, _ = run_cli(capsys, "chenruan", "--weights", "7,8,15", "--format", fmt, *sections)
    assert code == 0
    assert calls["__init__"] == calls["_record"] == 0
    # one shift, so one rotations tuple, per nonzero sector, in the sweep
    assert calls["rotations"] == calls["_shift_units"] <= len(CrRing((7, 8, 15)).nonzero)


@pytest.mark.parametrize("fmt", FORMATS)
def test_kawasaki_presentation_is_built_once(capsys, monkeypatch, fmt):
    calls = Counter()
    _count_calls(monkeypatch, KawasakiRing, "presentation", calls)
    assert run_cli(capsys, "kawasaki", "--weights", "1,2,3", "--format", fmt)[0] == 0
    assert calls["presentation"] == 1


@pytest.mark.parametrize("fmt", FORMATS)
def test_check_exits_1_when_a_check_fails(capsys, monkeypatch, fmt):
    failing = [
        CheckResult("sector ring: something holds", True, "exhaustive over 4 pairs"),
        CheckResult("sector ring: something else holds", False, "sector 3 breaks it"),
    ]
    monkeypatch.setattr(cli, "run_checks", lambda weights: failing)
    code, out, err = run_cli(capsys, "check", "--weights", "1,2", "--format", fmt)
    assert code == 1 and err == ""
    if fmt == "json":
        doc = json.loads(out)
        assert doc["ok"] is False and doc["weights"] == [1, 2]
        assert doc["results"][1] == {
            "name": "sector ring: something else holds", "passed": False,
            "detail": "sector 3 breaks it",
        }
    else:
        assert out.splitlines() == [
            "PASS sector ring: something holds -- exhaustive over 4 pairs",
            "FAIL sector ring: something else holds -- sector 3 breaks it",
            "1/2 checks passed",
        ]


@pytest.mark.parametrize("sections", SECTION_SETS, ids=lambda s: "+".join(s) or "default")
def test_latex_joins_no_empty_block(capsys, sections):
    # ell = 1 has no twisted sector, so its product blocks are empty
    for weights in ("1,1", "1,1,1", "1,2"):
        code, out, _ = run_cli(capsys, "chenruan", "--weights", weights, "--format", "latex",
                               *sections)
        assert code == 0
        assert "\n\n\n" not in out
        assert not out.endswith("\n\n") or out == "\n"


def test_eval_refuses_a_product_above_the_pair_limit(capsys):
    from wpscoh.algebra import MAX_PRODUCT_PAIRS

    code, out, err = run_cli(
        capsys, "eval", "--weights", "1,97", "--ring", "orbifold", "(1+u+u^2+u^3)^4000"
    )
    assert code == 2 and out == ""
    assert re.fullmatch(
        rf"error: a product of \d+ by \d+ monomials is above the limit of {MAX_PRODUCT_PAIRS} "
        r"monomial pairs\n",
        err,
    )
    # powers of one monomial form one pair per product
    code, out, _ = run_cli(capsys, "eval", "--weights", "1,97", "--ring", "orbifold",
                           "u^1000000000000")
    assert code == 0 and out.splitlines() == ["u^1000000000000", "degree: 2000000000000"]
    code, out, _ = run_cli(capsys, "eval", "--weights", "3,4,6", "--ring", "chenruan",
                           "a4^1000000000001")
    assert code == 0


def test_eval_refuses_a_coefficient_above_the_bit_limit(capsys):
    from wpscoh.algebra import MAX_COEFFICIENT_BITS

    # 2 squared 14 times has 16385 bits, whatever the exponent
    for exponent in ("30000000", "10000000000000000000000"):
        code, out, err = run_cli(
            capsys, "eval", "--weights", "1,2", "--ring", "orbifold", "2^" + exponent
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: a product has a coefficient of 16385 bits, above the limit of "
            f"{MAX_COEFFICIENT_BITS} bits\n"
        )
    # reduction mod N = 2 keeps the coefficient at 1
    code, out, _ = run_cli(capsys, "eval", "--weights", "1,2", "--ring", "orbifold",
                           "(3*u^2)^100000")
    assert code == 0 and out.splitlines() == ["u^200000", "degree: 400000"]
    # the largest coefficient in the benchmark corpora, 3188 bits, still prints
    code, out, _ = run_cli(capsys, "eval", "--weights", "3,3,3", "--ring", "kawasaki",
                           "(g1 + g2 + 3)^2000*g1")
    assert code == 0 and len(out) > 900


@pytest.mark.parametrize(
    "ring, expression, sizes",
    [
        ("orbifold", "(1+u)*(1+u)", (2, 2)),
        # 1 by 1+u, then 1+u squared, then 1+u by 1+2u+u^2
        ("orbifold", "(1+u)^3", (2, 3)),
        # sectors 2 and 4 of (1,2,2,3,3,3) multiply in every pair
        ("chenruan", "(a2 + a4)*(a2 + a4)", (2, 2)),
        # 1 by g1+g2, then g1+g2 squared, then 1 by g2+2g3+g4
        ("kawasaki", "(g1 + g2)^2", (2, 2)),
    ],
)
def test_pair_limit_boundary(capsys, monkeypatch, ring, expression, sizes):
    pairs = sizes[0] * sizes[1]
    argv = ("eval", "--weights", "1,2,2,3,3,3", "--ring", ring, expression)
    expected = run_cli(capsys, *argv)
    monkeypatch.setattr("wpscoh.algebra.MAX_PRODUCT_PAIRS", pairs)
    assert run_cli(capsys, *argv) == expected
    monkeypatch.setattr("wpscoh.algebra.MAX_PRODUCT_PAIRS", pairs - 1)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        f"error: a product of {sizes[0]} by {sizes[1]} monomials is above the limit of "
        f"{pairs - 1} monomial pairs\n"
    )
