import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import obscon

from obscon.cli import main
from obscon.fixtures import FIXTURE_GRAPHS, FIXTURE_TABLES

from conftest import BELL_CHSH
from oracles import decimal_csv, sparse_dag, structural_model_table


@pytest.fixture()
def examples(tmp_path):
    directory = tmp_path / "examples"
    code = main(["--emit-examples", str(directory)])
    assert code == 0
    return directory


def path_of(examples, name):
    return str(examples / name)


def test_emit_examples_writes_everything(examples):
    names = set(os.listdir(examples))
    for graph in FIXTURE_GRAPHS:
        assert f"{graph}.graph" in names
    for table in FIXTURE_TABLES:
        assert f"{table}.csv" in names


def test_cli_import_leaves_examples_unloaded():
    # only --emit-examples needs obscon.fixtures; -I ignores PYTHON* variables,
    # -B writes no bytecode
    src = os.path.dirname(os.path.dirname(obscon.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import obscon.cli; "
            "print('obscon.fixtures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", code, src],
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout == "False\n"


def test_info_iv(examples, capsys):
    code = main(["info", path_of(examples, "iv.graph")])
    out = capsys.readouterr().out
    assert code == 0
    assert "districts: {Z} (c=1), {X,Y} (c=1)" in out
    assert "conditions: ok" in out
    assert "ci: none" in out


def test_info_seven_var(tmp_path, capsys):
    from conftest import SEVEN_VAR

    path = tmp_path / "seven.graph"
    path.write_text(SEVEN_VAR)
    code = main(["info", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "districts: {A,C,E} (c=1), {B,D,F} (c=2), {G} (c=1)" in out


def test_info_malformed_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text("var A 2\nvar B\n")
    code = main(["info", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err


def test_superscript_cardinality_exits_2(tmp_path, capsys):
    # '²'.isdigit() is true, but int('²') raises
    path = tmp_path / "bad.graph"
    path.write_text("var X ²\n", encoding="utf-8")
    for command in (["info", str(path)], ["derive", str(path)]):
        code = main(command)
        err = capsys.readouterr().err
        assert code == 2
        assert "line 1" in err and "cardinality" in err


def test_cardinality_over_the_int_digit_limit_exits_2(tmp_path, capsys):
    # int() refuses a string of more than sys.get_int_max_str_digits() digits
    path = tmp_path / "huge.graph"
    path.write_text(f"var X {'9' * 5000}\nvar A 2\nedge X A\n")
    for command in (["info", str(path)], ["derive", str(path)]):
        code = main(command)
        err = capsys.readouterr().err
        assert code == 2
        assert "line 1" in err and f"more than {sys.get_int_max_str_digits()} digits" in err


@pytest.mark.parametrize("command", ["derive", "check"])
@pytest.mark.parametrize("jobs", ["0", "-1", "-3", "two", "1", "2"])
def test_jobs_below_one_exits_2(examples, capsys, command, jobs):
    # derivation is serial: --jobs is not an option, so every value is refused
    args = [command, path_of(examples, "iv.graph")]
    if command == "check":
        args.append(path_of(examples, "iv_model.csv"))
    with pytest.raises(SystemExit) as exc:
        main(args + ["--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("info", "--max-ci-size", "-1"),
    ("derive", "--max-ci-size", "-1"),
    ("check", "--max-ci-size", "-1"),
    ("derive", "--column-limit", "-1"),
    ("derive", "--column-limit", "0"),
    ("check", "--column-limit", "-1"),
    ("check", "--column-limit", "0"),
])
def test_size_flags_out_of_range_exit_2(examples, capsys, command, flag, value):
    args = [command, path_of(examples, "iv_sequential.graph")]
    if command == "check":
        args.append(path_of(examples, "iv_model.csv"))
    with pytest.raises(SystemExit) as exc:
        main(args + [flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--texts", "--timings"])
def test_derive_cdd_refuses_json_only_flags(examples, tmp_path, capsys, flag):
    out = tmp_path / "iv.cdd"
    with pytest.raises(SystemExit) as exc:
        main(["derive", path_of(examples, "iv.graph"), "--format", "cdd", flag,
              "-o", str(out)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["info", "g.graph"],
    ["rewrite", "g.graph", "--normalize"],
    ["derive", "g.graph"],
    ["check", "g.graph", "missing.csv"],
])
def test_emit_examples_refuses_a_command(tmp_path, capsys, argv):
    # the command would never run, so exit 0 would claim a check that was not made
    target = tmp_path / "examples"
    with pytest.raises(SystemExit) as exc:
        main(["--emit-examples", str(target), *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--emit-examples" in captured.err
    assert not target.exists()


@pytest.mark.parametrize("mode", [["--normalize"], ["--merge-latents"], ["--hlp", "Z", "Y"],
                                  ["--face-split", "U"]])
@pytest.mark.parametrize("sets", [["--c-set", "X"], ["--d-set", "Y"],
                                  ["--c-set", "X", "--d-set", "Y"]])
def test_rewrite_refuses_sets_without_replace(examples, capsys, mode, sets):
    with pytest.raises(SystemExit) as exc:
        main(["rewrite", path_of(examples, "iv.graph"), *mode, *sets])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and sets[0] in captured.err


def test_max_ci_size_zero_keeps_marginal_independences(tmp_path, capsys):
    path = tmp_path / "pair.graph"
    path.write_text("var A 2\nvar B 2\n")
    assert main(["info", str(path), "--max-ci-size", "0"]) == 0
    assert "A _||_ B" in capsys.readouterr().out


def test_info_sparse_18_variables(tmp_path, capsys, sparse18):
    from obscon import enumerate_ci

    path = tmp_path / "sparse18.graph"
    path.write_text(sparse18.to_text())
    for extra, cap in (([], None), (["--max-ci-size", "0"], 0)):
        assert main(["info", str(path), *extra]) == 0
        out = capsys.readouterr().out.splitlines()
        listed = out[out.index("ci:") + 1:] if "ci:" in out else []
        assert listed == [f"  {s.render()}" for s in enumerate_ci(sparse18, cap)]
        # every statement of this graph needs a conditioning set, so the
        # default run lists some and --max-ci-size 0 lists none
        assert all(" | " in line for line in listed)
        assert bool(listed) == (cap is None)


def test_info_condition_violation_exits_3(tmp_path, capsys):
    path = tmp_path / "c1.graph"
    path.write_text(
        "var Z 2\nvar X 2\nvar Y 2\nlatent U1\nlatent U2\n"
        "edge Z U2\nedge U2 U1\nedge U1 X\nedge U1 Y\nedge Z X\n"
    )
    code = main(["info", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert "normalize" in captured.err


def test_derive_iv_summary(examples, tmp_path, capsys):
    out_path = tmp_path / "iv.json"
    code = main(["derive", path_of(examples, "iv.graph"), "-o", str(out_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "14 constraints, 12 inequalities, 2 equalities, 4 flagged" in captured.out
    payload = json.loads(out_path.read_text())
    assert payload["summary"]["flagged"] == 4


def test_derive_without_merge_exits_3(examples, capsys):
    code = main(["derive", path_of(examples, "triangle.graph")])
    assert code == 3
    assert "merge" in capsys.readouterr().err


def test_derive_merge_triangle(examples, tmp_path, capsys):
    out_path = tmp_path / "triangle.json"
    code = main([
        "derive", path_of(examples, "triangle.graph"), "--merge", "-o", str(out_path)
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "0 flagged" in captured.out
    payload = json.loads(out_path.read_text())
    assert payload["meta"]["complete"] is False


def test_derive_cost_guard_exits_4(examples, capsys):
    for name, limit, columns in (("iv", "4", 16), ("bell_tripartite", "10", 64)):
        code = main([
            "derive", path_of(examples, f"{name}.graph"), "--column-limit", limit
        ])
        assert code == 4
        assert f"needs {columns} response columns, over the limit" in capsys.readouterr().err


def parents_graph(k: int) -> str:
    """A binary W with the k binary parents P0 .. P(k-1), and no latents."""
    lines = [f"var P{i} 2" for i in range(k)] + ["var W 2"]
    return "\n".join(lines + [f"edge P{i} W" for i in range(k)]) + "\n"


def test_derive_cost_guard_exits_4_on_a_huge_response_space(tmp_path, capsys):
    # 3 ** 1,000,000 columns, never listed for this full product: the guard
    # counts its closed form's 3,000,000 inequalities of 3,000,000 coefficients
    path = tmp_path / "wide.graph"
    path.write_text("var X 1000000\nvar A 3\nedge X A\n")
    assert main(["derive", str(path)]) == 4
    assert capsys.readouterr().err == (
        "error: district needs 9000000000000 closed-form inequality coefficients, "
        "over the limit of 10000000\n")


# A and B, confounded by U, each read all three binary parents: 2 ** 16
# functions each, 65,536 columns over 8 blocks of 4 rows
CONFOUNDED_PAIR_OF_THREE_PARENTS = (
    "var P0 2\nvar P1 2\nvar P2 2\nvar A 2\nvar B 2\nlatent U\n"
    "edge P0 A\nedge P1 A\nedge P2 A\nedge P0 B\nedge P1 B\nedge P2 B\n"
    "edge U A\nedge U B\n")


def test_a_one_member_district_never_lists_its_columns(monkeypatch, tmp_path, capsys):
    # each member reads every external parent, so the functions realize every
    # outcome in each block, and the facets are the positivity rows: W's 2 ** 16
    # on its 16 parent configurations, and A and B's on their 8; with five
    # parents, W's 2 ** 32 functions are over the column limit, but the
    # closed form's 64 rows of 64 coefficients are not
    def refuse(system):
        raise AssertionError("a full-product district listed its columns")

    monkeypatch.setattr(obscon.response.FunctionalSystem, "columns", refuse)
    graph, out = tmp_path / "g.graph", tmp_path / "g.json"
    for text, counts in ((parents_graph(4), (32, 16, 0)),
                         (parents_graph(5), (64, 32, 0)),
                         (CONFOUNDED_PAIR_OF_THREE_PARENTS, (32, 8, 0))):
        start = time.perf_counter()
        result = obscon.derive_all(obscon.parse_graph(text))
        assert time.perf_counter() - start < 1
        assert (result.inequality_count, result.equality_count,
                result.flagged_count) == counts
        graph.write_text(text)
        assert main(["derive", str(graph), "-o", str(out)]) == 0
        capsys.readouterr()
        assert out.stat().st_size < 2 ** 20


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def read_readme() -> str:
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def test_readme_library_example_runs(examples):
    # README's "Library" code block, run on the emitted IV example and its
    # violating table, prints what its comment says
    code = re.search(r"\n## Library\n+```python\n(.*?)```", read_readme(), re.S).group(1)
    for name, emitted in (("iv.graph", "iv.graph"), ("table.csv", "iv_violator.csv")):
        assert f'"{name}"' in code
        code = code.replace(f'"{name}"', repr(path_of(examples, emitted)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, README, "exec"), {})
    summary, *flagged, falsified = out.getvalue().splitlines()
    assert summary == re.search(r"print\(result\.summary\(\)\) +# (.*)", code).group(1)
    assert len(flagged) == 4 and all(line.startswith(("P*(", "-P*(")) for line in flagged)
    assert falsified == "True"


def test_readme_documents_every_derive_json_key():
    # README's "Derive JSON (schema N)" section names the schema that
    # result_to_json writes, and puts in backticks every key of the
    # document, of a district, of its system, of a constraint (under
    # --texts) and of meta (under --timings)
    from obscon.constraints import result_to_json

    section = re.search(r"\n### Derive JSON \(schema (\d+)\)\n(.*?)\n#", read_readme(), re.S)
    quoted = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]*)`", section.group(2)))))
    dag = obscon.parse_graph(FIXTURE_GRAPHS["iv"])
    result = obscon.derive_all(dag, obscon.DeriveOptions(timings=True))
    doc = result_to_json(result, dag, texts=True)
    assert int(section.group(1)) == doc["schema"]
    skipped, derived = doc["districts"]
    assert skipped["skipped"] and not derived["skipped"]
    keys = {*doc, *skipped, *derived, *derived["system"], *derived["constraints"][0],
            *doc["meta"], *doc["meta"]["options"], *doc["meta"]["timings"]}
    assert keys - quoted == set()


def test_derive_cdd_format(examples, tmp_path):
    out_path = tmp_path / "iv.cdd"
    code = main([
        "derive", path_of(examples, "iv.graph"), "--format", "cdd",
        "-o", str(out_path),
    ])
    assert code == 0
    text = out_path.read_text()
    assert "* district {X,Y}" in text
    assert "H-representation" in text and "linearity 2 1 2" in text


def test_derive_json_byte_identical(examples, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["derive", path_of(examples, "iv.graph"), "-o", str(a)]) == 0
    assert main(["derive", path_of(examples, "iv.graph"), "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("name, merge", [("iv", []), ("mixed_cdegree", ["--merge"])])
@pytest.mark.parametrize("texts", [False, True])
def test_derive_json_streams_the_dumps_bytes(examples, tmp_path, name, merge, texts):
    from obscon import DeriveOptions, derive_all, load_graph
    from obscon.constraints import result_to_json

    graph = path_of(examples, f"{name}.graph")
    out = tmp_path / "out.json"
    flags = merge + (["--texts"] if texts else [])
    assert main(["derive", graph, *flags, "-o", str(out)]) == 0
    dag = load_graph(graph)
    result = derive_all(dag, DeriveOptions(merge=bool(merge)))
    expected = json.dumps(result_to_json(result, dag, texts), indent=2) + "\n"
    assert out.read_bytes() == expected.encode()


@pytest.fixture()
def unreadable(tmp_path):
    """A directory, and a file that is not UTF-8."""
    binary = tmp_path / "binary"
    binary.write_bytes(b"var X 2\n\xff\n")
    return {"directory": str(tmp_path), "binary": str(binary)}


@pytest.mark.parametrize("kind", ["directory", "binary"])
@pytest.mark.parametrize("command", ["info", "derive", "check"])
def test_unreadable_graph_exits_2(examples, capsys, unreadable, command, kind):
    args = [command, unreadable[kind]]
    if command == "check":
        args.append(path_of(examples, "iv_model.csv"))
    code = main(args)
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"error: cannot read {unreadable[kind]}: ")
    assert "internal error" not in err[0]


@pytest.mark.parametrize("kind", ["directory", "binary"])
def test_unreadable_table_exits_5(examples, capsys, unreadable, kind):
    code = main(["check", path_of(examples, "iv.graph"), unreadable[kind]])
    err = capsys.readouterr().err.splitlines()
    assert code == 5
    assert len(err) == 1 and err[0].startswith(f"error: cannot read {unreadable[kind]}: ")
    assert "internal error" not in err[0]


def test_check_model_table_exits_0(examples, capsys):
    code = main([
        "check", path_of(examples, "iv.graph"), path_of(examples, "iv_model.csv")
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "model consistent" in out


def test_check_violator_exits_1(examples, capsys):
    code = main([
        "check", path_of(examples, "iv.graph"), path_of(examples, "iv_violator.csv")
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "model falsified" in out
    assert "[violated] P*(X=0,Y=1|Z=0) + P*(X=0,Y=0|Z=1) <= 1" in out


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: star factors by observed ancestors")
def test_check_pr_box_on_chsh_exits_1(tmp_path, capsys):
    # the PR box: uniform settings and a XOR b = xy, so CHSH reaches 4
    # against the local bound 2; no local hidden-variable model gives it
    graph = tmp_path / "chsh.graph"
    graph.write_text(BELL_CHSH)
    table = tmp_path / "pr_box.csv"
    table.write_text("X,Y,A,B,prob\n" + "".join(
        f"{x},{y},{a},{b},1/8\n"
        for x, y, a, b in product(range(2), repeat=4) if a ^ b == x * y))
    code = main(["check", str(graph), str(table)])
    out = capsys.readouterr().out
    assert code == 1
    assert any(line.startswith("[violated] ") and "P*(" in line for line in out.splitlines())


def test_check_bad_table_exits_5(examples, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("Z,X,Y,prob\n0,0,0,1/2\n")
    code = main(["check", path_of(examples, "iv.graph"), str(bad)])
    assert code == 5
    assert "sum" in capsys.readouterr().err


@pytest.mark.parametrize("graph, table, code, message", [
    ("# only a comment\n", None, 2, "graph declares no variables"),
    ("var A 2\nvar B 2\nedge A\n", None, 2, "line 3: expected 'edge <parent> <child>'"),
    (None, "", 5, "empty distribution file"),
    (None, "  \n\n", 5, "empty distribution file"),
    (None, "Z,X,Y,prob\n0,x,0,1\n", 5, "non-integer value in row ['0', 'x', '0', '1']"),
    # a ratio above 2**60 is written by its exponent
    (None, "Z,X,Y,prob\n0,0,1,1e999\n", 5,
     "probabilities sum to about 1.00000e999, expected 1"),
], ids=["no-variables", "short-edge", "empty-table", "blank-table", "non-integer-cell",
        "huge-sum"])
def test_input_error_exit_code_and_message(examples, tmp_path, capsys, graph, table, code,
                                           message):
    capsys.readouterr()
    if table is None:
        path = tmp_path / "input.graph"
        path.write_text(graph)
        args = ["derive", str(path)]
    else:
        path = tmp_path / "table.csv"
        path.write_text(table)
        args = ["check", path_of(examples, "iv.graph"), str(path)]
    assert main(args) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("value", [7, -1])
@pytest.mark.parametrize("prob", ["0", "1"])
def test_check_out_of_range_row_exits_5(examples, tmp_path, capsys, value, prob):
    # a zero-probability row is range-checked as any other row
    table = tmp_path / "table.csv"
    model = (examples / "iv_model.csv").read_text().rstrip("\n")
    table.write_text(f"{model}\n0,{value},0,{prob}\n")
    code = main(["check", path_of(examples, "iv.graph"), str(table)])
    assert code == 5
    assert f"error: value {value} out of range in (0, {value}, 0)" in capsys.readouterr().err


def test_check_wolfe_triangle_consistent(examples, capsys):
    code = main([
        "check", path_of(examples, "triangle.graph"), "--merge",
        path_of(examples, "triangle_wolfe.csv"),
    ])
    assert code == 0
    assert "model consistent" in capsys.readouterr().out


def test_check_json_report(examples, tmp_path):
    report_path = tmp_path / "report.json"
    code = main([
        "check", path_of(examples, "iv.graph"), path_of(examples, "iv_violator.csv"),
        "--json", str(report_path),
    ])
    assert code == 1
    payload = json.loads(report_path.read_text())
    assert payload["falsified"] is True


def test_rewrite_normalize(tmp_path, capsys):
    path = tmp_path / "c1.graph"
    path.write_text(
        "var Z 2\nvar X 2\nvar Y 2\nlatent U1\nlatent U2\n"
        "edge Z U2\nedge U2 U1\nedge U1 X\nedge U1 Y\nedge Z X\n"
    )
    code = main(["rewrite", str(path), "--normalize"])
    captured = capsys.readouterr()
    assert code == 0
    assert "edge Z Y" in captured.out
    assert "exogenize" in captured.err


def test_rewrite_merge_latents(examples, capsys):
    code = main(["rewrite", path_of(examples, "triangle.graph"), "--merge-latents"])
    captured = capsys.readouterr()
    assert code == 0
    assert "latent merge_1" in captured.out


def test_rewrite_hlp_and_face_split(tmp_path, capsys):
    from conftest import IV_FAMILY_LEFT

    path = tmp_path / "family.graph"
    path.write_text(IV_FAMILY_LEFT)
    code = main(["rewrite", str(path), "--hlp", "Z", "X"])
    captured = capsys.readouterr()
    assert code == 0
    assert "edge Z X" in captured.out

    center = tmp_path / "center.graph"
    center.write_text(captured.out)
    code = main(["rewrite", str(center), "--face-split", "U1", "U2"])
    captured = capsys.readouterr()
    assert code == 0
    assert "latent U2" in captured.out and "latent U1" not in captured.out


def test_rewrite_replace(tmp_path, capsys):
    from conftest import IV_FAMILY_LEFT

    path = tmp_path / "family.graph"
    path.write_text(IV_FAMILY_LEFT)
    code = main([
        "rewrite", str(path), "--replace", "U1", "--c-set", "Z", "--d-set", "X"
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "edge Z X" in captured.out and "latent U1" not in captured.out


def test_rewrite_replace_error(examples, capsys):
    code = main([
        "rewrite", path_of(examples, "mixed_cdegree.graph"),
        "--replace", "U1", "--c-set", "V2", "--d-set", "V4",
    ])
    assert code == 3
    assert "bullet 3" in capsys.readouterr().err


def test_rewrite_replace_needs_both_sets(examples, capsys):
    code = main(["rewrite", path_of(examples, "iv.graph"), "--replace", "U", "--c-set", "Z"])
    assert code == 2
    assert capsys.readouterr().err == "error: --replace needs --c-set and --d-set\n"


def test_rewrite_hlp_self_edge_exits_3(examples, capsys):
    # the only edge that passes the parent-domination check yet makes a cycle
    code = main(["rewrite", path_of(examples, "iv.graph"), "--hlp", "X", "X"])
    assert code == 3
    assert capsys.readouterr().err == "error: adding X -> X creates a cycle\n"


@pytest.mark.parametrize("graph, args, message", [
    ("var C 2\nvar D 2\nvar E 2\nlatent U\nlatent V\n"
     "edge U C\nedge U D\nedge V C\nedge V E\n",
     ["--replace", "U", "--c-set", "C", "--d-set", "D"],
     "bullet 2: C in c_set is also a child of latent V"),
    ("".join(f"var W{i} 2\n" for i in range(5)) + "latent U0\nlatent U1\n" + "".join(
        f"edge {p} {c}\n" for p, c in (
            ("W0", "W2"), ("W0", "W3"), ("W0", "W4"), ("W1", "W4"), ("W2", "W4"),
            ("W3", "W4"), ("U0", "W2"), ("U0", "W3"), ("U0", "W4"), ("U1", "W0"),
            ("U1", "W3"), ("U1", "W4"))),
     ["--face-split", "U0", "U1"],
     "bullet 1: listed latents disagree on the splittable subset (witness W3)"),
], ids=["replace-child-of-other-latent", "face-split-disagreement"])
def test_rewrite_precondition_message(tmp_path, capsys, graph, args, message):
    path = tmp_path / "input.graph"
    path.write_text(graph)
    assert main(["rewrite", str(path), *args]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("args", [
    ["--hlp", "Q", "X"],
    ["--replace", "Q", "--c-set", "Y", "--d-set", "X"],
    ["--face-split", "Q"],
], ids=["hlp", "replace", "face-split"])
def test_rewrite_unknown_variable_message(examples, capsys, args):
    code = main(["rewrite", path_of(examples, "iv.graph"), *args])
    assert code == 3
    assert capsys.readouterr().err == "error: unknown variable 'Q'\n"


def test_rewrite_replace_error_is_hash_independent(examples):
    # bullet 3 fails for both d in {V1, V3}; the first in canonical order is named
    argv = [
        sys.executable, "-m", "obscon", "rewrite", path_of(examples, "mixed_cdegree.graph"),
        "--replace", "U2", "--c-set", "V6", "--d-set", "V1", "V3",
    ]
    src = os.path.dirname(os.path.dirname(obscon.__file__))
    errors = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 3
        errors.append(proc.stderr)
    assert errors[0] == errors[1] == (
        "error: bullet 3: parent V1 of c_set is not a parent of V1\n"
    )


def test_no_command_prints_help(capsys):
    code = main([])
    assert code == 2
    assert "usage" in capsys.readouterr().out.lower()


@pytest.mark.parametrize("tolerance", ["1/0", "-1", "-1/1000", "nan", "1e-3000000"])
def test_check_bad_tolerance_exits_5(examples, capsys, tolerance):
    # a model table: a negative tolerance would report it falsified (exit 1)
    code = main([
        "check", path_of(examples, "iv.graph"), path_of(examples, "iv_model.csv"),
        f"--tolerance={tolerance}",
    ])
    captured = capsys.readouterr()
    assert code == 5
    assert "tolerance" in captured.err
    assert "Traceback" not in captured.err
    assert "model" not in captured.out


def test_check_zero_tolerance_accepted(examples, capsys):
    code = main([
        "check", path_of(examples, "iv.graph"), path_of(examples, "iv_model.csv"),
        "--tolerance", "0",
    ])
    assert code == 0
    assert "model consistent" in capsys.readouterr().out


@pytest.mark.parametrize("rows", [("0,0,1,0", "0,0,1,1/2"), ("0,0,1,1/2", "0,0,1,0")])
def test_check_duplicate_configuration_exits_5(examples, tmp_path, capsys, rows):
    # a zero-probability row is a configuration too, in either order
    table = tmp_path / "dup.csv"
    table.write_text("\n".join(["Z,X,Y,prob", *rows, "1,1,1,1/2"]) + "\n")
    code = main(["check", path_of(examples, "iv.graph"), str(table)])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.err.splitlines() == ["error: duplicate configuration (0, 0, 1)"]
    assert captured.out == ""


def test_malformed_table_exits_5_before_the_derivation(tmp_path, capsys, monkeypatch):
    # bell_tripartite takes seconds to derive: the table is read first
    def never(*args, **kwargs):
        raise AssertionError("derive_all called")

    monkeypatch.setattr(obscon.cli, "derive_all", never)
    graph = tmp_path / "bell_tripartite.graph"
    graph.write_text(FIXTURE_GRAPHS["bell_tripartite"])
    table = tmp_path / "bad.csv"
    table.write_text("X,Y,Z,V1,V2,V3,prob\n0,0,0,0,0,0\n")
    code = main(["check", str(graph), str(table)])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.err.splitlines() == [
        "error: row ['0', '0', '0', '0', '0', '0'] has 6 fields, expected 7"]
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["info", "{graph}"],
    ["derive", "{graph}"],
    ["check", "{graph}", "{table}"],
])
def test_byte_order_mark_is_skipped(examples, tmp_path, capsys, argv):
    # spreadsheets write "CSV UTF-8" with a leading BOM
    capsys.readouterr()  # the paths that --emit-examples printed
    outcomes = []
    for directory in (examples, tmp_path):
        for name in ("iv.graph", "iv_model.csv"):
            if directory is tmp_path:
                (tmp_path / name).write_text(
                    "\ufeff" + (examples / name).read_text(encoding="utf-8"), encoding="utf-8")
        code = main([arg.format(graph=directory / "iv.graph", table=directory / "iv_model.csv")
                     for arg in argv])
        captured = capsys.readouterr()
        outcomes.append((code, captured.out))
    assert (tmp_path / "iv.graph").read_bytes().startswith(b"\xef\xbb\xbf")
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 0 and outcomes[0][1]


def test_check_oversized_decimal_cell_exits_5(examples, tmp_path, capsys):
    table = tmp_path / "tiny.csv"
    table.write_text("Z,X,Y,prob\n0,0,0,1e-300000\n1,1,1,1\n")
    code = main(["check", path_of(examples, "iv.graph"), str(table)])
    err = capsys.readouterr().err
    assert code == 5
    assert err.splitlines() == [
        "error: cannot parse probability '1e-300000': decimal literal longer "
        "than 1000 digits or with an exponent beyond 1000"
    ]


@pytest.mark.parametrize("case", ["derive", "check", "emit"])
def test_unwritable_output_exits_74(examples, tmp_path, capsys, case):
    import obscon.cli

    blocker = tmp_path / "a_file"
    blocker.write_text("")
    target = str(blocker / "out.json")  # a path under a regular file
    graph = path_of(examples, "iv.graph")
    argv = {
        "derive": ["derive", graph, "-o", target],
        "check": ["check", graph, path_of(examples, "iv_model.csv"), "--json", target],
        "emit": ["--emit-examples", target],
    }[case]
    code = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == obscon.cli.EXIT_IO == 74
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {target}: ")


def test_internal_error_has_its_own_exit_code(examples, capsys, monkeypatch):
    import obscon.cli

    def broken(*args, **kwargs):
        raise RuntimeError("simulated\nfailure")

    monkeypatch.setattr(obscon.cli, "evaluate", broken)
    code = main([
        "check", path_of(examples, "iv.graph"), path_of(examples, "iv_model.csv"),
    ])
    err = capsys.readouterr().err
    assert code == obscon.cli.EXIT_INTERNAL
    assert code not in (0, 1, 2, 3, 4, 5)
    assert err.splitlines() == ["error: internal error: RuntimeError: simulated failure"]


def test_an_oserror_off_stdout_stays_internal(examples, capsys, monkeypatch):
    # only a failed write to stdout is an output error
    import obscon.cli

    def broken(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(obscon.cli, "evaluate", broken)
    code = main(["check", path_of(examples, "iv.graph"), path_of(examples, "iv_model.csv")])
    assert code == obscon.cli.EXIT_INTERNAL
    assert capsys.readouterr().err.startswith("error: internal error: OSError: ")


def _obscon_process(args, **kwargs):
    src = os.path.dirname(os.path.dirname(obscon.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-m", "obscon", *args], env=env, **kwargs)


@pytest.mark.parametrize("stderr", ["own pipe", "same pipe"])
def test_closed_stdout_pipe_exits_74(examples, stderr):
    # the reader stops after one line, as `| head -1` does; the merged JSON
    # is far larger than a pipe's buffer
    args = ["derive", path_of(examples, "mixed_cdegree.graph"), "--merge"]
    target = subprocess.PIPE if stderr == "own pipe" else subprocess.STDOUT
    with _obscon_process(args, stdout=subprocess.PIPE, stderr=target, text=True) as proc:
        try:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read() if proc.stderr else ""
            code = proc.wait(timeout=60)
        finally:
            proc.kill()  # a no-op once the process has exited
    assert code == 74
    assert "internal error" not in err and "Traceback" not in err
    if stderr == "own pipe":
        assert err.splitlines()[-1].startswith("error: cannot write stdout: ")


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 before exec")
def test_stdout_closed_at_startup_is_left_to_print(examples):
    # with fd 1 closed, sys.stdout is None and print() writes nothing
    args = ["check", path_of(examples, "iv.graph"), path_of(examples, "iv_violator.csv")]
    proc = _obscon_process(args, stderr=subprocess.PIPE, text=True,
                           preexec_fn=lambda: os.close(1))
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1 and err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_74(examples):
    args = ["check", path_of(examples, "iv.graph"), path_of(examples, "iv_model.csv")]
    with open("/dev/full", "w") as full:
        proc = _obscon_process(args, stdout=full, stderr=subprocess.PIPE, text=True)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 74
    assert err.splitlines() == ["error: cannot write stdout: No space left on device"]


class _FailingStream(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("case", ["summary", "read error", "internal error"])
def test_a_failing_stderr_exits_74(examples, capsys, monkeypatch, case):
    # whatever goes to stderr first, a failed write there is an output error
    import obscon.cli

    def broken(*args, **kwargs):
        raise RuntimeError("simulated failure")

    graph = path_of(examples, "iv.graph")
    argv = {
        "summary": ["derive", graph],
        "read error": ["check", graph, path_of(examples, "missing.csv")],
        "internal error": ["check", graph, path_of(examples, "iv_model.csv")],
    }[case]
    if case == "internal error":
        monkeypatch.setattr(obscon.cli, "evaluate", broken)
    monkeypatch.setattr(sys, "stderr", _FailingStream())
    assert main(argv) == obscon.cli.EXIT_IO == 74
    assert sys.stderr.getvalue() == ""
    assert "internal error" not in capsys.readouterr().out


@pytest.mark.skipif(os.name != "posix", reason="redirects fd 2 before exec")
@pytest.mark.parametrize("stderr", ["/dev/full", "closed"])
def test_failing_stderr_process_exits_74(examples, stderr):
    if stderr == "/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    args = ["derive", path_of(examples, "iv.graph")]
    with open(os.devnull if stderr == "closed" else stderr, "w") as sink:
        proc = _obscon_process(args, stdout=subprocess.PIPE, stderr=sink, text=True,
                               preexec_fn=(lambda: os.close(2)) if stderr == "closed" else None)
        out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 74 and out == ""


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 before exec")
@pytest.mark.parametrize("command", ["derive", "rewrite"])
def test_stdout_closed_at_startup_fails_a_command_writing_its_result(examples, command):
    # derive and rewrite have no result but what they write to stdout
    args = [command, path_of(examples, "iv.graph")]
    args += ["--normalize"] if command == "rewrite" else []
    proc = _obscon_process(args, stderr=subprocess.PIPE, text=True,
                           preexec_fn=lambda: os.close(1))
    _, err = proc.communicate(timeout=60)
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert proc.returncode == 74
    assert errors == ["error: cannot write stdout: Bad file descriptor"]
    assert "Traceback" not in err


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 before exec")
def test_stdout_closed_at_startup_stops_derive_before_it_derives(examples):
    # derive_all is replaced by one that leaves a mark on stderr: with
    # nowhere to write the result, derive must not reach it
    src = os.path.dirname(os.path.dirname(obscon.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import obscon.cli as cli; "
            "cli.derive_all = lambda *a: sys.stderr.write('derived\\n'); "
            "sys.exit(cli.main(['derive', sys.argv[2]]))")
    proc = subprocess.run([sys.executable, "-I", "-c", code, src, path_of(examples, "iv.graph")],
                          stderr=subprocess.PIPE, text=True, timeout=60,
                          preexec_fn=lambda: os.close(1))
    assert proc.returncode == 74
    assert proc.stderr == "error: cannot write stdout: Bad file descriptor\n"


@pytest.mark.parametrize("name", ["iv", "frontdoor", "mixed_cdegree", "triangle"])
def test_derive_texts_match_render(examples, tmp_path, name):
    from obscon import DeriveOptions, derive_all, load_graph, parse_graph, render

    graph = path_of(examples, f"{name}.graph")
    merge = ["--merge"] if name in ("mixed_cdegree", "triangle") else []
    with_texts, plain = tmp_path / "texts.json", tmp_path / "plain.json"
    assert main(["derive", graph, *merge, "--texts", "-o", str(with_texts)]) == 0
    assert main(["derive", graph, *merge, "-o", str(plain)]) == 0

    dag = load_graph(graph)
    result = derive_all(dag, DeriveOptions(merge=bool(merge)))
    working = parse_graph(result.derived_graph_text)
    payload = json.loads(with_texts.read_text())
    for record, entry in zip(result.districts, payload["districts"], strict=True):
        for c, doc in zip(record.constraints, entry["constraints"], strict=True):
            assert doc["text_star"] == render(c, record.system, working, "star")
            assert doc["text_observable"] == render(c, record.system, working, "observable")
    slim = json.loads(plain.read_text())
    assert not any(
        key.startswith("text_")
        for entry in slim["districts"] for doc in entry["constraints"] for key in doc
    )
    for entry in payload["districts"]:
        for doc in entry["constraints"]:
            del doc["text_star"], doc["text_observable"]
    assert payload == slim


def test_check_huge_margins_are_written(examples, tmp_path, capsys):
    # the IV violator, perturbed by two coprime denominators of 2,151 digits:
    # every cell parses, but a violated row's margin has a denominator of
    # over 4,300 digits, Python's int-to-str limit
    p, q = 10 ** 2150 + 1, 10 ** 2150 + 3
    table = tmp_path / "huge.csv"
    table.write_text(
        "Z,X,Y,prob\n"
        f"0,0,1,{p - 2}/{2 * p}\n0,1,1,1/{p}\n"
        f"1,0,0,{q - 2}/{2 * q}\n1,1,0,1/{q}\n"
    )
    report_path = tmp_path / "report.json"
    code = main([
        "check", path_of(examples, "iv.graph"), str(table), "--json", str(report_path),
    ])
    out, err = capsys.readouterr()
    assert code in (0, 1), err
    assert "[violated] P*(X=0,Y=1|Z=0) + P*(X=0,Y=0|Z=1) <= 1 (margin about 1.00000e0)" in out
    assert all(len(line) < 500 for line in out.splitlines())
    payload = json.loads(report_path.read_text())
    margins = [entry["margin"] for entry in payload["constraints"]]
    assert any(m.startswith("about ") for m in margins if m)


def test_derive_to_stdout_matches_the_output_file(examples, tmp_path, capsys):
    graph = path_of(examples, "iv.graph")
    out_path = tmp_path / "iv.json"
    assert main(["derive", graph, "-o", str(out_path)]) == 0
    to_file = capsys.readouterr()
    assert main(["derive", graph]) == 0
    to_stdout = capsys.readouterr()
    assert to_stdout.out.encode() == out_path.read_bytes()
    # the summary lines move from stdout to stderr
    assert to_stdout.err == to_file.out
    assert to_stdout.err.startswith("14 constraints, 12 inequalities")


def test_derive_timings_adds_only_the_timings_entry(examples, tmp_path):
    graph = path_of(examples, "iv.graph")
    plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
    assert main(["derive", graph, "-o", str(plain)]) == 0
    assert main(["derive", graph, "--timings", "-o", str(timed)]) == 0
    payload = json.loads(timed.read_text())
    timings = payload["meta"].pop("timings")
    assert list(timings) == ["derive_seconds", "conversions"]
    # {Z} is skipped, so only {X,Y} is converted
    assert timings["derive_seconds"] >= 0 and timings["conversions"] == 1
    assert payload == json.loads(plain.read_text())


def test_check_reports_a_violated_ci_statement(examples, tmp_path, capsys):
    # V1 = V2 = V4 = V5 while V3 = 0: V1,V2 and V4,V5 are dependent given V3
    table = tmp_path / "ci.csv"
    table.write_text("V1,V2,V3,V4,V5,prob\n0,0,0,0,0,1/2\n1,1,0,1,1,1/2\n")
    code = main(["check", path_of(examples, "iv_sequential.graph"), str(table)])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[0] == "[violated] CI V1,V2 _||_ V4,V5 | V3 (margin 1/4)"
    assert out[-1] == "model falsified"


def sparse_support_csv(dag, rng, size=200):
    """A table on ``size`` random configurations with random integer weights."""
    names = dag.observed_names()
    support = sorted({tuple(rng.randrange(dag.cardinality(n)) for n in names)
                      for _ in range(size)})
    weights = [rng.randint(1, 9) for _ in support]
    total = sum(weights)
    lines = [",".join(names) + ",prob"]
    lines += [",".join(map(str, config)) + f",{Fraction(w, total)}"
              for config, w in zip(support, weights)]
    return "\n".join(lines) + "\n"


# 18-variable sparse DAGs whose 14 district systems have only 5 (seed 1) and
# 4 (seed 2) distinct column sets: SHA-256 of `derive -o`, `derive --texts
# -o` and `check --json` (with the check's exit code); the check digest is
# as written before districts of one shape shared a conversion, and the
# derive digests are of that output in schema 3, without the systems' columns
REPEATED_SHAPE_DIGESTS = {
    1: ("e2645fa6711a1ab24df0c4e3047a602b36dcdec857aef47f544abbc040a58e0e",
        "99791fa71de67c15840e52f4ca9394c90d91a79e03d1b9924842049e53de1a7a",
        "8d546ebe4bfbe6abf99c68d33eac34a5b4acc692de439bb7f6353753e624507f", 1),
    2: ("583ecdcc453a969d3e1b0a94258231267e93bdba74dd26a037b1868219df37a8",
        "fea493842a89bb23a054d4a494c8f09d01f7c45618da4b277348517dc0753a0e",
        "f875d923f13300b85094471e5f0dfaef992fa85d4b6ced69a08a8c168525ecbf", 1),
}


# SHA-256 of `derive -o`, `derive --texts -o` (both schema 3) and `derive
# --format cdd -o` on every bundled graph but Bell (with --merge where a
# district has c-degree 2) and on the inline CHSH and I3322 Bell graphs
DERIVE_DIGESTS = {
    "iv": ("9acfc1eb53fd4bf9e6fe83ca1c6be99a81d141e43c55b60570a0a308a520e197",
           "796235ea42d26b6a91cbd96a34ac4a051133c69038387d2907cceaab5b0cf7f1",
           "0bc05426b3fe944d1e4b1879b2b35feb571bfd747f587c59cfe73bd317542eda"),
    "iv_sequential": ("fc6394f8b2d2a1750ec5c4e5039e11cb25b790b4287eef93e2fe95958125380d",
                      "dcce5ff48a3caff354b713e4a83118615b9494775bac8abab8748fc374089559",
                      "cb75798074b04cbbd790dff776f453cf67848a196e2219237fe6928e315220c4"),
    "nested_pair_left": ("53083ee17615b496c84abee212e8353f4e084c85fa0752b5075c712ebddc8a5d",
                         "a636c0b6ecf32665a706341f1648cae5a402c8e31669c788ad76188bb54549cb",
                         "2d6a9c795db98729a3818a6e192538f6ca4fda2f9d0814ac69da9f068a13fa74"),
    "nested_pair_right": ("8b089c05595e671b3fc0e4e477754a40213a05824cefd66cb0b62ffa2019c797",
                          "0c16489738973b239579a5eba2c0f99d0d8d7cb645ab25e8c7049e2ba872a45b",
                          "9b3d8628578a6d0a469d4b152234e2dc9845b9d0a66d3b2978b4f725aa48fd9f"),
    "frontdoor": ("2f238a3cfd28c84e2dfb76469e51689fd411251b6a764a2739f44bde3fcecaa5",
                  "269372f4b5e39ebaa8da9a32e13c98512b8d184916a4047b70ca0763fcb322f0",
                  "463af17bc7a3df535fe6a919ba04eae4d736a51451de21633b912a41a93530a4"),
    "mixed_cdegree": ("f919f779e9f7ccef7b43d208ef9e00d70a1013505ee05c8ead2faa048eeeb67f",
                      "ac90ddda42e1b259611d4e7eb3a4f79520c5d02f6297db2e57d347377fb0ec55",
                      "d1f0830a459d468d8db8b2ec748e203858cb1928bdb0c3cf5d232c4006502e9c"),
    "triangle": ("2e97f7d040a2c12808805296b24557cefc3da362ce261072ea3006989d755d82",
                 "34117a90e638bfd30cf991f4738faaf1c1e50e51ff82c2183a42fd2995182474",
                 "edd3409c6c6d3f256e873718e08aeabac11067fdc9c88448164b7b6d928198c1"),
    "BELL_CHSH": ("7d7e7e887610f932e91fac043a1ee928dc0fd7180cd850402e85053f9baae56b",
                  "402ec02311b5bac39f6ccdbd59cf8dcee817562db892fa28a3c2a4aa301238e9",
                  "75df74e386a56de402db05e1acf53125a8ca508464eb94e85fba211d59097808"),
    "BELL_I3322": ("ee23d6e1416bf1bb686086e01da1377ffad7e07b7170da993a76d458fce8ffba",
                   "1129ed7f0d79e9315f4e79957f5079b89b79b2ac1a9133debd91fc0352c00d0e",
                   "c1444e1b124f836aa4f285613f47b279688a36a79f618e8e6be8c572748cb3ff"),
}

# SHA-256 of `check --json` on each bundled table, and the check's exit code
CHECK_DIGESTS = {
    "triangle_wolfe": ("b6a78e4d45188887f93ba22babeb8b3bd74e36553116fc78a8a9f5b0187eca7d", 0),
    "iv_violator": ("a84f73de3b48f4c61a8f391b995eaaf60a4ed80efe434149734652bf52efda62", 1),
    "iv_model": ("d829c791c9f950aca7f1c4c1bd89d02beee28c2241fd9af25a1be868d7cf1fca", 0),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(DERIVE_DIGESTS))
def test_derive_outputs_match_golden_digests(examples, tmp_path, capsys, name):
    import conftest

    graph = examples / f"{name}.graph"
    if name.startswith("BELL_"):
        graph = tmp_path / f"{name}.graph"
        graph.write_text(getattr(conftest, name))
    merge = ["--merge"] if name in ("mixed_cdegree", "triangle") else []
    got = []
    for flags in ([], ["--texts"], ["--format", "cdd"]):
        out = tmp_path / "out"
        assert main(["derive", str(graph), *merge, *flags, "-o", str(out)]) == 0
        got.append(_sha256(out))
    capsys.readouterr()
    assert tuple(got) == DERIVE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CHECK_DIGESTS))
def test_check_json_matches_golden_digests(examples, tmp_path, capsys, name):
    graph_name = FIXTURE_TABLES[name][0]
    merge = ["--merge"] if graph_name == "triangle" else []
    report = tmp_path / "report.json"
    code = main(["check", path_of(examples, f"{graph_name}.graph"),
                 path_of(examples, f"{name}.csv"), *merge, "--json", str(report)])
    capsys.readouterr()
    assert (_sha256(report), code) == CHECK_DIGESTS[name]


def _check_table_csv(dag, kind, rng):
    """A table for ``check``: a structural model's joint rounded to decimals,
    random weights on three configurations, or random weights on all."""
    if kind == "decimal":
        return decimal_csv(dag, structural_model_table(dag, rng))
    if kind == "sparse":
        return sparse_support_csv(dag, rng, size=3)
    names = dag.observed_names()
    configs = list(product(*(range(dag.cardinality(n)) for n in names)))
    weights = [rng.randint(1, 997) for _ in configs]
    total = sum(weights)
    lines = [",".join(names) + ",prob"]
    lines += [",".join(map(str, config)) + f",{Fraction(w, total)}"
              for config, w in zip(configs, weights)]
    return "\n".join(lines) + "\n"


# SHA-256 of `check --json` and the exit code on tables that
# `_check_table_csv` writes: decimal (the 1e-9 tolerance), sparse
# (not-evaluable rows) and dense (checked under --tolerance 1/50, so some
# positive margins on mixed_cdegree are tolerated)
TABLE_CHECK_DIGESTS = {
    ("BELL_I3322", "decimal"): (
        "38257716ecb7b04e87a54e265b428945acace8ce6dc84c760594cfbef63132f3", 0),
    ("BELL_I3322", "dense"): (
        "dff70edd6c9a61d9e441ef4e5fbe542b7e16d9cf65e8a7039f801f25009a8bf0", 1),
    ("BELL_I3322", "sparse"): (
        "db81d7ac0899d7e8abd81e917afb13561a62b5e1b5ada7465b5fbcef309af0a0", 1),
    ("mixed_cdegree", "decimal"): (
        "f2d5528cfb41ff3f5319b3396de23dc81ce08a9a0d37ae1fc615d265a5f88572", 0),
    ("mixed_cdegree", "dense"): (
        "20e037dfabfbcf702147b8a89476746d9264ae37ee24b82bfcf7413cf9d5c318", 1),
    ("mixed_cdegree", "sparse"): (
        "d56b42f48aa8cf1f7c811d41a6a6006a5a5cdd4e386dbcfdaad0ec5a092deae4", 1),
}


@pytest.mark.parametrize("graph_name, kind", sorted(TABLE_CHECK_DIGESTS))
def test_check_json_on_written_tables_matches_golden_digests(tmp_path, capsys, graph_name, kind):
    import conftest

    text = FIXTURE_GRAPHS.get(graph_name) or getattr(conftest, graph_name)
    graph, table, report = (tmp_path / name for name in ("g.graph", "t.csv", "r.json"))
    graph.write_text(text)
    dag = obscon.parse_graph(text)
    table.write_text(_check_table_csv(dag, kind, random.Random(f"check-{graph_name}-{kind}")))
    merge = ["--merge"] if graph_name == "mixed_cdegree" else []
    tolerance = ["--tolerance", "1/50"] if kind == "dense" else []
    code = main(["check", str(graph), str(table), *merge, *tolerance, "--json", str(report)])
    capsys.readouterr()
    doc = json.loads(report.read_text())
    statuses = {row["status"] for row in doc["constraints"]}
    if kind == "decimal":
        assert doc["tolerance"] == "1/1000000000"
    elif kind == "sparse":
        assert "not_evaluable" in statuses
    elif graph_name == "mixed_cdegree":
        # I3322's star terms are products P(a|x) P(b|y), so every row holds
        # there with margin 0 (ROADMAP item 1)
        assert any(row["status"] == "satisfied" and row["margin"] != "0/1"
                   for row in doc["constraints"])
    assert (_sha256(report), code) == TABLE_CHECK_DIGESTS[graph_name, kind]


@pytest.mark.parametrize("seed", sorted(REPEATED_SHAPE_DIGESTS))
def test_repeated_district_shapes_write_pinned_bytes(tmp_path, capsys, seed):
    derive_digest, texts_digest, check_digest, check_code = REPEATED_SHAPE_DIGESTS[seed]
    dag = sparse_dag(random.Random(seed))
    graph, table = tmp_path / "sparse.graph", tmp_path / "sparse.csv"
    graph.write_text(dag.to_text())
    table.write_text(sparse_support_csv(dag, random.Random(seed)))
    plain, texts, report = (tmp_path / name for name in ("d.json", "t.json", "c.json"))
    assert main(["derive", str(graph), "-o", str(plain)]) == 0
    assert main(["derive", str(graph), "--texts", "-o", str(texts)]) == 0
    assert main(["check", str(graph), str(table), "--json", str(report)]) == check_code
    capsys.readouterr()
    got = [_sha256(path) for path in (plain, texts, report)]
    assert got == [derive_digest, texts_digest, check_digest]


# -- fuzzed CLI contract ----------------------------------------------------------
#
# Whatever the input text, main() returns one of the exit codes the module
# documents for that command, and never 70 (an internal error).


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    assert main(["--emit-examples", str(directory)]) == 0
    return directory


def run_main(argv):
    """main()'s exit code with its output discarded; argparse's exit counts too."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@st.composite
def graph_texts(draw):
    """Mostly well-formed graphs, some with cycles, bad cardinalities or junk."""
    observed = draw(st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=4, unique=True))
    latents = draw(st.lists(st.sampled_from("UW"), max_size=2, unique=True))
    # latents first in the drawn order, so most of them are exogenous
    names = latents + draw(st.permutations(observed))
    cards = [draw(st.sampled_from("223")) for _ in observed]
    if not draw(st.integers(0, 5)):
        cards[-1] = draw(st.sampled_from(["1", "0", "-1", "x", "\u00b2"]))
    lines = [f"var {name} {card}" for name, card in zip(observed, cards)]
    lines += [f"latent {name}" for name in latents]
    pairs = st.tuples(st.integers(0, len(names) - 1), st.integers(0, len(names) - 1))
    for i, j in draw(st.lists(pairs, max_size=8, unique=True)):
        # mostly along the drawn order, so most graphs are acyclic
        if i != j and draw(st.integers(0, 9)):
            lines.append(f"edge {names[min(i, j)]} {names[max(i, j)]}")
        elif not draw(st.integers(0, 3)):
            lines.append(f"edge {names[i]} {names[j]}")
    if not draw(st.integers(0, 4)):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=12)))
    return "\n".join(lines) + "\n"


GRAPH_COMMANDS = {
    "info": ([], {0, 2, 3}),
    # a small column limit keeps every derivation fast; going over it exits 4
    "derive": (["--merge", "--column-limit", "16"], {0, 2, 3, 4}),
    "rewrite": (["--normalize"], {0, 2}),
}


@pytest.mark.parametrize("command", sorted(GRAPH_COMMANDS))
@given(text=graph_texts())
@settings(max_examples=80, deadline=None)
def test_fuzzed_graph_text_exits_with_a_documented_code(fuzz_dir, command, text):
    path = fuzz_dir / f"fuzz_{command}.graph"
    path.write_text(text, encoding="utf-8")
    flags, codes = GRAPH_COMMANDS[command]
    assert run_main([command, str(path), *flags]) in codes


@st.composite
def table_texts(draw):
    """Tables for the IV graph: mostly well-formed, some with a corrupted row."""
    header = "Z,X,Y,prob"
    if not draw(st.integers(0, 5)):
        header = draw(st.sampled_from(["X,Z,Y,prob", "Z,X,prob", "Z,X,Y", ""]))
    cells = draw(st.lists(st.tuples(*[st.sampled_from("01")] * 3), min_size=1, max_size=8,
                          unique=True))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(cells), max_size=len(cells)))
    total = sum(weights)
    if draw(st.booleans()):
        probs = [f"{w}/{total}" for w in weights]
    else:
        probs = [f"{w / total:.4f}" for w in weights]
    rows = [",".join([*cell, prob]) for cell, prob in zip(cells, probs)]
    if not draw(st.integers(0, 3)):
        junk = st.one_of(
            st.sampled_from(["0,0,2,1/2", "0,0,0,-1/4", "0,0,0,1/0", "0,0,1e-3000,1",
                             "0,0,0", "0,0,0,nan", "-1,0,0,1/2"]),
            st.text(max_size=12),
        )
        rows[draw(st.integers(0, len(rows) - 1))] = draw(junk)
    return "\n".join([header, *rows]) + "\n"


@given(text=table_texts())
@settings(max_examples=120, deadline=None)
def test_fuzzed_table_text_exits_with_a_documented_code(fuzz_dir, text):
    path = fuzz_dir / "fuzz.csv"
    path.write_text(text, encoding="utf-8")
    assert run_main(["check", str(fuzz_dir / "iv.graph"), str(path)]) in {0, 1, 5}


TOLERANCES = st.one_of(
    st.text(max_size=16),
    st.fractions().map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.builds("{}e{}".format, st.integers(-10, 10), st.integers(-5000, 5000)),
)


@given(tolerance=TOLERANCES)
@settings(max_examples=150, deadline=None)
def test_fuzzed_tolerance_exits_with_a_documented_code(fuzz_dir, tolerance):
    argv = ["check", str(fuzz_dir / "iv.graph"), str(fuzz_dir / "iv_model.csv"),
            f"--tolerance={tolerance}"]
    assert run_main(argv) in {0, 5}
