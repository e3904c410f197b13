import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import obscon

from obscon.cli import main
from obscon.fixtures import FIXTURE_GRAPHS, FIXTURE_TABLES


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


def test_check_bad_table_exits_5(examples, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("Z,X,Y,prob\n0,0,0,1/2\n")
    code = main(["check", path_of(examples, "iv.graph"), str(bad)])
    assert code == 5
    assert "sum" in capsys.readouterr().err


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


def test_derive_timings_adds_only_derive_seconds(examples, tmp_path):
    graph = path_of(examples, "iv.graph")
    plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
    assert main(["derive", graph, "-o", str(plain)]) == 0
    assert main(["derive", graph, "--timings", "-o", str(timed)]) == 0
    payload = json.loads(timed.read_text())
    timings = payload["meta"].pop("timings")
    assert list(timings) == ["derive_seconds"] and timings["derive_seconds"] >= 0
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
