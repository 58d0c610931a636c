"""CLI behavior: subcommands, exit codes, piping, golden files.

main() is called in-process with argv lists; stdin piping is simulated
through monkeypatching.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import cleangraphs
from cleangraphs import cli as cli_module
from cleangraphs.cleangraph import cl2, closed_form_degrees
from cleangraphs.cli import THEOREMS, _exit_code, main
from cleangraphs.graph import export
from cleangraphs.verify import TheoremReport

from graph_helpers import Trickle, double_edge_swaps, ladder_graph, random_connected_graph
from test_verify import plant, with_edge, without_last_row

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ring_listing(capsys):
    code, out, _ = run(capsys, "ring", "10")
    assert code == 0
    assert "Z_10 (2 * 5)" in out
    assert "idempotents (4): 0 1 5 6" in out
    assert "self-inverse units (2): 1 9" in out
    assert "inverse couples (1): 3*7" in out
    assert "unit layout: 1 9 3 7" in out


def test_degrees_table_flags_the_known_counterexample(capsys):
    code, out, _ = run(capsys, "degrees", "10")
    assert code == 0
    assert "(6,3): actual=6 corrected=6 legacy=7 MISMATCH" in out
    assert "CORRECTED-MISMATCH" not in out


def test_degrees_table_refuses_a_cl2_with_a_vertex_missing(capsys, monkeypatch):
    # the columns are compared whole before any row is printed, so a
    # shorter cl2 is not printed as a shorter table
    plant(monkeypatch, "_pair_rows", without_last_row)
    code, out, err = run(capsys, "degrees", "7")
    assert code == 2
    assert out == ""
    assert err == "error: cl2 has 5 vertices, the closed form 6\n"


def test_build_cl2_edge_count(capsys):
    code, out, _ = run(capsys, "build", "cl2", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# 6 vertices, 8 edges"
    assert sum(1 for ln in lines if ln.startswith("e ")) == 8


def test_build_requires_the_right_arguments(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "cl2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["build", "sh", "--t", "2"])
    with pytest.raises(SystemExit):
        main(["build", "shu", "--t", "2", "--n", "4"])


def test_build_propagates_parameter_errors(capsys):
    code, _, err = run(capsys, "build", "sh", "--t", "3", "--n", "6")
    assert code == 2
    assert "power of two" in err


def test_build_rejects_bad_modulus(capsys):
    code, _, err = run(capsys, "build", "cl2", "1")
    assert code == 2
    assert "modulus" in err


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_build_out_of_memory_exits_2_with_one_error_line():
    # cl2(30030) has 362,880 vertices, about 16.5 GB of rows; in a child
    # whose address space is capped at 256 MiB the build runs out of memory
    # within a second, and no test here can reach more than that
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 28, resource.getrlimit(resource.RLIMIT_AS)[1]))

    src = str(Path(cleangraphs.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "cleangraphs.cli", "build", "cl2", "30030"],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")


def test_export_pipe(capsys, monkeypatch):
    code, edgelist, _ = run(capsys, "build", "cl2", "6")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(edgelist))
    code, out, _ = run(capsys, "export", "--format", "dot")
    assert code == 0
    assert out.startswith("graph {")
    assert out.count(" -- ") == 8


def test_export_to_file(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("sys.stdin", io.StringIO("e x y\n"))
    target = tmp_path / "g.json"
    code, out, _ = run(capsys, "export", "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["edges"] == [["x", "y"]]


def test_export_bad_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("bogus line\n"))
    code, _, err = run(capsys, "export", "--format", "dot")
    assert code == 2
    assert "cannot parse" in err


def test_export_rejects_a_label_ending_in_a_backslash(capsys, monkeypatch, tmp_path):
    # written as DOT, the backslash would escape the label's closing quote
    monkeypatch.setattr("sys.stdin", io.StringIO("v a\\\n"))
    code, out, err = run(capsys, "export", "--format", "dot")
    assert code == 2
    assert out == ""
    assert "backslash" in err
    # the output is written as it comes, but not before the labels pass
    monkeypatch.setattr("sys.stdin", io.StringIO("v a\\\n"))
    target = tmp_path / "g.dot"
    assert run(capsys, "export", "--format", "dot", "--out", str(target))[0] == 2
    assert not target.exists()


# more than two of the parser's blocks (2^14 characters each) of a path
# v0 - v1 - ... - v12000, so that a line after it is read mid-parse
LONG_PATH = "# a path\n\n" + "".join(f"e v{k} v{k + 1}\n" for k in range(12000))


def test_a_refused_line_is_named_by_its_number_from_one_pass(capsys, monkeypatch, tmp_path):
    # neither stdin (a stream that cannot be read whole) nor an --input
    # file is read a second time to find the refused line
    text = LONG_PATH + "v v5\ne v1 v2 v3\n"
    message = "error: line 12004: cannot parse 'e v1 v2 v3'\n"
    monkeypatch.setattr("sys.stdin", Trickle(text, [4096]))
    assert run(capsys, "export", "--format", "dot") == (2, "", message)
    f = tmp_path / "g.edgelist"
    f.write_text(text, encoding="utf-8")
    argv = ["verify", "shu-connectivity", "--t", "2", "--n", "4", "--input", str(f)]
    assert run(capsys, *argv) == (2, "", message)
    f.write_text(LONG_PATH + "e v7 v7\n", encoding="utf-8")
    assert run(capsys, *argv) == (2, "", "error: line 12003: self-loop at 'v7' not allowed\n")


def test_invalid_utf8_mid_input_exits_2(capsys, monkeypatch, tmp_path):
    # the decoder's ValueError now comes from a read during the parse
    data = LONG_PATH.encode() + b"e v\xff w\n"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    code, out, err = run(capsys, "export", "--format", "edgelist")
    assert (code, out) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")
    f = tmp_path / "g.edgelist"
    f.write_bytes(data)
    code, out, err = run(capsys, "build", "shu", "--t", "2", "--n", "4", "--input", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")


def trickling_open(path, mode="r", encoding=None):
    """``open`` for the CLI's input files: the file's text as a stream
    that refuses to be read whole."""
    assert mode == "r"
    return contextlib.nullcontext(Trickle(Path(path).read_text(encoding=encoding)))


def test_no_input_is_read_whole(capsys, monkeypatch):
    # export from stdin writes back the very text it read, from reads of
    # 1-3 characters that end anywhere in a line
    text = export(cl2(30), "edgelist")
    monkeypatch.setattr("sys.stdin", Trickle(text))
    assert run(capsys, "export", "--format", "edgelist") == (0, text, "")
    # an --input file gives the same graph when it cannot be read whole
    argv = ["build", "shu", "--t", "2", "--n", "4", "--input", str(GOLDEN / "input_p3.edgelist")]
    monkeypatch.setattr(cli_module, "open", trickling_open, raising=False)
    assert run(capsys, *argv) == (0, _golden_bytes("shu_2_4_p3.edgelist").decode(), "")


class Discard(io.RawIOBase):
    """A raw stream that keeps only the length and digest of its bytes."""

    def __init__(self):
        self.size, self.digest = 0, hashlib.sha256()

    def writable(self):
        return True

    def write(self, data):
        self.size += len(data)
        self.digest.update(data)
        return len(data)


def test_build_writes_its_output_as_it_comes(monkeypatch):
    # 1.26 MB of edge-list text; holding it whole, and its encoding as it
    # is written, would trace more than twice that
    text = export(cl2(210), "edgelist").encode()
    sink = Discard()
    out = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
    monkeypatch.setattr("sys.stdout", out)
    tracemalloc.start()
    try:
        assert main(["build", "cl2", "210"]) == 0
        out.flush()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (sink.size, sink.digest.digest()) == (len(text), hashlib.sha256(text).digest())
    assert peak < len(text) / 2


def test_verify_single_pass(capsys):
    code, out, _ = run(capsys, "verify", "degree", "10", "--stable")
    assert code == 0
    assert out.startswith("[PASS] degree_formula n=10:")


def test_verify_json_stable(capsys):
    code, out, _ = run(capsys, "verify", "corollary", "30", "--json", "--stable")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["status"] == "pass"
    assert "elapsed" not in doc[0]


def test_verify_range_sweep(capsys):
    code, out, _ = run(capsys, "verify", "prime-power", "--range", "2..30", "--stable")
    assert code == 0
    lines = out.strip().splitlines()
    # prime powers up to 30: 2,3,4,5,7,8,9,11,13,16,17,19,23,25,27,29
    assert len(lines) == 16
    assert all(ln.startswith("[PASS]") for ln in lines)


def test_verify_all_on_one_modulus(capsys):
    code, out, _ = run(capsys, "verify", "all", "10", "--stable")
    assert code == 0
    ids = [ln.split()[1] for ln in out.strip().splitlines()]
    assert ids == [
        "degree_formula",
        "legacy_degree_report",
        "master_isomorphism",
        "self_inverse_count",
        "two_prime_isomorphism",
    ]


def test_verify_failed_instance_exits_1(capsys, monkeypatch):
    # (1,1) and (1,24) are isolated in cl2(Z_25); one edge joins them
    plant(monkeypatch, "cl2", lambda g: with_edge(g, ("(1,1)", "(1,24)")))
    code, out, _ = run(capsys, "verify", "prime-power", "25", "--stable")
    assert code == 1
    assert out == (
        "[FAIL] prime_power_components p=5 m=2: "
        "got 10 x (2v,1e), predicted 2 x (1v,0e) + 9 x (2v,1e)\n"
    )


def test_verify_rejected_instance_exits_2(capsys):
    code, out, _ = run(capsys, "verify", "pq", "8", "--stable")
    assert code == 2
    assert out.startswith("[REJECTED]")


def test_verify_rejected_prime_power_output_is_pinned(capsys):
    code, out, err = run(capsys, "verify", "prime-power", "12", "--stable")
    assert code == 2
    assert out == "[REJECTED] prime_power_components n=12: modulus is not a prime power\n"
    assert err == ""


def test_verify_rejected_pq_json_is_pinned(capsys):
    code, out, err = run(capsys, "verify", "pq", "8", "--json", "--stable")
    assert code == 2
    assert out == (
        "[\n"
        "  {\n"
        '    "theorem_id": "two_prime_isomorphism",\n'
        '    "instance": "n=8",\n'
        '    "status": "rejected",\n'
        '    "detail": "modulus must have exactly two distinct prime factors",\n'
        '    "evidence": {}\n'
        "  }\n"
        "]\n"
    )
    assert err == ""


def test_verify_theorem_choices_keep_their_order():
    assert THEOREMS == (
        "degree",
        "prime-power",
        "pq",
        "general",
        "corollary",
        "shu-connectivity",
        "shu-inheritance",
        "bridge",
        "all",
    )


def test_verify_shu_connectivity_via_files(capsys, tmp_path):
    f = tmp_path / "g.edgelist"
    f.write_text("v a\nv b\ne a b\n")
    code, out, _ = run(
        capsys, "verify", "shu-connectivity", "--t", "2", "--n", "4", "--input", str(f)
    )
    assert code == 0
    assert "[PASS]" in out


def test_verify_shu_inheritance_via_files(capsys, tmp_path):
    f1 = tmp_path / "g1.edgelist"
    f1.write_text("e a b\ne b c\n")
    f2 = tmp_path / "g2.edgelist"
    f2.write_text("e x y\ne y z2\ne z2 x\n")
    code, out, _ = run(
        capsys,
        "verify",
        "shu-inheritance",
        "--t", "2", "--n", "4",
        "--input", str(f1), "--input2", str(f2),
    )
    assert code == 0
    assert "not_isomorphic" in out


def test_verify_missing_file(capsys):
    code, _, err = run(
        capsys, "verify", "shu-connectivity", "--t", "2", "--n", "4",
        "--input", "/no/such/file",
    )
    assert code == 2
    assert "error:" in err


def test_verify_requires_modulus_or_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "degree"])
    assert exc.value.code == 2


def test_verify_rejects_both_modulus_and_range(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "degree", "10", "--range", "2..5"])


def test_verify_takes_a_modulus_typed_after_the_options(capsys):
    # argparse leaves the optional modulus empty once an option follows the
    # command words; the modulus at the end is still the modulus
    for before, after in (
        ("verify degree 10 --stable", "verify degree --stable 10"),
        ("verify general 30 --json --stable", "verify general --json --stable 30"),
    ):
        want = run(capsys, *before.split())
        assert want[0] == 0
        assert run(capsys, *after.split()) == want
    # a second modulus is still refused
    with pytest.raises(SystemExit) as exc:
        main("verify degree 10 --stable 11".split())
    assert exc.value.code == 2
    assert "error: unrecognized arguments: 11" in capsys.readouterr().err


def test_build_reads_a_modulus_typed_after_the_options(capsys):
    # the trailing number is read as the modulus, so the usage error names
    # the argument the family does not take instead of "unrecognized 6"
    for argv, message in (
        ("build cl2 --t 2 6", "error: build cl2 does not take --t"),
        ("build sh --t 2 --n 6 7", "error: build sh does not take a modulus"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,unread",
    [
        ("verify bridge 10 --t 2 --n 6 --range 2..5", "a modulus"),
        ("verify bridge --t 2 --n 6 --range 2..5", "--range"),
        ("verify shu-connectivity 5 --t 2 --n 4 --input g", "a modulus"),
        ("verify degree 10 --t 2 --input nosuch", "--t"),
        ("verify all --range 2..5 --input2 g", "--input2"),
        ("build cl2 6 --t 3 --input nosuch", "--t"),
        ("build clean 6 --input g", "--input"),
        ("build sh 6 --t 2 --n 6", "a modulus"),
        ("build sh --t 2 --n 6 --input g", "--input"),
        ("build shu 4 --t 2 --n 4 --input g", "a modulus"),
    ],
)
def test_arguments_the_command_does_not_read_are_usage_errors(capsys, argv, unread):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    command = " ".join(argv.split()[:2])
    assert f"error: {command} does not take {unread}" in capsys.readouterr().err


# What each build family and verify theorem needs, written out here rather
# than read from the CLI.  A per-modulus theorem takes --range in place of
# the modulus.
NEEDS = {
    "build idempotent": ("a modulus",),
    "build clean": ("a modulus",),
    "build cl1": ("a modulus",),
    "build cl2": ("a modulus",),
    "build sh": ("--t", "--n"),
    "build shu": ("--t", "--n", "--input"),
    "verify degree": ("a modulus",),
    "verify prime-power": ("a modulus",),
    "verify pq": ("a modulus",),
    "verify general": ("a modulus",),
    "verify corollary": ("a modulus",),
    "verify all": ("a modulus",),
    "verify shu-connectivity": ("--t", "--n", "--input"),
    "verify shu-inheritance": ("--t", "--n", "--input", "--input2"),
    "verify bridge": ("--t", "--n"),
}


ARGUMENTS = ("a modulus", "--range", "--t", "--n", "--input", "--input2")


def command_argv(command, names, graph_file):
    """The command with the named arguments, the modulus first."""
    values = {
        "a modulus": ["6"],
        "--range": ["--range", "2..5"],
        "--t": ["--t", "2"],
        "--n": ["--n", "4"],
        "--input": ["--input", str(graph_file)],
        "--input2": ["--input2", str(graph_file)],
    }
    return command.split() + [word for name in ARGUMENTS if name in names for word in values[name]]


@pytest.fixture
def graph_file(tmp_path):
    f = tmp_path / "g.edgelist"
    f.write_text("e a b\n")
    return f


def usage_error(argv, capsys):
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2, argv
    return capsys.readouterr().err


@pytest.mark.parametrize("command", list(NEEDS))
def test_each_command_refuses_every_argument_it_does_not_take(capsys, graph_file, command):
    needs = NEEDS[command]
    takes = set(needs)
    if command.startswith("verify") and needs == ("a modulus",):
        takes.add("--range")
    for other in [name for name in ARGUMENTS if name not in takes]:
        err = usage_error(command_argv(command, (other, *needs), graph_file), capsys)
        if command.startswith("build") and other in ("--range", "--input2"):
            # build has no such option at all
            assert "error: unrecognized arguments: " + other in err
        else:
            assert f"error: {command} does not take {other}" in err


@pytest.mark.parametrize("command", list(NEEDS))
def test_each_command_needs_every_argument_it_names(capsys, graph_file, command):
    needs = NEEDS[command]
    assert main(command_argv(command, needs, graph_file)) in (0, 1, 2, 3)
    for left_out in needs:
        rest = [name for name in needs if name != left_out]
        usage_error(command_argv(command, rest, graph_file), capsys)


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    # build and export write deterministic output and take no --stable
    for argv in ("export --format dot --stable", "build cl2 6 --stable"):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        assert "unrecognized arguments: --stable" in capsys.readouterr().err


def test_exit_code_policy():
    mk = lambda s: TheoremReport("t", "i", s, "d")
    assert _exit_code([]) == 2
    assert _exit_code([mk("pass")]) == 0
    assert _exit_code([mk("pass"), mk("fail")]) == 1
    assert _exit_code([mk("pass"), mk("inconclusive")]) == 3
    assert _exit_code([mk("fail"), mk("inconclusive")]) == 1
    assert _exit_code([mk("rejected")]) == 2


# -- golden files ------------------------------------------------------------------


def _golden_bytes(name):
    return (GOLDEN / name).read_bytes()


@pytest.mark.parametrize(
    "argv,fixture",
    [
        (["build", "cl2", "6"], "cl2_z6.edgelist"),
        (["build", "sh", "--t", "2", "--n", "6"], "sh_2_6.edgelist"),
        (
            ["build", "shu", "--t", "2", "--n", "4", "--input", str(GOLDEN / "input_p3.edgelist")],
            "shu_2_4_p3.edgelist",
        ),
    ],
)
def test_build_matches_golden(capsys, argv, fixture):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode() == _golden_bytes(fixture)


@pytest.mark.parametrize("base", ["cl2_z6", "sh_2_6", "shu_2_4_p3"])
@pytest.mark.parametrize("fmt,ext", [("dot", "dot"), ("json", "json"), ("incidence", "csv")])
def test_export_matches_golden(capsys, monkeypatch, base, fmt, ext):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(_golden_bytes(f"{base}.edgelist").decode())
    )
    code, out, _ = run(capsys, "export", "--format", fmt)
    assert code == 0
    assert out.encode() == _golden_bytes(f"{base}.{ext}")


def test_degrees_table_matches_golden(capsys):
    code, out, _ = run(capsys, "degrees", "30")
    assert code == 0
    assert out.encode() == _golden_bytes("degrees_30.txt")


def test_verify_all_range_matches_golden(capsys):
    code, out, err = run(capsys, "verify", "all", "--range", "2..40", "--stable")
    assert code == 0
    assert err == ""
    assert out.encode() == _golden_bytes("verify_all_2_40.txt")


@pytest.mark.parametrize(
    "fixture,make",
    [
        ("prism4.edgelist", lambda: ladder_graph(4, "a", False)),
        ("moebius4.edgelist", lambda: ladder_graph(4, "b", True)),
        ("random10.edgelist", lambda: random_connected_graph(9, 10, 14)[0]),
        ("random10_relabelled.edgelist", lambda: random_connected_graph(9, 10, 14)[1]),
        ("random60.edgelist", lambda: random_connected_graph(1, 60, 90)[0]),
        ("random60_relabelled.edgelist", lambda: random_connected_graph(1, 60, 90)[1]),
        ("random12.edgelist", lambda: random_connected_graph(6, 12, 16)[0]),
        (
            "random12_swapped.edgelist",
            lambda: double_edge_swaps(random_connected_graph(6, 12, 16)[0], 1, 6),
        ),
    ],
)
def test_searcher_golden_inputs_are_the_helpers_graphs(fixture, make):
    # CI runs shu-inheritance on these files; they are rebuilt here from
    # the test helpers alone
    assert export(make(), "edgelist").encode() == _golden_bytes(fixture)


def test_verify_shu_inheritance_on_the_benchmark_shape_matches_golden(capsys):
    # Shu(2, 4) of a random 10-vertex graph, as in the shu benchmark's
    # median op: 44 vertices, 20 colour classes
    code, out, _ = run(
        capsys, "verify", "shu-inheritance", "--t", "2", "--n", "4",
        "--input", str(GOLDEN / "random10.edgelist"),
        "--input2", str(GOLDEN / "random10_relabelled.edgelist"), "--json", "--stable",
    )
    assert code == 0
    assert out.encode() == _golden_bytes("shu_inheritance_random10.json")


def test_verify_shu_inheritance_on_a_random_pair_matches_golden(capsys):
    # Shu has 366 vertices, and its splitters' counts reach several bit planes
    code, out, _ = run(
        capsys, "verify", "shu-inheritance", "--t", "2", "--n", "6",
        "--input", str(GOLDEN / "random60.edgelist"),
        "--input2", str(GOLDEN / "random60_relabelled.edgelist"), "--json", "--stable",
    )
    assert code == 0
    assert out.encode() == _golden_bytes("shu_inheritance_random60.json")


def test_verify_shu_inheritance_on_an_equal_degree_pair_matches_golden(capsys):
    # a random 12-vertex graph against itself after one double-edge swap:
    # the degree sequences agree, and the refinement alone tells both the
    # inputs and their Shu(2, 4) apart, so the searcher expands no node
    code, out, _ = run(
        capsys, "verify", "shu-inheritance", "--t", "2", "--n", "4",
        "--input", str(GOLDEN / "random12.edgelist"),
        "--input2", str(GOLDEN / "random12_swapped.edgelist"), "--json", "--stable",
    )
    assert code == 0
    assert out.encode() == _golden_bytes("shu_inheritance_random12_swapped.json")


def general_golden_agrees_with_the_degree_law(n, vertices):
    # CI diffs `verify general N --json --stable` against the golden file;
    # its vertex and edge counts are held here to the closed-form degrees,
    # which read the ring alone, so the pin is checked by more than the code
    # that wrote it
    (report,) = json.loads(_golden_bytes(f"verify_general_{n}.json"))
    assert (report["instance"], report["status"]) == (f"n={n}", "pass")
    degrees, _ = closed_form_degrees(n)
    assert report["evidence"]["vertices"] == len(degrees) == vertices
    assert 2 * report["evidence"]["edges"] == sum(degrees)


def test_verify_general_2310_golden_agrees_with_the_degree_law():
    general_golden_agrees_with_the_degree_law(2310, 14880)


def test_verify_general_3570_golden_agrees_with_the_degree_law():
    general_golden_agrees_with_the_degree_law(3570, 23808)


def test_verify_general_6006_golden_agrees_with_the_degree_law():
    general_golden_agrees_with_the_degree_law(6006, 44640)
