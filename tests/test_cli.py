"""CLI commands: outputs, exit codes, determinism of reports and files."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from flagsphere import Graph, PeelParams, cli, coloring, complexes, grotzsch_graph
from flagsphere.cli import build_parser, main
from flagsphere.graphs import NODE_BUDGET
from flagsphere.io import read_complex, write_complex, write_graph

from conftest import BAD_TAG_FILES, sixteen_cells_glued


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cyclic_writes_nine_facets(tmp_path, capsys):
    out = tmp_path / "c6.txt"
    code, stdout, _ = run(capsys, "cyclic", "--n", "6", "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["facets"] == 9
    facet_lines = [
        line
        for line in out.read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("tags")
        and "original" not in line
    ]
    assert len(facet_lines) == 9


def test_cyclic_too_small_exit_one(tmp_path, capsys):
    code, _, err = run(capsys, "cyclic", "--n", "5", "--out", str(tmp_path / "x"))
    assert code == 1
    assert "TooSmall" in err


@pytest.mark.parametrize("command", ("cyclic", "flagify"))
def test_oversized_polytope_exit_one(tmp_path, capsys, command):
    graph = tmp_path / "g.txt"
    write_graph(Graph.single_edge(), graph)
    argv = ["--n", "200000", "--out", str(tmp_path / "x.txt")]
    if command == "flagify":
        argv += ["--graph", str(graph)]
    code, out, err = run(capsys, command, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("TooLarge:")


def test_oversized_graph_header_exit_one(tmp_path, capsys):
    # refused before the 10^8 adjacency sets the header declares are built
    graph = tmp_path / "huge.txt"
    graph.write_text("100000000 0\n")
    code, out, err = run(
        capsys, "flagify", "--graph", str(graph), "--n", "8", "--out", str(tmp_path / "x.txt")
    )
    assert (code, out) == (1, "")
    assert err.startswith("TooLarge:")


def test_verify_cyclic_eight(tmp_path, capsys):
    out = tmp_path / "c8.txt"
    run(capsys, "cyclic", "--n", "8", "--out", str(out))
    code, stdout, _ = run(capsys, "verify", "--in", str(out), "--seed", "1")
    assert code == 0
    report = json.loads(stdout)
    assert report["manifold_checks"]["passed"]
    assert not report["is_flag"]
    assert report["empty_triangle_count"] == 16
    assert report["euler"] == 0


def test_verify_budget_zero_skips_exact_alpha(tmp_path, capsys):
    out = tmp_path / "c8.txt"
    run(capsys, "cyclic", "--n", "8", "--out", str(out))
    code, stdout, _ = run(capsys, "verify", "--in", str(out), "--seed", "1", "--budget", "0")
    assert code == 0
    assert '"alpha_exact": null' in stdout


def test_verify_corrupted_file_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2 3\n0 1\n")
    code, _, err = run(capsys, "verify", "--in", str(bad), "--seed", "1")
    assert code == 2
    assert "ParseError" in err


def test_flagify_pipeline_and_replay_byte_identical(tmp_path, capsys):
    gfile = tmp_path / "c5.txt"
    write_graph(Graph.cycle(5), gfile)
    base = tmp_path / "c6.txt"
    run(capsys, "cyclic", "--n", "6", "--out", str(base))
    out = tmp_path / "f.txt"
    trace = tmp_path / "t.txt"
    code, stdout, _ = run(
        capsys,
        "flagify", "--graph", str(gfile), "--n", "6",
        "--out", str(out), "--trace", str(trace), "--audit",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["final_vertex_count"] <= report["bound"]

    replayed = tmp_path / "f2.txt"
    code, _, _ = run(
        capsys, "replay", "--in", str(base), "--trace", str(trace), "--out", str(replayed)
    )
    assert code == 0
    assert out.read_bytes() == replayed.read_bytes()

    code, stdout, _ = run(capsys, "verify", "--in", str(out), "--seed", "1")
    verify_report = json.loads(stdout)
    assert verify_report["is_flag"]
    assert verify_report["manifold_checks"]["passed"]
    assert verify_report["empty_triangle_count"] == 0
    assert verify_report["chromatic_upper"] is not None


def test_flagify_rejects_triangle(tmp_path, capsys):
    gfile = tmp_path / "k3.txt"
    write_graph(Graph.complete(3), gfile)
    code, _, err = run(
        capsys, "flagify", "--graph", str(gfile), "--n", "8",
        "--out", str(tmp_path / "x.txt"),
    )
    assert code == 1
    assert "NotTriangleFree" in err


@pytest.mark.parametrize("command", ("flagify", "certify"))
def test_graph_with_a_repeated_edge_exit_two(tmp_path, capsys, command):
    gfile = tmp_path / "g.txt"
    gfile.write_text("6 2\n0 2\n2 0\n")
    sphere = tmp_path / "c6.txt"
    run(capsys, "cyclic", "--n", "6", "--out", str(sphere))
    args = {
        "flagify": ("--n", "6", "--out", str(tmp_path / "x.txt")),
        "certify": ("--in", str(sphere), "--k", "2"),
    }[command]
    code, stdout, err = run(capsys, command, "--graph", str(gfile), *args)
    assert (code, stdout) == (2, "")
    assert "ParseError" in err and "repeats an edge" in err


def test_color_command(tmp_path, capsys):
    gfile = tmp_path / "c5.txt"
    write_graph(Graph.cycle(5), gfile)
    out = tmp_path / "f.txt"
    run(capsys, "flagify", "--graph", str(gfile), "--n", "6", "--out", str(out))
    colored = tmp_path / "col.txt"
    code, stdout, _ = run(
        capsys, "color", "--in", str(out), "--x", "2.0", "--out", str(colored)
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["colors"] >= 4  # contains K4s
    assert colored.exists()


@pytest.mark.parametrize("command", ("verify", "color"))
@pytest.mark.parametrize("x", ("nan", "0"))
def test_non_positive_x_exit_two_promptly(tmp_path, capsys, command, x):
    # on a flag sphere a nan threshold would peel forever, so run the CLI in
    # its own process under a timeout
    gfile = tmp_path / "c5.txt"
    write_graph(Graph.cycle(5), gfile)
    sphere = tmp_path / "f.txt"
    run(capsys, "flagify", "--graph", str(gfile), "--n", "6", "--out", str(sphere))
    extra = ("--seed", "1") if command == "verify" else ()
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-m", "flagsphere.cli", command, "--in", str(sphere), "--x", x, *extra],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert "ParseError" in done.stderr and "x must be positive" in done.stderr


def test_color_rejects_nonflag(tmp_path, capsys):
    base = tmp_path / "c6.txt"
    run(capsys, "cyclic", "--n", "6", "--out", str(base))
    code, _, err = run(capsys, "color", "--in", str(base))
    assert code == 1
    assert "NotFlag" in err



@pytest.mark.parametrize(
    "facets,error",
    [
        # the triangle boundary: a 1-complex whose 3-clique is not a face
        ([(0, 1), (1, 2), (0, 2)], "NotFlag"),
        # the octahedron boundary: a flag 2-sphere
        ([(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)], "WrongDimension"),
    ],
    ids=["triangle-boundary", "octahedron-boundary"],
)
def test_color_checks_flagness_before_dimension(tmp_path, capsys, facets, error):
    path = tmp_path / "low.txt"
    path.write_text("".join(" ".join(map(str, f)) + "\n" for f in facets))
    code, _, err = run(capsys, "color", "--in", str(path))
    assert code == 1
    assert err.startswith(error + ":")


def test_empty_tetrahedron_sphere_is_a_manifold_but_not_flag(tmp_path, capsys):
    path = tmp_path / "glued.txt"
    write_complex(sixteen_cells_glued(), path)
    code, stdout, _ = run(capsys, "verify", "--in", str(path), "--seed", "1")
    assert code == 0
    report = json.loads(stdout)
    assert report["manifold_checks"]["passed"] and not report["is_flag"]
    assert report["empty_triangle_count"] == 0 and report["chromatic_upper"] is None
    code, stdout, err = run(capsys, "color", "--in", str(path))
    assert code == 1 and stdout == ""
    assert err.startswith("NotFlag:")


def test_verify_and_color_check_a_flag_sphere_once(tmp_path, capsys, monkeypatch):
    """Each command runs one manifold pass, whose f-vector is_flag reads, and
    builds no set of faces."""
    gfile, sphere = tmp_path / "g.txt", tmp_path / "sphere.txt"
    write_graph(grotzsch_graph(), gfile)
    run(capsys, "flagify", "--graph", str(gfile), "--n", "11", "--out", str(sphere))
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(complexes, "_faces")
    count(complexes, "f_vector")
    count(cli, "verify_closed_3_manifold")
    count(coloring, "verify_closed_3_manifold")
    for argv in (("verify", "--in", str(sphere), "--seed", "1"), ("color", "--in", str(sphere))):
        calls.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert calls == {"verify_closed_3_manifold": 1}


def test_certify_command(tmp_path, capsys):
    g = grotzsch_graph()
    gfile = tmp_path / "g.txt"
    write_graph(g, gfile)
    out = tmp_path / "f.txt"
    run(capsys, "flagify", "--graph", str(gfile), "--n", "11", "--out", str(out))
    code, stdout, _ = run(
        capsys, "certify", "--in", str(out), "--graph", str(gfile), "--k", "4"
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["certified"] and report["witness_type"] == "exceedance"


@pytest.mark.parametrize(
    "command,extra",
    [
        ("certify", ("--k", "1")),
        ("certify", ("--k", "0")),
        ("certify", ("--k", "-1")),
        ("certify", ("--k", "3", "--budget", "-1")),
        ("verify", ("--seed", "1", "--budget", "-1")),
        ("verify", ("--seed", "1", "--x", "inf")),
        ("color", ("--x", "inf")),
        ("verify", ("--seed", "1", "--cap", "-5")),
        ("color", ("--cap", "-5")),
    ],
    ids=[
        "k1", "k0", "k-1", "certify-budget-1", "verify-budget-1",
        "verify-x-inf", "color-x-inf", "verify-cap-5", "color-cap-5",
    ],
)
def test_vacuous_bound_or_negative_budget_exit_two(tmp_path, capsys, command, extra):
    # chi >= k certifies nothing for k < 2, and a negative node budget is no
    # budget; x = inf makes the peel bound infinite, and a negative cap acts as 0
    gfile = tmp_path / "c5.txt"
    write_graph(Graph.cycle(5), gfile)
    sphere = tmp_path / "f.txt"
    run(capsys, "flagify", "--graph", str(gfile), "--n", "6", "--out", str(sphere))
    graph = ("--graph", str(gfile)) if command == "certify" else ()
    code, stdout, err = run(capsys, command, "--in", str(sphere), *graph, *extra)
    assert (code, stdout) == (2, "")
    assert "ParseError" in err


def test_certify_failure_exit_one(tmp_path, capsys):
    gfile = tmp_path / "c5.txt"
    write_graph(Graph.cycle(5), gfile)
    out = tmp_path / "f.txt"
    run(capsys, "flagify", "--graph", str(gfile), "--n", "6", "--out", str(out))
    code, _, err = run(
        capsys, "certify", "--in", str(out), "--graph", str(gfile), "--k", "4"
    )
    assert code == 1
    assert "CertificationFailed" in err


def test_certify_deep_search_exit_one(tmp_path, capsys, m5):
    # an edgeless graph embeds in any sphere; its 2,000 vertices are 2,000
    # levels of search, which ends in a 1-coloring and not in a crash
    gfile = tmp_path / "m5.txt"
    write_graph(m5, gfile)
    sphere = tmp_path / "f.txt"
    run(capsys, "flagify", "--graph", str(gfile), "--n", "23", "--out", str(sphere))
    write_graph(Graph.edgeless(2000), gfile)
    code, stdout, err = run(
        capsys, "certify", "--in", str(sphere), "--graph", str(gfile), "--k", "2"
    )
    assert (code, stdout) == (1, "")
    assert err.startswith("CertificationFailed: graph is 1-colorable")


def test_random_clique_config_and_flags_agree(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 50, "alpha": 0.55, "d": 3, "seed": 4}))
    code, out1, _ = run(capsys, "random-clique", "--config", str(cfg))
    assert code == 0
    code, out2, _ = run(
        capsys, "random-clique", "--n", "50", "--alpha", "0.55", "--seed", "4"
    )
    assert code == 0
    assert out1 == out2
    # both forms take the same default d
    cfg.write_text(json.dumps({"n": 50, "alpha": 0.55, "seed": 4}))
    code, out3, _ = run(capsys, "random-clique", "--config", str(cfg))
    assert (code, out3) == (0, out1)
    # integral floats become ints before RandomCliqueParams, which refuses floats
    cfg.write_text(json.dumps({"n": 50.0, "alpha": 0.55, "d": 3.0, "seed": 4.0}))
    code, out4, _ = run(capsys, "random-clique", "--config", str(cfg))
    assert (code, out4) == (0, out1)


def test_random_clique_missing_seed_exit_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 50, "alpha": 0.55}))
    code, _, err = run(capsys, "random-clique", "--config", str(cfg))
    assert code == 2
    assert "seed" in err


def test_random_clique_flags_missing_seed_exit_two(capsys):
    code, out, err = run(capsys, "random-clique", "--n", "50", "--alpha", "0.55")
    assert (code, out) == (2, "")
    assert "ParseError" in err and "'seed'" in err


def test_parser_defaults_are_the_library_defaults():
    parse = build_parser().parse_args
    peel = PeelParams()
    for argv in (["verify", "--in", "s", "--seed", "1"], ["color", "--in", "s"]):
        args = parse(argv)
        assert (args.x, args.cap) == (peel.x, peel.exact4_cap)
    assert parse(["verify", "--in", "s", "--seed", "1"]).budget == NODE_BUDGET
    assert parse(["certify", "--in", "s", "--graph", "g", "--k", "3"]).budget == NODE_BUDGET
    # no default, so an explicit --d beside --config is seen; without --d the
    # command takes RandomCliqueParams.d (test_random_clique_config_and_flags_agree)
    assert parse(["random-clique"]).d is None


@pytest.mark.parametrize("command", (["verify", "--seed", "1"], ["color"]))
def test_strategy_flag_refused_exit_two(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--in", str(tmp_path / "s.txt"), "--strategy", "exact4"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments: --strategy" in out.err


@pytest.mark.parametrize(
    "config",
    [
        5,
        "n alpha seed",
        {"n": "x", "alpha": 0.55, "seed": 1},
        {"n": None, "alpha": 0.55, "seed": 1},
        {"n": 50.9, "alpha": 0.55, "seed": 1},
        {"n": 50, "alpha": 0.55, "seed": True},
        {"n": True, "alpha": 0.55, "seed": 1},
        {"n": 50, "alpha": 0.55, "d": 3.5, "seed": 1},
        {"n": 50, "alpha": 0.55, "d": False, "seed": 1},
        {"n": 50, "alpha": 0.55, "seed": 1.5},
        {"n": 50, "alpha": True, "seed": 1},
        # numbers written as JSON strings are not numbers
        {"n": "50", "alpha": "0.55", "seed": " 1 "},
        {"n": "1_000", "alpha": 0.55, "seed": 1},
        {"n": 50, "alpha": "0.55", "seed": 1},
        # a 400-digit integer parses as JSON but overflows float()
        {"n": 50, "alpha": int("1" * 400), "seed": 1},
    ],
)
def test_random_clique_malformed_config_exit_two(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "random-clique", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "ParseError" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 200, "alpha": 0.55, "seed": 5, "D": 4}',
        '{"n": 200, "alpha": 0.55, "seed": 5, "n": 300}',
    ],
    ids=["unknown-key", "repeated-key"],
)
def test_random_clique_config_key_unknown_or_repeated_exit_two(tmp_path, capsys, text):
    # a misspelt key would run at the default d, and a repeated one at its last value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out, err = run(capsys, "random-clique", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("ParseError: ") and "Traceback" not in err


def test_random_clique_overlong_integer_exit_two(tmp_path, capsys):
    # json.loads refuses an integer of more than 4300 digits with a ValueError
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": ' + "1" * 5000 + ', "alpha": 0.55, "seed": 1}')
    code, out, err = run(capsys, "random-clique", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("ParseError: bad config file")


@pytest.mark.parametrize(
    "flag", (["--n", "50"], ["--alpha", "0.55"], ["--d", "3"], ["--seed", "7"])
)
def test_random_clique_flag_with_config_exit_two(tmp_path, capsys, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 50, "alpha": 0.55, "seed": 4}))
    code, out, err = run(capsys, "random-clique", "--config", str(cfg), *flag)
    assert (code, out) == (2, "")
    assert err.startswith("ParseError: random-clique takes --config or flags, not both")
    assert flag[0] in err


def test_random_clique_no_vertices_exit_one(capsys):
    code, _, err = run(capsys, "random-clique", "--n", "0", "--alpha", "0.55", "--seed", "1")
    assert code == 1
    assert "TooSmall" in err


def test_random_clique_invalid_alpha_exit_one(capsys):
    code, _, err = run(
        capsys, "random-clique", "--n", "30", "--alpha", "0.3", "--seed", "1"
    )
    assert code == 1
    assert "InvalidAlpha" in err


def test_random_clique_dimension_below_three_exit_one(capsys):
    code, out, err = run(
        capsys, "random-clique", "--n", "30", "--alpha", "0.55", "--d", "2", "--seed", "1"
    )
    assert (code, out) == (1, "")
    assert "BadDimension" in err


def test_random_clique_oversized_flags_exit_one(capsys):
    code, out, err = run(
        capsys, "random-clique", "--n", "1000000000", "--alpha", "0.55", "--seed", "1"
    )
    assert (code, out) == (1, "")
    assert "TooLarge" in err


def test_random_clique_oversized_config_exit_one(tmp_path, capsys):
    # 1e30 is an integral float, so the config reads it as n = 10**30
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 1e30, "alpha": 0.55, "seed": 1}))
    code, out, err = run(capsys, "random-clique", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert "TooLarge" in err


def test_replay_empty_trace_is_identity(tmp_path, capsys):
    base = tmp_path / "c6.txt"
    run(capsys, "cyclic", "--n", "6", "--out", str(base))
    trace = tmp_path / "empty.txt"
    trace.write_text("# no events\n")
    out = tmp_path / "same.txt"
    code, _, _ = run(capsys, "replay", "--in", str(base), "--trace", str(trace), "--out", str(out))
    assert code == 0
    assert read_complex(out) == read_complex(base)
    assert out.read_bytes() == base.read_bytes()


def test_replay_nonedge_exit_one(tmp_path, capsys):
    base = tmp_path / "c6.txt"
    run(capsys, "cyclic", "--n", "6", "--out", str(base))
    trace = tmp_path / "bad.txt"
    trace.write_text("subdiv 0 2 -> 6\nsubdiv 0 2 -> 7\n")  # second event reuses dead edge
    code, _, err = run(
        capsys, "replay", "--in", str(base), "--trace", str(trace), "--out", str(tmp_path / "x")
    )
    assert code == 1
    assert "NotAnEdge" in err


@pytest.mark.parametrize(
    "trace,error",
    [("subdiv 0 2 -> 99\n", "InvariantViolation"), ("subdiv 3 3 -> 8\n", "NotAnEdge")],
    ids=["wrong-new-id", "loop-edge"],
)
def test_replay_trace_that_does_not_fit_exit_one(tmp_path, capsys, trace, error):
    base = tmp_path / "c8.txt"
    run(capsys, "cyclic", "--n", "8", "--out", str(base))
    bad = tmp_path / "bad.txt"
    bad.write_text(trace)
    code, out, err = run(
        capsys, "replay", "--in", str(base), "--trace", str(bad), "--out", str(tmp_path / "x")
    )
    assert (code, out) == (1, "")
    assert err.startswith(error + ":")


@pytest.mark.parametrize(
    "kind,text",
    [
        ("graph", ""),
        ("graph", "2 x\n"),
        ("graph", "2 1\n0 q\n"),
        ("trace", "subdiv a 2 -> 8\n"),
    ],
    ids=["graph-empty", "graph-bad-header", "graph-bad-edge", "trace-bad-vertex"],
)
def test_malformed_graph_or_trace_exit_two(tmp_path, capsys, kind, text):
    sphere = tmp_path / "c6.txt"
    run(capsys, "cyclic", "--n", "6", "--out", str(sphere))
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    argv = {
        "graph": ["certify", "--in", str(sphere), "--graph", str(bad), "--k", "2"],
        "trace": ["replay", "--in", str(sphere), "--trace", str(bad), "--out", str(bad) + ".out"],
    }[kind]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("ParseError:")


@pytest.mark.parametrize("kind", ("complex", "graph", "trace", "config"))
def test_file_not_utf8_exit_two(tmp_path, capsys, kind):
    sphere = tmp_path / "c6.txt"
    run(capsys, "cyclic", "--n", "6", "--out", str(sphere))
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff 0 1\n")
    argv = {
        "complex": ["verify", "--in", str(bad), "--seed", "1"],
        "graph": ["certify", "--in", str(sphere), "--graph", str(bad), "--k", "2"],
        "trace": ["replay", "--in", str(sphere), "--trace", str(bad), "--out", str(bad) + ".out"],
        "config": ["random-clique", "--config", str(bad)],
    }[kind]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("ParseError:")


@pytest.mark.parametrize("text", BAD_TAG_FILES.values(), ids=BAD_TAG_FILES)
def test_tags_the_ids_contradict_exit_two(tmp_path, capsys, text):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    code, out, err = run(capsys, "verify", "--in", str(bad), "--seed", "1")
    assert (code, out) == (2, "")
    assert err.startswith("ParseError:")


def test_missing_input_file_exit_two(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--in", str(tmp_path / "nope.txt"), "--seed", "1")
    assert code == 2


def test_verify_wrong_dimension_exit_one(tmp_path, capsys):
    surface = tmp_path / "oct.txt"
    surface.write_text(
        "\n".join(f"{a} {b} {c}" for a in (0, 1) for b in (2, 3) for c in (4, 5)) + "\n"
    )
    code, _, err = run(capsys, "verify", "--in", str(surface), "--seed", "1")
    assert code == 1
    assert "WrongDimension" in err


def test_seeded_reports_byte_identical(tmp_path, capsys):
    out = tmp_path / "c7.txt"
    run(capsys, "cyclic", "--n", "7", "--out", str(out))
    _, r1, _ = run(capsys, "verify", "--in", str(out), "--seed", "5")
    _, r2, _ = run(capsys, "verify", "--in", str(out), "--seed", "5")
    assert r1 == r2


def test_main_reuses_one_parser_with_a_fresh_parsers_outputs(tmp_path, capsys, monkeypatch):
    gfile, flag = tmp_path / "c5.txt", tmp_path / "f.txt"
    write_graph(Graph.cycle(5), gfile)
    calls = [
        ["flagify", "--graph", str(gfile), "--n", "6", "--out", str(flag)],
        ["verify", "--in", str(flag), "--seed", "1"],
        ["color", "--in", str(flag), "--cap", "-1"],  # a domain check, exit 2
        ["color", "--in", str(flag), "--strategy", "exact4"],  # an argument error, exit 2
        ["color", "--in", str(flag)],
        ["random-clique", "--n", "50", "--alpha", "0.55", "--seed", "1"],
        ["certify", "--in", str(flag), "--graph", str(gfile), "--k", "3"],
        ["verify", "--in", str(flag)],  # --seed missing, exit 2
        ["verify", "--in", str(flag), "--seed", "2"],
    ]

    def outputs():
        got = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            got.append((code, capsys.readouterr().out))
        return got

    cli._parser.cache_clear()
    reused = outputs()
    assert cli._parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "_parser", build_parser)  # a fresh parser per call
    assert reused == outputs()
    assert [code for code, _ in reused] == [0, 0, 2, 2, 0, 0, 0, 2, 0]
