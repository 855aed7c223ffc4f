"""Command line behavior: exit codes, output documents, determinism."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from twodual import BeaOracle, SetFamily, caps, family_bea, oracle_to_table
from twodual.cli import main
from twodual.core import FiniteStructure
from twodual.instances import make_transit_fixture, template
from twodual.jsonio import (
    bea_to_json,
    dumps,
    family_to_json,
    load_path,
    read_corpus,
    structure_to_json,
    to_json,
)


@pytest.fixture
def chain2_bea(tmp_path):
    fam = SetFamily(base=2, sets=(0b01, 0b11))
    path = tmp_path / "chain2.bea.json"
    path.write_text(dumps(bea_to_json(oracle_to_table(family_bea(fam)))) + "\n")
    return str(path)


@pytest.fixture
def chain3_lattice(tmp_path):
    sig = template("bounded_lattice").signature
    meet = [(a, b, min(a, b)) for a in range(3) for b in range(3)]
    join = [(a, b, max(a, b)) for a in range(3) for b in range(3)]
    x = FiniteStructure(sig, 3, {"meet": meet, "join": join},
                        {"zero": 0, "one": 2})
    path = tmp_path / "chain3.lat.json"
    path.write_text(dumps(structure_to_json(x)) + "\n")
    return str(path)


def test_separate_prints_the_halfspace(chain2_bea, capsys):
    assert main(["separate", "--in", chain2_bea, "--a", "1", "--b", "0"]) == 0
    assert capsys.readouterr().out == "U = [1]\n"


def test_separate_json_document(chain2_bea, capsys):
    code = main(
        ["separate", "--in", chain2_bea, "--a", "1", "--b", "0",
         "--format", "json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["separated"] is True
    assert doc["halfspace"] == [1]


def test_separate_refuses_linked_pairs(chain2_bea, capsys):
    assert main(["separate", "--in", chain2_bea, "--a", "0", "--b", "1"]) == 1
    out = capsys.readouterr().out
    assert "linked" in out or "reason" in out


def test_separate_reports_transit_failures(tmp_path, capsys):
    fam = SetFamily(base=6, sets=(0b000111, 0b011100, 0b110001, 0b111111))
    broken, a, b = make_transit_fixture(family_bea(fam))
    path = tmp_path / "broken.bea.json"
    path.write_text(dumps(bea_to_json(broken)) + "\n")
    code = main(
        ["separate", "--in", str(path),
         "--a", ",".join(str(i) for i in range(4) if a >> i & 1),
         "--b", ",".join(str(i) for i in range(4) if b >> i & 1),
         "--format", "json"]
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["separated"] is False
    assert "pasch_failure" in doc


def test_missing_file_is_a_usage_error(capsys):
    assert main(["separate", "--in", "/nonexistent.json",
                 "--a", "0", "--b", "1"]) == 2


def test_wrong_document_kind_is_a_usage_error(chain3_lattice):
    assert main(["separate", "--in", chain3_lattice, "--a", "0", "--b", "1"]) == 2


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2


def test_check_axioms_passes_on_family_documents(tmp_path, capsys):
    fam = SetFamily(base=3, sets=(0b001, 0b011, 0b111))
    path = tmp_path / "fam.json"
    path.write_text(dumps(family_to_json(fam)) + "\n")
    code = main(["check-axioms", "--in", str(path), "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert set(doc["axioms"]) == {"i0", "i1", "i2", "i3"}
    assert all(rep["pass"] for rep in doc["axioms"].values())


def test_check_axioms_flags_broken_tables(tmp_path, capsys):
    fam = SetFamily(base=6, sets=(0b000111, 0b011100, 0b110001, 0b111111))
    broken, _, _ = make_transit_fixture(family_bea(fam))
    path = tmp_path / "broken.json"
    path.write_text(dumps(bea_to_json(broken)) + "\n")
    code = main(["check-axioms", "--in", str(path), "--format", "json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    assert doc["axioms"]["i3"]["pass"] is False
    assert doc["axioms"]["i3"]["witness"]


def test_check_axioms_on_a_sparse_table_past_the_sweep_cap(tmp_path, capsys):
    # Twenty points put 4^20 pairs past pair-axiom-sweep; i3 joins the two
    # stored pairs and i4 scans them instead of building a 4^20-bit set.
    oracle = BeaOracle.from_table(20, [(1 << 0, 1 << 19), (1 << 19, 1 << 5)])
    path = tmp_path / "sparse.json"
    path.write_text(dumps(bea_to_json(oracle)) + "\n")
    code = main(["check-axioms", "--in", str(path), "--axioms", "i0,i1,i2,i3,i4",
                 "--format", "json"])
    assert code == 1
    axioms = json.loads(capsys.readouterr().out)["axioms"]
    assert set(axioms) == {"i0", "i1", "i2", "i3", "i4"}
    assert axioms["i3"]["pass"] is False
    assert axioms["i3"]["witness"] == [[], [5], [0], [], [19]]
    assert axioms["i4"]["pass"] is False
    assert axioms["i4"]["witness"] == [[0], [19]]


def test_a_bea_index_past_the_universe_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text('{"kind":"bea","universe":2,"pairs":[[[0],[5]]]}\n')
    assert main(["check-axioms", "--in", str(path), "--format", "json"]) == 2
    assert "bea side must be a list of indices below 2" in capsys.readouterr().err


def test_check_axioms_subset_selection(tmp_path, capsys):
    fam = SetFamily(base=2, sets=(0b01, 0b11))
    path = tmp_path / "fam.json"
    path.write_text(dumps(family_to_json(fam)) + "\n")
    code = main(["check-axioms", "--in", str(path), "--axioms", "i0,i5",
                 "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["axioms"]) == {"i0", "i5"}
    # The two-chain family is asymmetric, so i5 fails.
    assert code == 1
    assert doc["axioms"]["i0"]["pass"] is True
    assert doc["axioms"]["i5"]["pass"] is False


def test_dual_of_a_structure(chain3_lattice, tmp_path, capsys):
    out = tmp_path / "dual.json"
    code = main(
        ["dual", "--in", chain3_lattice, "--template", "bounded_lattice",
         "--e-template", "pure_set", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sizes"]["X"] == 3
    assert doc["sizes"]["Xstar"] == 2
    assert doc["carrier"] == [[2], [1, 2]]
    written = load_path(str(out))
    assert isinstance(written, FiniteStructure)
    assert written.size == 2


def test_dual_of_a_linkage(chain2_bea, tmp_path, capsys):
    out = tmp_path / "dual.bea.json"
    code = main(["dual", "--in", chain2_bea, "--format", "json",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["carrier"]["sets"] == [[1], [0, 1]]
    dual_oracle = load_path(str(out))
    assert dual_oracle.universe == 2


def test_dual_of_structure_requires_a_template(chain3_lattice):
    assert main(["dual", "--in", chain3_lattice]) == 2


def test_reflexivity_round_trip_and_negative_control(chain3_lattice, capsys):
    code = main(
        ["reflexivity", "--in", chain3_lattice,
         "--template", "bounded_lattice", "--e-template", "order",
         "--format", "json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert doc["sizes"] == {"X": 3, "Xstar": 2, "Xbidual": 3}

    code = main(
        ["reflexivity", "--in", chain3_lattice,
         "--template", "bounded_lattice", "--e-template", "pure_set",
         "--format", "json"]
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    assert doc["sizes"]["Xbidual"] == 4
    kinds = {c["kind"] for c in doc["counterexamples"]}
    assert "unrepresented" in kinds


def test_reflexivity_of_a_linkage(chain2_bea, capsys):
    assert main(["reflexivity", "--in", chain2_bea, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True


def test_verify_stone_suite(capsys):
    code = main(["verify", "--suite", "stone", "--format", "json",
                 "--threads", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["suite"] == "stone"
    assert doc["pass"] is True


@pytest.mark.parametrize("suite", ["priestley", "hms"])
def test_verify_gives_the_same_bytes_on_one_or_two_threads(suite, capsys):
    # Pool threads start outside the run's hom-search memo and search
    # again; the report must not tell.
    out = []
    for threads in ("1", "2"):
        argv = ["verify", "--suite", suite, "--format", "json",
                "--threads", threads]
        assert main(argv) == 0
        out.append(capsys.readouterr().out)
    assert out[0] == out[1]
    assert json.loads(out[0])["pass"] is True


def test_verify_seed_zero_is_not_the_default_seed(capsys):
    def report(*extra):
        argv = ["verify", "--suite", "hms", "--max-size", "1", "--samples",
                "5", "--format", "json", "--threads", "1", *extra]
        assert main(argv) == 0
        return capsys.readouterr().out

    default = report()
    assert report("--seed", "0") != default
    assert report("--seed", "11") == default


@pytest.mark.parametrize("suite", ["priestley", "stone", "hms"])
def test_verify_max_size_past_the_exhaustive_posets_exits_3(suite, capsys):
    # These suites enumerate every labeled poset up to --max-size, so a
    # size past 4 is refused rather than cut to 4.
    code = main(["verify", "--suite", suite, "--max-size", "5",
                 "--threads", "1", "--format", "json"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'poset-exhaustive' = 4" in captured.err


def test_verify_rejects_a_max_size_its_suite_cannot_draw(capsys):
    code = main(["verify", "--suite", "pasch", "--max-size", "0",
                 "--samples", "1", "--threads", "1"])
    assert code == 2
    assert "--max-size" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite, flag, value",
    [
        ("stone", "--seed", "3"),
        ("betweenness", "--max-size", "4"),
        ("biconvex", "--samples", "5"),
    ],
)
def test_verify_refuses_a_value_its_suite_does_not_read(suite, flag, value, capsys):
    code = main(["verify", "--suite", suite, flag, value, "--threads", "1",
                 "--format", "json"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"suite {suite!r} does not read {flag}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "priestley", "--max-size", "-1"],
        ["verify", "--suite", "hms", "--samples", "-5"],
        ["gen", "--class", "poset", "--size", "3", "--count", "-2"],
    ],
    ids=["max-size", "samples", "count"],
)
def test_negative_counts_are_usage_errors(argv, capsys):
    assert main([*argv, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is negative" in captured.err


@pytest.mark.parametrize("size", ["0", "-2"])
@pytest.mark.parametrize(
    "gen_class",
    ["poset", "semilattice", "dlattice", "family", "betweenness", "biconvexity"],
)
def test_gen_refuses_sizes_below_one(gen_class, size, capsys):
    assert main(["gen", "--class", gen_class, "--size", size]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "extra, digest",
    [
        (["--max-size", "5"],
         "318d6d85d450fa6e750ec83788123341b2ca6f07a62813de5d02cef109563f8f"),
        ([], "cf72672e14f32c91b857b5a6785f0218c1bca111b5dbff140fb4581cdfa956f8"),
    ],
    ids=["max-size-5", "default"],
)
def test_verify_pasch_report_is_pinned(extra, digest, capsys):
    # Recorded before the pair sampler moved to a bitset of unlinked pairs.
    assert main(["verify", "--suite", "pasch", *extra, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_pasch_pair_sampling_is_capped(monkeypatch, capsys):
    # The sampler holds a 4^n-bit set, so universes past pair-axiom-sweep
    # are refused rather than sampled.
    monkeypatch.setitem(caps.ACTIVE_CAPS, "pair-axiom-sweep", 3)
    code = main(["verify", "--suite", "pasch", "--max-size", "5",
                 "--samples", "10", "--threads", "1"])
    assert code == 3
    assert "pair-axiom-sweep" in capsys.readouterr().err


def test_gen_is_deterministic(capsys):
    argv = ["gen", "--class", "family", "--size", "4", "--seed", "9",
            "--count", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    assert json.loads(lines[0])["kind"] == "corpus-meta"
    assert len(lines) == 4

    assert main(["gen", "--class", "family", "--size", "4", "--seed", "10",
                 "--count", "3"]) == 0
    assert capsys.readouterr().out != first


def test_gen_writes_corpus_files(tmp_path):
    out = tmp_path / "posets.jsonl"
    code = main(["gen", "--class", "poset", "--size", "4", "--seed", "3",
                 "--count", "5", "--out", str(out)])
    assert code == 0
    meta, objs = read_corpus(str(out))
    assert meta["seed"] == 3
    assert len(objs) == 5
    assert all(isinstance(x, FiniteStructure) for x in objs)


def test_gen_rejects_unknown_classes():
    assert main(["gen", "--class", "widget", "--size", "3"]) == 2


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_a_refused_caps_environment_exits_2_on_every_subcommand(chain2_bea):
    commands = [
        ["check-axioms", "--in", chain2_bea],
        ["dual", "--in", chain2_bea],
        ["reflexivity", "--in", chain2_bea],
        ["separate", "--in", chain2_bea, "--a", "1", "--b", "0"],
        ["verify", "--suite", "stone", "--threads", "1"],
        ["gen", "--class", "poset", "--size", "2"],
    ]
    # DUALITY_CAPS is read at import, so each setting needs a new process.
    script = (
        "import json, sys\n"
        "from twodual.cli import main\n"
        "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def run(setting, *argv):
        env = dict(os.environ, DUALITY_CAPS=setting, PYTHONPATH=path)
        return subprocess.run([sys.executable, *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    for setting, name in [("axiom-sweep=3", "axiom-sweep"),
                          ("oracle-table=12", "oracle-table"),
                          ("hom-limit=many", "hom-limit")]:
        done = run(setting, "-c", script, json.dumps(commands))
        assert json.loads(done.stdout) == [2] * len(commands), done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == len(commands)
        assert all(
            line.startswith("error: DUALITY_CAPS") and repr(name) in line
            for line in lines
        )
    done = run("axiom-sweep=3", "-m", "twodual.cli", "verify", "--suite", "stone")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: DUALITY_CAPS names unknown cap 'axiom-sweep'\n"


def test_a_reused_parser_leaks_no_state(chain2_bea, chain3_lattice, capsys,
                                       monkeypatch):
    # Help text wraps to the terminal width, which the subprocess must share.
    monkeypatch.setenv("COLUMNS", "80")
    lattice = ["--in", chain3_lattice, "--template", "bounded_lattice",
               "--e-template", "order"]
    calls = [
        ["--help"],
        ["check-axioms", "--in", chain2_bea, "--format", "json"],
        ["frobnicate"],
        ["dual", *lattice, "--format", "json"],
        ["dual", "--template", "order"],
        ["dual", "--in", chain2_bea],
        ["dual", "--help"],
        ["reflexivity", *lattice],
        ["verify", "--suite", "widget"],
        ["separate", "--in", chain2_bea, "--a", "1", "--b", "0"],
        ["verify", "--suite", "stone", "--samples", "3"],
        ["verify", "--suite", "stone", "--max-size", "2", "--threads", "1",
         "--format", "json"],
        ["gen", "--class", "poset", "--size", "2", "--count", "2"],
    ]

    def run(argv):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out.encode(), out.err.encode()

    first = {i: run(argv) for i, argv in enumerate(calls)}
    # The second round runs in reverse, so each call follows other ones.
    second = {i: run(calls[i]) for i in reversed(range(len(calls)))}
    assert second == first
    assert [first[i][0] for i in range(len(calls))] == [
        0, 0, 2, 0, 2, 0, 0, 0, 2, 0, 2, 0, 0
    ]
    assert all(first[i][2] for i in (2, 4, 8, 10))

    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    )
    for i in (6, 8):
        done = subprocess.run([sys.executable, "-m", "twodual.cli", *calls[i]],
                              env=env, capture_output=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == first[i]


def test_caps_exit_code(tmp_path, capsys):
    # A family over a base beyond the hard cap must exit 3, not crash.
    doc = {"kind": "family", "base": 200,
           "sets": [[i] for i in range(3)], "zero": False, "one": False}
    path = tmp_path / "big.json"
    path.write_text(dumps(doc) + "\n")
    assert main(["check-axioms", "--in", str(path)]) == 3
