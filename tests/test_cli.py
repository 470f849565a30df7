"""End-to-end command line runs, exercised through subprocess."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from levelsat import cli
from levelsat.cli import build_set, load_config
from levelsat.construction import InternalFaultError, load_chain
from levelsat.dimension import VERDICTS, read_trend_csv
from levelsat.evaluator import solutions

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "levelsat.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def equiv_build(tmp_path_factory):
    out = tmp_path_factory.mktemp("equiv_cli")
    proc = run_cli(
        "build", "--config", CONFIGS / "equivalence_drop.yaml", "--out-dir", out
    )
    assert proc.returncode == 0, proc.stderr
    return out, proc.stdout


@pytest.fixture(scope="module")
def iset_build(tmp_path_factory):
    out = tmp_path_factory.mktemp("iset_cli")
    proc = run_cli(
        "build", "--config", CONFIGS / "infinite_set_control.yaml", "--out-dir", out
    )
    assert proc.returncode == 0, proc.stderr
    return out, proc.stdout


def test_import_leaves_the_network_stack_unloaded():
    """Importing the command line in a fresh interpreter pulls in neither
    urllib.request nor http.client: startup time is part of every command."""
    probe = "import sys, levelsat.cli; print(sorted({'urllib.request', 'http.client'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_FRESH_RUN = """\
import contextlib, io, json, sys
from levelsat import cli
config, out = sys.argv[1:]
analysis = ("levelsat.dimension", "levelsat.dividing", "levelsat.plots")
loaded = {}
def run(*args):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*args, "--config", config, "--out-dir", out]) == 0
chain = ["--chain", f"{out}/generic_equivalence.chain.json"]
cli.load_config(config)
loaded["load_config"] = [m for m in analysis if m in sys.modules]
run("build")
loaded["build"] = [m for m in analysis if m in sys.modules]
run("dim", *chain)
loaded["dim"] = [m for m in analysis if m in sys.modules]
print(json.dumps(loaded))
"""


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    """In a fresh interpreter, importing the command line, loading a config
    and building compile none of dimension, dividing and plots, and dim
    leaves dividing unloaded: start-up time is part of every command."""
    cfg = CONFIGS / "equivalence_drop.yaml"
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_RUN, str(cfg), str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded["load_config"] == [] and loaded["build"] == []
    assert "levelsat.dividing" not in loaded["dim"]


_WRAPPED_RUN = """\
import collections, contextlib, importlib, io, json, sys
from levelsat import cli
config, chain, out = sys.argv[1:]
calls = collections.Counter()
def counting(module, name):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return getattr(importlib.import_module(module), name)(*args, **kwargs)
    return wrapper
assert not {"levelsat.dividing", "levelsat.plots"} & set(sys.modules)
cli.certify_dividing = counting("levelsat.dividing", "certify_dividing")
cli.trend_plot_svg = counting("levelsat.plots", "trend_plot_svg")
for command in ("divide", "dim"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, "--config", config, "--chain", chain, "--out-dir", out]) == 0
print(json.dumps(calls))
"""


def test_a_wrapper_set_on_the_cli_before_first_use_is_kept(equiv_build, tmp_path):
    """A wrapper set on `levelsat.cli` before the module that defines the
    name is loaded is what dim and divide call, as the benchmark tracer
    needs, and the files they write are those of an unwrapped run."""
    out, _ = equiv_build
    cfg = str(CONFIGS / "equivalence_drop.yaml")
    chain = str(out / "generic_equivalence.chain.json")
    wrapped, plain = tmp_path / "wrapped", tmp_path / "plain"
    proc = subprocess.run(
        [sys.executable, "-c", _WRAPPED_RUN, cfg, chain, str(wrapped)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"certify_dividing": 1, "trend_plot_svg": 1}
    for command in ("divide", "dim"):
        assert cli.main([command, "--config", cfg, "--chain", chain, "--out-dir", str(plain)]) == 0
    files = sorted(p.name for p in plain.iterdir())
    assert files == sorted(p.name for p in wrapped.iterdir())
    for name in files:
        assert (wrapped / name).read_bytes() == (plain / name).read_bytes(), name


def test_build_writes_chain_and_audit(equiv_build):
    out, stdout = equiv_build
    assert (out / "generic_equivalence.chain.json").is_file()
    assert (out / "generic_equivalence.audit.txt").is_file()
    assert "final size 92" in stdout
    audit = (out / "generic_equivalence.audit.txt").read_text()
    assert "stage 30" in audit and "skipped=" in audit


def test_schedule_prints_requested_entries():
    proc = run_cli(
        "schedule", "--config", CONFIGS / "equivalence_drop.yaml", "--count", 12
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 12
    assert all("E(" in line or "=" in line for line in lines)


@pytest.mark.parametrize("kind", ["seeded", "fair"])
def test_negative_schedule_count_is_a_usage_error(tmp_path, kind):
    doc = yaml.safe_load((CONFIGS / "equivalence_drop.yaml").read_text())
    doc["schedule"] = kind
    cfg = tmp_path / f"{kind}.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    proc = run_cli("schedule", "--config", cfg, "--count", -1)
    assert proc.returncode == 2
    assert "count must be >= 0" in proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr


def test_dim_command_flags_the_drop(equiv_build, tmp_path):
    out, _ = equiv_build
    proc = run_cli(
        "dim",
        "--config", CONFIGS / "equivalence_drop.yaml",
        "--chain", out / "generic_equivalence.chain.json",
        "--out-dir", tmp_path,
        "--expect", "verdict=DivergesNeg",
    )
    assert proc.returncode == 0, proc.stderr
    assert "class_of_b vs ambient: DivergesNeg" in proc.stdout
    for name in (
        "class_of_b.csv",
        "ambient.csv",
        "class_of_b_vs_ambient.svg",
        "dim_report.json",
    ):
        assert (tmp_path / name).is_file()
    report = json.loads((tmp_path / "dim_report.json").read_text())
    assert report["comparisons"][0]["verdict"] == "DivergesNeg"


def test_dim_expect_failure_exits_one(equiv_build, tmp_path):
    out, _ = equiv_build
    proc = run_cli(
        "dim",
        "--config", CONFIGS / "equivalence_drop.yaml",
        "--chain", out / "generic_equivalence.chain.json",
        "--out-dir", tmp_path,
        "--expect", "verdict=Bounded",
    )
    assert proc.returncode == 1
    assert "expectation failed" in proc.stdout


def _dim_in_process(equiv_build, tmp_path, *args):
    out, _ = equiv_build
    return cli.main([
        "dim",
        "--config", str(CONFIGS / "equivalence_drop.yaml"),
        "--chain", str(out / "generic_equivalence.chain.json"),
        "--out-dir", str(tmp_path),
        *args,
    ])


@pytest.mark.parametrize(
    "fault, message",
    [(InternalFaultError("planted"), "internal invariant violation: planted"),
     (TypeError("planted"), "Traceback")],
    ids=["InternalFaultError", "TypeError"],
)
def test_a_bug_exits_three(equiv_build, tmp_path, monkeypatch, capsys, fault, message):
    """Exit 1 means an unmet --expect, so an exception that is neither bad
    input nor an InternalFaultError must not escape to Python's exit 1."""

    def broken(*args, **kwargs):
        raise fault

    monkeypatch.setattr(cli, "trend", broken)
    assert _dim_in_process(equiv_build, tmp_path, "--expect", "verdict=DivergesNeg") == 3
    err = capsys.readouterr().err
    assert message in err and "planted" in err


def test_an_unmet_expect_exits_one_in_process(equiv_build, tmp_path, capsys):
    assert _dim_in_process(equiv_build, tmp_path, "--expect", "verdict=Bounded") == 1
    assert "expectation failed" in capsys.readouterr().out


@pytest.mark.parametrize(
    "tokens",
    [("verdict=DivergesNeg", "verdict=Bounded"), ("verdict=Bounded",),
     ("any-verdict=DivergesNeg",)],
)
def test_dim_verdict_expect_fails_with_no_comparisons(equiv_build, tmp_path, tokens):
    """With nothing to judge, no verdict expectation is met, as no divide
    token is met without experiments."""
    out, _ = equiv_build
    doc = yaml.safe_load((CONFIGS / "equivalence_drop.yaml").read_text())
    doc["comparisons"] = []
    cfg = tmp_path / "none.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    expect = [arg for token in tokens for arg in ("--expect", token)]
    proc = run_cli(
        "dim",
        "--config", cfg,
        "--chain", out / "generic_equivalence.chain.json",
        "--out-dir", tmp_path / "out",
        *expect,
    )
    assert proc.returncode == 1
    assert f"expectation failed: {', '.join(tokens)}" in proc.stdout


EQUIV_DOC = yaml.safe_load((CONFIGS / "equivalence_drop.yaml").read_text())
NEGATED = {**EQUIV_DOC["dividing"][0], "name": "negated", "phi": "!E(x0, y0)"}
EXPECT_TABLE = {
    "dim": (
        tuple(f"{kind}={v}" for kind in ("verdict", "any-verdict") for v in VERDICTS),
        {
            "no-comparisons": ({"comparisons": []}, set()),
            "diverges": ({}, {"verdict=DivergesNeg", "any-verdict=DivergesNeg"}),
            "diverges-and-bounded": (
                {"comparisons": [["class_of_b", "ambient"], ["ambient", "ambient"]]},
                {"any-verdict=DivergesNeg", "any-verdict=Bounded"},
            ),
        },
    ),
    "divide": (
        ("certified", "not-certified", "drop"),
        {
            "no-experiments": ({"dividing": []}, set()),
            "certified-drop": ({}, {"certified", "drop"}),
            "one-uncertified": (
                {"dividing": EQUIV_DOC["dividing"] + [NEGATED]}, {"not-certified"},
            ),
        },
    ),
}


@pytest.mark.parametrize(
    "command, case",
    [(command, case) for command, (_, cases) in EXPECT_TABLE.items() for case in cases],
)
def test_expect_truth_table(equiv_build, tmp_path, command, case):
    """Each --expect token alone exits 0 exactly when it holds: verdict=V
    when every comparison reads V, any-verdict=V when some does; certified
    and drop when every experiment has them, not-certified when some
    experiment is not certified; and no token with nothing to judge."""
    out, _ = equiv_build
    tokens, cases = EXPECT_TABLE[command]
    edits, holding = cases[case]
    cfg = tmp_path / "case.yaml"
    cfg.write_text(yaml.safe_dump({**EQUIV_DOC, **edits}))
    codes = {
        token: cli.main([
            command, "--config", str(cfg),
            "--chain", str(out / "generic_equivalence.chain.json"),
            "--out-dir", str(tmp_path / "out"), "--expect", token,
        ])
        for token in tokens
    }
    assert codes == {token: 0 if token in holding else 1 for token in tokens}


def test_divide_command_certifies_and_surveys(equiv_build, tmp_path):
    out, _ = equiv_build
    proc = run_cli(
        "divide",
        "--config", CONFIGS / "equivalence_drop.yaml",
        "--chain", out / "generic_equivalence.chain.json",
        "--out-dir", tmp_path,
        "--expect", "certified",
        "--expect", "drop",
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "divide_report.json").read_text())
    exp = report["experiments"][0]
    assert exp["certified"] is True
    assert exp["certificate"] == {"instances": [[0], [4], [5]], "grown": 0}
    assert exp["candidates"] == 92
    assert exp["n_diverges_neg"] == 36
    assert exp["best"]["instance"] == [4]
    assert (tmp_path / "class_drop.psi.csv").is_file()
    assert (tmp_path / "class_drop.phi.csv").is_file()


def test_quantified_sets_and_a_late_psi(tmp_path):
    """dim and divide on sets of both readings: the quantified sets' CSV
    counts are those of a search of every stage, and the late psi's base
    check starts where psi exists."""
    cfg = ROOT / "tests" / "data" / "quantified_sets.yaml"
    assert run_cli("build", "--config", cfg, "--out-dir", tmp_path).returncode == 0
    chain_file = tmp_path / "generic_equivalence.chain.json"
    for command in ("dim", "divide"):
        proc = run_cli(command, "--config", cfg, "--chain", chain_file, "--out-dir", tmp_path)
        assert proc.returncode == 0, proc.stderr
    chain = load_chain(chain_file.read_text())
    for name in ("lonely", "has_partner"):
        dset = build_set(load_config(cfg).sets[name], chain.final)
        rows = read_trend_csv((tmp_path / f"{name}.csv").read_text())
        assert [(s, c) for s, c, _ in rows] == [
            (s, len(solutions(M, dset))) for s, M in enumerate(chain.stages)
        ]


def test_divide_control_refuses_certificate(iset_build, tmp_path):
    out, _ = iset_build
    args = (
        "divide",
        "--config", CONFIGS / "infinite_set_control.yaml",
        "--chain", out / "infinite_set.chain.json",
        "--out-dir", tmp_path,
    )
    ok = run_cli(*args, "--expect", "not-certified")
    assert ok.returncode == 0, ok.stderr
    bad = run_cli(*args, "--expect", "drop")
    assert bad.returncode == 1


def test_export_writes_final_and_stage_table(equiv_build, tmp_path):
    out, _ = equiv_build
    proc = run_cli(
        "export",
        "--chain", out / "generic_equivalence.chain.json",
        "--out-dir", tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "generic_equivalence.final.json").is_file()
    table = (tmp_path / "generic_equivalence.stages.csv").read_text().splitlines()
    assert table[0] == "stage,size,levels"
    assert len(table) == 32  # header plus stages 0..30
    assert table[-1].startswith("30,92,")


@pytest.mark.parametrize("name", ["generic_equivalence", "random_graph"])
def test_export_stage_table_matches_the_replay(chains12, tmp_path, name):
    """export reads each stage as a prefix of the final universe; the
    table is the one the replayed stages give."""
    from levelsat import cli

    chain = chains12[name]
    cli.cmd_export(chain, name, tmp_path)
    want = ["stage,size,levels"] + [
        f"{n},{M.size()},{cli._level_histogram(M, M.universe)}"
        for n, M in enumerate(chain.stages)
    ]
    assert (tmp_path / f"{name}.stages.csv").read_text() == "\n".join(want) + "\n"


def test_unknown_plugin_lists_available(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("plugin: zfc\nstages: 2\n")
    proc = run_cli("schedule", "--config", cfg)
    assert proc.returncode == 2
    for name in (
        "generic_equivalence",
        "henson_triangle_free",
        "infinite_set",
        "random_graph",
    ):
        assert name in proc.stderr


def test_malformed_formula_is_a_usage_error(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(
        "plugin: infinite_set\nstages: 2\nsets:\n  broken:\n    formula: 'x0 ='\n"
    )
    proc = run_cli("schedule", "--config", cfg)
    assert proc.returncode == 2
    assert "bad formula" in proc.stderr


@pytest.mark.parametrize(
    "path", sorted(CONFIGS.glob("*.yaml")) + sorted((ROOT / "tests" / "data").glob("*.yaml")),
    ids=lambda path: path.name,
)
def test_config_parser_reads_what_pure_python_yaml_reads(path):
    text = path.read_text()
    assert yaml.load(text, Loader=cli._YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)


def test_bad_yaml_syntax_is_a_usage_error(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("plugin: [unclosed\n")
    proc = run_cli("schedule", "--config", cfg)
    assert proc.returncode == 2
    assert "bad YAML" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_missing_chain_file(tmp_path):
    proc = run_cli(
        "dim",
        "--config", CONFIGS / "equivalence_drop.yaml",
        "--chain", tmp_path / "nope.chain.json",
        "--out-dir", tmp_path,
    )
    assert proc.returncode == 2
    assert "cannot read chain" in proc.stderr


def _old_format(doc):
    doc["stages"] = [doc.pop("final")]
    return doc


S0 = ("schedule", 0)  # schedule entry 0: E(x0, x0) at fin0, stage 1's one entry
R0 = ("records", 1, 1, 0)  # stage 2's case-2 record [[0], [1]], new element 1
# stage 4's case-2 record [[0], [2]] of a fin1 entry, new element 2 at fin2;
# id 1, made at stage 2, is below the watermark but at omega+2
R3 = ("records", 3, 1, 0)
# stage 12's first case-2 record of an omega+0 entry whose previous turn saw
# the three ids 0, 4 and 5
R11 = ("records", 11, 8, 0)
A, W = 0, 1  # a record is the pair [a, witness]
CASE3 = [[0], None]
MAX_ID = 91  # the largest id of the 30-stage equivalence chain


def _set_at(path, key, value):
    def edit(doc):
        target = doc
        for step in path:
            target = target[step]
        target[key] = value
        return doc
    return edit


def _set_record(path, value):
    return _set_at(path[:-1], path[-1], value)


def _set_stage(i, value):
    def edit(doc):
        doc["records"][i] = value
        return doc
    return edit


def _format_3(doc):
    """The chain as format 3 wrote it: each record an object that also holds
    its case and the new ids, the witness ids past every id made before."""
    made = 0  # M0 is element 0
    for stage in doc["records"]:
        for recs in stage:
            for j, (a, witness) in enumerate(recs):
                new = [e for e in witness or [] if e > made]
                made = max([made, *new])
                case = 3 if witness is None else 2
                recs[j] = {"a": a, "case": case, "witness": witness, "new_ids": new}
    return {**doc, "format": 3}


def _append(count, embedded=0, start=MAX_ID + 1):
    """count elements from id start (past the largest id unless given), at
    omega+5 with their E loops, and the file's count of embedded ids."""
    def edit(doc):
        for e in range(start, start + count):
            doc["final"]["elements"].append([e, "omega+5"])
            doc["final"]["facts"]["E"].append([e, e])
        doc["embedded"] = embedded
        return doc
    return edit


def _swap_records(doc):
    """Swap the parameter tuples of R11 and the record after it, so that the
    new ids still follow each other."""
    recs = doc["records"][11][8]
    recs[0][A], recs[1][A] = recs[1][A], recs[0][A]
    return doc


def _drop_m0_loop(doc):
    doc["final"]["facts"]["E"].remove([0, 0])
    return doc


def _extra_relation(doc):
    doc["final"]["signature"].append(["S", 1])
    doc["final"]["facts"]["S"] = [[0]]
    return doc


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda doc: [1, 2],
        lambda doc: "chain",
        _old_format,
        lambda doc: {**_old_format(doc), "stages": []},
        lambda doc: {k: v for k, v in doc.items() if k != "embedded"},
        lambda doc: {**doc, "born": [0] * (MAX_ID + 1)},
        lambda doc: {**doc, "embedded": 1},
        _append(2, 1),
        _append(1, 1, start=500),
        lambda doc: {**doc, "embedded": [0]},
        lambda doc: {**doc, "embedded": -1},
        lambda doc: {**doc, "embedded": "0"},
        lambda doc: {**doc, "embedded": 0.0},
        lambda doc: {**doc, "embedded": False},
        lambda doc: {**doc, "embedded": None},
        lambda doc: {k: v for k, v in doc.items() if k != "format"},
        lambda doc: {**doc, "format": 1},
        lambda doc: {**doc, "format": 2},
        _format_3,
        lambda doc: {**doc, "format": 4},
        _set_stage(0, [[CASE3, CASE3]]),
        _set_at(R3, W, [MAX_ID + 1]),
        _set_at(S0, "position", "0"),
        _set_at(S0, "position", True),
        _set_at(S0, "level", 5),
        _set_at(S0, "formula", ["E(x0, x0)"]),
        _set_at(S0, "x_vars", "x0"),
        _set_at(S0, "y_vars", [0]),
        lambda doc: {**doc, "schedule": doc["schedule"][:29]},
        lambda doc: {**doc, "records": {}},
        _set_stage(0, []),
        _set_stage(0, [[], []]),
        _set_stage(0, {"0": []}),
        _set_stage(0, ["records"]),
        _set_record(R0, [[0], 7]),
        _set_record(R0, [[0]]),
        _set_record(R0, [[0], None, [1]]),
        _set_record(R0, {"a": [0], "case": 2, "witness": [1], "new_ids": [1]}),
        _set_at(R0, A, None),
        _set_at(R0, A, [999]),
        _set_at(R0, W, [999]),
        _set_at(R0, W, [2]),
        _set_at(R0, W, [1, 0]),
        _set_at(R0, W, []),
        _set_record(R0, CASE3),
        _append(1),
        _set_at(R0, A, [MAX_ID]),
        _set_at(R3, A, [1]),
        _set_at(R0, A, [0, 0]),
        _set_at(R11, A, [0]),
        _swap_records,
        _set_at(("final", "elements", 2), 1, "fin3"),
        _drop_m0_loop,
        lambda doc: {**doc, "plugin": "zfc"},
        lambda doc: {**doc, "plugin": "random_graph"},
        _extra_relation,
    ],
    ids=[
        "list", "string", "old-format", "old-format-no-stages", "key-missing",
        "key-extra", "embedded-too-large", "embedded-too-small", "embedded-id-skips",
        "embedded-list",
        "embedded-negative", "embedded-text", "embedded-float", "embedded-bool",
        "embedded-null", "format-absent", "format-1", "format-2", "format-3",
        "format-4", "internal-negative",
        "new-id-dangling", "position-text", "position-bool", "level-number",
        "formula-list", "x-vars-text", "y-vars-numbers", "schedule-short",
        "records-not-list", "stage-missing-list", "stage-extra-list",
        "stage-not-list", "entry-not-list", "witness-number", "record-one-item",
        "record-three-items", "record-object", "a-null", "a-dangling",
        "witness-dangling", "new-ids-skip", "witness-too-long", "witness-too-short",
        "case3-orphans-its-element",
        "orphan-at-the-end", "a-outside-v-before", "a-above-entry-level",
        "a-wrong-length", "a-in-covered-prefix", "records-out-of-order",
        "new-ids-frozen-level", "m0-loop-missing", "plugin-unknown",
        "plugin-other-signature", "signature-extra-relation",
    ],
)
def test_malformed_chain_file_is_a_usage_error(equiv_build, tmp_path, corrupt):
    out, _ = equiv_build
    doc = json.loads((out / "generic_equivalence.chain.json").read_text())
    bad = tmp_path / "bad.chain.json"
    bad.write_text(json.dumps(corrupt(doc)))
    proc = run_cli("export", "--chain", bad, "--out-dir", tmp_path)
    assert proc.returncode == 2
    assert "bad chain file: " in proc.stderr
    assert "Traceback" not in proc.stderr


def _set_in_final(key, path, value):
    def edit(doc):
        target = doc["final"][key]
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        return doc
    return edit


@pytest.mark.parametrize(
    "corrupt",
    [
        _set_in_final("elements", (0, 0), 0.7),
        _set_in_final("elements", (1, 0), "1"),
        _set_in_final("elements", (2, 0), 2.0),
        _set_in_final("elements", (0, 0), False),
        _set_in_final("facts", ("E", 0, 0), 0.2),
        _set_in_final("facts", ("E", 0, 1), 1.0),
        _set_in_final("signature", (0, 1), 2.5),
    ],
    ids=[
        "element-float", "element-text", "element-integral-float", "element-bool",
        "fact-float", "fact-integral-float", "arity-float",
    ],
)
def test_chain_file_ids_must_be_ints(equiv_build, tmp_path, corrupt):
    out, _ = equiv_build
    doc = json.loads((out / "generic_equivalence.chain.json").read_text())
    bad = tmp_path / "bad.chain.json"
    bad.write_text(json.dumps(corrupt(doc)))
    proc = run_cli(
        "dim",
        "--config", CONFIGS / "equivalence_drop.yaml",
        "--chain", bad,
        "--out-dir", tmp_path,
    )
    assert proc.returncode == 2
    assert "bad chain file: " in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "corrupt",
    [_set_in_final("elements", (0, 1), [0]), lambda doc: {**doc, "final": {**doc["final"], "facts": []}}],
    ids=["level-list", "facts-list"],
)
def test_chain_file_levels_and_facts_must_have_their_shape(equiv_build, tmp_path, corrupt):
    out, _ = equiv_build
    doc = json.loads((out / "generic_equivalence.chain.json").read_text())
    bad = tmp_path / "bad.chain.json"
    bad.write_text(json.dumps(corrupt(doc)))
    proc = run_cli("export", "--chain", bad, "--out-dir", tmp_path)
    assert proc.returncode == 2
    assert "bad chain file: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_chain_plugin_mismatch(equiv_build, tmp_path):
    out, _ = equiv_build
    proc = run_cli(
        "dim",
        "--config", CONFIGS / "random_graph_control.yaml",
        "--chain", out / "generic_equivalence.chain.json",
        "--out-dir", tmp_path,
    )
    assert proc.returncode == 2
    assert "was built for" in proc.stderr


@pytest.mark.parametrize(
    "key, value",
    [
        ("comparator", [1, 2]),
        ("sets", ["a", "b"]),
        ("comparisons", 5),
        ("comparisons", {"class_of_b": "ambient"}),
        ("dividing", 5),
        ("dividing", {"name": "class_drop"}),
        ("a", 5),
        ("b", "first_at_level fin1"),
    ],
)
def test_malformed_config_shape_is_a_usage_error(tmp_path, key, value):
    doc = yaml.safe_load((CONFIGS / "equivalence_drop.yaml").read_text())
    if key in ("a", "b"):
        doc["dividing"][0][key] = value
    else:
        doc[key] = value
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    proc = run_cli("schedule", "--config", cfg, "--count", 1)
    assert proc.returncode == 2
    assert f"{key} must be a" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["dim", "divide"])
def test_bool_element_binding_is_a_usage_error(equiv_build, tmp_path, command):
    """true is no element id, although Python counts it as the int 1."""
    out, _ = equiv_build
    doc = yaml.safe_load((CONFIGS / "equivalence_drop.yaml").read_text())
    if command == "dim":
        doc["sets"]["class_of_b"]["params"]["y0"] = True
    else:
        doc["dividing"][0]["b"] = [True]
    cfg = tmp_path / "bool.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    proc = run_cli(
        command,
        "--config", cfg,
        "--chain", out / "generic_equivalence.chain.json",
        "--out-dir", tmp_path,
    )
    assert proc.returncode == 2
    assert "bad element binding True" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unknown_expect_token(equiv_build, tmp_path):
    out, _ = equiv_build
    proc = run_cli(
        "dim",
        "--config", CONFIGS / "equivalence_drop.yaml",
        "--chain", out / "generic_equivalence.chain.json",
        "--out-dir", tmp_path,
        "--expect", "bogus",
    )
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "where, key, value",
    [
        (None, "stages", True),
        (None, "stages", -1),
        (None, "horizon", True),
        ("dividing", "k", True),
        ("dividing", "L", True),
        ("comparator", "window", True),
        ("comparator", "window", 1),
        ("comparator", "bound", True),
        ("comparator", "bound", float("nan")),
        ("comparator", "bound", float("inf")),
        ("comparator", "bound", 0),
        ("comparator", "bound", -1),
    ],
)
def test_config_numbers_must_be_plain(tmp_path, where, key, value):
    """A bool is no count, stages is nonnegative, the window is at least 2
    and the bound is a finite positive number. The error names the key and
    comes before any output."""
    doc = yaml.safe_load((CONFIGS / "equivalence_drop.yaml").read_text())
    if where == "dividing":
        doc["dividing"][0][key] = value
    elif where == "comparator":
        doc.setdefault("comparator", {})[key] = value
    else:
        doc[key] = value
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    proc = run_cli("build", "--config", cfg, "--out-dir", tmp_path / "out")
    assert proc.returncode == 2
    assert key in proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [("build", "--stages", 5), ("dim", "--window", 5), ("dim", "--bound", 1),
     ("divide", "--window", 5), ("divide", "--bound", 1)],
)
def test_settings_come_only_from_the_config(equiv_build, tmp_path, command, flag, value):
    """The stage count, window and bound have no command-line flag: one
    given is a usage error, before any output is written."""
    out, _ = equiv_build
    chain = () if command == "build" else ("--chain", out / "generic_equivalence.chain.json")
    proc = run_cli(
        command,
        "--config", CONFIGS / "equivalence_drop.yaml",
        *chain,
        "--out-dir", tmp_path / "out",
        flag, value,
    )
    assert proc.returncode == 2
    assert f"unrecognized arguments: {flag}" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_each_command_takes_only_its_options(capsys):
    """Each command's --help lists its options and no more."""
    expected = {
        "build": ["--config", "--out-dir"],
        "schedule": ["--config", "--count"],
        "dim": ["--config", "--chain", "--out-dir", "--expect"],
        "divide": ["--config", "--chain", "--out-dir", "--seed", "--expect"],
        "export": ["--chain", "--out-dir"],
    }
    for command, options in expected.items():
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        listed = re.findall(r"^  (?:-h, )?(--[a-z-]+)", capsys.readouterr().out, re.M)
        assert listed == ["--help", *options]


def _rename_set(name):
    def edit(doc):
        doc["sets"][name] = doc["sets"].pop("class_of_b")
        doc["comparisons"] = [[name, "ambient"]]
    return edit


def _set_plugin(value):
    def edit(doc):
        doc["plugin"] = value
    return edit


def _set_comparison(row):
    def edit(doc):
        doc["comparisons"] = [row]
    return edit


def _set_psi(value):
    def edit(doc):
        doc["dividing"][0]["psi"] = value
    return edit


def _name_experiments(*names):
    def edit(doc):
        doc["dividing"] = [{**doc["dividing"][0], "name": name} for name in names]
    return edit


def _rename_key(where, old, new):
    def edit(doc):
        target = doc
        for step in where:
            target = target[step]
        target[new] = target.pop(old)
    return edit


def _second_comparison(y0):
    """A second comparison, after the good one, whose set binds y0 to y0."""
    def edit(doc):
        doc["sets"]["late"] = {"formula": "E(x0, y0)", "params": {"y0": y0}}
        doc["comparisons"].append(["late", "ambient"])
    return edit


def _second_experiment(b):
    """A second experiment, after the good one, with the base instance b."""
    def edit(doc):
        doc["dividing"].append({**doc["dividing"][0], "name": "late", "b": b})
    return edit


PARAMS_ERROR = "set 'ambient': params must be a mapping"
NAME_ERROR = "must be a plain file name"
CSV_ERROR = "would share class_drop."


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("dim", _set_at(("sets", "class_of_b"), "split", ["x0"]), "set 'class_of_b': unknown key 'split'"),
        ("dim", _set_at(("sets", "ambient"), "params", []), PARAMS_ERROR),
        ("dim", _set_at(("sets", "ambient"), "params", 0), PARAMS_ERROR),
        ("dim", _set_at(("sets", "ambient"), "params", ""), PARAMS_ERROR),
        ("divide", _set_at(("sets", "ambient"), "params", False), PARAMS_ERROR),
        ("dim", _rename_set("../../outside"), NAME_ERROR),
        ("dim", _rename_set(".."), NAME_ERROR),
        ("dim", _rename_set(""), NAME_ERROR),
        ("dim", _rename_set("a\0b"), NAME_ERROR),
        ("dim", _rename_set(5), NAME_ERROR),
        ("divide", _name_experiments("../escaped"), NAME_ERROR),
        ("divide", _name_experiments("."), NAME_ERROR),
        ("divide", _name_experiments(7), NAME_ERROR),
        ("divide", _name_experiments("class_drop", "class_drop"), "two dividing experiments"),
        ("dim", _rename_set("class_drop.psi"), CSV_ERROR),
        ("divide", _rename_set("class_drop.phi"), CSV_ERROR),
        ("dim", _set_plugin(["random_graph"]), "unknown plugin ['random_graph']"),
        ("dim", _set_comparison(["class_of_b", ["ambient"]]), "unknown set ['ambient']"),
        ("divide", _set_psi(["ambient"]), "unknown psi set ['ambient']"),
        ("dim", _rename_key(("sets", "ambient"), "cap", "caps"), "set 'ambient': unknown key 'caps'"),
        ("dim", _set_at((), "comparater", {"window": 3}), "config: unknown key 'comparater'"),
        ("divide", _set_at(("dividing", 0), "kk", 5), "dividing 'class_drop': unknown key 'kk'"),
        ("dim", _second_comparison(9999), "element id 9999 not in the structure"),
        ("divide", _second_experiment(["first_at_level fin1"] * 2), "phi has 1 instance slots, got 2 ids"),
    ],
    ids=[
        "split-key-unknown", "params-list", "params-zero", "params-empty-text",
        "params-false", "set-name-escapes", "set-name-dotdot", "set-name-empty",
        "set-name-nul", "set-name-number", "experiment-name-escapes",
        "experiment-name-dot", "experiment-name-number", "experiment-names-repeated",
        "set-name-psi-csv", "set-name-phi-csv", "plugin-list", "comparison-side-list",
        "psi-list", "set-key-unknown", "config-key-unknown", "experiment-key-unknown",
        "second-comparison-bad-id", "second-experiment-b-too-long",
    ],
)
def test_bad_set_or_experiment_exits_before_any_output(
    equiv_build, tmp_path, command, edit, message
):
    """Set and experiment names become output file names, so they must be
    plain, unique ones, and no set's CSV may be an experiment's. A set's
    params must be a mapping, and a falsy value is not one. A plugin,
    comparison side or psi that is not text names nothing. A key the config
    grammar does not have is refused, not dropped. A comparison or
    experiment that fails after a good one leaves no output of the good one
    behind."""
    out, _ = equiv_build
    doc = yaml.safe_load((CONFIGS / "equivalence_drop.yaml").read_text())
    edit(doc)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(doc, sort_keys=False))
    proc = run_cli(
        command,
        "--config", cfg,
        "--chain", out / "generic_equivalence.chain.json",
        "--out-dir", tmp_path / "deep" / "a" / "b" / "o",
    )
    assert proc.returncode == 2
    assert message in proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [cfg]


def test_set_variables_are_the_x_variables_params_leave_unbound(tmp_path):
    """A set's solution variables are its x* variables in role order, less
    those bound under params: an x* variable under params is a parameter."""
    doc = yaml.safe_load((CONFIGS / "equivalence_drop.yaml").read_text())
    doc["sets"]["pair"] = {"formula": "E(x10, y0) & E(x2, x1)", "params": {"x1": 3, "y0": 4}}
    cfg = tmp_path / "pair.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    sets = load_config(cfg).sets
    assert sets["pair"].vars == ("x2", "x10")
    assert sets["pair"].params == (("x1", 3), ("y0", 4))
    assert sets["ambient"].vars == sets["class_of_b"].vars == ("x0",)


@pytest.mark.parametrize(
    "command, token",
    [("dim", "certified"), ("dim", "drop"), ("dim", "verdict=Typo"),
     ("dim", "bogus"), ("divide", "verdict=Bounded"),
     ("divide", "any-verdict=DivergesNeg"), ("divide", "bogus")],
)
def test_foreign_expect_token_exits_before_work(tmp_path, command, token):
    """A token the command never produces is a usage error, found before
    the chain is read: the chain named here does not exist."""
    proc = run_cli(
        command,
        "--config", CONFIGS / "equivalence_drop.yaml",
        "--chain", tmp_path / "nope.chain.json",
        "--out-dir", tmp_path / "out",
        "--expect", token,
    )
    assert proc.returncode == 2
    assert "unknown --expect token" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_two_runs_are_bit_identical(tmp_path):
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        build = run_cli(
            "build", "--config", CONFIGS / "infinite_set_control.yaml", "--out-dir", d
        )
        assert build.returncode == 0, build.stderr
        dim = run_cli(
            "dim",
            "--config", CONFIGS / "infinite_set_control.yaml",
            "--chain", d / "infinite_set.chain.json",
            "--out-dir", d,
        )
        assert dim.returncode == 0, dim.stderr
        outs.append(d)
    for name in (
        "infinite_set.chain.json",
        "infinite_set.audit.txt",
        "dim_report.json",
        "avoid_b.csv",
        "ambient.csv",
        "avoid_b_vs_ambient.svg",
    ):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
