import contextlib
import hashlib
import io
import json
import pathlib
import random
import resource
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import esakiakit.cli as cli
from esakiakit import (Coloring, InvalidId, Poset, PropertyFalsified,
                       abomination_truncation, color_bits, ladder_truncation)
from esakiakit.coloring import COLOR_ORDER_LIMIT
from esakiakit.poset import JSON_SIZE_LIMIT
from esakiakit.probes import EXHAUSTIVE_CENSUS_LIMIT
from esakiakit.randgen import random_poset, random_weak_coloring


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture()
def chain2(tmp_path):
    return write_json(tmp_path / "chain2.json",
                      {"n": 2, "covers": [[0, 1]]})


@pytest.fixture()
def pair(tmp_path):
    return write_json(tmp_path / "pair.json", {"n": 2, "covers": []})


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_errors(capsys):
    assert cli.main([]) == 2
    assert cli.main(["bogus"]) == 2
    assert cli.main(["gen-ladder"]) == 2
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_the_parser_is_built_once_and_reused_cleanly(capsys, tmp_path):
    assert cli._parser() is cli._parser()
    poset = write_json(tmp_path / "p.json",
                       {"n": 3, "covers": [[0, 1], [0, 2]]})
    coloring = write_json(tmp_path / "f.json", {"n": 1, "colors": ["0", "1", "1"]})
    argv = ["reduce", "--poset", poset, "--coloring", coloring]
    fresh = subprocess.run([sys.executable, "-m", "esakiakit.cli", *argv],
                           capture_output=True, timeout=60)
    assert fresh.returncode == 0 and fresh.stdout
    assert cli.main(argv[:3]) == 2      # --coloring missing
    capsys.readouterr()
    code, out, err = run(capsys, *argv)
    assert (code, out.encode(), err.encode()) == (0, fresh.stdout, fresh.stderr)


def test_domain_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "gen-ladder", "--n", "0", "--depth", "-1")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "convert", "--poset",
                       str(tmp_path / "missing.json"), "--format", "json")
    assert code == 2
    empty = write_json(tmp_path / "empty.json", {})
    code, _, _ = run(capsys, "convert", "--poset", empty, "--format", "json")
    assert code == 2
    bad = write_json(tmp_path / "bad.json", {"n": 1, "covers": 5})
    code, _, err = run(capsys, "convert", "--poset", bad, "--format", "json")
    assert code == 2 and err.startswith("error:")


def test_deeply_nested_json_files_exit_2(capsys, tmp_path, chain2):
    """json.load gives up on deep nesting with RecursionError; a poset or
    coloring file nested that deep is bad input, not a falsified claim."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    for argv in (("convert", "--poset", str(deep), "--format", "json"),
                 ("check-coloring", "--poset", chain2, "--coloring", str(deep))):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and "nests JSON too deeply" in err


def test_list_shaped_poset_and_coloring_files(capsys, tmp_path):
    poset = write_json(tmp_path / "p.json",
                       {"n": 2, "covers": [[0, 1]], "labels": ["lo", "hi"]})
    coloring = write_json(tmp_path / "c.json", {"n": 1, "colors": ["0", "1"]})
    code, out, _ = run(capsys, "check-coloring", "--poset", poset,
                       "--coloring", coloring)
    assert code == 0
    assert json.loads(out)["weak"] is True
    code, out, _ = run(capsys, "convert", "--poset", poset, "--format", "json")
    assert code == 0
    assert json.loads(out)["labels"] == {"0": "lo", "1": "hi"}


def test_gen_ladder_json(capsys):
    code, out, _ = run(capsys, "gen-ladder", "--n", "0", "--depth", "1")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4
    assert data["covers"] == [[2, 1], [3, 0]]
    assert data["labels"]["2"] == "y1_0"


def test_gen_abomination_json(capsys):
    code, out, _ = run(capsys, "gen-abomination", "--n", "2", "--depth", "0")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 34
    assert data["labels"]["2"] == "c0_0"


def test_dot_output(capsys):
    code, out, _ = run(capsys, "gen-ladder", "--n", "0", "--depth", "1",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("digraph poset {\n  rankdir=BT;")
    assert 'n0 [label="y0_0"];' in out
    assert "n2 -> n1;" in out


def test_csv_output(capsys):
    code, out, _ = run(capsys, "gen-ladder", "--n", "0", "--depth", "1",
                       "--format", "csv")
    assert code == 0
    assert out == "lower,upper\n2,1\n3,0\n"


def test_check_coloring_reports_monochrome_pair(capsys, tmp_path, pair):
    coloring = write_json(tmp_path / "f.json",
                          {"n": 1, "colors": {"0": "0", "1": "0"}})
    code, out, _ = run(capsys, "check-coloring", "--poset", pair,
                       "--coloring", coloring)
    assert code == 0
    assert out.strip() == ('{"monochrome_pair":["beta",0,1],'
                           '"order":1,"strict":false,"weak":true}')


def test_check_coloring_strict(capsys, tmp_path, pair):
    coloring = write_json(tmp_path / "f.json",
                          {"n": 1, "colors": {"0": "0", "1": "1"}})
    code, out, _ = run(capsys, "check-coloring", "--poset", pair,
                       "--coloring", coloring)
    assert code == 0
    assert json.loads(out) == {"monochrome_pair": None, "order": 1,
                               "strict": True, "weak": True}


def test_check_coloring_rejects_non_weak(capsys, tmp_path, chain2):
    coloring = write_json(tmp_path / "f.json",
                          {"n": 1, "colors": {"0": "1", "1": "0"}})
    code, _, err = run(capsys, "check-coloring", "--poset", chain2,
                       "--coloring", coloring)
    assert code == 2
    assert "order preserving" in err


def test_reduce(capsys, tmp_path):
    poset = write_json(tmp_path / "p.json",
                       {"n": 4, "covers": [[0, 1], [1, 2], [1, 3]]})
    coloring = write_json(tmp_path / "f.json",
                          {"n": 0, "colors": {str(i): "" for i in range(4)}})
    code, out, _ = run(capsys, "reduce", "--poset", poset,
                       "--coloring", coloring)
    assert code == 0
    assert json.loads(out) == {
        "partition": {"blocks": [[0, 1, 2, 3]]},
        "steps": [{"kind": "beta", "pair": [2, 3]},
                  {"kind": "alpha", "pair": [1, 2]},
                  {"kind": "alpha", "pair": [0, 2]}]}


def test_reduce_a_wide_twin_group(capsys, tmp_path):
    n = 1500
    poset = write_json(tmp_path / "p.json", {"n": n, "covers": []})
    coloring = write_json(tmp_path / "f.json",
                          {"n": 0, "colors": {str(i): "" for i in range(n)}})
    code, out, _ = run(capsys, "reduce", "--poset", poset,
                       "--coloring", coloring)
    assert code == 0
    data = json.loads(out)
    assert data["partition"] == {"blocks": [list(range(n))]}
    assert data["steps"] == [{"kind": "beta", "pair": [0, y]}
                             for y in range(1, n)]


def pinned_inputs():
    """Seeded weak colorings: of order 2 on the 68- and 102-element
    truncations, of every order up to n on the ladders with n <= 2, and of
    order 0 to 3 on random posets of up to 14 elements."""
    rng = random.Random(331)
    for depth in (1, 2):
        z = abomination_truncation(2, depth)
        for _ in range(4):
            yield z, random_weak_coloring(rng, z, 2)
    for n in range(3):
        for depth in range(4):
            v = ladder_truncation(n, depth)
            for order in range(n + 1):
                yield v, random_weak_coloring(rng, v, order)
    for _ in range(150):
        p = random_poset(rng, rng.randint(0, 14))
        yield p, random_weak_coloring(rng, p, rng.randint(0, 3))


# sha256 of the stdout of check-coloring, then reduce, on each of
# `pinned_inputs` in turn, recorded while the move finder was a method of
# the replay and the strictness check built a replay to call it.
PINNED_OUTPUT_SHA256 = (
    "a1f83a3de06a394172ef5f5c1f2150c96b5720aa6ba900b5a2a53f883b8e1b83")


def test_check_coloring_and_reduce_output_is_pinned(tmp_path):
    """The strictness check reads the move finder straight off the poset
    and the reduction greedy passes it the replay's state; both commands
    print the bytes they printed when the finder was the replay's own."""
    poset, coloring = tmp_path / "p.json", tmp_path / "f.json"
    digest = hashlib.sha256()
    strict = []
    for p, f in pinned_inputs():
        write_json(poset, p.to_json_dict())
        write_json(coloring, {"n": f.n,
                              "colors": [color_bits(c, f.n) for c in f.colors]})
        for command in ("check-coloring", "reduce"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([command, "--poset", str(poset),
                                 "--coloring", str(coloring)])
            assert code == 0, (command, p, f.colors)
            digest.update(out.getvalue().encode())
            if command == "check-coloring":
                strict.append(json.loads(out.getvalue())["strict"])
    assert strict.count(True) > 10 and strict.count(False) > 100
    assert digest.hexdigest() == PINNED_OUTPUT_SHA256


def test_census_json_and_csv(capsys, chain2):
    code, out, _ = run(capsys, "census", "--poset", chain2, "--n", "1")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 1
    assert data["distinct_partitions"] == 2
    assert data["record"] == {"mode": "exhaustive", "examined": 3,
                              "budget": None, "seed": None, "complete": True}
    assert data["entries"] == [{"blocks": [[0, 1]], "size": 1},
                               {"blocks": [[0], [1]], "size": 2}]
    code, out, _ = run(capsys, "census", "--poset", chain2, "--n", "1",
                       "--format", "csv")
    assert code == 0
    assert out == "entry,quotient_size,block_count\n0,1,1\n1,2,2\n"


def test_census_budget_exhaustion_exits_3(capsys, chain2):
    code, _, err = run(capsys, "census", "--poset", chain2, "--n", "1",
                       "--budget", "0")
    assert code == 3
    assert "budget exhausted" in err


def run_cli(*argv):
    done = subprocess.run([sys.executable, "-m", "esakiakit.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert "Traceback" not in done.stderr
    return done


def test_census_negative_order_exits_2(chain2):
    done = run_cli("census", "--poset", chain2, "--n", "-1")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error:")
    assert "negative shift count" not in done.stderr


HUGE_ORDER = 1 << 40
ADDRESS_SPACE_CAP = 3 << 29     # 1.5 GiB


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def run_capped(*argv):
    """`run_cli` in an interpreter capped at 1.5 GiB of address space, so
    a command that did build a 2^40-bit color would fail with MemoryError
    instead of taking the machine's memory, and within 30 s."""
    done = subprocess.run([sys.executable, "-m", "esakiakit.cli", *argv],
                          capture_output=True, text=True, timeout=30,
                          preexec_fn=cap_address_space)
    assert "Traceback" not in done.stderr
    return done


def test_a_color_order_past_the_limit_exits_2_at_once(tmp_path, chain2):
    """An order of 2^40 would ask for 2^40-bit colors, 128 GiB each: every
    command refuses it as bad input before building one."""
    empty = write_json(tmp_path / "empty.json", {"n": 0, "covers": []})
    coloring = write_json(tmp_path / "f.json", {"n": HUGE_ORDER, "colors": []})
    for argv in (("check-coloring", "--poset", empty, "--coloring", coloring),
                 ("reduce", "--poset", empty, "--coloring", coloring),
                 ("census", "--poset", chain2, "--n", str(HUGE_ORDER)),
                 ("census", "--poset", chain2,
                  "--n", str(COLOR_ORDER_LIMIT + 1))):
        done = run_capped(*argv)
        assert done.returncode == 2 and done.stdout == "", argv
        assert done.stderr.startswith("error: color order"), argv


def test_the_color_order_limit_is_admitted(tmp_path, chain2):
    empty = write_json(tmp_path / "empty.json", {"n": 0, "covers": []})
    coloring = write_json(tmp_path / "f.json",
                          {"n": COLOR_ORDER_LIMIT, "colors": []})
    done = run_cli("check-coloring", "--poset", empty, "--coloring", coloring)
    assert done.returncode == 0
    assert json.loads(done.stdout)["order"] == COLOR_ORDER_LIMIT
    done = run_cli("census", "--poset", chain2, "--n", str(COLOR_ORDER_LIMIT),
                   "--budget", "3")
    assert done.returncode == 0


def test_unbudgeted_exhaustive_census_stops_at_its_limit(tmp_path):
    # About 5^70 weak colorings of the 3-element V at order 70.
    v = write_json(tmp_path / "v.json", {"n": 3, "covers": [[0, 1], [0, 2]]})
    done = run_cli("census", "--poset", v, "--n", "70")
    assert done.returncode == 3 and done.stdout == ""
    limit = EXHAUSTIVE_CENSUS_LIMIT
    assert f"spent {limit}/{limit}" in done.stderr


def test_kc_probe_outputs(capsys):
    code, out, _ = run(capsys, "kc-probe", "--max-size", "3")
    assert code == 0
    assert json.loads(out) == {"entries": [[1, 2], [2, 3]],
                               "max_size": 3, "maximum": 3}
    code, out, _ = run(capsys, "kc-probe", "--max-size", "3",
                       "--format", "csv")
    assert out == "poset_size,algebra_size\n1,2\n2,3\n"


def test_convert_is_byte_stable(capsys, tmp_path):
    first = write_json(tmp_path / "in.json",
                       {"covers": [[0, 1]], "n": 2})
    code, out1, _ = run(capsys, "convert", "--poset", first,
                        "--format", "json")
    assert code == 0
    second = (tmp_path / "again.json")
    second.write_text(out1, encoding="utf-8")
    code, out2, _ = run(capsys, "convert", "--poset", str(second),
                        "--format", "json")
    assert out1 == out2
    code, out, _ = run(capsys, "convert", "--poset", first, "--format", "csv")
    assert out == "lower,upper\n0,1\n"


def test_verify_passes_through_suite_report(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite",
                        lambda seed: {"suite": "paper", "seed": seed,
                                      "pass": True, "criteria": []})
    code, out, _ = run(capsys, "verify", "--suite", "paper", "--seed", "7")
    assert code == 0
    assert out.strip() == ('{"criteria":[],"pass":true,'
                           '"seed":7,"suite":"paper"}')


def test_verify_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite",
                        lambda seed: {"suite": "paper", "seed": seed,
                                      "pass": False,
                                      "criteria": [{"id": 5, "pass": False}]})
    code, _, err = run(capsys, "verify", "--suite", "paper")
    assert code == 1
    assert "FALSIFIED: criteria [5] failed" in err


def test_falsification_exits_1(capsys, monkeypatch, chain2):
    def boom(*args, **kwargs):
        raise PropertyFalsified("boom")
    monkeypatch.setattr(cli, "quotient_census", boom)
    code, _, err = run(capsys, "census", "--poset", chain2, "--n", "1")
    assert code == 1
    assert err.startswith("FALSIFIED: boom")


@pytest.mark.parametrize("doc", [
    [],                                        # root is not an object
    [{"n": 2, "covers": []}],
    {"n": True, "covers": []},                 # bools are not ids
    {"n": "2", "covers": []},
    {"n": 2.0, "covers": []},
    {"n": 2, "covers": [[False, True]]},
    {"n": 2, "covers": [[0, 1.0]]},
    {"n": 2, "covers": [[0, 1], [True, 1]]},   # a bad pair after a good one
    {"n": 2, "covers": ["01"]},
    {"n": 3, "covers": [[0, 1, 2]]},           # covers are pairs
    {"n": 2, "covers": [[0]]},
    {"n": 2, "covers": [0, 1]},
    {"n": 2, "covers": {"0": 1}},
    {"n": JSON_SIZE_LIMIT + 1, "covers": []},  # rejected before allocating
    {"n": 10**8, "covers": []},
    {"n": 1, "covers": [], "labels": {"a": "x"}},   # keys are element ids
    {"n": 1, "covers": [], "labels": {"-0": "x"}},
    {"n": 1, "covers": [], "labels": {"0": 7}},     # labels are strings
    {"n": 1, "covers": [], "labels": [[1, 2]]},
    {"n": 2, "covers": [], "labels": [None, True]},
    {"n": 2, "covers": [], "labels": {"1": "a", "01": "b"}},  # 1 keyed twice
])
def test_malformed_poset_files_exit_2(capsys, tmp_path, doc):
    with pytest.raises(InvalidId):
        Poset.from_json_dict(doc)
    poset = write_json(tmp_path / "p.json", doc)
    coloring = write_json(tmp_path / "f.json",
                          {"n": 0, "colors": ["", ""]})
    for argv in (("convert", "--poset", poset, "--format", "json"),
                 ("reduce", "--poset", poset, "--coloring", coloring)):
        code, out, err = run(capsys, *argv)
        assert code == 2, (argv, doc)
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("gen-abomination", "--n", "12", "--depth", "0"),
    ("gen-abomination", "--n", "10", "--depth", "0"),   # 8194 elements, 12.6M covers
    ("gen-abomination", "--n", "2", "--depth", "1000000"),
    ("gen-abomination", "--n", str(10**9), "--depth", "0"),
    ("gen-ladder", "--n", "13", "--depth", "0"),
    ("gen-ladder", "--n", "11", "--depth", "1"),        # 8192 elements, 16.8M covers
    ("gen-ladder", "--n", "0", "--depth", str(JSON_SIZE_LIMIT // 2)),
])
def test_generators_refuse_unreadable_sizes(argv):
    """Output past the poset JSON limit could not be read back: exit 2
    before anything is built."""
    done = subprocess.run([sys.executable, "-m", "esakiakit.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, argv
    assert done.stdout == ""
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr


def test_generators_admit_the_poset_json_limit(capsys):
    # 2 elements per level at n = 0: exactly the limit, one level short of
    # the refused --depth JSON_SIZE_LIMIT // 2 above.
    code, out, _ = run(capsys, "gen-ladder", "--n", "0",
                       "--depth", str(JSON_SIZE_LIMIT // 2 - 1))
    assert code == 0 and json.loads(out)["n"] == JSON_SIZE_LIMIT


@pytest.mark.parametrize("doc", [
    [],                                        # root is not an object
    ["0", "1"],
    "01",
    {"n": True, "colors": ["0", "1"]},         # bools are not integers
    {"n": "1", "colors": ["0", "1"]},
    {"n": 1.0, "colors": ["0", "1"]},
    {"colors": ["0", "1"]},                    # n missing
    {"n": 1},                                  # colors missing
    {"n": 1, "colors": {"zero": "0", "1": "1"}},   # keys are element ids
    {"n": 1, "colors": {"0.0": "0", "1": "1"}},
    {"n": 1, "colors": {"-0": "0", "1": "1"}},
])
def test_malformed_coloring_files_exit_2(capsys, tmp_path, chain2, doc):
    coloring = write_json(tmp_path / "f.json", doc)
    with pytest.raises(InvalidId):
        Coloring.from_json_dict(Poset.from_covers(2, [(0, 1)]), doc)
    for cmd in ("check-coloring", "reduce"):
        code, out, err = run(capsys, cmd, "--poset", chain2,
                             "--coloring", coloring)
        assert code == 2, (cmd, doc)
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


# ----- seeded fuzz of the exit-code contract ----------------------------------

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 8),
                    st.sampled_from([2**31, -2**63, 10**30]), st.floats(),
                    st.text(max_size=3))
JUNK = st.recursive(
    SCALARS, lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3), max_leaves=8)


@st.composite
def cli_files(draw):
    """A poset file and a coloring file on at most 6 elements: JSON
    documents of the right shape, each field, member or whole document
    swapped for junk one time in eight, or, as often, raw bytes."""
    def one_in_eight():
        return draw(st.integers(0, 7)) == 3    # 0 and 7 are drawn more often

    def spoil(value):
        return draw(JUNK) if one_in_eight() else value

    n = draw(st.integers(0, 6))
    order = draw(st.integers(0, 3))
    ids = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(ids, ids).map(sorted), max_size=8))
    covers = [spoil(pair) for pair in pairs if pair[0] != pair[1]]
    poset = {"n": spoil(n), "covers": spoil(covers)}
    if draw(st.booleans()):
        poset["labels"] = spoil(draw(st.lists(
            st.text(max_size=2).map(spoil) | st.none(), min_size=n, max_size=n)))
    bits = st.text("01", min_size=order, max_size=order).map(spoil)
    colors = draw(st.lists(bits, min_size=n, max_size=n))
    if draw(st.booleans()):
        colors = {str(x): c for x, c in enumerate(colors)}
    coloring = {"n": spoil(order), "colors": spoil(colors)}
    out = []
    for doc in (poset, coloring):
        text = json.dumps(spoil(doc)).encode()
        out.append(draw(st.binary(max_size=40)) if one_in_eight() else text)
    return out


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(cli_files(), st.sampled_from([1, 2, 0, 3, 70, -1]))
def test_any_input_files_keep_the_exit_code_contract(files, order):
    """check-coloring, reduce, census and convert on fuzzed files exit 0,
    1, 2 or 3, and never raise."""
    with tempfile.TemporaryDirectory() as tmp:
        run_fuzzed(pathlib.Path(tmp), files, order)


def fuzzed_argvs(tmp, files, order):
    """Write the two fuzzed files under tmp; returns the argv lists of
    check-coloring, reduce, census and convert on them."""
    poset, coloring = tmp / "p.json", tmp / "f.json"
    poset.write_bytes(files[0])
    coloring.write_bytes(files[1])
    return [[str(a) for a in argv] for argv in (
        ["check-coloring", "--poset", poset, "--coloring", coloring],
        ["reduce", "--poset", poset, "--coloring", coloring],
        ["census", "--poset", poset, "--n", order, "--budget", 3],
        ["convert", "--poset", poset, "--format", "json"])]


def run_fuzzed(tmp, files, order):
    for argv in fuzzed_argvs(tmp, files, order):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2, 3), (argv[0], files, code)


# Runs each argv list of its JSON argument through `cli.main` and prints
# the exit codes as one JSON line; the commands' own stdout is dropped.
FUZZ_SCRIPT = """
import contextlib, io, json, sys
import esakiakit.cli as cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps(codes))
"""


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(cli_files(), st.sampled_from([1, 2, 0, 3, 70, -1]))
def test_fuzzed_files_exit_in_bounded_time(files, order):
    """The same four commands in a fresh interpreter with a 60 s timeout,
    so that a hang fails as well: the in-process fuzz cannot catch one."""
    with tempfile.TemporaryDirectory() as tmp:
        argvs = fuzzed_argvs(pathlib.Path(tmp), files, order)
        done = subprocess.run(
            [sys.executable, "-c", FUZZ_SCRIPT, json.dumps(argvs)],
            capture_output=True, text=True, timeout=60)
    assert "Traceback" not in done.stderr, (files, done.stderr)
    codes = json.loads(done.stdout)
    assert len(codes) == 4 and set(codes) <= {0, 1, 2, 3}, (files, codes)
