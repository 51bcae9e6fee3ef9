"""Command line behaviour: exit codes, formats, determinism, guards."""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcover import Hypergraph, ParseError, cli, optimize, parse, validate
from detcover import params as params_mod
from detcover import solver as solver_mod
from detcover.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strip_elapsed(text):
    return "\n".join(l for l in text.splitlines() if not l.startswith("elapsed_ms"))


def test_gen_writes_valid_instance(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, out, err = _run(capsys, "gen", "--k", "3", "--n", "9", "--edges", "9",
                          "--plant", "--kdm", "--seed", "5", "--out", str(path))
    assert code == 0 and err == ""
    H = parse(path.read_text())
    assert validate(H) is None
    assert H.n == 9 and H.partition is not None


def test_gen_deterministic(capsys):
    code1, out1, _ = _run(capsys, "gen", "--k", "3", "--n", "9", "--edges", "7", "--seed", "3")
    code2, out2, _ = _run(capsys, "gen", "--k", "3", "--n", "9", "--edges", "7", "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_rejects_infeasible(capsys):
    code, _, err = _run(capsys, "gen", "--k", "3", "--n", "10", "--edges", "5", "--plant")
    assert code == 2
    assert "error" in err


def test_solve_auto_picks_kdm_and_answers_yes(tmp_path, capsys):
    path = tmp_path / "inst.json"
    _run(capsys, "gen", "--k", "3", "--n", "9", "--edges", "9", "--plant",
         "--kdm", "--seed", "5", "--out", str(path))
    code, out, _ = _run(capsys, "solve", "--input", str(path), "--seed", "1")
    assert code == 0
    assert "mode: kdm" in out and "answer: yes" in out and "probes: 8" in out


def test_solve_reports_are_reproducible(tmp_path, capsys):
    path = tmp_path / "inst.json"
    _run(capsys, "gen", "--k", "3", "--n", "9", "--edges", "8", "--plant",
         "--seed", "2", "--out", str(path))
    runs = [_run(capsys, "solve", "--input", str(path), "--seed", "7",
                 "--mode", "xkc") for _ in range(2)]
    assert runs[0][0] == runs[1][0] == 0
    assert _strip_elapsed(runs[0][1]) == _strip_elapsed(runs[1][1])


def test_solve_subnormal_epsilon_is_an_error(tmp_path, monkeypatch, capsys):
    def no_sweep(*args):
        raise AssertionError("the budget check comes before any sweep")

    monkeypatch.setattr(solver_mod, "sieve_decide", no_sweep)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"k": 3, "n": 6, "edges": [[0, 1, 2], [3, 4, 5]]}))
    code, out, err = _run(capsys, "solve", "--input", str(path), "--seed", "1",
                          "--epsilon", "1e-310")
    assert code == 2 and out == "" and "epsilon" in err
    # the schedule's base^(-n) is subnormal at n = 1761 for k = 3
    assert 0 < optimize(3).base ** -1761 < sys.float_info.min
    path.write_text(json.dumps({"k": 3, "n": 1761, "edges": [[0, 1, 2]]}))
    code, out, err = _run(capsys, "solve", "--input", str(path), "--seed", "1",
                          "--epsilon-schedule", "--force")
    assert code == 2 and out == "" and "epsilon" in err


def test_solve_json_format(tmp_path, capsys):
    path = tmp_path / "inst.json"
    _run(capsys, "gen", "--k", "3", "--n", "6", "--edges", "6", "--plant",
         "--seed", "2", "--out", str(path))
    code, out, _ = _run(capsys, "solve", "--input", str(path), "--seed", "3",
                        "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["answer"] == "yes"
    assert report["mode"] == "xkc"
    assert report["seed"] == 3


def test_solve_epsilon_schedule_shrinks_with_n(tmp_path, capsys):
    reports = {}
    for n in (6, 9):
        path = tmp_path / f"inst{n}.json"
        _run(capsys, "gen", "--k", "3", "--n", str(n), "--edges", str(n),
             "--plant", "--seed", "2", "--out", str(path))
        code, out, _ = _run(capsys, "solve", "--input", str(path), "--seed", "3",
                            "--mode", "xkc", "--epsilon-schedule", "--format", "json")
        assert code == 0
        reports[n] = json.loads(out)
    base = optimize(3).base
    for n, report in reports.items():
        assert report["epsilon"] == pytest.approx(base ** -n)
    assert reports[9]["epsilon"] < reports[6]["epsilon"]
    assert reports[9]["max_attempts"] >= reports[6]["max_attempts"]


def test_solve_no_exit_code(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text('{"k":3,"n":6,"edges":[[0,1,2],[0,1,3],[0,2,3]]}')
    code, out, _ = _run(capsys, "solve", "--input", str(path), "--seed", "1")
    assert code == 1
    assert "answer: no" in out


def test_solve_indivisible_is_a_clean_no(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text('{"k":3,"n":4,"edges":[[0,1,2]]}')
    code, out, _ = _run(capsys, "solve", "--input", str(path), "--seed", "1")
    assert code == 1
    assert "reason" in out


def test_solve_missing_file(capsys):
    code, _, err = _run(capsys, "solve", "--input", "/nonexistent/x.json")
    assert code == 2 and "error" in err


def test_solve_malformed_instance(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"k":3,"n":6,"edges":[[0,1]]}')
    code, _, err = _run(capsys, "solve", "--input", str(path))
    assert code == 2 and "arity" in err


def test_solve_deeply_nested_document_is_an_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = _run(capsys, "solve", "--input", str(path))
    assert code == 2 and out == "" and "nests too deeply" in err


def test_solve_n_too_large_for_a_float_is_an_error(tmp_path, capsys):
    # u_size rounds t * n, which cannot convert a 401-digit n to a float
    path = tmp_path / "inst.json"
    path.write_text('{"k":3,"n":3' + "0" * 400 + ',"edges":[]}')
    code, out, err = _run(capsys, "solve", "--input", str(path))
    assert code == 2 and out == "" and err.startswith("error:")


def test_solve_k_too_large_for_a_float_is_an_error(tmp_path, capsys):
    # the exponent optimizer works in floats
    path = tmp_path / "inst.json"
    path.write_text('{"k":1' + "0" * 400 + ',"n":0,"edges":[]}')
    code, out, err = _run(capsys, "solve", "--input", str(path))
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("mode", ["kdm", "xkc"])
def test_solve_reports_epsilon_only_for_xkc(tmp_path, capsys, mode, fmt):
    # kdm sweeps once with one weight draw; epsilon sets only xkc's budget
    path = tmp_path / "inst.json"
    path.write_text('{"k":3,"n":3,"edges":[[0,1,2]],"partition":[[0],[1],[2]]}')
    code, out, _ = _run(capsys, "solve", "--input", str(path), "--seed", "1",
                        "--mode", mode, "--format", fmt)
    assert code == 0
    keys = (list(json.loads(out)) if fmt == "json"
            else [line.split(":")[0] for line in out.splitlines()])
    assert keys[:2] == ["mode", "answer"] and keys[-1] == "elapsed_ms"
    assert ("epsilon" in keys) == (mode == "xkc")


@pytest.mark.parametrize("edges", ['[[0,"a",1]]', '[[0,[1],2]]', '[[0,1.5,2]]', '[[0,true,2]]'])
def test_solve_non_integer_vertex_is_an_error(tmp_path, capsys, edges):
    path = tmp_path / "bad.json"
    path.write_text('{"k":3,"n":3,"edges":%s}' % edges)
    code, _, err = _run(capsys, "solve", "--input", str(path))
    assert code == 2 and "vertex-range" in err


def test_solve_rejects_worker_count_below_one(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text('{"k":3,"n":3,"edges":[[0,1,2]]}')
    code, _, err = _run(capsys, "solve", "--input", str(path), "--threads", "0")
    assert code == 2 and "threads" in err


def test_solve_kdm_mode_needs_partition(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text('{"k":3,"n":6,"edges":[[0,1,2]]}')
    code, _, err = _run(capsys, "solve", "--input", str(path), "--mode", "kdm")
    assert code == 2 and "partition" in err


def test_solve_refuses_huge_sweeps(tmp_path, capsys):
    _run(capsys, "gen", "--k", "3", "--n", "93", "--edges", "5", "--seed", "1",
         "--out", str(tmp_path / "big.json"))
    code, _, err = _run(capsys, "solve", "--input", str(tmp_path / "big.json"))
    assert code == 2
    assert "--force" in err


def test_count_methods_agree(tmp_path, capsys):
    path = tmp_path / "inst.json"
    _run(capsys, "gen", "--k", "3", "--n", "9", "--edges", "10", "--plant",
         "--seed", "8", "--out", str(path))
    code_d, out_d, _ = _run(capsys, "count", "--input", str(path), "--format", "json")
    code_i, out_i, _ = _run(capsys, "count", "--input", str(path),
                            "--method", "ie", "--format", "json")
    assert code_d == code_i == 0
    assert json.loads(out_d)["count"] == json.loads(out_i)["count"] >= 1
    # k does not divide n: no cover, and both methods count none
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps({"k": 3, "n": 4, "edges": [[0, 1, 2], [1, 2, 3]]}))
    for method in ("dlx", "ie"):
        code, out, _ = _run(capsys, "count", "--input", str(odd), "--method", method,
                            "--format", "json")
        assert code == 0 and json.loads(out)["count"] == 0


def test_count_guard(tmp_path, capsys):
    path = tmp_path / "inst.json"
    _run(capsys, "gen", "--k", "5", "--n", "30", "--edges", "4", "--seed", "1",
         "--out", str(path))
    code, _, err = _run(capsys, "count", "--input", str(path), "--method", "dlx")
    assert code == 2 and "--force" in err
    code, out, _ = _run(capsys, "count", "--input", str(path), "--method",
                        "dlx", "--force", "--format", "json")
    assert code == 0 and json.loads(out)["count"] == 0


def test_params_table_and_check(capsys):
    code, out, _ = _run(capsys, "params", "--k", "3..8", "--check")
    assert code == 0
    assert "reference check passed" in out
    code, out, _ = _run(capsys, "params", "--k", "3", "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert abs(row["base"] - 1.4953) < 1e-3
    assert abs(row["bound"] - 1.508) < 1e-3


def test_params_k2_row(capsys):
    code, out, _ = _run(capsys, "params", "--k", "2", "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row == {"k": 2, "kdm_base": 1.0}


def test_params_k_too_large_for_a_float_is_an_error(capsys):
    code, out, err = _run(capsys, "params", "--k", "1" + "0" * 400)
    assert code == 2 and out == "" and err.startswith("error:")


def test_bench_csv(capsys):
    code, out, _ = _run(capsys, "bench", "--mode", "kdm", "--k", "3",
                        "--n", "6,9,12,15", "--reps", "2", "--seed", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,mode,probes,attempts,elapsed_ms,answer"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 8
    probes = {int(r[0]): int(r[3]) for r in rows}
    assert probes == {6: 4, 9: 8, 12: 16, 15: 32}
    assert all(r[6] == "yes" for r in rows)


def test_bench_keeps_the_optimizer_out_of_timed_solves(monkeypatch, capsys):
    # the first xkc row must not pay for the cached exponent grid search
    params_mod.optimize.cache_clear()
    misses = []
    inner = cli.solve_xkc

    def timed(H, cfg):
        before = params_mod.optimize.cache_info().misses
        try:
            return inner(H, cfg)
        finally:
            misses.append(params_mod.optimize.cache_info().misses - before)

    monkeypatch.setattr(cli, "solve_xkc", timed)
    code, _, _ = _run(capsys, "bench", "--mode", "xkc", "--n", "6,9", "--reps", "1",
                      "--seed", "2")
    assert code == 0 and misses == [0, 0]


def test_bench_deterministic_modulo_timing(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = _run(capsys, "bench", "--mode", "xkc", "--n", "6,9",
                            "--reps", "2", "--seed", "9")
        assert code == 0
        rows = [l.split(",") for l in out.strip().splitlines()[1:]]
        outs.append([r[:5] + r[6:] for r in rows])
    assert outs[0] == outs[1]


# Fuzzing the input path: arbitrary JSON documents, and valid instances
# with at most one field or vertex replaced by an arbitrary value.
# Vertex counts stay small so every document that does parse is solved
# and counted in milliseconds; the huge integers reach the size guards
# and the float conversions.
_SCALARS = (st.none() | st.booleans() | st.integers(-2, 12) | st.floats()
            | st.sampled_from([2 ** 64, 10 ** 400, -(10 ** 400)]) | st.text(max_size=3))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12)


@st.composite
def _near_valid(draw):
    k = draw(st.integers(2, 4))
    n = k * draw(st.integers(1, 3))
    edge = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    doc = {"k": k, "n": n, "edges": draw(st.lists(edge, max_size=6))}
    if draw(st.booleans()):
        size = n // k
        doc["partition"] = [list(range(b * size, (b + 1) * size)) for b in range(k)]
    broken = draw(st.sampled_from([None, "k", "n", "edges", "partition", "vertex", "extra"]))
    if broken == "vertex" and doc["edges"]:
        edge = draw(st.sampled_from(doc["edges"]))
        edge[draw(st.integers(0, k - 1))] = draw(_SCALARS)
    elif broken == "extra":
        doc[draw(st.text(max_size=3))] = draw(_JSON)
    elif broken not in (None, "vertex"):
        doc[broken] = draw(_JSON)
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=_JSON | _near_valid())
def test_fuzzed_documents_parse_or_fail_cleanly(doc):
    text = json.dumps(doc)
    try:
        H = parse(text)
    except ParseError:
        H = None
    assert H is None or isinstance(H, Hypergraph)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text)
        for argv in (["solve", "--input", str(path), "--seed", "1"],
                     ["count", "--input", str(path)]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2), (argv[0], text)
