"""The names the benchmark in perfbench/ patches must exist where it looks.

perfbench/tracing.py swaps module globals of detcover (and the field's
mul/inv) for counting wrappers, perfbench/run.py swaps cli.solve_kdm
and cli.solve_xkc, and perfbench/micro.py times linalg.determinant and
linalg.interpolate.  A rename breaks only traced benchmark runs, which
this suite does not start, so the bindings are checked here.  run.py also
restates the |U| rule in its cost model; if that drifts from
solver.u_size, every benchmark solve fails its probe-count check.  Its
fixed sieve triples must still give the totals in fingerprints.json, and
the first solves of each committed xkc list their solve digests, or
every benchmark solve fails as well.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from detcover import (GF64, Hypergraph, cli, field_for, hypergraph, linalg,
                      params, solver)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
RUN = TRACING.parent / "run.py"
MICRO = TRACING.parent / "micro.py"
BENCHMARK = TRACING.parent.parent / "BENCHMARK.json"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _tracing():
    return _load(TRACING, "perfbench_tracing")


def test_span_targets_are_module_attributes():
    tracing = _tracing()
    assert tracing.SPAN_TARGETS
    for module, attr in tracing.SPAN_TARGETS:
        mod = importlib.import_module(f"detcover.{module}")
        assert callable(getattr(mod, attr, None)), f"detcover.{module}.{attr}"
    for attr in tracing.FIELD_TARGETS:
        assert callable(getattr(GF64, attr, None)), f"GF2m.{attr}"


def test_micro_loops_run_and_report_their_metrics(monkeypatch):
    # the timed field and linalg loops of a traced run, each body run a
    # few times; micro.py owns the per-layer times of those two layers
    micro = _load(MICRO, "perfbench_micro")
    monkeypatch.setattr(micro, "REPS", 1)
    monkeypatch.setattr(micro, "TARGET_S", 1e-6)
    out = micro.run(GF64, linalg)
    declared = json.loads(BENCHMARK.read_text())["per_layer"]
    owned = {m["name"] for m in declared
             if m["name"].startswith(("gf2m.", "linalg.")) and m["name"].endswith(("_ns", "_us"))}
    assert owned and set(out) == owned
    assert all(v > 0 for v in out.values())


@pytest.mark.parametrize("mode", ["kdm", "xkc"])
def test_cli_calls_the_solvers_through_module_globals(monkeypatch, tmp_path, capsys, mode):
    attr = f"solve_{mode}"
    inner = getattr(cli, attr)
    calls = []

    def recording(H, cfg):
        calls.append(H.n)
        return inner(H, cfg)

    monkeypatch.setattr(cli, attr, recording)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"k": 3, "n": 6, "edges": [[0, 2, 4], [1, 3, 5]],
                                "partition": [[0, 1], [2, 3], [4, 5]]}))
    assert cli.main(["solve", "--input", str(path), "--mode", mode, "--seed", "1"]) == 0
    assert calls == [6]
    capsys.readouterr()


def _run_module(monkeypatch):
    monkeypatch.syspath_prepend(str(RUN.parent))  # run.py imports its siblings
    return _load(RUN, "perfbench_run")


def test_benchmark_cost_model_matches_u_size(monkeypatch):
    run = _run_module(monkeypatch)
    for w in run.WORKLOADS.values():
        for n in (w.n, w.smoke_n):
            u = solver.u_size(Hypergraph(n, run.K, []), w.mode == "kdm")
            assert run.probes_per_attempt({"params": params}, w.mode, n) == 1 << (n - u), (w.name, n)


def test_committed_sieve_totals(monkeypatch):
    # the benchmark fails every solve when a fixed triple's total drifts;
    # kdm15 carries no partition there, so it is also run with one, which
    # sends it through the bipartite kernel
    run = _run_module(monkeypatch)
    committed = json.loads((RUN.parent / "fingerprints.json").read_text())["sieve_totals"]
    gf = field_for(run.FIELD_DEGREE)
    triples = run.sieve_triples({"hypergraph": hypergraph})
    assert sorted(name for name, *_ in triples) == sorted(committed)
    for name, H, u, weights in triples:
        assert f"{solver.sieve_decide(H, u, weights, gf):#x}" == committed[name]
    kernels = []
    inner = solver._sweep_kdm

    def recording(*args):
        kernels.append(args[1])  # b, the side of the bipartite grid
        return inner(*args)

    monkeypatch.setattr(solver, "_sweep_kdm", recording)
    _, H, u, weights = next(t for t in triples if t[0] == "kdm15")
    blocks = [tuple(range(0, 5)), tuple(range(5, 10)), tuple(range(10, 15))]
    partitioned = Hypergraph(H.n, H.k, H.edges, blocks)
    assert f"{solver.sieve_decide(partitioned, u, weights, gf):#x}" == committed["kdm15"]
    assert kernels and set(kernels) == {5}


def test_committed_xkc_solve_digests(monkeypatch):
    # the benchmark fails every solve of a full-size xkc list whose first
    # solves drift from the committed digest, and CI runs no full-size
    # list; so each committed digest is recomputed here from the
    # benchmark's own instance stream, solver settings and digest
    run = _run_module(monkeypatch)
    committed = json.loads((RUN.parent / "fingerprints.json").read_text())["solve_digests"]
    assert sorted(committed) == ["xkc_no", "xkc_yes"]
    for name, table in committed.items():
        w = run.WORKLOADS[name]
        for seed, expect in table.items():
            results = []
            for inst in run.instances(w, int(seed), run.FINGERPRINT_SOLVES, False):
                cfg = solver.SieveConfig(m=run.FIELD_DEGREE, seed=inst.solver_seed,
                                         epsilon=run.EPSILON, threads=w.threads)
                results.append((solver.solve_xkc(hypergraph.parse(inst.doc), cfg), 0.0))
            assert run.digest(results) == expect, (name, seed)
