#!/usr/bin/env python3
"""Layered benchmark of the detcover sieve: one workload, one seed, one run.

    python3 perfbench/run.py --workload kdm --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload xkc_no --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --workload xkc_yes --seed 1 --seconds 1 --trace 1 --smoke

Run it from the repository root; detcover is imported from ./src.  The
workload seed fixes the instance list (perfbench/workloads.py), whose
length is rate x --seconds at the seed code, so a faster program decides
the same list sooner.  The program receives the instances only as JSON
documents through detcover.hypergraph.parse.

--trace 0 times one untraced pass over the list: each solve_kdm/solve_xkc
call, the program's set-up (import, parse/validate, cold optimize and
repetitions caches; the median of two batches of SETUP_REPS, one before
and one after the pass) and peak memory.  The published times wall_s,
probes_per_s and setup_s are rescaled to a fixed machine speed: raw time
x reference.NOMINAL_S / mean time of the reference kernel, which runs after
every solve (set-ups use the sample taken right after each one).  The raw
figures are printed beside them
(wall_raw_s, probes_per_raw_s, setup_raw_s).  --trace 1 solves a prefix of
the list four ways, taking turns per instance: untraced at the workload's
thread count, untraced at the other count (for solver.speedup_2w), with
spans around every layer call and with exact call counts (tracing.py);
then come the micro-loops (micro.py) and an in-process `detcover solve`.

Every solve is checked against detcover.oracle.dlx_count and against the
cost model; the first FINGERPRINT_SOLVES (answer, probes, attempts) of the
xkc workloads and the sieve totals of fixed (instance, U, weights)
triples must match perfbench/fingerprints.json.  A solve that raises or
breaks a check counts as failed; a fingerprint mismatch fails every solve.
To record a new seed's digest, copy `fingerprint` from the run record.

Output: one line per metric, then the last line
{"correct", "attempted", "failed", "metrics"} with the metrics that
BENCHMARK.json declares for the mode (end_to_end for --trace 0, per_layer
for --trace 1).  The full record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import micro
import reference
import tracing
from workloads import EPSILON, FIELD_DEGREE, K, WORKLOADS, instances, list_size

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("gf2m", "hypergraph", "linalg", "matchweight", "oracle", "params", "solver", "cli")

SETUP_REPS = 4            # per batch; one batch before and one after the measured phase
TRACE_SHARE = 0.15        # share of the list a traced run sweeps (four passes)
CLI_REPS = 3
FINGERPRINT_SOLVES = 6
P90_MIN_SOLVES = 100      # p90 needs ten samples beyond it
SETUP_LAYER = ("hypergraph.parse_s", "params.optimize_s", "params.repetitions_s")

UNITS = {
    "wall_s": "s", "probes_per_s": "1/s", "setup_s": "s",
    "wall_raw_s": "s", "probes_per_raw_s": "1/s", "setup_raw_s": "s",
    "machine.ref_ms": "ms", "machine.scale": "ratio",
    "solve_ms.p50": "ms", "solve_ms.p90": "ms", "solves": "count",
    "peak_rss_mb": "MB", "fail_ratio": "ratio",
    "gf2m.mul_ns": "ns", "gf2m.inv_ns": "ns", "gf2m.mul_calls": "count", "gf2m.inv_calls": "count",
    "linalg.det_calls": "count", "linalg.det_s": "s", "linalg.interp_calls": "count",
    "linalg.interp_s": "s", "linalg.interp10_us": "us",
    "matchweight.cover_weight_calls": "count", "matchweight.cover_weight_self_s": "s",
    "matchweight.loop_weights_calls": "count", "matchweight.loop_weights_self_s": "s",
    "matchweight.elem_sym_s": "s", "matchweight.skip_ratio": "ratio",
    "hypergraph.project_calls": "count", "hypergraph.project_s": "s",
    "hypergraph.parse_s": "s", "hypergraph.validate_s": "s",
    "params.optimize_s": "s", "params.repetitions_s": "s", "params.timed_s": "s",
    "solver.self_s": "s", "solver.self_share": "ratio", "solver.probes": "count",
    "solver.attempts": "count", "solver.attempt_ratio": "ratio", "solver.det_per_probe": "ratio",
    "solver.speedup_2w": "ratio", "solver.wall_1w_s": "s", "solver.wall_2w_s": "s",
    "oracle.dlx_s": "s", "cli.overhead_ms": "ms",
    "trace.overhead_ratio": "ratio", "trace.wall_s": "s", "trace.untraced_wall_s": "s",
    "trace.spans": "count",
}
for _size in micro.DET_SIZES:
    for _kind in ("dense", "sparse"):
        UNITS[f"linalg.det_{_kind}{_size}_us"] = "us"

clock = time.perf_counter


class Run:
    """Outcome bookkeeping: solves attempted and failed, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.broken = False   # a run-level check failed: every solve counts as failed

    def fail(self, message: str) -> None:
        self.errors.append(message)
        print(f"check failed: {message}", file=sys.stderr)


def load_program() -> dict:
    """Import detcover afresh from the checkout and return its modules."""
    for name in [m for m in sys.modules if m == "detcover" or m.startswith("detcover.")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"detcover.{name}") for name in MODULES}


def set_up(docs: list[str], n: int):
    """The program's own set-up before a first solve, timed by part."""
    t0 = clock()
    mods = load_program()
    t1 = clock()
    graphs = [mods["hypergraph"].parse(doc) for doc in docs]
    t2 = clock()
    mods["params"].optimize(K)
    t3 = clock()
    mods["params"].repetitions(n, K, u_size(mods, n) / n, EPSILON)
    t4 = clock()
    parts = {"import_s": t1 - t0, "hypergraph.parse_s": t2 - t1,
             "params.optimize_s": t3 - t2, "params.repetitions_s": t4 - t3, "setup_s": t4 - t0}
    return mods, graphs, parts


def u_size(mods: dict, n: int) -> int:
    """|U| of an xkc attempt: t*n rounded, t from the exponent optimizer."""
    return min(n, max(2, round(mods["params"].optimize(K).t * n)))


def set_up_batch(docs: list[str], n: int, speed: list):
    """SETUP_REPS set-ups, each followed by a reference sample that rescales
    it to the nominal speed (set-ups are short, so the sample next to each
    one tracks the machine better than the run's mean)."""
    out = []
    for _ in range(SETUP_REPS):
        mods, graphs, parts = set_up(docs, n)
        speed.append(reference.sample())
        parts["setup_scaled_s"] = parts["setup_s"] * reference.NOMINAL_S / speed[-1]
        out.append((mods, graphs, parts))
    return out


def probes_per_attempt(mods: dict, mode: str, n: int) -> int:
    """The paper's cost model: 2^(n - |U|) probes per attempt, |U| = 2n/k for kdm."""
    return 1 << (n - (2 * (n // K) if mode == "kdm" else u_size(mods, n)))


def solve_pass(mods, graphs, seeds, variants, speed=None):
    """Decide every instance once per variant (threads, solve, replacements).

    Variants take turns instance by instance, so a drift in machine speed
    falls on all of them alike.  Returns, per variant, (decision, seconds)
    per solve; a solve that raises has decision None.  With a `speed` list,
    a reference-kernel time is appended after every instance.
    """
    solver = mods["solver"]
    cfgs = [[solver.SieveConfig(m=FIELD_DEGREE, seed=s, epsilon=EPSILON, threads=threads)
             for s in seeds] for threads, _, _ in variants]
    results = [[] for _ in variants]
    for i, H in enumerate(graphs):
        for v, (_, solve, replacements) in enumerate(variants):
            with tracing.patched(replacements):
                s0 = clock()
                try:
                    decision = solve(H, cfgs[v][i])
                except Exception:  # a raising solve is a failed solve, the run goes on
                    traceback.print_exc(file=sys.stderr)
                    decision = None
                results[v].append((decision, clock() - s0))
        if speed is not None:
            speed.append(reference.sample())
    return results


def check_pass(run: Run, label: str, w, results, keys, per_attempt: int, reference=None):
    """Answer key and cost model for every solve; `reference` is an earlier
    pass over the same instances whose (answer, probes, attempts) must repeat."""
    for i, (d, _) in enumerate(results):
        run.attempted += 1
        problems = []
        if d is None:
            problems.append("raised")
        else:
            if d.answer != ("yes" if keys[i] else "no"):
                problems.append(f"answer {d.answer}, oracle counts {keys[i]} covers")
            if d.probes != d.attempts * per_attempt:
                problems.append(f"{d.probes} probes for {d.attempts} attempts of {per_attempt}")
            if d.max_attempts is None or d.attempts > d.max_attempts:
                problems.append(f"attempts {d.attempts} over budget {d.max_attempts}")
            if not w.planted and d.attempts != d.max_attempts:
                problems.append(f"refutation stopped after {d.attempts} of {d.max_attempts}")
            if reference is not None and _outcome(d) != _outcome(reference[i][0]):
                problems.append("outcome differs from the first pass")
        if problems:
            run.failed += 1
            run.fail(f"{label} solve {i}: " + "; ".join(problems))


def _seconds(results) -> float:
    return sum(t for _, t in results)


def _outcome(d):
    return None if d is None else (d.answer, d.probes, d.attempts)


def digest(results) -> str:
    rows = [_outcome(d) for d, _ in results[:FINGERPRINT_SOLVES]]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def sieve_triples(mods: dict):
    """Fixed (instance, U, weights) triples, independent of the workload seed."""
    parse = mods["hypergraph"].parse
    rng = random.Random("detcover-bench/sieve-triples")
    out = []
    for name, n, planted, kdm in (("xkc12", 12, True, False), ("xkc15", 15, True, False),
                                  ("xkc18", 18, True, False), ("kdm15", 15, True, True)):
        if kdm:
            size = n // K
            u = list(range(2 * size))
            edges = [sorted(p) for p in zip(*(rng.sample(range(b * size, (b + 1) * size), size)
                                             for b in range(K)))]
            edges += [sorted(rng.randrange(b * size, (b + 1) * size) for b in range(K))
                      for _ in range(n - len(edges))]
        else:
            u = sorted(rng.sample(range(n), round(0.547 * n)))
            order = rng.sample(range(n), n)
            edges = [sorted(order[j:j + K]) for j in range(0, n, K)] if planted else []
            edges += [sorted(rng.sample(range(n), K)) for _ in range(n - len(edges))]
            edges = [e for e in edges if len(set(e) & set(u)) <= 2]
        H = parse(json.dumps({"k": K, "n": n, "edges": edges}))
        weights = [rng.getrandbits(FIELD_DEGREE) for _ in edges]
        out.append((name, H, u, weights))
    return out


def check_fingerprints(run: Run, mods: dict, w, smoke: bool, seed: int, results, committed: dict):
    gf = mods["gf2m"].field_for(FIELD_DEGREE)
    for name, H, u, weights in sieve_triples(mods):
        total = f"{mods['solver'].sieve_decide(H, u, weights, gf):#x}"
        if total != committed["sieve_totals"][name]:
            run.broken = True
            run.fail(f"sieve total of {name} is {total}, committed {committed['sieve_totals'][name]}")
    if w.mode != "xkc":
        return None
    fp = digest(results)
    table = committed["smoke_digests" if smoke else "solve_digests"].get(w.name, {})
    if str(seed) in table and table[str(seed)] != fp:
        run.broken = True
        run.fail(f"solve digest {fp} differs from committed {table[str(seed)]}")
    return fp


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"  # the benchmark checkout need not be a git repository


def end_to_end(w, mods, graphs, insts, keys, run: Run, speed: list):
    """Raw figures of the timed pass; main() rescales them to the nominal speed."""
    per_attempt = probes_per_attempt(mods, w.mode, graphs[0].n)
    [results] = solve_pass(mods, graphs, [i.solver_seed for i in insts],
                           [(w.threads, getattr(mods["solver"], f"solve_{w.mode}"), [])], speed)
    rss = peak_rss_mb()
    check_pass(run, "timed", w, results, keys, per_attempt)
    times = [t for _, t in results]
    probes = sum(d.probes for d, _ in results if d is not None)
    metrics = {
        "wall_raw_s": sum(times),
        "probes_per_raw_s": probes / sum(times),
        "solve_ms.p50": statistics.median(times) * 1e3,
        "solve_ms.p90": (statistics.quantiles(times, n=10)[8] * 1e3
                         if len(times) >= P90_MIN_SOLVES else None),
        "solves": len(times),
        "peak_rss_mb": rss,
    }
    return metrics, results


def per_layer(w, mods, graphs, insts, keys, run: Run, spans_path: Path):
    seeds = [i.solver_seed for i in insts]
    n = graphs[0].n
    per_attempt = probes_per_attempt(mods, w.mode, n)

    solve = getattr(mods["solver"], f"solve_{w.mode}")
    other = 2 if w.threads == 1 else 1
    tracer = tracing.Tracer()
    counts = tracing.Counts()
    field = mods["gf2m"].field_for(FIELD_DEGREE)
    base, other_results, traced, counted = solve_pass(mods, graphs, seeds, [
        (w.threads, solve, []),
        (other, solve, []),
        (w.threads, tracer.wrap(tracing.ROOT, solve, root=True),
         tracing.span_replacements(mods, tracer)),
        (w.threads, solve, tracing.count_replacements(mods, counts, field)),
    ])
    check_pass(run, "untraced", w, base, keys, per_attempt)
    check_pass(run, f"threads={other}", w, other_results, keys, per_attempt, base)
    check_pass(run, "traced", w, traced, keys, per_attempt, base)
    check_pass(run, "counted", w, counted, keys, per_attempt, base)
    base_wall, traced_wall = _seconds(base), _seconds(traced)
    walls = {w.threads: base_wall, other: _seconds(other_results)}
    spans = tracer.summary()
    exact = counts.totals()
    for mod, attr in tracing.SPAN_TARGETS:
        name = tracing.span_name(mod, attr)
        if exact[name] != spans.get(name, {}).get("calls", 0):
            run.broken = True
            run.fail(f"{name}: {exact[name]} calls counted, {spans.get(name, {}).get('calls', 0)} traced")

    def calls(*names):
        return sum(spans.get(x, {}).get("calls", 0) for x in names)

    def total(*names):
        return sum(spans.get(x, {}).get("total_s", 0.0) for x in names)

    def self_time(name):
        return spans.get(name, {}).get("self_s", 0.0)

    dets = ("solver.determinant", "matchweight.determinant")
    probes = sum(d.probes for d, _ in base if d is not None)
    attempts = sum(d.attempts for d, _ in base if d is not None)
    budget = sum(d.max_attempts for d, _ in base if d is not None)
    cover_calls = calls("solver.cover_weight")
    loop_calls = calls("matchweight.loop_weights")
    metrics = {
        "gf2m.mul_calls": exact["gf2m.mul"],
        "gf2m.inv_calls": exact["gf2m.inv"],
        "linalg.det_calls": calls(*dets),
        "linalg.det_s": total(*dets),
        "linalg.interp_calls": calls("matchweight.interpolate"),
        "linalg.interp_s": total("matchweight.interpolate"),
        "matchweight.cover_weight_calls": cover_calls,
        "matchweight.cover_weight_self_s": self_time("solver.cover_weight"),
        "matchweight.loop_weights_calls": loop_calls,
        "matchweight.loop_weights_self_s": self_time("matchweight.loop_weights"),
        "matchweight.elem_sym_s": total("matchweight.elementary_symmetric"),
        "matchweight.skip_ratio": 1 - loop_calls / cover_calls if cover_calls else 0.0,
        "hypergraph.project_calls": calls("solver.project"),
        "hypergraph.project_s": total("solver.project"),
        "hypergraph.validate_s": total("solver.validate"),
        "params.timed_s": total("solver.optimize", "solver.repetitions"),
        "solver.self_s": self_time(tracing.ROOT),
        "solver.self_share": self_time(tracing.ROOT) / traced_wall,
        "solver.probes": probes,
        "solver.attempts": attempts,
        "solver.attempt_ratio": attempts / budget,
        "solver.det_per_probe": calls(*dets) / probes,
        "solver.speedup_2w": walls[1] / walls[2],
        "solver.wall_1w_s": walls[1],
        "solver.wall_2w_s": walls[2],
        "trace.overhead_ratio": traced_wall / base_wall,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": base_wall,
        "trace.spans": tracer.write(spans_path),
    }
    metrics.update(micro.run(field, mods["linalg"]))
    metrics["cli.overhead_ms"] = cli_overhead(w, mods, insts[0], keys[0], run)
    predictions = {
        "matchweight idle on kdm": w.mode != "kdm" or cover_calls == loop_calls == 0,
        "params absent from the timed phase": metrics["params.timed_s"] < 0.01 * traced_wall,
    }
    return metrics, base, predictions


def cli_overhead(w, mods, inst, key, run: Run) -> float:
    """In-process `detcover solve` minus its solve call, median of CLI_REPS, in ms."""
    cli = mods["cli"]
    attr = f"solve_{w.mode}"
    inner = getattr(cli, attr)
    overheads = []
    for _ in range(CLI_REPS):
        solve_s = []

        def timed(H, cfg):
            t0 = clock()
            try:
                return inner(H, cfg)
            finally:
                solve_s.append(clock() - t0)

        out = io.StringIO()
        argv = ["solve", "--input", "-", "--mode", w.mode, "--seed", str(inst.solver_seed),
                "--threads", str(w.threads), "--m", str(FIELD_DEGREE), "--format", "json"]
        with tracing.patched([(cli, attr, timed), (sys, "stdin", io.StringIO(inst.doc))]), \
                contextlib.redirect_stdout(out):
            t0 = clock()
            code = cli.main(argv)
            elapsed = clock() - t0
        run.attempted += 1
        answer = json.loads(out.getvalue() or "{}").get("answer")
        if code != (0 if key else 1) or answer != ("yes" if key else "no"):
            run.failed += 1
            run.fail(f"cli solve exited {code} with answer {answer}, oracle counts {key}")
        overheads.append((elapsed - solve_s[0]) * 1e3)
    return statistics.median(overheads)


def declared(trace: int) -> list[dict]:
    """The metrics BENCHMARK.json publishes for this mode; units must agree."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if trace else "end_to_end"]
    for m in metrics:
        if UNITS.get(m["name"]) != m["unit"]:
            raise SystemExit(f"error: BENCHMARK.json gives {m['name']} unit {m['unit']!r}, "
                             f"the benchmark measures {UNITS.get(m['name'])!r}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny instances: checks only, figures mean nothing")
    args = ap.parse_args(argv)
    if not (SRC / "detcover" / "__init__.py").is_file():
        print(f"error: no detcover sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    committed = json.loads((HERE / "fingerprints.json").read_text())
    spec = declared(args.trace)
    w = WORKLOADS[args.workload]
    run = Run()

    insts = instances(w, args.seed, list_size(w, args.seconds, args.smoke), args.smoke)
    docs = [i.doc for i in insts]
    n = json.loads(docs[0])["n"]
    speed: list[float] = []   # reference-kernel seconds, sampled across the run
    setups = set_up_batch(docs, n, speed)
    mods, graphs, _ = setups[-1]
    if mods["solver"].__file__ is None or not Path(mods["solver"].__file__).is_relative_to(SRC):
        print(f"error: detcover imported from {mods['solver'].__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    t0 = clock()
    keys = [mods["oracle"].dlx_count(H) for H in graphs]
    dlx_s = clock() - t0
    for i, (inst, key) in enumerate(zip(insts, keys)):
        if inst.has_cover != (key > 0):
            run.broken = True
            run.fail(f"instance {i}: oracle counts {key} covers, exact search says {inst.has_cover}")

    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    predictions = {}
    if args.trace:
        count = min(len(graphs), max(FINGERPRINT_SOLVES, math.ceil(TRACE_SHARE * len(graphs))))
        metrics, results, predictions = per_layer(
            w, mods, graphs[:count], insts[:count], keys[:count], run, OUT / f"spans-{stem}.csv")
        metrics["oracle.dlx_s"] = dlx_s
    else:
        metrics, results = end_to_end(w, mods, graphs, insts, keys, run, speed)
    # a second set-up batch, apart in time from the first, steadies the median
    setups += set_up_batch(docs, n, speed)
    mods = setups[-1][0]
    setup = {key: statistics.median(s[2][key] for s in setups) for key in setups[0][2]}
    if args.trace:
        metrics.update((key, setup[key]) for key in SETUP_LAYER)
    else:
        scale = reference.NOMINAL_S / statistics.fmean(speed)
        metrics.update({
            "wall_s": metrics["wall_raw_s"] * scale,
            "probes_per_s": metrics["probes_per_raw_s"] / scale,
            "setup_s": setup["setup_scaled_s"],
            "setup_raw_s": setup["setup_s"],
            "machine.ref_ms": statistics.fmean(speed) * 1e3,
            "machine.scale": scale,
        })
    fingerprint = check_fingerprints(run, mods, w, args.smoke, args.seed, results, committed)
    if run.broken:
        run.failed = run.attempted
    metrics["fail_ratio"] = run.failed / run.attempted

    record = {
        "run": {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "smoke": args.smoke, "git_sha": git_sha(),
                "python": platform.python_version(), "cpu_count": os.cpu_count(),
                "field_degree": FIELD_DEGREE, "k": K, "n": n, "threads": w.threads,
                "instances": len(graphs), "epsilon": EPSILON},
        "metrics": {name: {"value": v, "unit": UNITS[name]} for name, v in metrics.items()},
        "setup_parts": setup,
        "fingerprint": fingerprint,
        "predictions": predictions,
        "micro_baseline": micro.BASELINE if args.trace else None,
        "errors": run.errors,
    }
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    for key, value in record["run"].items():
        print(f"# {key}: {value}")
    for name, value in metrics.items():
        shown = "n/a (fewer than 100 solves)" if value is None else repr(value)
        print(f"{name:34} {shown:>26} {UNITS[name]}")
    for claim, held in predictions.items():
        print(f"# prediction {'holds' if held else 'DOES NOT HOLD'}: {claim}")
    result = {
        "correct": run.failed == 0 and not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
