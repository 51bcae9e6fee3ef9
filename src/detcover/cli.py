"""Command line front end: solve, count, gen, params.

Exit status of solve is 0 for yes, 1 for no, 2 for any error; the other
subcommands use 0/2 (params --check uses 1 for a reference mismatch).
Reports are plain key: value lines or single-line JSON with --format
json; there the params --check verdict goes to stderr.  Every
randomized path takes --seed and reports the seed it used, so runs can
be replayed byte for byte (timings aside).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from .hypergraph import Hypergraph, generate, parse, serialize
from .oracle import dlx_count, ie_count
from .params import REFERENCE_ROWS, general_bound, kdm_base, optimize
from .solver import SieveConfig, solve_kdm, solve_xkc, u_size

PROBE_EXPONENT_LIMIT = 30  # refuse 2^q sweeps beyond this without --force
K_RANGE_LIMIT = 1000       # most rows one params call computes
GEN_SLOT_LIMIT = 10 ** 6   # most vertex slots (n + edges * k) one gen call draws


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report))
    else:
        for key, val in report.items():
            print(f"{key}: {val}")


def _load(path: str) -> Hypergraph:
    if path == "-":
        return parse(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def cmd_solve(args) -> int:
    H = _load(args.input)
    mode = args.mode
    if mode == "auto":
        mode = "kdm" if H.partition is not None else "xkc"
    if mode == "kdm" and H.partition is None:
        print("error: kdm mode needs an instance with a partition", file=sys.stderr)
        return 2
    # an indivisible n is answered without a sweep
    q = H.n - u_size(H, mode == "kdm") if H.n % H.k == 0 else 0
    if q > PROBE_EXPONENT_LIMIT and not args.force:
        print(f"error: sweep would take 2^{q} probes; rerun with --force "
              f"to accept the wait", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else random.SystemRandom().randrange(2 ** 32)
    cfg = SieveConfig(m=args.m, seed=seed, epsilon=args.epsilon, threads=args.threads)
    decision = solve_kdm(H, cfg) if mode == "kdm" else solve_xkc(H, cfg)
    report = {
        "mode": mode,
        "answer": decision.answer,
        "probes": decision.probes,
        "attempts": decision.attempts,
        "max_attempts": decision.max_attempts,
        "u_fraction": decision.u_fraction,
        "seed": seed,
        "m": args.m,
    }
    if mode == "xkc":
        report["epsilon"] = args.epsilon  # kdm sweeps once; no attempt budget to set
    if decision.reason is not None:
        report["reason"] = decision.reason
    report["elapsed_ms"] = round(decision.elapsed * 1000, 3)
    _emit(report, args.format)
    return 0 if decision.yes else 1


def cmd_count(args) -> int:
    H = _load(args.input)
    if H.n > 24 and not args.force:
        print(f"error: exact count on n={H.n} may take very long; rerun with "
              f"--force to accept the wait", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    count = dlx_count(H) if args.method == "dlx" else ie_count(H)
    report = {
        "count": count,
        "method": args.method,
        "elapsed_ms": round((time.perf_counter() - t0) * 1000, 3),
    }
    _emit(report, args.format)
    return 0


def cmd_gen(args) -> int:
    slots = args.n + args.edges * args.k
    if slots > GEN_SLOT_LIMIT:  # checked before generate allocates anything
        raise ValueError(f"instance would hold {slots} vertex slots (n + edges * k), "
                         f"at most {GEN_SLOT_LIMIT}")
    rng = random.Random(args.seed)
    H = generate(rng, args.k, args.n, args.edges, plant=args.plant, kdm=args.kdm)
    text = serialize(H) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _k_range(text: str) -> list[int]:
    lo, hi = text.split("..", 1) if ".." in text else (text, text)
    lo, hi = int(lo), int(hi)
    if lo < 2 or hi < lo or hi - lo >= K_RANGE_LIMIT:  # checked before any list is built
        raise ValueError(f"bad k range {text!r}: need 2 <= lo <= hi, at most {K_RANGE_LIMIT} values")
    return list(range(lo, hi + 1))


def cmd_params(args) -> int:
    rows = []
    for k in _k_range(args.k):
        row = {"k": k, "kdm_base": round(kdm_base(k), 4)}
        if k >= 3:
            opt = optimize(k)
            row.update(tau12=round(opt.tau12, 4), tau2=round(opt.tau2, 4),
                       t=round(opt.t, 4), attempt_base=round(opt.attempt_base, 4),
                       base=round(opt.base, 4), bound=round(general_bound(k), 4))
        rows.append(row)
    if args.format == "json":
        print(json.dumps(rows))
    else:
        cols = ["k", "tau12", "tau2", "t", "attempt_base", "base", "bound", "kdm_base"]
        print("  ".join(f"{c:>12}" for c in cols))
        for row in rows:
            print("  ".join(f"{row.get(c, '-'):>12}" for c in cols))
    if not args.check:
        return 0
    bad = []
    for row in rows:
        ref = REFERENCE_ROWS.get(row["k"])
        if ref is None:
            continue
        tau12, tau2, t, attempt_base, base = ref
        if (abs(row["tau12"] - tau12) > 0.01 or abs(row["tau2"] - tau2) > 0.01
                or abs(row["t"] - t) > 0.01 or abs(row["attempt_base"] - attempt_base) > 0.002
                or abs(row["base"] - base) > 0.001):
            bad.append(row["k"])
    verdict = sys.stderr if args.format == "json" else sys.stdout
    if bad:
        print(f"reference check FAILED for k in {bad}", file=verdict)
        return 1
    print("reference check passed", file=verdict)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detcover",
        description="Randomized determinant sieve for exact cover by k-sets "
                    "and k-dimensional matching")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide one instance")
    p.add_argument("--input", required=True, help="instance file, - for stdin")
    p.add_argument("--mode", choices=["auto", "kdm", "xkc"], default="auto")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=2.0 ** -20)
    p.add_argument("--m", type=int, choices=[8, 64], default=64)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted (at least 1) and ignored: every sweep runs on one thread")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--force", action="store_true",
                   help="run even when the probe count is huge")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("count", help="count exact covers with an exact oracle")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=["dlx", "ie"], default="dlx")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--plant", action="store_true", help="hide a perfect cover")
    p.add_argument("--kdm", action="store_true", help="partitioned instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("params", help="optimized exponent bases per k")
    p.add_argument("--k", default="3..8", help="single k or lo..hi range")
    p.add_argument("--check", action="store_true",
                   help="compare against the stored reference rows")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_params)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:  # ParseError is a ValueError;
        # OverflowError is an n or k too large to convert to a float
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
