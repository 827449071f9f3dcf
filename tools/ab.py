"""Alternating A/B runs of the benchmark on two checkouts.

Usage: python tools/ab.py PARENT CHANGE --workload W --pairs N --seed S
       [--json OUT]

Runs ``python3 perfbench/run.py --workload W --seed s --seconds T
--trace 0`` in each checkout, one run at a time, for the seeds S to
S+N-1, with T the ``run_seconds`` of CHANGE's ``BENCHMARK.json``. The side
that runs first alternates: PARENT on even pair indices, CHANGE on odd.

Each run's last line of standard output is its result (``correct``,
``attempted``, ``failed``, ``metrics``). For every end-to-end metric of
``BENCHMARK.json`` the tool prints both sides' median and quartiles, the
pairs in which CHANGE is better, and whether the gain rule holds: CHANGE
better in at least 9 of 10 pairs, and the medians further apart than the
parent's quartiles. It also prints the failed operations per side and
whether the check digests are equal per seed.

Every run (side, seed, pair, order, exit status, wall time, result, the
``phase`` lines and the sha256 of the check digests) is written to OUT
(default ``ab-W-S.json``), in the layout of the ``runs`` lists of the
``BENCH_<n>.json`` records. Nothing under ``perfbench/`` is imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="checkout of the parent commit (side A)")
    p.add_argument("change", help="checkout of the change (side B)")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--json", help="where to write every run (default ab-W-S.json)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def run_once(checkout, workload, seed, seconds):
    """One untraced benchmark run; the parsed record of it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    record = {"returncode": proc.returncode, "wall_s": round(time.perf_counter() - t0, 1)}
    lines = proc.stdout.strip().splitlines()
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        record["result"] = None
        record["stderr_tail"] = proc.stderr.strip().splitlines()[-5:]
    phases, digests = {}, None
    for line in lines:
        word, _, rest = line.partition(" ")
        if word == "phase":
            name, value, _unit = rest.split()
            phases[name] = float(value)
        elif word == "info":
            digests = json.loads(rest).get("digests")
    record["digests_sha256"] = (
        None if digests is None else hashlib.sha256(json.dumps(digests).encode()).hexdigest()
    )
    record["phases"] = phases
    return record


def quartiles(values):
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs, metrics):
    """Per metric: quartiles per side, pairs won by B and the gain rule."""
    by_pair = {}
    for r in runs:
        if r["result"] is not None:
            by_pair.setdefault(r["pair_index"], {})[r["side"]] = r["result"]["metrics"]
    pairs = [p for p in by_pair.values() if len(p) == 2]
    summary = {}
    for m in metrics if pairs else ():
        name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
        a = [p["A"][name]["value"] for p in pairs]
        b = [p["B"][name]["value"] for p in pairs]
        qa, qb = quartiles(a), quartiles(b)
        won = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        gap = sign * (qa["median"] - qb["median"])
        summary[name] = {
            "A": qa, "B": qb,
            "change_pct": round(100.0 * (qb["median"] - qa["median"]) / qa["median"], 1),
            "B_better_pairs": f"{won}/{len(pairs)}",
            "gain_rule_holds": won >= 0.9 * len(pairs) and gap > qa["q3"] - qa["q1"],
        }
    return summary


def main(argv=None):
    args = parse_args(argv)
    sides = {"A": os.path.abspath(args.parent), "B": os.path.abspath(args.change)}
    with open(os.path.join(sides["B"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    runs = []
    for k in range(args.pairs):
        seed = args.seed + k
        for side in ("AB" if k % 2 == 0 else "BA"):
            record = {"side": side, "workload": args.workload, "seed": seed, "pair_index": k,
                      "first": "A" if k % 2 == 0 else "B"}
            record.update(run_once(sides[side], args.workload, seed, seconds))
            runs.append(record)
            res = record["result"]
            op = res["metrics"]["op_s"]["value"] if res and "op_s" in res["metrics"] else None
            print(f"pair {k} seed {seed} {side}: exit {record['returncode']}, "
                  f"op_s {op}, {record['wall_s']} s", file=sys.stderr, flush=True)
    summary = summarize(runs, bench["end_to_end"])
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
          f"{seconds} s per run; A = {sides['A']}, B = {sides['B']}")
    for name, s in summary.items():
        print(f"  {name:12s} A {s['A']['median']:.4g} [{s['A']['q1']:.4g}, {s['A']['q3']:.4g}]"
              f"  B {s['B']['median']:.4g} [{s['B']['q1']:.4g}, {s['B']['q3']:.4g}]"
              f"  {s['change_pct']:+.1f}%  B better {s['B_better_pairs']}"
              f"  gain rule {'holds' if s['gain_rule_holds'] else 'fails'}")
    for side in "AB":
        done = [r["result"] for r in runs if r["side"] == side and r["result"] is not None]
        print(f"  {side}: {sum(r['failed'] for r in done)}/{sum(r['attempted'] for r in done)} "
              f"operations failed, {sum(r['side'] == side for r in runs) - len(done)} runs "
              "without a result")
    digests = {}
    for r in runs:
        digests.setdefault(r["seed"], {})[r["side"]] = r["digests_sha256"]
    equal = all(d.get("A") == d.get("B") for d in digests.values())
    print(f"  check digests equal per seed: {equal}")
    out = args.json or f"ab-{args.workload}-{args.seed}.json"
    with open(out, "w") as fh:
        json.dump({"workload": args.workload, "seconds": seconds, "sides": sides,
                   "summary": summary, "runs": runs}, fh, indent=1)
    print(f"  runs written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
