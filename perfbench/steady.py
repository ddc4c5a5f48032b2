#!/usr/bin/env python3
"""Run-to-run (A/A) steadiness of the attack-path benchmark.

Repeat one workload on one commit and summarise every metric:

    python3 perfbench/steady.py run --workload pointfn --seeds 1-10 \
        --out a.json [--seconds 30] [--trace 0]

prints, per metric, the median, the first and third quartiles
(statistics.quantiles(values, n=4)), the quartile spread and the
(max - min) spread, both as a share of the median, and saves the raw
values.  `--seeds 1,1,1` repeats one seed (machine noise only);
`--seeds 1-10` varies the inputs too.

Compare two saved sets (same commit: A/A; or parent against change):

    python3 perfbench/steady.py compare a.json b.json

prints both medians, their ratio and each set's quartile spread, and
flags a metric whose second median is worse than the first by more than
the bound BENCHMARK.json gives it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    share = (lambda d: d / med) if med else (lambda d: 0.0)
    return med, q1, q3, share(q3 - q1), share(max(values) - min(values))


def bounds():
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def cmd_run(args):
    runs = []
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            sys.exit(f"seed {seed}: run failed (exit {out.returncode})")
        result = json.loads(lines[-1])
        statuses = [json.loads(line.split(" ", 1)[1]) for line in lines
                    if line.startswith("statuses ")]
        runs.append({"seed": seed, "result": result,
                     "statuses": statuses[0] if statuses else None})
        vals = " ".join(f"{k}={v['value']:.4g}"
                        for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {vals}",
              flush=True)
    doc = {"workload": args.workload, "trace": args.trace, "runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
    print_set(doc)


def metric_values(doc):
    names = list(doc["runs"][0]["result"]["metrics"])
    return {n: [r["result"]["metrics"][n]["value"] for r in doc["runs"]]
            for n in names}


def print_set(doc):
    limits = bounds()
    print(f"{doc['workload']}: {len(doc['runs'])} runs")
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'rng/med':>8} {'bound':>6}")
    for name, values in metric_values(doc).items():
        med, q1, q3, iqr, rng = summary(values)
        bound = limits.get(name, {}).get("bound")
        flag = "" if bound is None or iqr <= bound / 3 else "  > bound/3"
        print(f"{name:40} {med:12.5g} {q1:12.5g} {q3:12.5g} {iqr:8.3f} "
              f"{rng:8.3f} {bound if bound is not None else '':>6}{flag}")


def cmd_compare(args):
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    limits = bounds()
    va, vb = metric_values(a), metric_values(b)
    print(f"{a['workload']} ({len(a['runs'])} runs) vs "
          f"{b['workload']} ({len(b['runs'])} runs)")
    print(f"{'metric':40} {'median A':>12} {'median B':>12} {'B/A':>7} "
          f"{'iqr A':>7} {'iqr B':>7}  verdict")
    worst = 0
    for name in va:
        if name not in vb:
            continue
        ma, _, _, ia, _ = summary(va[name])
        mb, _, _, ib, _ = summary(vb[name])
        r = mb / ma if ma else float("nan")
        spec = limits.get(name)
        verdict = ""
        if spec is not None:
            worse = r - 1 if spec["better"] == "lower" else 1 - r
            verdict = "ok" if worse <= spec["bound"] else "WORSE than bound"
            worst |= verdict != "ok"
        print(f"{name:40} {ma:12.5g} {mb:12.5g} {r:7.3f} {ia:7.3f} {ib:7.3f}"
              f"  {verdict}")
    return 1 if worst else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int, default=30)
    r.add_argument("--trace", choices=["0", "1"], default="0")
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = p.parse_args()
    if args.cmd == "run":
        cmd_run(args)
        return 0
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
