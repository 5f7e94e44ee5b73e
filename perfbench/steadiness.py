"""Steadiness report: run every workload ten times, in alternating order,
and summarize each end-to-end metric by its median and quartiles.

    python3 perfbench/steadiness.py --first-seed 1 --out perfbench/STEADINESS

Run from the root of a gcaps checkout.  Round r runs the workloads in the
BENCHMARK.json order when r is even and in reverse when r is odd, with seed
``first_seed + r``.  Each workload then gets one traced run, whose
per-layer metrics go into the report.  With ``--against EARLIER.json`` the
report also compares each median with that earlier report's in both
directions, so that it shows how far apart two reports on the same code
are against each metric's bound.  Writes ``<out>.json`` (every run's result
line) and ``<out>.md`` (the tables).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

ROUNDS = 10
# The end-to-end metrics corrected to the reference host speed; the report
# also gives their spread as measured, before the correction.
CORRECTED = ("items_per_s", "setup_s")


def run(command, workload, seed, seconds, trace):
    """The result line of one run, its environment stamp and its figures as
    measured, before the host-speed correction."""
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()

    def comment(prefix):
        return next((json.loads(l[len(prefix):]) for l in lines
                     if l.startswith(prefix)), None)

    return json.loads(lines[-1]), comment("# env "), comment("# as measured ")


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", default=None,
                        help="an earlier report's .json to compare medians with")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {w: [] for w in workloads}
    env = None
    for r in range(ROUNDS):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            line, env, raw = run(bench["command"], w, args.first_seed + r,
                                 bench["run_seconds"], 0)
            runs[w].append({"seed": args.first_seed + r, "line": line,
                            "as_measured": raw})
            print(f"round {r} {w}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in line["metrics"].items())
                + f" failed={line['failed']}/{line['attempted']}",
                file=sys.stderr, flush=True)
    summary = {w: {m: spread([r["line"]["metrics"][m]["value"] for r in rs])
                   for m in bounds} for w, rs in runs.items()}
    for w, rs in runs.items():
        for m in CORRECTED:
            summary[w][m]["as_measured"] = spread(
                [r["as_measured"][m] for r in rs])
    traced = {w: run(bench["command"], w, args.first_seed,
                     bench["run_seconds"], 1)[0] for w in workloads}
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "rounds": ROUNDS, "runs": runs,
                   "summary": summary, "traced": traced}, fh, indent=1)
        fh.write("\n")
    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            earlier = json.load(fh)["summary"]
    with open(args.out + ".md", "w", encoding="utf-8") as fh:
        fh.write(markdown(bench, env, args, runs, summary, traced, bounds,
                          earlier))
    return 0


def worse_by(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    change = (after - before) / before
    return -change if better == "higher" else change


def gap(a: float, b: float, better: str) -> float:
    """The larger of ``worse_by`` in the two directions: how much worse one
    median is than the other, whichever of the two is taken as the parent."""
    return max(worse_by(a, b, better), worse_by(b, a, better))


def markdown(bench, env, args, runs, summary, traced, bounds, earlier) -> str:
    out = [f"# Steadiness: {ROUNDS} rounds, seeds {args.first_seed}.."
           f"{args.first_seed + ROUNDS - 1}, alternating workload order",
           "", f"run_seconds = {bench['run_seconds']}", "",
           "Environment: " + ", ".join(f"{k}={env[k]}" for k in sorted(env or {})),
           "", "`as measured` is the spread of the same runs before the host-speed"
           " correction.", "",
           "| workload | metric | median | q1 | q3 | (q3-q1)/median |"
           " as measured | bound | failed/attempted |",
           "|---|---|---|---|---|---|---|---|---|"]
    for w, metrics in summary.items():
        failed = sum(r["line"]["failed"] for r in runs[w])
        attempted = sum(r["line"]["attempted"] for r in runs[w])
        for m, s in metrics.items():
            raw = s.get("as_measured")
            raw = f"{raw['iqr_share']:.4f}" if raw else "—"
            out.append(f"| {w} | {m} | {s['median']:.4g} | {s['q1']:.4g} |"
                       f" {s['q3']:.4g} | {s['iqr_share']:.4f} | {raw} |"
                       f" {bounds[m]} | {failed}/{attempted} |")
    if earlier:
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        out += ["", f"## Medians against {args.against}", "",
                "`worse by` takes the earlier report as the parent; `gap`"
                " is the larger of that and the reverse, and `margin` is the"
                " bound minus the gap.", "",
                "| workload | metric | earlier median | this median |"
                " worse by | gap | bound | margin |",
                "|---|---|---|---|---|---|---|---|"]
        for w, metrics in summary.items():
            for m, s in metrics.items():
                before = earlier[w][m]["median"]
                both = gap(before, s["median"], better[m])
                out.append(f"| {w} | {m} | {before:.4g} | {s['median']:.4g} |"
                           f" {worse_by(before, s['median'], better[m]):.4f} |"
                           f" {both:.4f} | {bounds[m]} |"
                           f" {bounds[m] - both:.4f} |")
    out += ["", f"## Traced run (seed {args.first_seed}), per-layer metrics",
            "", "| metric | " + " | ".join(traced) + " |",
            "|---" * (len(traced) + 1) + "|"]
    for m in bench["per_layer"]:
        out.append(f"| {m['name']} | " + " | ".join(
            f"{line['metrics'][m['name']]['value']:.4g}"
            for line in traced.values()) + " |")
    return "\n".join(out) + "\n"


if __name__ == "__main__":
    sys.exit(main())
