"""gcaps benchmark: one workload, one fresh measured process per run.

    python3 perfbench/run.py --workload train-default --seed 1 --seconds 20 --trace 0

Run from the root of a gcaps checkout.  The harness writes the workload's
input files, then starts ``child.py`` in fresh interpreters whose BLAS is
pinned to one thread: a few that only set up (for ``setup_s``) and one that
sets up, warms up and times the workload.  Each of them also times a fixed
probe computation, and ``items_per_s`` and ``setup_s`` are corrected to the
reference host speed it measures (``child.HostProbe``).  ``--trace 1``
makes the timing process run every second timed operation under the
outside-in tracer and report the per-layer metrics instead of the
end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
carry the environment stamp, the end-to-end figures as measured before the
correction, and, for a traced run, the layer-share table.
The full result and, for a traced run, every span are kept under
``.bench_build/perfbench/``.

    python3 perfbench/run.py --record-reference [--workload NAME]

runs every workload (or one) on every seed class once and rewrites its
entries in ``perfbench/reference.json``, the values the output checks
compare against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from child import SPANS_FILE

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
OUT_ROOT = os.path.join(".bench_build", "perfbench")

WORKLOADS = ("train-default", "eval-default", "routing-study", "train-compact")
# Inputs depend on the seed through seed % SEED_CLASSES, so that every input
# a run can see has reference outputs recorded in reference.json.
SEED_CLASSES = 8
# setup_s is the median over this many fresh processes, the timed one included.
SETUP_SAMPLES = 15
# Every child shares this budget, so the run ends inside 180 s or fails.
DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, HERE, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode: str, workload: str, seed_class: int, fixtures: str,
          deadline: float, **options) -> dict:
    """Run child.py in a fresh process and return the JSON it wrote."""
    out = os.path.join(fixtures, f"{mode}-{time.monotonic_ns()}.json")
    cmd = [sys.executable, CHILD, mode, "--workload", workload,
           "--seed-class", str(seed_class), "--fixtures", fixtures,
           "--out", out]
    for key, value in options.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    # the child's own output goes to stderr: the result line must be last
    proc = subprocess.Popen(cmd, env=child_env(), stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildFailed(f"{mode} process for {workload} ran past the deadline")
    if code != 0:
        raise ChildFailed(f"{mode} process for {workload} exited with {code}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str | None:
    if not os.path.isdir(".git"):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """sha256 over src/gcaps/*.py, which names the code where git cannot."""
    digest = hashlib.sha256()
    base = os.path.join("src", "gcaps")
    for name in sorted(os.listdir(base)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(base, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_stamp() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(), "python": platform.python_version(),
            "platform": platform.platform(), "git_commit": git_commit(),
            "src_sha256": source_digest(), "blas_env": BLAS_ENV}


def metric_specs() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def measure(args) -> dict:
    """Everything one benchmark run measured, before it is reported."""
    seed_class = args.seed % SEED_CLASSES
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(OUT_ROOT, f"work-{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        spawn("prepare", args.workload, seed_class, work, deadline)
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn("setup", args.workload, seed_class, work,
                                    deadline))
        result = spawn("run", args.workload, seed_class, work, deadline,
                       seconds=args.seconds, trace=args.trace)
        if args.trace:
            os.replace(os.path.join(work, SPANS_FILE), os.path.join(
                OUT_ROOT, f"spans-{args.workload}-s{args.seed}.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(result.pop("setup"))
    result["setup_samples"] = setups
    result["setup_median_s"] = statistics.median(
        at_reference_speed(s["setup_s"], s["host_speed"]) for s in setups)
    result["raw_setup_median_s"] = statistics.median(s["setup_s"] for s in setups)
    phase = result["phase"]
    result["items_per_s"] = phase["items_per_s"] / phase["host_speed"]
    return result


def at_reference_speed(seconds: float, host_speed: float) -> float:
    """A time measured while the host ran at ``host_speed`` (see
    ``child.HostProbe``), as it would read on the reference host."""
    return seconds * host_speed


def report(args, result: dict) -> dict:
    specs = metric_specs()
    if args.trace:
        values = result["trace_metrics"]
        units = specs["per_layer"]
    else:
        values = {"setup_s": result["setup_median_s"],
                  "items_per_s": result["items_per_s"],
                  "peak_rss_mb": result["peak_rss_mb"]}
        units = specs["end_to_end"]
    if set(values) != set(units):
        raise ChildFailed(f"measured metrics {sorted(set(values) ^ set(units))}"
                          f" do not match BENCHMARK.json")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}


def run_once(args) -> int:
    stamp = env_stamp()
    result = measure(args)
    stamp.update(result["blas"])
    line = report(args, result)
    os.makedirs(OUT_ROOT, exist_ok=True)
    with open(os.path.join(OUT_ROOT, f"result-{args.workload}-s{args.seed}"
                           f"-t{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "env": stamp, "result": result,
                   "line": line}, fh, indent=1)
    print("# env " + json.dumps(stamp, sort_keys=True))
    if not args.trace:
        print("# as measured " + json.dumps({
            "items_per_s": result["phase"]["items_per_s"],
            "setup_s": result["raw_setup_median_s"],
            "host_speed": result["phase"]["host_speed"]}))
    for error in result["errors"]:
        print("# failed " + error)
    if args.trace:
        print(f"# layer shares of the traced phase ({args.workload}):")
        for layer, share in sorted(result["layer_shares"].items(),
                                   key=lambda kv: -kv[1]):
            print(f"#   {layer:<10} {100 * share:6.2f}%")
    print(json.dumps(line), flush=True)
    return 0


def record_reference(workloads) -> int:
    """Run the reference operations of ``workloads`` on every seed class and
    rewrite their entries in the table."""
    with open(REFERENCE, encoding="utf-8") as fh:
        table = json.load(fh)["workloads"]
    stamp = env_stamp()
    for workload in workloads:
        table[workload] = {}
        for seed_class in range(SEED_CLASSES):
            work = os.path.join(OUT_ROOT, f"record-{workload}-{seed_class}")
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            deadline = time.monotonic() + 600
            try:
                spawn("prepare", workload, seed_class, work, deadline)
                recorded = spawn("record", workload, seed_class, work, deadline)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            table[workload][str(seed_class)] = recorded["values"]
            stamp.update(recorded["blas"])
            print(f"recorded {workload} class {seed_class}", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"seed_classes": SEED_CLASSES, "env": stamp,
                   "workloads": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "gcaps", "__init__.py")):
        print("error: run from the root of a gcaps checkout (src/gcaps is"
              " missing)", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference([args.workload] if args.workload else WORKLOADS)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return run_once(args)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
