#!/usr/bin/env python3
"""Join benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload med-tjs-local --seed 1 --seconds 10 --trace 0

Builds the benchmark with sbt when its sources or the program's changed
(perfbench/build.sbt compiles ../src/main/scala next to the benchmark),
then runs the workload in a forked JVM with the build's Spark JVM options
and the heap the test command in ROADMAP.md gives Spark. With --trace 0 the
metrics are the end-to-end ones, and set-up is repeated in fresh
processes and reported as the median; with --trace 1 they are the
per-layer ones. The last line of standard output is the JSON result.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_BUDGET_S = 170  # every JVM of one run, build excluded
BUILD_TIMEOUT_S = 840
SETUP_REPEATS = 3


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def driver_mem():
    """SPARK_DRIVER_MEM, else half the host's memory clamped to 2g..8g,
    as the test command in ROADMAP.md sets it (the main build's default
    heap is 48g)."""
    if os.environ.get("SPARK_DRIVER_MEM"):
        return os.environ["SPARK_DRIVER_MEM"]
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    return f"{min(8, max(2, int(line.split()[1]) // 2097152))}g"
    except OSError:
        pass
    return "2g"


def source_digest():
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"),
             os.path.join(HERE, "src", "main"), os.path.join(HERE, "build.sbt"),
             os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        files = [r] if os.path.isfile(r) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(r) for f in fs)
        for path in files:
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the group on timeout."""
    p = subprocess.Popen(cmd, start_new_session=True, stdin=subprocess.DEVNULL, **kw)
    try:
        return p, p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"{cmd[0]} did not finish within {timeout:.0f} s")


def build(cache):
    launch = os.path.join(HERE, "target", "launch")
    stamp = os.path.join(cache, "build.sha256")
    digest = source_digest()
    cp_file = os.path.join(launch, "classpath.txt")
    if os.path.exists(cp_file) and os.path.exists(stamp) and open(stamp).read() == digest:
        return launch
    env = dict(os.environ)
    if "SPARK_HOME" not in env:
        # The same Spark jars as the main build's unmanagedBase.
        with open(os.path.join(ROOT, "build.sbt")) as f:
            m = re.search(r'Compile / unmanagedBase := file\("([^"]+)"\)', f.read())
        if m is None:
            fail("SPARK_HOME is unset and build.sbt names no Spark jars directory")
        env["SPARK_HOME"] = os.path.dirname(m.group(1))
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.repository.config="
                   + os.path.expanduser("~/.sbt/repositories") + " -Dsbt.offline=true -Xmx4g")
    _, code = run_group(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeLaunch"],
                        BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if code != 0 or not os.path.exists(cp_file):
        fail(f"sbt build failed (exit {code})")
    with open(stamp, "w") as f:
        f.write(digest)
    return launch


def jvm(launch, cache, args, deadline):
    """Runs the benchmark JVM; returns (setup seconds, result JSON or None)."""
    with open(os.path.join(launch, "classpath.txt")) as f:
        cp = f.read().strip()
    with open(os.path.join(launch, "jvm-options.txt")) as f:
        opts = f.read().split()
    tmp = os.path.join(cache, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ,
               SPARK_MASTER=f"local[{len(os.sched_getaffinity(0))}]",
               SPARK_SHUFFLE_PARTITIONS="64",
               SPARK_LOCAL_DIRS=os.path.join(cache, "spark-local"),
               SPARK_DRIVER_MEM=driver_mem())
    cmd = ["java", *opts, f"-Xmx{env['SPARK_DRIVER_MEM']}", f"-Djava.io.tmpdir={tmp}",
           "-cp", cp, "repro.perfbench.Main", *args]
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                         stdout=subprocess.PIPE, text=True, start_new_session=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                            lambda: os.killpg(p.pid, signal.SIGKILL))
    timer.start()
    setup, result = None, None
    try:
        for line in p.stdout:
            if line.startswith("PERFBENCH READY "):
                setup = float(line.split()[2])
            elif line.startswith("PERFBENCH RESULT "):
                result = json.loads(line[len("PERFBENCH RESULT "):])
            else:
                sys.stdout.write(line)
        code = p.wait()
    finally:
        timer.cancel()
    if code != 0 or setup is None:
        fail(f"benchmark JVM exited with {code} (killed at the {RUN_BUDGET_S} s budget if -9)")
    return setup, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        fail(f"the program's sources (src/main/scala) are missing under {ROOT}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {a.workload}")

    cache = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    os.makedirs(cache, exist_ok=True)
    launch = build(cache)

    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace)]
    setups = []
    if a.trace == 0:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(jvm(launch, cache, base + ["--setup-only"], deadline)[0])
    spans = os.path.join(cache, "spans", f"{a.workload}-seed{a.seed}.tsv")
    setup, result = jvm(launch, cache, base + (["--spans", spans] if a.trace else []), deadline)
    if result is None:
        fail("benchmark JVM printed no result")
    setups.append(setup)
    if a.trace == 0:
        print(f"setup_s per fresh process: {' '.join(f'{s:.3f}' for s in setups)}")
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    else:
        print(f"spans written to {os.path.relpath(spans, ROOT)}")

    expected = spec["per_layer" if a.trace else "end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in expected) or any(
            got[m["name"]]["unit"] != m["unit"] for m in expected):
        fail("printed metrics differ from BENCHMARK.json: " + ", ".join(sorted(got)))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
