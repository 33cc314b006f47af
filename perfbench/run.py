#!/usr/bin/env python3
"""Build and run the perfbench end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload planner-mem --seed 1 --seconds 10 --trace 0

Builds perfbench/ (its own Cargo package, depending on the repository's
crates by path) into $CARGO_TARGET_DIR, or .bench_build when that is unset,
then runs it with the same arguments. The benchmark's last stdout line is
its JSON result; the exit code is the benchmark's (1 when a correctness
gate failed). Without the repository's crates beside this directory the
build cannot succeed, and the script exits 2 without printing a result.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def source_identity():
    """The commit when run from a git checkout, else a hash of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def check_result(line, trace):
    """The result names exactly the metrics BENCHMARK.json declares for
    this mode, each with its declared unit; returns the problem, if any."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "the result's keys are wrong"
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}"
    return None


def main():
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: the repository's crates/ directory is missing", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env["PERFBENCH_COMMIT"] = source_identity()
    env["PERFBENCH_RUSTC"] = rustc_version()
    binary = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:]
    try:
        run = subprocess.run(
            [binary] + args,
            cwd=ROOT,
            env=env,
            timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE,
            text=True,
        )
    except subprocess.TimeoutExpired:
        shutil.rmtree(os.path.join(ROOT, ".perfbench-tmp"), ignore_errors=True)
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    lines = run.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if run.returncode not in (0, 1):
        print(lines[-1], flush=True)
        return run.returncode
    trace = "--trace" in args and args[args.index("--trace") + 1 :][:1] == ["1"]
    problem = check_result(lines[-1], trace)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 4
    print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
