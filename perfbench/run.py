#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <uplink|query|fleet> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default: .bench_build). The last stdout line is the result object; see
perfbench/README.md. --self-test runs every workload briefly on the
default seed and checks the printed metric names and units against
BENCHMARK.json and the pinned output digests.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# Everything a run may take, build included, stays under the 180 s
# limit once the binary exists; a cold build is allowed longer.
RUN_TIMEOUT_S = 170
DEFAULT_SEED = 1


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The commit when this is a git checkout, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]
    for top in roots:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, subdirs, names in os.walk(path):
            subdirs[:] = sorted(s for s in subdirs if s not in ("target", "__pycache__"))
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-sha256-" + h.hexdigest()[:16]


def build():
    """Builds the release binary and returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the repository's crates/ directory is missing; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def run(binary, args):
    """Runs the binary; returns (exit code, stdout)."""
    cmd = [binary] + args + ["--commit", source_id()]
    try:
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return out.returncode, out.stdout


def self_test(binary):
    """Tiny runs of every workload in both modes on the default seed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for w in [x["name"] for x in spec["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", w, "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", trace]
            code, out = run(binary, args)
            lines = out.strip().splitlines()
            where = f"{w} --trace {trace}"
            if code != 0 or not lines:
                problems.append(f"{where}: exit {code}")
                continue
            result = json.loads(lines[-1])
            checks = next((json.loads(l)["checks"] for l in lines if l.startswith('{"checks"')), {})
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {sorted(got.items())} != {sorted(want.items())}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            if checks.get("pinned_digests") != "pass":
                problems.append(f"{where}: pinned_digests {checks.get('pinned_digests')}")
            print(f"{where}: {len(got)} metrics, checks {checks}", file=sys.stderr)
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print(json.dumps({"self_test": "fail" if problems else "pass", "problems": len(problems)}))
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", choices=["0", "1"])
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    binary = build()
    if a.self_test:
        return self_test(binary)
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", f"{a.seconds:g}", "--trace", a.trace]
    code, out = run(binary, args)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
