#!/usr/bin/env python3
"""Builds and runs the FanStore repository benchmark.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload train_hot --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (the FanStore libraries from
src/ plus the benchmark) in Release mode under $CARGO_TARGET_DIR, or
.bench_build when that is unset. Later runs only re-check the build. The
benchmark's output is passed through; its last line is one JSON object with
the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones, as BENCHMARK.json lists
them. The exit status is the benchmark's: non-zero when a byte failed
verification, a counter cross-check failed, or the build or run failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when there is one, else a digest of src/."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True)
            return "git-" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-sha256-" + h.hexdigest()[:16]


def build(build_dir):
    """Configures once, then builds the benchmark target; output to stderr."""
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))  # keep compiler temporaries inside
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "fanstore_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "fanstore_perfbench"


def check_result(line, trace):
    """True when the last line reports exactly BENCHMARK.json's metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        got = {name: m["unit"] for name, m in json.loads(line)["metrics"].items()}
    except (ValueError, KeyError, TypeError):
        return False
    return got == want


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["train_hot", "train_cold", "serve_ipc"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no FanStore sources under {ROOT / 'src'}")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir = build_dir / "perfbench"
    binary = build(build_dir)

    # Unix socket paths are short; name the socket directory relative to
    # the working directory the benchmark runs in.
    socket_dir = os.path.relpath(build_dir / "run", ROOT)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id(), "--socket-dir", socket_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode == 0 and (not lines or not check_result(lines[-1], bool(args.trace))):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("the result line does not list BENCHMARK.json's metrics")
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
