#!/usr/bin/env python3
"""Build and run the LWG benchmark from the root of a source checkout.

    python3 lwgbench/run.py --workload steady --seed 1 --seconds 12 --trace 0

Builds lwgbench/main.exe with dune (the first run in a fresh checkout
compiles the whole stack), runs one workload, relays its report and
ends with its one-line JSON verdict.  A stamped results file lands in
lwgbench/results/.  Exits non-zero without a verdict when the checkout
holds no buildable source tree or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "lwgbench", "main.exe")


def fail(msg):
    print("lwgbench: " + msg, file=sys.stderr)
    sys.exit(2)


def revision():
    """The git revision, or a digest of the source tree outside git."""
    if os.path.exists(".git"):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"], capture_output=True, text=True, timeout=10
            )
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "lwgbench", "dune-project"):
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "results")
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
        if os.path.isfile(top):
            with open(top, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isfile("lwgbench/main.ml")):
        fail("run from the root of a plwg source checkout (dune-project, lib/ and lwgbench/ expected)")

    # Keep every build artefact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./lwgbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S,
        )
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")

    os.makedirs(os.path.join("lwgbench", "results"), exist_ok=True)
    out = os.path.join("lwgbench", "results", "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    cmd = [
        EXE, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", out, "--revision", revision(),
    ]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write((e.stderr or b"").decode() if isinstance(e.stderr, bytes) else (e.stderr or ""))
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write(run.stdout)
    if run.returncode != 0 or not lines[-1].startswith("{"):
        fail("run failed (exit %d)" % run.returncode)


if __name__ == "__main__":
    main()
