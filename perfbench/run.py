#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py compare <parent.jsonl> [<change.jsonl>]

The Go build cache, the binary and the result ledger live under
.bench_build/ in the checkout; nothing is read from or written to the
user's home. Every run rebuilds the binary; with a warm build cache that
is a relink.
"""

import os
import subprocess
import sys

BUILD = ".bench_build"


def go_env():
    root = os.path.abspath(BUILD)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(root, "gocache"),
        GOMODCACHE=os.path.join(root, "gomodcache"),
        GOPATH=os.path.join(root, "gopath"),
        XDG_CONFIG_HOME=os.path.join(root, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-buildvcs=false -trimpath",
    )
    return env


def build(env):
    """Build the binary; Go's build cache under .bench_build makes an
    unchanged rebuild a relink."""
    binary = os.path.abspath(os.path.join(BUILD, "perfbench"))
    os.makedirs(BUILD, exist_ok=True)
    done = subprocess.run(["go", "build", "-o", binary, "."], cwd="perfbench", env=env)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return binary


def commit():
    """The checkout's commit, when the checkout is a git repository."""
    if not os.path.isdir(".git"):
        return "unknown"
    done = subprocess.run(["git", "--git-dir=.git", "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    if not os.path.isfile(os.path.join("perfbench", "go.mod")):
        sys.exit("perfbench: run from the root of the checkout")
    env = go_env()
    binary = build(env)
    args = sys.argv[1:]
    if not args or args[0] != "compare":
        args = args + ["--commit", commit()]
    os.execve(binary, [binary] + args, env)


if __name__ == "__main__":
    main()
