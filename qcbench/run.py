#!/usr/bin/env python3
"""Build and run the qcbench benchmark from the root of a checkout.

    python3 qcbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go toolchain's caches and the binary go under .bench_build/ in the
checkout, so the run reads and writes nothing outside it. The arguments are
passed to the benchmark unchanged; its exit code is this script's exit code.
"""
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin", "qcbench")


def revision():
    """The git commit when the checkout is a repository, else a hash of the
    Go sources, so a run record always names what was measured."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in (".git", ".bench_build"))
        for name in sorted(filenames):
            if name.endswith((".go", ".mod", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "GOENV": "off",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    try:
        build = subprocess.run(
            ["go", "build", "-buildvcs=false", "-trimpath", "-o", BIN, "."],
            cwd=os.path.join(ROOT, "qcbench"), env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("qcbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("qcbench: build failed", file=sys.stderr)
        return 2
    env["QCBENCH_REV"] = revision()
    # A process group of its own, so a timeout or a signal to this script
    # can stop the set-up children too.
    proc = subprocess.Popen([BIN] + sys.argv[1:], cwd=ROOT, env=env, start_new_session=True)

    def stop(signum, frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=175)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("qcbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
