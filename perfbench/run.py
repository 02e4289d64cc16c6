#!/usr/bin/env python3
"""ASRS query benchmark: builds the program from source and runs one workload.

    python3 perfbench/run.py --workload <ds-adhoc|gids-served> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds the program and the
benchmark with sbt (offline) into perfbench/target and the repository's own
target directories; later runs reuse the build while the sources are
unchanged. The last line of standard output is the result as one JSON object.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
RUN_TIMEOUT_S = 170
HEAP = "4g"
WORKLOADS = ("ds-adhoc", "gids-served")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file whose change requires a rebuild."""
    files = [ROOT / "build.sbt", BENCH / "build.sbt"]
    for d in (ROOT / "project", BENCH / "project"):
        files += [p for p in d.glob("*") if p.suffix in (".sbt", ".scala", ".properties")]
    for d in (ROOT / "src" / "main", BENCH / "src"):
        files += [p for p in d.rglob("*") if p.is_file()]
    return sorted(files)


def classpath(tmp):
    """Builds if needed and returns the runtime classpath."""
    h = hashlib.sha256()
    for p in sources():
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    stamp = WORK / f"classpath-{h.hexdigest()[:16]}.txt"
    if stamp.exists():
        return stamp.read_text().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true "
                   "-Dsbt.repository.config=" + str(Path.home() / ".sbt" / "repositories") +
                   " -Dsbt.offline=true -Xmx2g")
    t0 = time.time()
    out = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
         "-J-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}", "export Runtime/fullClasspath"],
        cwd=BENCH, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=840)
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-4000:])
        fail(f"build failed (exit {out.returncode})")
    cp = [l for l in out.stdout.splitlines() if str(BENCH / "target") in l and ":" in l]
    if not cp:
        sys.stderr.write(out.stdout[-4000:])
        fail("build printed no classpath")
    print(f"perfbench: built in {time.time() - t0:.0f} s", file=sys.stderr)
    for old in WORK.glob("classpath-*.txt"):
        old.unlink()
    stamp.write_text(cp[-1].strip())
    return cp[-1].strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no program sources next to the benchmark (expected build.sbt and src/main/scala in {ROOT})")
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cp = classpath(tmp)
    env = {k: v for k, v in os.environ.items() if k not in ("SPARK_LOCAL_DIRS", "JAVA_TOOL_OPTIONS")}
    cmd = ["java", f"-Xmx{HEAP}", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           "-cp", cp, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--work", str(WORK)]
    proc = subprocess.Popen(cmd, cwd=WORK, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        fail(f"benchmark JVM exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result {lines[-1]}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
