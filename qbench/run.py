#!/usr/bin/env python3
"""Build the engine with the benchmark code and make one benchmark run.

Usage (from the repository root):

    python3 qbench/run.py --workload tpch-4w --seed 1 --seconds 10 --trace 0

The first call compiles `src/main/scala` together with `qbench/src` using
sbt (offline, from the local dependency cache) and stores the classpath in
`qbench/target/`; later calls reuse it until a source file changes. The
run itself is one JVM (`qbench.Main`); its last stdout line is the JSON
result. Exits non-zero without a result if the engine sources are missing,
the build fails, or the run fails or exceeds its time limit.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
CLASSPATH = os.path.join(TARGET, "classpath.txt")
SOURCES = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src"),
           os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
RUN_LIMIT_S = 170

# Spark on Java 17 needs these JDK internals opened (as in the main build).
OPENS = ["java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
         "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
         "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
         "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
         "java.base/sun.security.action", "java.base/sun.util.calendar"]


def newest_mtime(paths):
    newest = 0.0
    for p in paths:
        if os.path.isfile(p):
            newest = max(newest, os.path.getmtime(p))
        for d, _, files in os.walk(p):
            for f in files:
                newest = max(newest, os.path.getmtime(os.path.join(d, f)))
    return newest


def spark_home():
    """The Spark distribution of the first spark-submit on the PATH that has jars/."""
    for d in os.environ.get("PATH", "").split(os.pathsep):
        exe = os.path.join(d, "spark-submit")
        home = os.path.dirname(os.path.dirname(os.path.realpath(exe)))
        if os.path.isfile(exe) and os.path.isdir(os.path.join(home, "jars")):
            return home
    sys.exit("qbench: set SPARK_HOME to a Spark distribution (none found on the PATH)")


def build():
    """Compile with sbt if the stored classpath is missing or stale."""
    if os.path.exists(CLASSPATH) and os.path.getmtime(CLASSPATH) >= newest_mtime(SOURCES):
        return
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SPARK_HOME" not in env:
        env["SPARK_HOME"] = spark_home()
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", "-Dsbt.repository.config=" + repos]
        env["SBT_OPTS"] = " ".join(opts)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
           "compile", "export Runtime/fullClasspath"]
    p = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                       stdin=subprocess.DEVNULL, text=True)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if p.returncode != 0 or not lines or "[error]" in p.stdout:
        sys.stderr.write(p.stdout)
        sys.exit("qbench: build failed")
    os.makedirs(TARGET, exist_ok=True)
    with open(CLASSPATH, "w") as f:
        f.write(lines[-1].strip())


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        sys.exit("qbench: engine sources (src/main/scala/repro) not found next to qbench/")
    build()
    with open(CLASSPATH) as f:
        cp = f.read().strip()
    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", "-Xms3g", "-Xmx3g", "-XX:+UseParallelGC", "-Djava.io.tmpdir=" + tmp,
            "-Dspark.ui.enabled=false"]
           + ["--add-opens=%s=ALL-UNNAMED" % o for o in OPENS]
           + ["-cp", cp, "qbench.Main", "--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds), "--trace", str(a.trace), "--out", TARGET])
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(TARGET, "spark-local"))
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = p.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        sys.exit("qbench: run exceeded %d s" % RUN_LIMIT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
