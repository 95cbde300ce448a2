#!/usr/bin/env python3
"""Run one workload of the TSUBASA benchmark.

    python3 perfbench/run.py --workload <spark-hist|mem-ncea|stream-rt> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run compiles the program
(src/main/scala) together with the benchmark (perfbench/src) using the
Scala compiler that ships with the Spark distribution, into
$CARGO_TARGET_DIR (default .bench_build); later runs reuse the classes
while the sources are unchanged. Each run starts one JVM with a fixed
heap and Spark local[k], k = min(4, cores), and keeps all scratch files
under the build directory. Standard output ends with the result object.
"""
import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys

HEAP = "3g"
RUN_TIMEOUT_S = 170
COMPILE_TIMEOUT_S = 600
# Not compiled: the DuckDB test oracle, whose JDBC jar is not in the Spark distribution.
EXCLUDED = {"src/main/scala/repro/Oracle.scala"}
JVM_FLAGS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "-XX:-UsePerfData",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    found = sorted(glob.glob("src/main/scala/**/*.scala", recursive=True))
    program = [f for f in found if f not in EXCLUDED]
    bench = sorted(glob.glob("perfbench/src/**/*.scala", recursive=True))
    if not program:
        fail("no program sources under src/main/scala; run from the repository root")
    if not bench:
        fail("no benchmark sources under perfbench/src")
    return program + bench


def java():
    home = os.environ.get("JAVA_HOME")
    return os.path.join(home, "bin", "java") if home else "java"


def spark_jars():
    """Jar directory of $SPARK_HOME, else of a spark-submit on PATH."""
    homes = [os.environ["SPARK_HOME"]] if os.environ.get("SPARK_HOME") else [
        os.path.dirname(os.path.dirname(os.path.realpath(os.path.join(d, "spark-submit"))))
        for d in os.environ.get("PATH", "").split(os.pathsep)
        if os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in homes:
        jars = os.path.join(home, "jars")
        if glob.glob(os.path.join(jars, "spark-sql_*.jar")):
            return jars
    fail("no Spark jars: set SPARK_HOME or put Spark's spark-submit on PATH")


def build(build_dir, jars, files):
    """Compile files into build_dir/classes unless the stamp matches them."""
    digest = hashlib.sha256()
    for jar in sorted(os.listdir(jars)):
        digest.update(jar.encode())
    for f in files:
        digest.update(f.encode())
        with open(f, "rb") as fh:
            digest.update(fh.read())
    stamp = digest.hexdigest()
    classes = os.path.join(build_dir, "classes")
    stamp_file = os.path.join(build_dir, "classes.stamp")
    if os.path.isdir(classes) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                return classes
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cp = os.path.join(jars, "*")
    cmd = [java(), "-Xmx1g", "-XX:-UsePerfData", "-cp", cp, "scala.tools.nsc.Main", "-usejavacp", "-nowarn",
           "-d", tmp, "-classpath", cp] + files
    print(f"perfbench: compiling {len(files)} sources", file=sys.stderr)
    if subprocess.run(cmd, stdout=sys.stderr, timeout=COMPILE_TIMEOUT_S).returncode != 0:
        fail("compilation failed")
    shutil.rmtree(classes, ignore_errors=True)
    os.replace(tmp, classes)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return classes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["spark-hist", "mem-ncea", "stream-rt"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()

    files = sources()
    jars = spark_jars()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    classes = build(build_dir, jars, files)

    work = os.path.join(build_dir, f"work-{a.workload}-{a.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(work, "spark-local"))
    cmd = [java(), f"-Xms{HEAP}", f"-Xmx{HEAP}", *JVM_FLAGS,
           f"-Djava.io.tmpdir={os.path.join(work, 'tmp')}",
           f"-Dlog4j.configurationFile={os.path.abspath('perfbench/log4j2.properties')}",
           "-cp", os.pathsep.join([classes, os.path.join(jars, "*")]),
           "repro.perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace, "--work-dir", work]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        traces = glob.glob(os.path.join(work, "trace-*.jsonl"))
        if traces:
            os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
            for t in traces:
                os.replace(t, os.path.join(build_dir, "traces", os.path.basename(t)))
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
