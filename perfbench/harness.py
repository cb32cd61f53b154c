"""Processes, build, data cache and wire client of the benchmark."""

import hashlib
import json
import os
import select
import shutil
import socket
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DATA_DIR = os.path.join(ROOT, ".bench_data")
NPROC = os.cpu_count() or 1
TARGETS = ("mesa_cli", "mesa_serve", "perfbench_probe")


class BenchError(Exception):
    """A failure of the benchmark itself (build, data, protocol)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env(threads=NPROC):
    """The children's environment: no inherited MESA_* knobs, a fixed pool."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MESA_")}
    env["MESA_NUM_THREADS"] = str(threads)
    return env


def binary(name):
    sub = "" if name == "perfbench_probe" else "mesa"
    return os.path.join(BUILD_DIR, sub, name)


def build():
    """Configures (once) and builds the three binaries from ../src."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no src/CMakeLists.txt next to perfbench/: "
                         "run from a full checkout of the repository")
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    steps = [["cmake", "--build", BUILD_DIR, "-j", str(NPROC), "--target",
              *TARGETS]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    with open(build_log, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError("build failed; see " + build_log)


def provenance():
    """Where a result came from: machine, build and inputs."""
    cache = {}
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "-dumpfullversion"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        version = "unknown"
    commit = "not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        commit = r.stdout.strip() or commit
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            with open(os.path.join(base, name), "rb") as f:
                digest.update(name.encode() + f.read())
    return {
        "nproc": NPROC,
        "mesa_num_threads": NPROC,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "compiler": os.path.basename(compiler) + " " + version,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "page_cache": "inputs read in full before timing",
    }


def warm_page_cache(paths):
    for path in paths:
        with open(path, "rb") as f:
            while f.read(1 << 22):
                pass


def dataset(kind, rows, seed, extract, snapshot=False):
    """Generates (or reuses) a seeded dataset under .bench_data.

    Returns a dict with the csv, kg and (if asked) snapshot paths and the
    extraction columns. Generation is never timed.
    """
    path = os.path.join(DATA_DIR, "%s-%d-s%d" % (kind, rows, seed))
    prefix = os.path.join(path, kind)
    if not os.path.isdir(path):
        tmp = path + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        run_checked([binary("mesa_cli"), "gen", "--dataset", kind, "--rows",
                     str(rows), "--seed", str(seed), "--out",
                     os.path.join(tmp, kind)])
        os.rename(tmp, path)
    out = {"csv": prefix + ".csv", "kg": prefix + ".kg",
           "extract": list(extract)}
    if snapshot:
        out["snapshot"] = prefix + ".msnap"
        if not os.path.isfile(out["snapshot"]):
            run_checked([binary("mesa_cli"), "explain", "--data", out["csv"],
                         "--kg", out["kg"], "--extract", ",".join(extract),
                         "--save-snapshot", out["snapshot"] + ".tmp"])
            os.rename(out["snapshot"] + ".tmp", out["snapshot"])
    return out


def run_checked(cmd):
    r = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                       timeout=170)
    if r.returncode != 0:
        raise BenchError("%s failed (%d): %s" % (os.path.basename(cmd[0]),
                                                 r.returncode, r.stderr))
    return r.stdout


def run_timed(cmd, env):
    """Runs one process to completion. Returns (exit code, stdout, wall
    seconds, its own peak RSS in MB, its CPU seconds)."""
    out_path = os.path.join(DATA_DIR, "child-%d.out" % os.getpid())
    with open(out_path, "w+b") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode()
    os.unlink(out_path)
    return (proc.returncode, text, wall, usage.ru_maxrss / 1024.0,
            usage.ru_utime + usage.ru_stime)


class Conn:
    """One line-delimited JSON connection to mesa_serve."""

    def __init__(self, port, timeout=90.0):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rwb")

    def send(self, obj):
        self.file.write((json.dumps(obj) + "\n").encode())
        self.file.flush()

    def recv(self):
        line = self.file.readline()
        if not line:
            raise BenchError("connection closed by the daemon")
        return json.loads(line)

    def call(self, obj):
        self.send(obj)
        return self.recv()

    def close(self):
        try:
            self.file.close()
        finally:
            self.sock.close()


class Daemon:
    """A mesa_serve process; setup_s is launch until its `listening` line."""

    def __init__(self, spec, max_inflight=4, env=None):
        self.spec = spec
        self.max_inflight = max_inflight
        self.env = env or child_env()
        self.proc = None
        self.port = None
        self.setup_s = None

    def start(self, timeout=120.0):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary("mesa_serve"), "--data", self.spec, "--max-inflight",
             str(self.max_inflight)],
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        fd = self.proc.stdout.fileno()
        buf = b""
        while b"\n" not in buf:
            left = timeout - (time.perf_counter() - start)
            ready, _, _ = select.select([fd], [], [], max(0.0, left))
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                self.stop()
                raise BenchError("mesa_serve did not start: " + self.spec)
            buf += chunk
        self.setup_s = time.perf_counter() - start
        line = buf.split(b"\n", 1)[0].decode()
        if not line.startswith("listening on "):
            self.stop()
            raise BenchError("unexpected mesa_serve line: " + line)
        self.port = int(line.rsplit(":", 1)[1])
        return self

    def metrics(self):
        conn = Conn(self.port)
        try:
            return conn.call({"verb": "metrics"})["metrics"]
        finally:
            conn.close()

    def proc_status(self, field):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
        raise BenchError("no %s for mesa_serve" % field)

    def peak_rss_mb(self):
        return self.proc_status("VmHWM") / 1024.0

    def cpu_seconds(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / ticks

    def stop(self):
        if self.proc is None:
            return
        if self.proc.poll() is None and self.port is not None:
            try:
                conn = Conn(self.port, timeout=10.0)
                conn.call({"verb": "shutdown"})
                conn.close()
            except (OSError, BenchError, ValueError):
                pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


def probe(mode, plan, threads=NPROC):
    """Runs perfbench_probe on a plan; returns its stdout lines."""
    plan_path = os.path.join(DATA_DIR, "plan-%d.json" % os.getpid())
    with open(plan_path, "w") as f:
        json.dump(plan, f)
    try:
        r = subprocess.run([binary("perfbench_probe"), mode, plan_path],
                           env=child_env(threads), capture_output=True,
                           text=True, timeout=170)
    finally:
        os.unlink(plan_path)
    if r.returncode != 0:
        raise BenchError("perfbench_probe %s failed (%d): %s" %
                         (mode, r.returncode, r.stderr[-4000:]))
    return r.stdout.splitlines()
