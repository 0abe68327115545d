"""The program under test: building it, running the `certchain` binary as
a timed subprocess, cutting rotations, and driving a `serve` daemon."""

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import time

SERVE_INTERVAL_MS = 50
HTTP_TIMEOUT_S = 30
START_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failure, ...)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir(root):
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(root):
    """Build the release `certchain` binary and the benchmark's own three
    binaries from the checkout at `root`; return the paths of
    `certchain`, `perfbench-traced`, `perfbench-heap` and `perfbench-ref`.
    All build on the first run, so a later run does not pay for a build."""
    if not os.path.isfile(os.path.join(root, "crates", "cli", "Cargo.toml")):
        raise BenchError(f"no certchain sources under {root}")
    cmds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "certchain-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir(root))
    for cmd in cmds:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if proc.returncode != 0:
            raise BenchError(f"`{' '.join(cmd)}` failed with exit {proc.returncode}")
    release = os.path.join(target_dir(root), "release")
    return tuple(os.path.join(release, name)
                 for name in ("certchain", "perfbench-traced", "perfbench-heap",
                              "perfbench-ref"))


class Result:
    def __init__(self, code, out, ms, rss_mib):
        self.code, self.out, self.ms, self.rss_mib = code, out, ms, rss_mib


def run(argv, cwd=None):
    """Run to completion; return exit code, stdout, wall ms and the
    child's own peak RSS (from `wait4`, so set-up processes never leak
    into the figure)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    ms = (time.perf_counter() - start) * 1e3
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(proc.returncode, out.decode("utf-8", "replace"), ms, usage.ru_maxrss / 1024.0)


def dir_bytes(path):
    return sum(
        os.path.getsize(os.path.join(path, n))
        for n in os.listdir(path)
        if os.path.isfile(os.path.join(path, n))
    )


def cut_rotations(data, out, pairs):
    """Cut `<data>/{x509,ssl}.log` into `pairs` rotated pairs under `out`,
    named for consecutive calendar hours from 2024-09-01-00. Each file
    keeps the TSV header (minus the `#close` footer) so it parses alone.
    Returns the (x509, ssl) name pairs in rotation order."""
    os.makedirs(out, exist_ok=True)
    names = {}
    for kind in ("x509", "ssl"):
        head, rows = [], []
        with open(os.path.join(data, f"{kind}.log"), "rb") as f:
            for line in f:
                if not line.startswith(b"#"):
                    rows.append(line)
                elif not line.startswith(b"#close"):
                    head.append(line)
        per = -(-len(rows) // pairs)
        names[kind] = []
        for i in range(pairs):
            day, hour = divmod(i, 24)
            name = f"{kind}.2024-09-{1 + day:02d}-{hour:02d}.log"
            with open(os.path.join(out, name), "wb") as f:
                f.writelines(head)
                f.writelines(rows[i * per:(i + 1) * per])
            names[kind].append(name)
    return list(zip(names["x509"], names["ssl"]))


def header_only_copy(data, out):
    """A copy of the dataset whose logs hold only their headers: analyze
    over it costs process start plus the trust, CT and cross-sign load."""
    shutil.copytree(data, out, copy_function=os.link,
                    ignore=shutil.ignore_patterns("*.log", "colstore"))
    for kind in ("ssl", "x509"):
        with open(os.path.join(data, f"{kind}.log"), "rb") as src, \
                open(os.path.join(out, f"{kind}.log"), "wb") as dst:
            for line in src:
                if not line.startswith(b"#"):
                    break
                dst.write(line)


class Daemon:
    """One `certchain serve --listen 127.0.0.1:0` process over `spool`."""

    def __init__(self, binary, data, work):
        self.spool = os.path.join(work, "spool")
        self.checkpoint = os.path.join(work, "checkpoint")
        self.incoming = os.path.join(work, "incoming")
        for d in (self.spool, self.incoming):
            os.makedirs(d)
        addr_file = os.path.join(work, "addr")
        self.proc = subprocess.Popen(
            [binary, "serve", "--dir", data, "--spool", self.spool,
             "--checkpoint", self.checkpoint, "--listen", "127.0.0.1:0",
             "--listen-addr-file", addr_file, "--interval-ms", str(SERVE_INTERVAL_MS)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + START_TIMEOUT_S
        addr = ""
        while not addr:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("serve did not start listening")
            if os.path.exists(addr_file):
                with open(addr_file) as f:
                    addr = f.read().strip()
            if not addr:
                time.sleep(0.005)
        host, port = addr.rsplit(":", 1)
        self.host, self.port = host, int(port)
        while self.get("/healthz")[0] != 200:
            if time.monotonic() > deadline:
                self.stop()
                raise BenchError("serve never reported healthy")
            time.sleep(0.005)

    def get(self, path):
        """GET `path`; return (status, body bytes). Connection errors read
        as status 0."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=HTTP_TIMEOUT_S)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        except OSError:
            return 0, b""
        finally:
            conn.close()

    def feed(self, stage, names):
        """Rotate `names` from `stage` into the spool the way Zeek does:
        the file is complete under another name first, then renamed in.
        Returns the clock reading at the first rename."""
        for name in names:
            os.link(os.path.join(stage, name), os.path.join(self.incoming, name))
        start = time.perf_counter()
        for name in names:
            os.rename(os.path.join(self.incoming, name), os.path.join(self.spool, name))
        return start

    def folded(self):
        status, body = self.get("/status")
        if status != 200:
            return None
        return set(json.loads(body).get("folded_files", []))

    def vm_hwm_mib(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the serve process")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
