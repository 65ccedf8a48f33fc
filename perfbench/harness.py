"""Process control, output parsing and statistics for the repo benchmark.

Nothing here knows about a particular workload; run.py composes these
pieces. Children are tracked in a Reaper so that every exit path, a failed
check and SIGINT included, stops and waits for every process it started.
"""

import ctypes
import math
import os
import re
import select
import signal
import socket
import struct
import subprocess
import time

now = time.monotonic

# --- output parsers ---------------------------------------------------------

_DISTANCE = re.compile(r"^secure \S+(?: \S+)* distance \(squared-Euclidean costs\) = (\d+)$", re.M)
_SERVER_TIME = re.compile(r"^server time \(reported at close\): ([0-9.]+) s$", re.M)
_ELAPSED = re.compile(r"^elapsed: ([0-9.]+) s$", re.M)
_COMM = re.compile(
    r"^communication: sent (\d+) B / (\d+) values; received (\d+) B / (\d+) values; "
    r"(\d+) rounds, (\d+) messages$",
    re.M,
)
_HIT = re.compile(r"^hit: record (\d+) \(id (\S+)\) distance (\d+)$", re.M)
_CATALOG = re.compile(
    r"^catalog: (\d+) candidate\(s\), (\d+) pruned by the secure lower bound, (\d+) exact run\(s\)$",
    re.M,
)
_INCOMPLETE = re.compile(r"^incomplete: ", re.M)
_PORT = re.compile(r"on port (\d+)")
_WORKER = re.compile(r"^worker \d+: pid (\d+)$", re.M)
_RETRY = re.compile(r"session attempt \d+ failed")


def parse_client(text):
    """Fields of one ppst_client pair/query run's standard output.

    Raises ValueError when a line every session prints is missing."""
    out = {}
    for name, rx in (("server_s", _SERVER_TIME), ("elapsed_s", _ELAPSED)):
        m = rx.search(text)
        if not m:
            raise ValueError("client output lacks the %s line" % name)
        out[name] = float(m.group(1))
    m = _COMM.search(text)
    if not m:
        raise ValueError("client output lacks the communication line")
    bs, vs, br, vr, rounds, messages = (int(g) for g in m.groups())
    out.update(
        bytes=bs + br, values=vs + vr, rounds=rounds, messages=messages
    )
    m = _DISTANCE.search(text)
    out["distance"] = int(m.group(1)) if m else None
    out["hits"] = [(int(i), ident, int(d)) for i, ident, d in _HIT.findall(text)]
    m = _CATALOG.search(text)
    out["catalog"] = tuple(int(g) for g in m.groups()) if m else None
    out["incomplete"] = len(_INCOMPLETE.findall(text))
    return out


def parse_port(text):
    m = _PORT.search(text)
    return int(m.group(1)) if m else None


def parse_worker_pids(text):
    return [int(p) for p in _WORKER.findall(text)]


def count_retries(stderr_text):
    return len(_RETRY.findall(stderr_text))


# --- statistics -------------------------------------------------------------

TAIL_MIN_SAMPLES = 40
TAIL_BEYOND = 10
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def median(xs):
    s = sorted(xs)
    n = len(s)
    if n == 0:
        raise ValueError("median of no samples")
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2.0


def tail(xs):
    """(value, percentile) of the highest standard percentile (nearest
    rank) with at least ten samples beyond it, or None below forty samples,
    where no percentile above the median qualifies. A fixed ladder keeps the
    same percentile from run to run while the sample count stays in its
    band, which the eleventh-largest sample would not."""
    n = len(xs)
    if n < TAIL_MIN_SAMPLES:
        return None
    s = sorted(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p * n / 100.0)
        if n - rank >= TAIL_BEYOND:
            return s[rank - 1], p
    raise AssertionError("unreachable: p75 qualifies from 40 samples")


# --- /proc readings of our own children --------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid):
    """User plus system CPU seconds of a live process, 0 once it is gone."""
    try:
        with open("/proc/%d/stat" % pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # fields[0] is the state (field 3); utime/stime are fields 14 and 15
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_peak_rss_mb(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# --- processes --------------------------------------------------------------

def become_subreaper():
    """Adopt orphaned descendants (a killed supervisor's workers) so they
    can be waited for. Best effort: a no-op where prctl is unavailable."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


class Reaper:
    """Every child process of a run. Servers get their own process group so
    their workers go down with them."""

    def __init__(self):
        self.servers = []
        self.clients = {}

    def spawn_server(self, argv, out_path, err_path, cwd):
        out = open(out_path, "wb")
        err = open(err_path, "wb")
        try:
            p = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=cwd,
                start_new_session=True,
            )
        finally:
            out.close()
            err.close()
        self.servers.append(p)
        return p

    def spawn_client(self, argv, cwd):
        p = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, cwd=cwd,
        )
        self.clients[p.pid] = p
        return p

    def reap_client(self, p):
        """Wait for a client that has exited; (status, rusage, stdout, stderr)."""
        _, status, ru = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        out = p.stdout.read().decode(errors="replace")
        err = p.stderr.read().decode(errors="replace")
        p.stdout.close()
        p.stderr.close()
        del self.clients[p.pid]
        return p.returncode, ru, out, err

    def stop_server(self, p, timeout=20.0):
        """SIGTERM, then SIGKILL for the whole group if it lingers."""
        if p.poll() is None:
            try:
                p.send_signal(signal.SIGTERM)
                p.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        self._kill_group(p.pid)
        if p in self.servers:
            self.servers.remove(p)

    def _kill_group(self, pgid):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        # the group leader is ours to wait for; adopted workers too
        deadline = now() + 10.0
        while now() < deadline:
            try:
                pid, _ = os.waitpid(-pgid, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                time.sleep(0.01)

    def cleanup(self):
        for pid, p in list(self.clients.items()):
            try:
                p.kill()
            except ProcessLookupError:
                pass
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
            p.returncode = -9
            for f in (p.stdout, p.stderr):
                f.close()
        self.clients.clear()
        for p in list(self.servers):
            self.stop_server(p, timeout=5.0)


def wait_any(procs, timeout):
    """Block until one of procs (Popen) has exited or timeout passes;
    returns the exited ones (possibly empty)."""
    fds = {}
    try:
        for p in procs:
            fds[os.pidfd_open(p.pid)] = p
        ready, _, _ = select.select(list(fds), [], [], max(0.0, timeout))
        return [fds[fd] for fd in ready]
    finally:
        for fd in fds:
            os.close(fd)


# --- the readiness probe, spoken from here ------------------------------------

_HEALTH_REQ, _BYE = 0x0D, 0x06        # request tags, PROTOCOL.md section 3
_HEALTH_REPLY, _BYE_ACK = 0x8F, 0x85  # reply tags


def _read_frame(sock):
    """One frame's payload: a u32 big-endian length, then that many bytes."""
    buf = b""
    need = 4
    length = None
    while len(buf) < need:
        chunk = sock.recv(need - len(buf))
        if not chunk:
            raise ConnectionError("server closed the connection mid-frame")
        buf += chunk
        if length is None and len(buf) == 4:
            (length,) = struct.unpack(">I", buf)
            buf, need = b"", length
    return buf


def health(port, timeout=5.0):
    """Status of one Health_req round trip to a server on this host (0 is
    ready), or None while nothing accepts connections on the port. Sent
    from this process so that the probe costs a connect and two frames,
    not a client process start."""
    try:
        sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    except ConnectionRefusedError:
        return None
    with sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(struct.pack(">IB", 1, _HEALTH_REQ))
        reply = _read_frame(sock)
        if len(reply) < 2 or reply[0] != _HEALTH_REPLY:
            raise RuntimeError("health probe: unexpected reply %r" % reply[:16])
        sock.sendall(struct.pack(">IB", 1, _BYE))
        if _read_frame(sock)[:1] != bytes([_BYE_ACK]):
            raise RuntimeError("health probe: no Bye_ack")
        return reply[1]


def wait_for_port(p, paths, timeout):
    """Poll a server's output files for its 'on port N' line."""
    deadline = now() + timeout
    while now() < deadline:
        for path in paths:
            with open(path, errors="replace") as f:
                port = parse_port(f.read())
            if port:
                return port
        if p.poll() is not None:
            raise RuntimeError("server exited with %s before listening" % p.returncode)
        time.sleep(0.001)
    raise RuntimeError("server printed no port within %.0f s" % timeout)
