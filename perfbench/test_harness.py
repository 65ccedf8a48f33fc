#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/test_harness.py      (from the repository root)

Covers the output parsers on captured samples, the readiness probe against a
scripted peer, the tail-percentile rule, agreement of perfbench/oracle.py
with Ppst_timeseries.Distance on random series, and whole runs that must
fail (an oracle doctored to be off by one on one series) or be interrupted
(SIGINT) without leaving a process or a scratch directory
behind. The last three build the binaries first, as run.py does.
"""

import json
import os
import random
import shutil
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

PAIR_SAMPLE = """\
secure DTW distance (squared-Euclidean costs) = 13421
server time (reported at close): 0.853 s
elapsed: 1.854 s
communication: sent 12833 B / 49 values; received 2830 B / 11 values; 7 rounds, 14 messages
cost: client: enc=51 dec=0 hom=87, online 0.996s (p1 0.192, p2 0.803, p3 0.000), offline 0.858s, pool misses 0
      server: enc=0 dec=0 hom=0, time 0.000s (p1 0.000, p2 0.000, p3 0.000)
      jobs: 1
"""

QUERY_SAMPLE = """\
hit: record 3 (id rec03) distance 14
hit: record 7 (id rec07) distance 22
catalog: 12 candidate(s), 10 pruned by the secure lower bound, 2 exact run(s)
server time (reported at close): 0.401 s
elapsed: 1.702 s
communication: sent 118000 B / 700 values; received 18125 B / 90 values; 50 rounds, 100 messages
cost: client: enc=1 dec=0 hom=2, online 1.0s (p1 0.1, p2 0.9, p3 0.000), offline 0.5s, pool misses 0
"""

SINGLE_SERVER_ERR = (
    "ppst_server.exe: [INFO] serving 1 record(s), dim 1, max value 100, on port 42467 "
    "(concurrency 4)\n")

WORKERS_SERVER_OUT = """\
listening on port 39001 with 2 workers
worker 0: pid 5101
worker 1: pid 5102
"""

RETRY_ERR = """\
ppst_client.exe: [WARNING] session attempt 1 failed (Busy); retrying in 0.10 s
ppst_client.exe: [WARNING] session attempt 2 failed (Busy); retrying in 0.20 s
"""


class Parsers(unittest.TestCase):
    def test_pair_output(self):
        f = harness.parse_client(PAIR_SAMPLE)
        self.assertEqual(f["distance"], 13421)
        self.assertEqual(f["server_s"], 0.853)
        self.assertEqual(f["elapsed_s"], 1.854)
        self.assertEqual(f["bytes"], 12833 + 2830)
        self.assertEqual(f["values"], 60)
        self.assertEqual((f["rounds"], f["messages"]), (7, 14))
        self.assertEqual(f["hits"], [])
        self.assertIsNone(f["catalog"])

    def test_query_output(self):
        f = harness.parse_client(QUERY_SAMPLE)
        self.assertIsNone(f["distance"])
        self.assertEqual(f["hits"], [(3, "rec03", 14), (7, "rec07", 22)])
        self.assertEqual(f["catalog"], (12, 10, 2))
        self.assertEqual(f["incomplete"], 0)
        f = harness.parse_client(QUERY_SAMPLE + "incomplete: idx=1 id=rec01 reason=deadline\n")
        self.assertEqual(f["incomplete"], 1)

    def test_truncated_output_is_rejected(self):
        with self.assertRaises(ValueError):
            harness.parse_client(PAIR_SAMPLE.split("elapsed")[0])

    def test_server_lines(self):
        self.assertEqual(harness.parse_port(SINGLE_SERVER_ERR), 42467)
        self.assertEqual(harness.parse_port(WORKERS_SERVER_OUT), 39001)
        self.assertIsNone(harness.parse_port("no port yet"))
        self.assertEqual(harness.parse_worker_pids(WORKERS_SERVER_OUT), [5101, 5102])
        self.assertEqual(harness.count_retries(RETRY_ERR), 2)


class ReadinessProbe(unittest.TestCase):
    """harness.health against a peer that plays the server's side of the
    frames: Health_req -> Health_reply (status 0, active 1, capacity 4,
    retry-after 0.5 s), then Bye -> Bye_ack."""

    def serve(self, replies):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        seen = []

        def peer():
            conn, _ = listener.accept()
            with conn:
                for reply in replies:
                    seen.append(harness._read_frame(conn))
                    # split the reply to check that frames are reassembled
                    conn.sendall(reply[:3])
                    time.sleep(0.01)
                    conn.sendall(reply[3:])
            listener.close()

        t = threading.Thread(target=peer)
        t.start()
        return listener.getsockname()[1], t, seen

    def test_ready_server(self):
        health_reply = struct.pack(">BBIId", 0x8F, 0, 1, 4, 0.5)
        bye_ack = struct.pack(">Bd", 0x85, 0.0)
        port, t, seen = self.serve([struct.pack(">I", len(r)) + r
                                    for r in (health_reply, bye_ack)])
        self.assertEqual(harness.health(port), 0)
        t.join(5)
        self.assertEqual(seen, [b"\x0d", b"\x06"])

    def test_unexpected_reply_is_an_error(self):
        port, t, _ = self.serve([struct.pack(">IB", 1, 0x8E)])  # Busy
        with self.assertRaises(RuntimeError):
            harness.health(port)
        t.join(5)

    def test_nothing_listening(self):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
        s.close()
        self.assertIsNone(harness.health(port))


class Percentiles(unittest.TestCase):
    def test_no_tail_below_forty(self):
        self.assertIsNone(harness.tail(list(range(39))))

    def test_highest_percentile_with_ten_beyond(self):
        for n, want in ((40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
                        (999, 95.0), (1000, 99.0), (10000, 99.9)):
            xs = [float(i) for i in range(n)]
            random.Random(n).shuffle(xs)
            value, pct = harness.tail(xs)
            self.assertEqual(pct, want, n)
            beyond = sum(1 for x in xs if x > value)
            self.assertGreaterEqual(beyond, 10, n)
            # the next percentile up would leave fewer than ten beyond
            higher = [p for p in harness.TAIL_LADDER if p > pct]
            if higher:
                rank = -(-min(higher) * n // 100)
                self.assertLess(n - rank, 10, n)

    def test_median(self):
        self.assertEqual(harness.median([3, 1, 2]), 2)
        self.assertEqual(harness.median([4, 1, 2, 3]), 2.5)


class Oracle(unittest.TestCase):
    def test_hand_worked(self):
        x, y = [(1,), (2,), (3,)], [(1,), (3,)]
        self.assertEqual(oracle.dtw(x, y), 1)  # 0 + 1 + 0
        self.assertEqual(oracle.dfd(x, y), 1)
        self.assertEqual(oracle.sq_euclidean(x, x), 0)
        self.assertIsNone(oracle.dtw([(1,)] * 4, [(1,)], band=1))

    def test_agrees_with_library(self):
        exe = run.build()["probe"]
        work = os.path.join(run.WORK_ROOT, "selftest-%d" % os.getpid())
        os.makedirs(work)
        try:
            rng = random.Random(2014)
            xf, yf = os.path.join(work, "x.csv"), os.path.join(work, "y.csv")
            for trial in range(24):
                m, n = rng.randint(1, 7), rng.randint(1, 7)
                algo, band = rng.choice([("dtw", None), ("dtw", 1), ("dtw", 2), ("dfd", None),
                                         ("euclidean", None)])
                if algo == "euclidean":
                    n = m
                d = rng.randint(1, 2)
                x = [tuple(rng.randint(0, 100) for _ in range(d)) for _ in range(m)]
                y = [tuple(rng.randint(0, 100) for _ in range(d)) for _ in range(n)]
                run.write_series(xf, x)
                run.write_series(yf, y)
                out = subprocess.run(
                    [exe, "distance", algo, str(-1 if band is None else band), xf, yf],
                    check=True, stdout=subprocess.PIPE, text=True).stdout.strip()
                mine = oracle.distance(algo, x, y, band)
                self.assertEqual(out, "none" if mine is None else str(mine),
                                 "trial %d: %s band %s" % (trial, algo, band))
        finally:
            shutil.rmtree(work, ignore_errors=True)


class Manifest(unittest.TestCase):
    def test_benchmark_json_matches_the_command(self):
        with open("BENCHMARK.json") as f:
            doc = json.load(f)
        listed = [w["name"] for w in doc["workloads"]]
        self.assertEqual(listed, sorted(listed))
        # query-256 stays runnable by hand; see README, "Workloads"
        self.assertEqual(set(run.WORKLOADS) - set(listed), {"query-256"})
        self.assertLessEqual(set(listed), set(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]], run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]}, run.PER_LAYER_UNITS)
        setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in doc["end_to_end"]))


def leftover_processes(root):
    """Processes running a binary built in this checkout."""
    build = os.path.abspath(os.path.join(root, "_build"))
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open("/proc/%s/cmdline" % pid, "rb") as f:
                argv0 = f.read().split(b"\0")[0].decode(errors="replace")
        except OSError:
            continue
        if argv0.startswith(build):
            found.append((int(pid), argv0))
    return found


class WholeRuns(unittest.TestCase):
    def assertClean(self):
        deadline = time.monotonic() + 5.0
        while leftover_processes(".") and time.monotonic() < deadline:
            time.sleep(0.1)
        self.assertEqual(leftover_processes("."), [])
        self.assertFalse(os.path.exists(run.WORK_ROOT) and any(
            e.startswith("serve-64-") for e in os.listdir(run.WORK_ROOT)))

    def test_doctored_distance_fails_the_run(self):
        # The oracle's first answer (client series 0) is off by one, so every
        # session on that series must fail its check and the run with it.
        doctored = (
            "import sys; sys.path.insert(0, %r)\n"
            "import oracle, run\n"
            "real, calls = oracle.distance, []\n"
            "def distance(*a):\n"
            "    calls.append(a)\n"
            "    return real(*a) + (1 if len(calls) == 1 else 0)\n"
            "oracle.distance = distance\n"
            "sys.argv = ['run.py', '--workload', 'serve-64', '--seed', '1', '--seconds', '1']\n"
            "sys.exit(run.main())\n" % HERE)
        res = subprocess.run([sys.executable, "-c", doctored],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
        self.assertEqual(res.returncode, 1, res.stderr)
        last = json.loads(res.stdout.strip().splitlines()[-1])
        self.assertFalse(last["correct"])
        on_series_0 = -(-last["attempted"] // run.CLIENT_SERIES)
        self.assertEqual(last["failed"], on_series_0)
        self.assertIn("distance", res.stderr)
        self.assertClean()

    def test_sigint_stops_everything(self):
        p = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "serve-64",
             "--seed", "2", "--seconds", "30"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        time.sleep(1.0)
        deadline = time.monotonic() + 120
        while not leftover_processes(".") and time.monotonic() < deadline:
            time.sleep(0.05)  # the build may still be running
        time.sleep(0.5)
        p.send_signal(signal.SIGINT)
        out, _ = p.communicate(timeout=60)
        self.assertEqual(p.returncode, 130)
        self.assertEqual(out.strip(), "")
        self.assertClean()


if __name__ == "__main__":
    root = os.path.dirname(HERE)
    os.chdir(root)
    unittest.main()
