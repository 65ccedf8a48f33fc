#!/usr/bin/env python3
"""The repo benchmark: workloads through the shipped binaries.

    python3 perfbench/run.py --workload pair-1024|serve-64|query-256 \
        --seed N --seconds S --trace 0|1

BENCHMARK.json lists pair-1024 and serve-64; query-256 runs the same way
but is left out of it (perfbench/README.md says why).

Run from the repository root. It builds ppst_server, ppst_client,
ppst_keygen and the in-process probe with dune, generates the workload's
inputs from --seed, starts ppst_server on an ephemeral port and drives
ppst_client sessions in a closed loop for --seconds, checking every revealed
distance against perfbench/oracle.py. The last line of standard output is
one JSON object: correct, attempted, failed and the metrics (end-to-end with
--trace 0, per-layer with --trace 1). See perfbench/README.md.
"""

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import oracle  # noqa: E402
from harness import median, now  # noqa: E402

BENCH_DIR = "perfbench"
WORK_ROOT = os.path.join(BENCH_DIR, ".work")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
BINARIES = ["bin/ppst_server.exe", "bin/ppst_client.exe", "bin/ppst_keygen.exe",
            "perfbench/probe/probe.exe"]
SETUPS = 15            # server launches per run; setup_s is their median
CLIENT_SERIES = 8      # distinct client series per pairwise run, used in turn
HARD_WALL_S = 150.0    # no run may outlive this, whatever --seconds says
OP_TIMEOUT_S = 60.0    # a client session longer than this counts as failed

# Each workload stresses different layers; why, in BENCHMARK.json and README.
WORKLOADS = {
    "pair-1024": dict(kind="pair", key_bits=1024, algo="dtw", band=None,
                      strategy="wavefront", m=3, n=3, clients=1, workers=0),
    "query-256": dict(kind="query", key_bits=256, algo="dtw", band=1,
                      strategy="full", m=8, n=8, clients=1, workers=0,
                      near=2, far=10, radius=200),
    "serve-64": dict(kind="pair", key_bits=64, algo="dfd", band=None,
                     strategy="full", m=12, n=12, clients=2, workers=2),
}

END_TO_END = [
    ("setup_s", "s"), ("latency_p50_s", "s"), ("latency_tail_s", "s"),
    ("ops_per_s", "1/s"), ("client_cpu_s", "s"), ("server_cpu_s", "s"),
    ("wire_bytes", "B"), ("round_trips", "count"),
    ("client_peak_rss_mb", "MB"), ("server_peak_rss_mb", "MB"),
]

PER_LAYER_UNITS = {
    "bigint.mont_mul_us": "us", "bigint.pow_ms": "ms",
    "paillier.encrypt_ms": "ms", "paillier.encrypt_sk_ms": "ms",
    "paillier.rn_refill_ms": "ms",
    "paillier.decrypt_ms": "ms", "paillier.decrypt_crt_ms": "ms",
    "paillier.add_us": "us", "paillier.scalar_mul_ms": "ms",
    "paillier.encryptions": "count", "paillier.decryptions": "count",
    "paillier.homomorphic": "count",
    "core.min_round_ms": "ms", "core.max_round_ms": "ms",
    "core.session_inproc_s": "s", "core.client_online_s": "s",
    "core.client_offline_s": "s", "core.server_s": "s", "core.values": "count",
    "core.residual_s": "s",
    "catalog.load_s": "s",
    "query.candidates": "count", "query.pruned": "count",
    "query.evaluated": "count", "query.stage1_s": "s", "query.stage2_s": "s",
    "session.server_handler_s": "s", "session.client_elapsed_s": "s",
    "session.start_connect_s": "s", "session.wait_s": "s",
    "transport.connect_ms": "ms", "transport.rtt_ms": "ms",
    "transport.codec_us": "us", "transport.frames": "count",
    "supervisor.dispatch_ms": "ms", "spool.put_ms": "ms",
    "client.retries": "count",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


# --- inputs -----------------------------------------------------------------

def write_series(path, series):
    with open(path, "w") as f:
        for e in series:
            f.write(",".join(str(v) for v in e) + "\n")


def make_inputs(name, w, seed, work):
    """All of a run's inputs, from the workload name and the seed alone."""
    rng = random.Random("%s/%d" % (name, seed))
    inp = {"ops": []}
    if w["kind"] == "pair":
        y = [(rng.randint(0, 100),) for _ in range(w["n"])]
        inp["server_arg"] = [os.path.join(work, "server.csv")]
        write_series(inp["server_arg"][0], y)
        inp["probe_server"] = inp["server_arg"][0]
        for i in range(CLIENT_SERIES):
            x = [(rng.randint(0, 100),) for _ in range(w["m"])]
            path = os.path.join(work, "client%d.csv" % i)
            write_series(path, x)
            inp["ops"].append((path, oracle.distance(w["algo"], x, y, w["band"])))
    else:
        # A query with `near` noisy twins (every element within 2) and `far`
        # records shifted 35..45 away, all one way per record: the secure
        # lower bound must discard exactly the far ones at this radius, so
        # every seed does the same work.
        q = [(rng.randint(50, 70),) for _ in range(w["m"])]
        catalog = os.path.join(work, "catalog")
        os.mkdir(catalog)
        records = []
        for r in range(w["near"] + w["far"]):
            if r < w["near"]:
                rec = [(v + rng.randint(-2, 2),) for (v,) in q]
            else:
                sign = rng.choice((-1, 1))
                rec = [(v + sign * rng.randint(35, 45),) for (v,) in q]
            records.append(rec)
        rng.shuffle(records)
        hits = set()
        for r, rec in enumerate(records):
            ident = "rec%02d" % r
            write_series(os.path.join(catalog, ident + ".csv"), rec)
            d = oracle.distance(w["algo"], q, rec, w["band"])
            if d is not None and d <= w["radius"]:
                hits.add((ident, d))
        path = os.path.join(work, "query.csv")
        write_series(path, q)
        inp["server_arg"] = ["--catalog", catalog]
        inp["catalog"] = catalog
        inp["probe_server"] = os.path.join(catalog, min(h for h, _ in hits) + ".csv")
        inp["ops"].append((path, (frozenset(hits), len(records))))
    return inp


# --- the run ----------------------------------------------------------------

class Run:
    def __init__(self, name, args, exe, work):
        self.name = name
        self.w = WORKLOADS[name]
        self.args = args
        self.exe = exe
        self.work = work
        self.reaper = harness.Reaper()
        self.spans = []

    # servers

    def server_argv(self, workers):
        argv = [self.exe["ppst_server"], "-p", "0", "-k", self.key] + self.inputs["server_arg"]
        if workers:
            argv += ["--workers", str(workers)]
        return argv

    def start_server(self, tag, workers):
        """Launch and wait until a health probe answers 'ready'; returns
        (process, port, worker pids, seconds from launch to ready)."""
        out = os.path.join(self.work, tag + ".out")
        err = os.path.join(self.work, tag + ".err")
        t0 = now()
        p = self.reaper.spawn_server(self.server_argv(workers), out, err, os.getcwd())
        port = harness.wait_for_port(p, [out, err], timeout=60.0)
        while harness.health(port) != 0:
            if p.poll() is not None or now() - t0 > 60.0:
                raise BenchError("server on port %d never reported ready" % port)
            time.sleep(0.0005)
        ready = now() - t0
        with open(out) as f:
            pids = harness.parse_worker_pids(f.read())
        return p, port, pids, ready

    def setup(self):
        times = []
        for i in range(SETUPS):
            p, port, pids, ready = self.start_server("server%d" % i, self.w["workers"])
            times.append(ready)
            if i < SETUPS - 1:
                # nothing to drain on a server that only answered the probe
                self.reaper.stop_server(p, timeout=0)
        self.server, self.port, self.server_pids = p, port, [p.pid] + pids
        return times

    # clients

    def client_argv(self, i, port, trace_out=None):
        w = self.w
        path, _ = self.inputs["ops"][i % len(self.inputs["ops"])]
        argv = [self.exe["ppst_client"], w["kind"], path, "-p", str(port),
                "--distance", w["algo"]]
        if w["strategy"] == "wavefront":
            argv.append("--wavefront")
        if w["band"] is not None:
            argv += ["--band", str(w["band"])]
        if w["kind"] == "query":
            argv += ["--within", str(w["radius"])]
        if trace_out:
            argv += ["--trace-out", trace_out]
        return argv

    def check(self, i, rc, out):
        """None when the session's output is right, else what is wrong."""
        if rc != 0:
            return "exit code %d" % rc
        try:
            f = harness.parse_client(out)
        except ValueError as e:
            return str(e)
        _, expected = self.inputs["ops"][i % len(self.inputs["ops"])]
        if self.w["kind"] == "pair":
            if f["distance"] != expected:
                return "distance %s, oracle %s" % (f["distance"], expected)
            if f["values"] != self.expected_values:
                return "%d wire values, closed form %d" % (f["values"], self.expected_values)
        else:
            hits, total = expected
            got = frozenset((ident[:-4] if ident.endswith(".csv") else ident, d)
                            for _, ident, d in f["hits"])
            if got != hits:
                return "hits %s, oracle %s" % (sorted(got), sorted(hits))
            if f["catalog"] is None or f["incomplete"]:
                return "query summary missing or incomplete"
            cands, pruned, evaluated = f["catalog"]
            if cands != total or pruned + evaluated != cands:
                return "candidates %d, pruned %d, evaluated %d" % f["catalog"]
        return None

    def closed_loop(self, seconds, trace_every=0):
        """Keep `clients` sessions in flight, each starting the next only
        when the last returned, until `seconds` have passed; then wait for
        the ones still running. Returns (ops, wall seconds)."""
        ops = []
        inflight = {}
        attempted = 0
        t0 = now()
        stop_at = t0 + seconds

        def launch():
            nonlocal attempted
            i = attempted
            attempted += 1
            traced = trace_every and i % trace_every == 1
            trace_out = os.path.join(self.work, "client-trace-%d.jsonl" % i) if traced else None
            start = now()
            p = self.reaper.spawn_client(self.client_argv(i, self.port, trace_out), os.getcwd())
            inflight[p.pid] = (i, p, start, bool(traced))

        for _ in range(self.w["clients"]):
            launch()
        while inflight:
            procs = [p for _, p, _, _ in inflight.values()]
            done = harness.wait_any(procs, timeout=1.0)
            t = now()
            for p in done:
                i, _, start, traced = inflight.pop(p.pid)
                rc, ru, out, err = self.reaper.reap_client(p)
                ops.append(dict(
                    i=i, start=start, end=t, latency=t - start, traced=traced,
                    error=self.check(i, rc, out), out=out, err=err,
                    cpu=ru.ru_utime + ru.ru_stime, rss_mb=ru.ru_maxrss / 1024.0))
                if t < stop_at and t - t0 < HARD_WALL_S:
                    launch()
            for i, p, start, _ in list(inflight.values()):
                if t - start > OP_TIMEOUT_S:
                    p.kill()
            if self.server.poll() is not None:
                raise BenchError("server exited with %s mid-run" % self.server.returncode)
        wall = max(op["end"] for op in ops) - t0
        for op in ops:
            self.spans.append(dict(
                source="bench", span=len(self.spans) + 1, parent=0, op=op["i"],
                name="client.%s%s" % (self.w["kind"], ".traced" if op["traced"] else ""),
                start=op["start"], stop=op["end"]))
        return ops, wall

    def server_cpu(self):
        return sum(harness.proc_cpu_s(pid) for pid in self.server_pids)

    # metrics

    def timed(self, setup_times):
        cpu0 = self.server_cpu()
        ops, wall = self.closed_loop(self.args.seconds)
        server_cpu = self.server_cpu() - cpu0
        good = [op for op in ops if op["error"] is None]
        for op in ops:
            if op["error"]:
                print("op %d failed: %s" % (op["i"], op["error"]), file=sys.stderr)
        lat = [op["latency"] for op in good]
        parsed = [harness.parse_client(op["out"]) for op in good]
        metrics = {}
        if good:
            tl = harness.tail(lat)
            if tl is None:
                print("%d samples: below %d there is no tail; latency_tail_s is the median"
                      % (len(lat), harness.TAIL_MIN_SAMPLES), file=sys.stderr)
                tail_value = median(lat)
            else:
                tail_value = tl[0]
                print("%d samples: latency_tail_s is p%.1f" % (len(lat), tl[1]), file=sys.stderr)
            metrics = {
                "setup_s": median(setup_times),
                "latency_p50_s": median(lat),
                "latency_tail_s": tail_value,
                "ops_per_s": len(good) / wall,
                "client_cpu_s": median([op["cpu"] for op in good]),
                "server_cpu_s": server_cpu / len(good),
                "wire_bytes": median([f["bytes"] for f in parsed]),
                "round_trips": median([f["rounds"] for f in parsed]),
                "client_peak_rss_mb": median([op["rss_mb"] for op in good]),
                "server_peak_rss_mb": sum(harness.proc_peak_rss_mb(p) for p in self.server_pids),
            }
        return ops, {name: (metrics[name], unit) for name, unit in END_TO_END if name in metrics}

    def traced(self):
        # the other serving mode, for the supervisor's dispatch cost
        if self.w["workers"]:
            _, single_port, _, _ = self.start_server("single", 0)
            workers_port = self.port
        else:
            _, workers_port, _, _ = self.start_server("workers", 2)
            single_port = self.port
        # untraced and traced sessions alternate so both see the same noise
        ops, _ = self.closed_loop(self.args.seconds, trace_every=2)
        good = [op for op in ops if op["error"] is None]
        plain = [op for op in good if not op["traced"]] or good
        traced = [op for op in good if op["traced"]] or good
        parsed = [(op, harness.parse_client(op["out"])) for op in plain]
        m = {
            "session.server_handler_s": median([f["server_s"] for _, f in parsed]),
            "session.client_elapsed_s": median([f["elapsed_s"] for _, f in parsed]),
            "session.start_connect_s": median([op["latency"] - f["elapsed_s"] for op, f in parsed]),
            "session.wait_s": median([op["latency"] - op["cpu"] - f["server_s"] for op, f in parsed]),
            "transport.frames": median([f["messages"] for _, f in parsed]),
            "client.retries": sum(harness.count_retries(op["err"]) for op in ops),
            "trace.overhead_s": median([op["latency"] for op in traced])
                                - median([op["latency"] for op in plain]),
        }
        w = self.w
        spool = os.path.join(self.work, "probe-spool")
        os.mkdir(spool)
        spans_file = os.path.join(self.work, "probe-spans.jsonl")
        argv = [self.exe["probe"], "layers", "--key", self.key, "--algo", w["algo"],
                "--strategy", w["strategy"], "--client", self.inputs["ops"][0][0],
                "--server", self.inputs["probe_server"],
                "--single-port", str(single_port), "--workers-port", str(workers_port),
                "--spool-dir", spool, "--spans", spans_file, "--op", str(len(ops))]
        if w["band"] is not None:
            argv += ["--band", str(w["band"])]
        if "catalog" in self.inputs:
            argv += ["--catalog", self.inputs["catalog"], "--radius", str(w["radius"])]
        start = now()
        res = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             timeout=HARD_WALL_S)
        self.spans.append(dict(source="bench", span=len(self.spans) + 1, parent=0, op=len(ops),
                               name="probe.layers", start=start, stop=now()))
        if res.returncode != 0:
            raise BenchError("probe failed: " + res.stderr.strip()[-2000:])
        m.update(json.loads(res.stdout.strip().splitlines()[-1]))
        with open(spans_file) as f:
            self.spans.extend(json.loads(line) for line in f)
        missing = set(PER_LAYER_UNITS) - set(m)
        if missing:
            raise BenchError("per-layer metrics missing: %s" % sorted(missing))
        return ops, {name: (m[name], unit) for name, unit in PER_LAYER_UNITS.items()}

    def execute(self):
        w = self.w
        self.key = os.path.join(self.work, "server.key")
        subprocess.run([self.exe["ppst_keygen"], "-b", str(w["key_bits"]),
                        "--seed", "%s/%d" % (self.name, self.args.seed), "-o", self.key],
                       check=True, stdout=subprocess.DEVNULL)
        self.inputs = make_inputs(self.name, w, self.args.seed, self.work)
        if w["kind"] == "pair":
            res = subprocess.run([self.exe["probe"], "expected", w["algo"], str(w["m"]),
                                  str(w["n"]), "1", "10"],
                                 check=True, stdout=subprocess.PIPE, text=True)
            self.expected_values = int(res.stdout)
        setup_times = self.setup()
        if self.args.trace:
            return self.traced()
        return self.timed(setup_times)


# --- entry point --------------------------------------------------------------

def build():
    """Build what the benchmark runs, from the checkout's sources."""
    for need in ("dune-project", "bin/ppst_server.ml", "bin/ppst_client.ml",
                 "perfbench/probe/probe.ml"):
        if not os.path.exists(need):
            raise BenchError("run from the repository root: %s not found" % need)
    if shutil.which("dune") is None:
        raise BenchError("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    res = subprocess.run(["dune", "build", "--root", "."] + ["./" + b for b in BINARIES],
                         stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    if res.returncode != 0:
        raise BenchError("dune build failed:\n" + res.stdout[-4000:])
    exe = {}
    for b in BINARIES:
        exe[os.path.basename(b)[:-4]] = os.path.abspath(os.path.join("_build", "default", b))
    return exe


def write_results(name, args, ops, metrics, correct):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    timing_units = ("s", "ms", "us")
    t0 = min((op["start"] for op in ops), default=0.0)
    doc = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": len(ops),
        "failed": sum(1 for op in ops if op["error"]),
        # `ppst_analyze report` gates leaves whose path says "wall"
        "wall": {k: v for k, (v, u) in metrics.items() if u in timing_units},
        "counts": {k: v for k, (v, u) in metrics.items() if u not in timing_units},
        # per session: [start offset, latency, client CPU] in seconds
        "per_op": [[round(op["start"] - t0, 6), round(op["latency"], 6), round(op["cpu"], 6)]
                   for op in sorted(ops, key=lambda op: op["start"])],
    }
    stem = os.path.join(RESULTS_DIR, name + ("-trace" if args.trace else ""))
    with open(stem + ".json", "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return stem


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    def interrupted(signum, _frame):
        raise KeyboardInterrupt("signal %d" % signum)

    signal.signal(signal.SIGINT, interrupted)
    signal.signal(signal.SIGTERM, interrupted)
    harness.become_subreaper()
    work = None
    run = None
    try:
        exe = build()
        os.makedirs(WORK_ROOT, exist_ok=True)
        work = os.path.abspath(os.path.join(WORK_ROOT, "%s-%d" % (args.workload, os.getpid())))
        os.mkdir(work)
        run = Run(args.workload, args, exe, work)
        ops, metrics = run.execute()
    except (BenchError, subprocess.CalledProcessError, RuntimeError, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    except KeyboardInterrupt as e:
        print("perfbench: interrupted (%s)" % e, file=sys.stderr)
        return 130
    finally:
        if run is not None:
            run.reaper.cleanup()
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)
            try:
                os.rmdir(WORK_ROOT)
            except OSError:
                pass
    failed = sum(1 for op in ops if op["error"])
    correct = failed == 0 and bool(metrics)
    stem = write_results(args.workload, args, ops, metrics, correct)
    with open(stem + "-spans.jsonl", "w") as f:
        for s in run.spans:
            f.write(json.dumps(s) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
