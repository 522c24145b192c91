#!/usr/bin/env python3
"""The DeepOD benchmark: one command, four workloads, every answer checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run builds the library, the
serving/training CLIs and the harness (perfbench/CMakeLists.txt) into
.bench_build/ and trains the fleet's model artifacts there; later runs reuse
both. Workloads (perfbench/README.md says why each exists):

  fleet_now     3-city deepod_server --fleet, repeated ODs, current 30 min
  fleet_week    the same fleet, ODs spread over the week and all weathers
  city_observe  one city with --live-speed, reads plus ObserveTrip writes
  train_sharded out-of-core DeepOdTrainer training over datagen shards

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(a wire pass for the server-side figures plus the traced in-process replay,
whose Chrome trace lands in .bench_build/out/). The last stdout line is the
result JSON; the exit code is non-zero on a wrong answer or an invalid run.
"""

import argparse
import hashlib
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "cmake")
OUT = os.path.join(WORK, "out")

# (name, unit). Every run reports every metric of its list; a layer a
# workload does not exercise reads 0 (no spans of it were recorded).
END_TO_END = [
    ("setup_s", "s"),
    ("rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
]
PER_LAYER = [
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("frame.decode_ns", "ns"),
    ("frame.encode_ns", "ns"),
    ("server.transport_ms", "ms"),
    ("server.batch_fill_mean", "count"),
    ("server.queue_depth_max", "count"),
    ("admission.offer_ns", "ns"),
    ("admission.pop_batch_ns", "ns"),
    ("admission.shed_share", "share"),
    ("fleet.resolve_ns", "ns"),
    ("fleet.in_distribution_ns", "ns"),
    ("fleet.oracle_share", "share"),
    ("oracle.predict_ns", "ns"),
    ("eta_service.cache_hit_rate", "share"),
    ("eta_service.estimate_batch_us", "us"),
    ("eta_service.bump_epoch_us", "us"),
    ("model.predict_batch_us", "us"),
    ("model.encode_external_us", "us"),
    ("nn.flops_per_query", "count"),
    ("nn.bytes_per_query", "bytes"),
    ("speed_field.ingest_us", "us"),
    ("speed_field.publish_ms", "ms"),
    ("artifact.load_s", "s"),
    ("embed.pretrain_s", "s"),
    ("trip_store.decode_ns", "ns"),
    ("trainer.epoch_s", "s"),
    ("trainer.forward_backward_us", "us"),
    ("trainer.forward_us", "us"),
    ("trainer.backward_us", "us"),
    ("trainer.optimizer_us", "us"),
    ("driver.late_ms_p99", "ms"),
    ("error_rate", "share"),
    ("observe_p99_ms", "ms"),
    ("mae_s", "s"),
    ("latency.samples", "count"),
    ("observe.samples", "count"),
    ("input.cache_key_repeat_share", "share"),
    ("input.ocode_keys", "count"),
    ("input.ood_share", "share"),
    ("input.observe_share", "share"),
    ("trace.overhead_share", "share"),
    ("self_share.serve_server", "share"),
    ("self_share.serve", "share"),
    ("self_share.core", "share"),
    ("self_share.baselines", "share"),
    ("self_share.sim", "share"),
    ("self_share.io", "share"),
    ("self_share.embed", "share"),
]
# Server set-ups per timed serving run; the median is reported.
SERVE_SETUP_REPEATS = 9
# pb_serve's exit code for a run the load generator was late for throughout.
INVALID_RUN = 4

LAYER_KEYS = {"serve/server": "serve_server", "serve": "serve", "core": "core",
              "baselines": "baselines", "sim": "sim", "io": "io", "embed": "embed"}


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def config():
    with open(os.path.join(HERE, "workloads.json")) as f:
        return json.load(f)


def run(argv, timeout):
    """Runs argv to completion; returns stdout. Raises on a non-zero exit."""
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("%s exited %d:\n%s" % (os.path.basename(argv[0]),
                                                proc.returncode,
                                                proc.stderr[-4000:]))
    return proc.stdout


def run_json(argv, timeout):
    """Runs a harness binary; returns (exit code, its result JSON)."""
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr[-6000:])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == INVALID_RUN:
        raise BenchError("invalid run: the load generator ran late in every "
                         "nominal slice, so it measured the generator")
    if not lines or proc.returncode not in (0, 3):
        raise BenchError("%s exited %d without a result" %
                         (os.path.basename(argv[0]), proc.returncode))
    return proc.returncode, json.loads(lines[-1])


def binary(rel):
    return os.path.join(BUILD, rel)


def build():
    for rel in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise BenchError("no %s next to perfbench/: run from a checkout "
                             "of the repository" % rel)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"], 600)
    run(["cmake", "--build", BUILD, "-j", jobs], 900)


def fleet_fixtures(cfg):
    """Trains every fleet city once per deepod_train build; returns the dir."""
    train = binary("deepod_tools/deepod_train")
    digest = hashlib.sha256()
    with open(train, "rb") as f:
        digest.update(f.read())
    digest.update(json.dumps(cfg["fleet"], sort_keys=True).encode())
    path = os.path.join(WORK, "fixtures", digest.hexdigest()[:16])
    if os.path.isfile(os.path.join(path, "done")):
        return path
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    for city in cfg["fleet"]["cities"]:
        run([train, "--out", os.path.join(tmp, city["name"]),
             "--grid", str(city["grid"]),
             "--network-id", str(city["network_id"])] +
            cfg["fleet"]["train_flags"], 600)
    open(os.path.join(tmp, "done"), "w").close()
    shutil.rmtree(path, ignore_errors=True)
    os.rename(tmp, path)
    return path


def write_manifest(fixtures, cfg, names, filename):
    rows = ["network_id,name,network,artifact,oracle,policy"]
    for city in cfg["fleet"]["cities"]:
        if city["name"] in names:
            n = city["name"]
            rows.append("%d,%s,%s/network.csv,%s/model.artifact,"
                        "%s/oracle.artifact,%s" %
                        (city["network_id"], n, n, n, n, city["policy"]))
    path = os.path.join(fixtures, filename)
    with open(path, "w") as f:
        f.write("\n".join(rows) + "\n")
    return path


class Server:
    """A deepod_server process, timed from spawn to its listening line."""

    def __init__(self, argv, timeout=120):
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT, text=True)
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        deadline = start + timeout
        self.port = None
        while self.port is None:
            try:
                line = self.lines.get(timeout=max(0.01, deadline - time.perf_counter()))
            except queue.Empty:
                self.stop()
                raise BenchError("deepod_server did not start listening")
            if line is None:
                self.stop()
                raise BenchError("deepod_server exited before listening")
            if line.startswith("listening on "):
                self.port = int(line.strip().rsplit(":", 1)[1])
        self.setup_s = time.perf_counter() - start

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.reader.join(timeout=5)


def stats_records(path):
    with open(path) as f:
        return {r["name"]: r for r in json.load(f)["records"]}


def serve_workload(cfg, name, wl, seed, seconds, trace):
    fixtures = fleet_fixtures(cfg)
    manifest = write_manifest(fixtures, cfg, wl["cities"], name + ".csv")
    server_argv = [binary("deepod_tools/deepod_server")]
    if wl.get("single_city"):
        city = os.path.join(fixtures, wl["cities"][0])
        server_argv += ["--artifact", os.path.join(city, "model.artifact"),
                        "--network", os.path.join(city, "network.csv"),
                        "--live-speed", "--publish-ms", str(wl["publish_ms"])]
    else:
        server_argv += ["--fleet", manifest]
    server_argv += cfg["server_flags"] + ["--port", "0"]

    drive = [binary("pb_serve"), "--fleet", manifest, "--workload", name,
             "--seed", str(seed), "--rate", str(wl["rate"]),
             "--seconds", str(seconds),
             "--observe-share", str(wl.get("observe_share", 0.0))]
    os.makedirs(OUT, exist_ok=True)

    if not trace:
        setups, server = [], None
        for _ in range(SERVE_SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = Server(server_argv)
            setups.append(server.setup_s)
        try:
            code, res = run_json(drive + [
                "--port", str(server.port), "--peak-rate", str(wl["peak_rate"])], 170)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        log("%s seed %d: saturated %.0f/s (at zero steal over %d bursts, burst p99 %.3f ms), "
            "%d of %d failed; setups %s" %
            (name, seed, res["saturation"]["qps"], res["saturation"]["bursts"],
             res["saturation"]["p99_ms"], res["failed"], res["attempted"],
             ", ".join("%.3f" % s for s in setups)))
        metrics = {"setup_s": statistics.median(setups), "rss_mb": rss,
                   "throughput_per_s": res["saturation"]["qps"]}
        return code == 0 and res["correct"], res["attempted"], res["failed"], metrics

    # --trace 1: a wire pass at the nominal rate for the server-side figures
    # (stats frame sampled during the run), then the traced replay.
    stats_path = os.path.join(OUT, "%s-%d.stats.json" % (name, seed))
    server = Server(server_argv)
    try:
        code, res = run_json(drive + ["--port", str(server.port),
                                      "--stats-out", stats_path], 170)
    finally:
        server.stop()
    stats = stats_records(stats_path)
    nom = res["nominal"]
    fill = stats.get("server/batch_fill", {})
    fill_mean = (fill.get("wall_seconds", 0.0) / fill["count"]
                 if fill.get("count") else 0.0)
    requests = stats.get("server/requests", {}).get("count", 0.0)
    shed = stats.get("server/shed", {}).get("count", 0.0)
    server_p50 = stats.get("server/latency", {}).get("p50_ms", 0.0)
    trace_path = os.path.join(OUT, "%s-%d.trace.json" % (name, seed))
    _, rep = run_json([binary("pb_replay"), "--fleet", manifest,
                       "--workload", name, "--seed", str(seed),
                       "--rate", str(wl["rate"]),
                       "--seconds", str(seconds),
                       "--batch", str(max(1.0, fill_mean)),
                       "--observe-share", str(wl.get("observe_share", 0.0)),
                       "--publish-ms", str(wl.get("publish_ms", 1000)),
                       "--trace-out", trace_path], 170)
    log("%s seed %d: trace written to %s" % (name, seed, trace_path))
    m = dict.fromkeys((n for n, _ in PER_LAYER), 0.0)
    m.update({
        "p50_ms": nom["p50_ms"],
        "p99_ms": nom["p99_ms"],
        "frame.decode_ns": rep["frame_decode_ns"],
        "frame.encode_ns": rep["frame_encode_ns"],
        "server.transport_ms": nom["p50_ms_pooled"] - server_p50,
        "server.batch_fill_mean": fill_mean,
        "server.queue_depth_max": nom["queue_depth_max"],
        "admission.offer_ns": rep["admission_offer_ns"],
        "admission.pop_batch_ns": rep["admission_pop_batch_ns"],
        "admission.shed_share": shed / requests if requests else 0.0,
        "fleet.resolve_ns": rep["fleet_resolve_ns"],
        "fleet.in_distribution_ns": rep["fleet_in_distribution_ns"],
        "fleet.oracle_share": nom["fallback_ok"] / nom["ok"] if nom["ok"] else 0.0,
        "oracle.predict_ns": rep["oracle_predict_ns"],
        "eta_service.cache_hit_rate": rep["cache_hit_rate"],
        "eta_service.estimate_batch_us": rep["estimate_batch_us"],
        "eta_service.bump_epoch_us": rep["bump_epoch_us"],
        "model.predict_batch_us": rep["predict_batch_us_per_query"],
        "model.encode_external_us": rep["encode_external_us"],
        "nn.flops_per_query": rep["nn_flops_per_query"],
        "nn.bytes_per_query": rep["nn_bytes_per_query"],
        "speed_field.ingest_us": rep["speed_field_ingest_us"],
        "speed_field.publish_ms": rep["speed_field_publish_ms"],
        "artifact.load_s": rep["artifact_load_s"],
        "driver.late_ms_p99": nom["late_ms_p99"],
        "error_rate": nom["failed"] / nom["sent"] if nom["sent"] else 0.0,
        "observe_p99_ms": nom["observe_p99_ms"],
        "latency.samples": nom["read_samples"],
        "observe.samples": nom["observe_samples"],
        "input.cache_key_repeat_share": res["inputs"]["cache_key_repeat_share"],
        "input.ocode_keys": res["inputs"]["ocode_keys"],
        "input.ood_share": res["inputs"]["ood_share"],
        "input.observe_share": res["inputs"]["observe_share"],
        "trace.overhead_share": rep["traced_s"] / rep["untraced_s"] - 1.0,
    })
    for layer, share in rep["self_share"].items():
        if layer in LAYER_KEYS:
            m["self_share." + LAYER_KEYS[layer]] = share
    return code == 0 and res["correct"], res["attempted"], res["failed"], m


def train_workload(name, wl, seed, trace):
    data = os.path.join(WORK, "runs", "%s-%d" % (name, seed))
    shutil.rmtree(data, ignore_errors=True)
    run([binary("deepod_tools/deepod_datagen"), "--out", data,
         "--grid", str(wl["grid"]), "--trips-per-day", str(wl["trips_per_day"]),
         "--days", str(wl["days"]), "--seed", str(seed), "--threads", "2",
         "--shards", str(wl["shards"])], 300)
    argv = [binary("pb_train"), "--data", data, "--epochs", str(wl["epochs"]),
            "--threads", str(min(wl["threads"], os.cpu_count() or 1)),
            "--scale", str(wl["scale"])]
    if not trace:
        code, res = run_json(argv, 170)
        log("%s seed %d: %d trips x %d epochs on %d threads: %.1f trips/s, "
            "step p50 %.3f ms p99 %.3f ms (%d steps), test MAE %.2f s, setups %s" %
            (name, seed, res["train_trips"], res["epochs"], res["threads"],
             res["train_trips_per_s"], res["step_p50_ms"], res["step_p99_ms"],
             res["step_samples"], res["mae_s"],
             ", ".join("%.3f" % s for s in res["setup_s_all"])))
        metrics = {"setup_s": res["setup_s"], "rss_mb": res["rss_mb"],
                   "throughput_per_s": res["train_trips_per_s"]}
        shutil.rmtree(data, ignore_errors=True)
        return code == 0 and res["correct"], res["train_trips"] * res["epochs"], 0, metrics
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, "%s-%d.trace.json" % (name, seed))
    code, res = run_json(argv + ["--trace", "1", "--trace-out", trace_path], 170)
    log("%s seed %d: trace written to %s" % (name, seed, trace_path))
    spans = res["spans"]
    m = dict.fromkeys((n for n, _ in PER_LAYER), 0.0)
    m.update({
        "p50_ms": res["step_p50_ms"],
        "p99_ms": res["step_p99_ms"],
        "embed.pretrain_s": res["pretrain_s"],
        "trip_store.decode_ns": res["decode_ns_per_trip"],
        "trainer.epoch_s": res["epoch_s"],
        "trainer.forward_backward_us": res["forward_backward_us"],
        "trainer.forward_us": res["forward_us"],
        "trainer.backward_us": res["backward_us"],
        "trainer.optimizer_us": res["optimizer_us"],
        "nn.flops_per_query": res["nn_flops_per_query"],
        "nn.bytes_per_query": res["nn_bytes_per_query"],
        "mae_s": res["mae_s"],
        "latency.samples": res["step_samples"],
        "trace.overhead_share": res["replay_traced_s"] / res["replay_untraced_s"] - 1.0,
    })
    # Self time per layer over the spans of a layer; the serial replica's
    # spans belong to none.
    layered = {n: s for n, s in spans.items() if s["layer"] in LAYER_KEYS}
    total = sum(s["self_ns"] for s in layered.values()) or 1.0
    for s in layered.values():
        m["self_share." + LAYER_KEYS[s["layer"]]] += s["self_ns"] / total
    shutil.rmtree(data, ignore_errors=True)
    return code == 0 and res["correct"], res["train_trips"], 0, m


def selftest():
    """Builds and runs the harness's own tests, and checks BENCHMARK.json."""
    build()
    out = run([binary("pb_selftest")], 300)
    sys.stderr.write(out)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    cfg = config()
    names = [w["name"] for w in bench["workloads"]]
    if names != list(cfg["workloads"]):
        raise BenchError("BENCHMARK.json workloads %s != workloads.json %s" %
                         (names, list(cfg["workloads"])))
    for key, expected in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        got = [(m["name"], m["unit"]) for m in bench[key]]
        if got != expected:
            raise BenchError("BENCHMARK.json %s disagrees with run.py" % key)
    log("selftest: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        cfg = config()
        if args.workload not in cfg["workloads"]:
            raise BenchError("unknown workload %r (have: %s)" %
                             (args.workload, ", ".join(cfg["workloads"])))
        build()
        wl = cfg["workloads"][args.workload]
        if wl["kind"] == "train":
            correct, attempted, failed, metrics = train_workload(
                args.workload, wl, args.seed, args.trace)
        else:
            correct, attempted, failed, metrics = serve_workload(
                cfg, args.workload, wl, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log("benchmark failed: %s" % e)
        return 1
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name, value in metrics.items():
        print("%-32s %14.6g %s" % (name, value, units[name]))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed),
                      "metrics": {n: {"value": metrics[n], "unit": u}
                                  for n, u in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
