// pb_serve: drives a running deepod_server over the wire with one serving
// workload's generated inputs and checks every answer.
//
//   pb_serve --fleet FLEET.csv --port P --workload fleet_now|fleet_week|
//            city_observe --seed N --rate R --seconds S
//            [--peak-rate R] [--observe-share X] [--stats-out PATH]
//
// FLEET.csv is the manifest the server serves (a one-row manifest for a
// single-city server): pb_serve loads the same artifacts to draw inputs
// inside each model's domain and to compute the expected answers.
//
// Phases: a warm-up (every distinct key of the repeated mixes), then the
// measured phase. Untraced, that is kBursts saturation bursts over the S
// seconds: each drives fresh queries of the mix closed loop with
// kBurstWindow requests in flight, drawing from a pool of frames sized by
// --peak-rate (the expected throughput). With --stats-out (the traced pass)
// it is the nominal phase instead: kNominalShare of the S seconds at the
// fixed rate, open loop, driven as kSlices consecutive slices of its
// schedule, with the stats frame sampled throughout and the server's final
// stats JSON written to PATH. Each burst and slice records the hypervisor
// steal over its drive. The saturated throughput is the bursts' rate read
// at zero steal (AtZeroSteal in stats.h) and the nominal p50 the median
// slice p50 over the calm slices (CalmMedian), so a slow stretch of a
// shared host does not read as a slow server; p99 is the median slice p99
// over all slices.
// The fixed settings are in stats.h. The result is one JSON object on the
// last line of stdout. Exit codes: 0 ok, 3 a wrong answer, 4 an invalid run
// (the load generator ran late in every nominal slice), 1 an error.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "args.h"
#include "checker.h"
#include "inputs.h"
#include "serve/fleet_router.h"
#include "stats.h"
#include "util/thread_pool.h"
#include "wire_driver.h"

namespace {

using namespace perfbench;
namespace net = deepod::serve::net;

struct Phase {
  std::vector<Query> queries;
  std::vector<double> due_s;
  uint64_t first_id = 0;
  DriveResult drive;
  double steal = 0.0;  // StealShare over the drive
};

std::vector<std::vector<uint8_t>> Frames(const Phase& phase) {
  std::vector<std::vector<uint8_t>> frames;
  frames.reserve(phase.queries.size());
  for (const Query& q : phase.queries) frames.push_back(EncodeQuery(q));
  return frames;
}

void RunPhase(WireClient& client, Phase& phase, const DriveOptions& options) {
  const std::vector<std::vector<uint8_t>> frames = Frames(phase);
  const CpuTicks before = ReadCpuTicks();
  phase.drive = client.Drive(frames, phase.first_id, phase.due_s, options);
  phase.steal = StealShare(before, ReadCpuTicks());
}

void RunClosed(WireClient& client, Phase& phase, double seconds) {
  const std::vector<std::vector<uint8_t>> frames = Frames(phase);
  const CpuTicks before = ReadCpuTicks();
  phase.drive =
      client.DriveClosed(frames, phase.first_id, kBurstWindow, seconds);
  phase.steal = StealShare(before, ReadCpuTicks());
}

// Client latency from due time; failures (non-Ok or lost) are infinite.
std::vector<double> LatencyMs(const Phase& phase, bool writes) {
  std::vector<double> out;
  for (size_t i = 0; i < phase.queries.size(); ++i) {
    if (phase.queries[i].observe != writes) continue;
    const WireOutcome& o = phase.drive.outcomes[i];
    const bool ok = o.received && o.status == static_cast<uint8_t>(net::Status::kOk);
    out.push_back(ok ? 1e3 * (o.recv_s - o.due_s) : kFailed);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);
    const std::string workload = args.Str("workload");
    const uint64_t seed = static_cast<uint64_t>(args.Num("seed"));
    const std::string stats_out = args.Str("stats-out", "");
    const bool traced_pass = !stats_out.empty();

    deepod::serve::FleetRouterOptions fleet_options;
    deepod::serve::FleetRouter fleet(
        deepod::serve::ReadFleetManifest(args.Str("fleet")), fleet_options);
    const std::vector<CityView> cities = CityViewsOf(fleet);

    MixOptions mix;
    mix.mix = ParseMix(workload);
    mix.seed = seed;
    mix.observe_share = args.Num("observe-share", 0.0);
    InputGenerator gen(mix, cities);

    WireClient client("127.0.0.1", static_cast<uint16_t>(args.Num("port")), 2);
    DriveOptions nominal_options;
    if (traced_pass) nominal_options.stats_every_s = kStatsEverySeconds;

    const double rate = args.Num("rate");
    const double nominal_s =
        traced_pass ? args.Num("seconds") * kNominalShare : 0.0;
    const double burst_s =
        traced_pass ? 0.0 : args.Num("seconds") / static_cast<double>(kBursts);
    const size_t burst_frames = static_cast<size_t>(
        kBurstHeadroom * args.Num("peak-rate", 0.0) * burst_s);
    ServingInputs inputs = GenerateServingInputs(gen, seed, rate, nominal_s);
    const InputProperties props =
        MeasureInputs(inputs.nominal, cities);
    uint64_t next_id = inputs.next_id;

    // Every answer is checked as soon as its phase has been driven, so a
    // burst's queries need not be kept. Reads answered before the first
    // write was sent must match the artifact bit for bit; after that the
    // live speed field may have been published into the model. A failed
    // request (shed, non-Ok, lost or wrong) reads as lost from then on, and
    // outside the nominal slices (warm-up and bursts) it counts in `failed`
    // here; the nominal figures below count their own.
    deepod::util::ThreadPool pool(
        std::max<size_t>(1, std::min<size_t>(4, std::thread::hardware_concurrency())));
    FleetExpectedAnswers expected(fleet, &pool);
    bool written = false;
    size_t attempted = 0, wrong = 0, exact_checked = 0, bound_checked = 0;
    size_t failed_elsewhere = 0;
    const auto check = [&](Phase& p, bool nominal) {
      double first_write = kFailed;
      for (size_t i = 0; i < p.queries.size(); ++i) {
        if (p.queries[i].observe) {
          first_write = std::min(first_write, p.drive.outcomes[i].sent_s);
        }
      }
      std::vector<bool> exact(p.queries.size());
      for (size_t i = 0; i < p.queries.size(); ++i) {
        exact[i] = !written && p.drive.outcomes[i].recv_s < first_write;
      }
      written = written || first_write < kFailed;
      std::vector<bool> failed;
      const CheckResult r =
          CheckAnswers(p.queries, p.drive.outcomes, exact, expected, &failed);
      for (const std::string& e : r.errors) {
        std::fprintf(stderr, "WRONG ANSWER: %s\n", e.c_str());
      }
      attempted += p.queries.size();
      wrong += r.wrong;
      exact_checked += r.exact_checked;
      bound_checked += r.bound_checked;
      for (size_t i = 0; i < p.queries.size(); ++i) {
        if (!failed[i]) continue;
        p.drive.outcomes[i].received = false;
        if (!nominal) ++failed_elsewhere;
      }
    };

    // Warm-up: checked, not timed.
    Phase warm;
    warm.first_id = 1;
    warm.queries = std::move(inputs.warmup);
    warm.due_s = std::move(inputs.warmup_due);
    RunPhase(client, warm, DriveOptions{});
    check(warm, false);

    // The nominal schedule cut into consecutive time slices, each re-based
    // to start at 0 (same frames, same spacing).
    std::vector<Phase> slices(traced_pass ? kSlices : 0);
    {
      uint64_t id = warm.first_id + warm.queries.size();
      for (size_t i = 0; i < inputs.nominal.size(); ++i) {
        const size_t k = std::min(
            kSlices - 1,
            static_cast<size_t>(inputs.nominal_due[i] / nominal_s * kSlices));
        Phase& s = slices[k];
        if (s.queries.empty()) s.first_id = id;
        s.queries.push_back(std::move(inputs.nominal[i]));
        s.due_s.push_back(inputs.nominal_due[i] - nominal_s * k / kSlices);
        ++id;
      }
    }

    // A phase the load generator itself ran late for says nothing about the
    // server. A nominal slice is then driven again (same inputs, fresh
    // request ids), at most twice per slice and kSlices / 2 times in
    // all. Every attempt is checked and its failures count; only the
    // latencies of a final attempt within the late limit are reported.
    size_t late_reruns = 0;
    std::vector<Phase> phases;  // every attempt of every slice
    std::vector<std::vector<size_t>> slice_attempts;  // indices into phases
    const auto drive_slice = [&](Phase slice) {
      slice_attempts.emplace_back();
      RunPhase(client, slice, nominal_options);
      check(slice, true);
      for (int retry = 0; retry < 2 && slice.drive.late_ms_p99 > kLateLimitMs &&
                          late_reruns < kSlices / 2;
           ++retry) {
        ++late_reruns;
        Phase again;
        again.first_id = next_id;
        again.due_s = slice.due_s;
        for (Query q : slice.queries) {
          (q.observe ? q.write.request_id : q.request.request_id) = next_id++;
          again.queries.push_back(std::move(q));
        }
        slice_attempts.back().push_back(phases.size());
        phases.push_back(std::move(slice));
        slice = std::move(again);
        RunPhase(client, slice, nominal_options);
        check(slice, true);
      }
      slice_attempts.back().push_back(phases.size());
      phases.push_back(std::move(slice));
    };

    // Saturation bursts: closed loop, fresh queries of the same mix.
    std::vector<double> burst_rates, burst_steal, burst_latency;
    const auto burst = [&](size_t k) {
      Phase p;
      p.first_id = next_id;
      for (size_t i = 0; i < burst_frames; ++i) {
        p.queries.push_back(gen.Next(next_id++));
      }
      RunClosed(client, p, burst_s);
      p.queries.resize(p.drive.outcomes.size());  // the frames it sent
      burst_rates.push_back(ClosedLoopRate(p.drive.outcomes));
      burst_steal.push_back(p.steal);
      const std::vector<double> latency = LatencyMs(p, false);
      std::fprintf(stderr, "burst %zu: %.0f/s, p99 %.3f ms, %zu unanswered, "
                           "steal %.3f\n",
                   k, burst_rates.back(), Percentile(latency, 0.99),
                   p.drive.outstanding_at_end, p.steal);
      burst_latency.insert(burst_latency.end(), latency.begin(), latency.end());
      check(p, false);
    };
    for (Phase& slice : slices) drive_slice(std::move(slice));
    for (size_t k = 0; burst_frames > 0 && k < kBursts; ++k) burst(k);
    const std::string stats_json = client.FetchStats();

    // Nominal figures. Sent and failed count every attempt of every slice;
    // latencies come from the final attempt of each slice within the late
    // limit. Without one such slice the run is invalid.
    std::vector<double> reads, writes, slice_p50, slice_p99, slice_steal;
    size_t sent = 0, nominal_failed = 0, nominal_ok = 0, nominal_fallback = 0;
    size_t stats_samples = 0, valid_slices = 0;
    double late_max = 0.0, queue_depth_max = 0.0;
    for (const auto& attempts : slice_attempts) {
      for (const size_t index : attempts) {
        const Phase& p = phases[index];
        for (size_t i = 0; i < p.queries.size(); ++i) {
          const WireOutcome& o = p.drive.outcomes[i];
          if (!o.received) {
            ++nominal_failed;
          } else if (!p.queries[i].observe) {
            ++nominal_ok;
            if (o.estimator != static_cast<uint8_t>(net::Estimator::kModel)) {
              ++nominal_fallback;
            }
          }
        }
        sent += p.queries.size();
        stats_samples += p.drive.stats_samples;
        queue_depth_max = std::max(queue_depth_max, p.drive.queue_depth_max);
      }
      const Phase& p = phases[attempts.back()];
      if (p.drive.late_ms_p99 > kLateLimitMs) continue;
      ++valid_slices;
      const std::vector<double> r = LatencyMs(p, false);
      const std::vector<double> w = LatencyMs(p, true);
      if (!r.empty()) {
        slice_p50.push_back(Percentile(r, 0.50));
        slice_p99.push_back(Percentile(r, 0.99));
        slice_steal.push_back(p.steal);
      }
      reads.insert(reads.end(), r.begin(), r.end());
      writes.insert(writes.end(), w.begin(), w.end());
      late_max = std::max(late_max, p.drive.late_ms_p99);
    }
    const bool valid = !traced_pass || valid_slices > 0;
    if (!valid) {
      std::fprintf(stderr, "invalid run: the load generator ran more than %.3f ms "
                           "late in every nominal slice\n", kLateLimitMs);
    }
    std::fprintf(stderr, "slice p50 ms (steal):");
    for (size_t k = 0; k < slice_p50.size(); ++k) {
      std::fprintf(stderr, " %.4f (%.3f)", slice_p50[k], slice_steal[k]);
    }
    std::fprintf(stderr, "\n");
    const LatencySummary rs = Summarize(reads);
    const LatencySummary ws = Summarize(writes);

    if (traced_pass) std::ofstream(stats_out) << stats_json;

    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64 ", ", workload.c_str(), seed);
    std::printf("\"valid\": %s, \"correct\": %s, \"wrong\": %zu, \"attempted\": %zu, "
                "\"failed\": %zu, \"exact_checked\": %zu, \"bound_checked\": %zu, ",
                valid ? "true" : "false", wrong == 0 ? "true" : "false",
                wrong, attempted, nominal_failed + failed_elsewhere,
                exact_checked, bound_checked);
    std::printf("\"nominal\": {\"rate\": %.6g, \"slices\": %zu, "
                "\"valid_slices\": %zu, \"sent\": %zu, "
                "\"failed\": %zu, \"read_samples\": %zu, \"p50_ms\": %.6f, "
                "\"p99_ms\": %.6f, \"p50_ms_pooled\": %.6f, \"p99_ms_pooled\": %.6f, "
                "\"observe_samples\": %zu, \"observe_p99_ms\": %.6f, "
                "\"late_ms_p99\": %.6f, \"ok\": %zu, \"fallback_ok\": %zu, "
                "\"queue_depth_max\": %.6g, \"stats_samples\": %zu}, ",
                rate, slices.size(), valid_slices, sent, nominal_failed,
                rs.samples, CalmMedian(slice_p50, slice_steal), Percentile(slice_p99, 0.5),
                rs.p50_ms, rs.p99_ms, ws.samples, ws.p99_ms, late_max, nominal_ok,
                nominal_fallback, queue_depth_max, stats_samples);
    std::printf("\"saturation\": {\"qps\": %.6f, \"bursts\": %zu, "
                "\"window\": %zu, \"p99_ms\": %.6f}, \"late_reruns\": %zu, ",
                AtZeroSteal(burst_rates, burst_steal), burst_rates.size(), kBurstWindow,
                Percentile(burst_latency, 0.99), late_reruns);
    std::printf("\"inputs\": {\"cache_key_repeat_share\": %.6f, "
                "\"ocode_keys\": %.0f, \"ood_share\": %.6f, "
                "\"observe_share\": %.6f}}\n",
                props.cache_key_repeat_share, props.ocode_keys, props.ood_share,
                props.observe_share);
    if (wrong != 0) return 3;
    return valid ? 0 : 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_serve: %s\n", e.what());
    return 1;
  }
}
