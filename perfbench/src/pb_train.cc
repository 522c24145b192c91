// pb_train: the train_sharded workload. Trains DeepOD out of core with
// DeepOdTrainer over the .trips shards a deepod_datagen run wrote, with a
// fixed epoch count and thread count, and reports set-up time (dataset
// environment + streamed model-init pass + model construction including
// graph-embedding pre-training, repeated and reported as the median),
// training throughput, per-mini-batch step times, test MAE and peak RSS.
//
//   pb_train --data DIR --epochs E --threads T [--scale S]
//            [--trace 1 --trace-out PATH]
//
// --trace 1 sets up once and adds the traced run (TracedRun below): the
// pre-training share of model construction, shard decode, one more epoch
// of DeepOdTrainer with its own obs spans read back, and a serial replica
// for the forward/backward split, written as a Chrome trace. The result is
// one JSON object on the last line of stdout.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "args.h"
#include "core/deepod_config.h"
#include "core/deepod_model.h"
#include "core/trainer.h"
#include "datagen_manifest.h"
#include "io/sharded_trip_source.h"
#include "io/trip_store.h"
#include "nn_cost.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "road/edge_graph.h"
#include "sim/dataset.h"
#include "stats.h"
#include "trace.h"
#include "util/weighted_digraph.h"

namespace {

using namespace perfbench;
using namespace deepod;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Everything training needs besides the feed: the dataset environment with
// validation/test splits, and the model built from one streamed pass over
// the shards (the deepod_train --feed sharded construction path).
struct Setup {
  sim::Dataset dataset;
  std::vector<std::string> shard_paths;
  std::unique_ptr<util::WeightedDigraph> edge_graph;
  std::unique_ptr<core::DeepOdModel> model;
  size_t train_trips = 0;
  double time_scale = 1.0;
};

std::unique_ptr<Setup> BuildSetup(const std::string& data,
                                  const core::DeepOdConfig& config) {
  auto s = std::make_unique<Setup>();
  const tools::DatagenManifest manifest =
      tools::ReadManifest(data + "/manifest.csv");
  sim::InitDatasetEnvironment(tools::ToDatasetConfig(manifest), &s->dataset);
  s->shard_paths = tools::ManifestShardPaths(data, manifest.shards);
  road::EdgeGraphAccumulator edges;
  double time_sum = 0.0;
  traj::TripRecord record;
  for (const auto& path : s->shard_paths) {
    const auto reader = io::TripStoreReader::OpenOrThrow(path);
    for (size_t i = 0; i < reader.size(); ++i) {
      reader.Decode(i, &record);
      edges.AddSequence(s->dataset.network, record.trajectory.SegmentIds());
      time_sum += record.travel_time;
      ++s->train_trips;
    }
  }
  s->dataset.validation =
      io::TripStoreReader::OpenOrThrow(data + "/val.trips").ReadAll();
  s->dataset.test =
      io::TripStoreReader::OpenOrThrow(data + "/test.trips").ReadAll();
  s->edge_graph = std::make_unique<util::WeightedDigraph>(
      edges.Build(s->dataset.network));
  if (s->train_trips > 0) {
    s->time_scale = time_sum / static_cast<double>(s->train_trips);
  }
  s->model = std::make_unique<core::DeepOdModel>(config, s->dataset,
                                                 s->edge_graph.get(), s->time_scale);
  return s;
}

// Consecutive mini-batch steps per timing window.
constexpr size_t kWindowSteps = 100;

// TripFeed decorator: times each mini-batch step, the interval between the
// trainer's consecutive PrefetchWindow calls within an epoch, and groups
// the steps of an epoch into windows of kWindowSteps with the trips they
// trained, their seconds, their step p50 and the hypervisor steal over
// them (a partial window at an epoch's end is dropped).
class TimedFeed : public core::TripFeed {
 public:
  explicit TimedFeed(io::ShardedTripSource& inner) : inner_(inner) {}

  struct Window {
    double trips_per_s = 0.0;
    double step_p50_ms = 0.0;
    double steal = 0.0;
  };

  size_t size() const override { return inner_.size(); }
  void BeginEpoch(util::Rng& rng) override {
    have_last_ = false;
    inner_.BeginEpoch(rng);
  }
  const traj::TripRecord& At(size_t pos) override { return inner_.At(pos); }
  void PrefetchWindow(size_t pos, size_t n) override {
    const Clock::time_point now = Clock::now();
    if (!have_last_) {  // an epoch's first step: drop a partial window
      window_ms_.clear();
      trips_ = seconds_ = 0.0;
    } else {
      const double ms =
          std::chrono::duration<double, std::milli>(now - last_).count();
      step_ms.push_back(ms);
      window_ms_.push_back(ms);
      trips_ += last_n_;
      seconds_ += ms / 1e3;
      if (window_ms_.size() == kWindowSteps) {
        windows.push_back(Window{trips_ / seconds_, Percentile(window_ms_, 0.5),
                                 StealShare(ticks_, ReadCpuTicks())});
        window_ms_.clear();
        trips_ = seconds_ = 0.0;
      }
    }
    if (window_ms_.empty()) ticks_ = ReadCpuTicks();
    have_last_ = true;
    last_ = now;
    last_n_ = static_cast<double>(n);
    inner_.PrefetchWindow(pos, n);
  }
  std::vector<size_t>& order() override { return inner_.order(); }
  void NotifyOrderChanged() override { inner_.NotifyOrderChanged(); }

  std::vector<double> step_ms;  // every step of every epoch
  std::vector<Window> windows;

 private:
  io::ShardedTripSource& inner_;
  bool have_last_ = false;
  Clock::time_point last_;
  double last_n_ = 0.0;
  std::vector<double> window_ms_;  // of the open window
  double trips_ = 0.0, seconds_ = 0.0;
  CpuTicks ticks_;
};

// TripFeed decorator for the traced epoch: every window the trainer
// prefetches is a trip_store.decode span. DeepOdTrainer calls
// PrefetchWindow on its own thread; At runs on its workers and is not
// traced.
class TracedFeed : public core::TripFeed {
 public:
  TracedFeed(io::ShardedTripSource& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  size_t size() const override { return inner_.size(); }
  void BeginEpoch(util::Rng& rng) override { inner_.BeginEpoch(rng); }
  const traj::TripRecord& At(size_t pos) override { return inner_.At(pos); }
  void PrefetchWindow(size_t pos, size_t n) override {
    Tracer::Scope span(tracer_, "trip_store.decode");
    inner_.PrefetchWindow(pos, n);
  }
  std::vector<size_t>& order() override { return inner_.order(); }
  void NotifyOrderChanged() override { inner_.NotifyOrderChanged(); }

 private:
  io::ShardedTripSource& inner_;
  Tracer& tracer_;
};

// Per-layer figures of the training path.
struct LayerFigures {
  double pretrain_s = 0.0;
  double decode_ns_per_trip = 0.0;
  double forward_backward_us = 0.0;  // per mini-batch
  double optimizer_us = 0.0;         // per step
  double forward_us = 0.0;           // per sample, serial replica
  double backward_us = 0.0;          // per sample, serial replica
};

// Set-ups per timed run; the median is reported.
constexpr size_t kSetupRepeats = 3;

// Samples of the serial forward/backward replica.
constexpr size_t kReplicaSamples = 512;

// The traced run of the training path.
//  - Pre-training: the DeepOdModel constructor with the workload's config
//    minus the same constructor with one-hot road and time init, which
//    skips graph embedding.
//  - Decode: one sweep of ShardedTripSource::PrefetchWindow + At.
//  - One epoch of DeepOdTrainer at the configured thread count; its own
//    trainer/forward_backward and trainer/optimizer spans (obs metrics)
//    give the per-batch and per-step figures.
//  - Forward vs backward: the trainer runs both inside one worker task, so
//    the split is timed on a serial replica of its per-sample calls
//    (SampleLoss, Scale, Backward). Its spans belong to no layer.
LayerFigures TracedRun(Setup& s, const core::DeepOdConfig& config,
                       Tracer& tracer) {
  LayerFigures f;
  {
    core::DeepOdConfig bare_config = config;
    bare_config.road_init = core::RoadInit::kOneHot;
    bare_config.time_init = core::TimeInit::kOneHot;
    const Clock::time_point t = Clock::now();
    const core::DeepOdModel bare(bare_config, s.dataset, s.edge_graph.get(),
                                 s.time_scale);
    const double bare_s = Since(t);
    Tracer::Scope span(tracer, "model.construct");
    const int64_t start = Tracer::NowNs();
    const core::DeepOdModel full(config, s.dataset, s.edge_graph.get(),
                                 s.time_scale);
    const double full_s = static_cast<double>(Tracer::NowNs() - start) / 1e9;
    f.pretrain_s = std::max(0.0, full_s - bare_s);
    tracer.Add("embed.pretrain", start,
               start + static_cast<int64_t>(f.pretrain_s * 1e9));
  }
  io::ShardedTripSource source(s.shard_paths);
  util::Rng rng(7);
  source.BeginEpoch(rng);
  const size_t n = source.size();
  const size_t bs = std::max<size_t>(1, config.batch_size);
  {
    const Clock::time_point t = Clock::now();
    size_t touched = 0;
    for (size_t pos = 0; pos < n; pos += bs) {
      Tracer::Scope span(tracer, "trip_store.decode");
      const size_t m = std::min(bs, n - pos);
      source.PrefetchWindow(pos, m);
      for (size_t k = 0; k < m; ++k) {
        touched += source.At(pos + k).trajectory.SegmentIds().size();
      }
    }
    f.decode_ns_per_trip = n == 0 ? 0.0 : Since(t) * 1e9 / static_cast<double>(n);
    if (touched == 0) std::fprintf(stderr, "warning: empty trajectories\n");
  }
  {
    const obs::Mode before = obs::mode();
    obs::SetMode(obs::Mode::kMetrics);
    obs::Histogram& fb = obs::Registry::Global().histogram("trainer/forward_backward");
    obs::Histogram& opt = obs::Registry::Global().histogram("trainer/optimizer");
    fb.Reset();
    opt.Reset();
    io::ShardedTripSource epoch_source(s.shard_paths);
    TracedFeed feed(epoch_source, tracer);
    core::DeepOdTrainer trainer(*s.model, s.dataset, &feed);
    {
      Tracer::Scope span(tracer, "trainer.epoch");
      trainer.TrainPrefix(1);
    }
    obs::SetMode(before);
    const auto per_call_us = [](const obs::Histogram& h) {
      return h.Count() == 0 ? 0.0 : h.Sum() / static_cast<double>(h.Count()) * 1e6;
    };
    f.forward_backward_us = per_call_us(fb);
    f.optimizer_us = per_call_us(opt);
  }
  core::DeepOdModel& model = *s.model;
  model.SetTraining(true);
  nn::Adam zero_grad(model.Parameters(), 0.0);  // never stepped
  source.BeginEpoch(rng);
  const size_t samples = std::min(n, kReplicaSamples);
  double forward_ns = 0.0, backward_ns = 0.0;
  for (size_t pos = 0; pos < samples; pos += bs) {
    const size_t m = std::min(bs, samples - pos);
    source.PrefetchWindow(pos, m);
    for (size_t k = 0; k < m; ++k) {
      const traj::TripRecord& record = source.At(pos + k);
      int64_t t = Tracer::NowNs();
      nn::Tensor loss;
      {
        Tracer::Scope span(tracer, "replica.forward", pos + k);
        loss = nn::Scale(model.SampleLoss(record), 1.0 / static_cast<double>(bs));
      }
      const int64_t mid = Tracer::NowNs();
      forward_ns += static_cast<double>(mid - t);
      {
        Tracer::Scope span(tracer, "replica.backward", pos + k);
        loss.Backward();
      }
      backward_ns += static_cast<double>(Tracer::NowNs() - mid);
    }
    zero_grad.ZeroGrad();
  }
  model.SetTraining(false);
  if (samples > 0) {
    f.forward_us = forward_ns / 1e3 / static_cast<double>(samples);
    f.backward_us = backward_ns / 1e3 / static_cast<double>(samples);
  }
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  try {
    const Args args(argc, argv);
    const std::string data = args.Str("data");
    core::DeepOdConfig config =
        core::DeepOdConfig().Scaled(static_cast<size_t>(args.Num("scale", 16)));
    config.epochs = static_cast<int>(args.Num("epochs", 2));
    config.batch_size = 8;
    config.num_threads = static_cast<size_t>(args.Num("threads", 2));
    const bool trace = args.Num("trace", 0) != 0;

    // Set-up, several times (once in the traced run); the first is timed
    // from process start.
    std::vector<double> setup_s;
    std::unique_ptr<Setup> setup;
    for (size_t k = 0; k < (trace ? 1 : kSetupRepeats); ++k) {
      const Clock::time_point t = k == 0 ? process_start : Clock::now();
      setup.reset();
      setup = BuildSetup(data, config);
      setup_s.push_back(Since(t));
    }

    io::ShardedTripSource source(setup->shard_paths);
    TimedFeed feed(source);
    core::DeepOdTrainer trainer(*setup->model, setup->dataset, &feed);
    std::vector<double> epoch_s;
    for (int e = 1; e <= config.epochs; ++e) {
      const Clock::time_point t = Clock::now();
      trainer.TrainPrefix(e);
      epoch_s.push_back(Since(t));
    }
    // Throughput read at zero hypervisor steal over the windows, step p50 as
    // the median over the calm windows (AtZeroSteal and CalmMedian in
    // stats.h): a slow stretch of a shared host is not a slow trainer.
    const double median_epoch_s = Percentile(epoch_s, 0.5);
    std::vector<double> window_rate, window_p50, window_steal;
    for (const TimedFeed::Window& w : feed.windows) {
      window_rate.push_back(w.trips_per_s);
      window_p50.push_back(w.step_p50_ms);
      window_steal.push_back(w.steal);
    }
    std::fprintf(stderr, "train windows trips/s (steal):");
    for (size_t k = 0; k < window_rate.size(); ++k) {
      std::fprintf(stderr, " %.0f (%.3f)", window_rate[k], window_steal[k]);
    }
    std::fprintf(stderr, "\n");

    const std::vector<double> predicted = trainer.PredictAll(setup->dataset.test);
    double abs_sum = 0.0;
    bool finite = !predicted.empty();
    for (size_t i = 0; i < predicted.size(); ++i) {
      finite = finite && std::isfinite(predicted[i]) && predicted[i] > 0.0;
      abs_sum += std::fabs(predicted[i] - setup->dataset.test[i].travel_time);
    }
    const double mae =
        predicted.empty() ? 0.0 : abs_sum / static_cast<double>(predicted.size());

    LayerFigures layers;
    std::string totals_json = "{}";
    double replay_untraced_s = 0.0, replay_traced_s = 0.0;
    if (trace) {
      // The traced run untraced, then traced: the difference is the tracing
      // overhead.
      Tracer off(false), on(true);
      Clock::time_point t = Clock::now();
      TracedRun(*setup, config, off);
      replay_untraced_s = Since(t);
      t = Clock::now();
      layers = TracedRun(*setup, config, on);
      replay_traced_s = Since(t);
      on.WriteChromeTrace(args.Str("trace-out"));
      totals_json = "{";
      bool first = true;
      for (const auto& [name, tot] : on.Totals()) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"layer\": \"%s\", \"total_ns\": %.0f, "
                      "\"self_ns\": %.0f, \"calls\": %llu}",
                      first ? "" : ", ", name.c_str(), LayerOf(name).c_str(),
                      tot.total_ns, tot.self_ns,
                      static_cast<unsigned long long>(tot.calls));
        totals_json += buf;
        first = false;
      }
      totals_json += "}";
    }

    std::printf(
        "{\"correct\": %s, \"train_trips\": %zu, \"epochs\": %d, "
        "\"threads\": %zu, \"setup_s\": %.6f, \"setup_s_all\": [",
        finite ? "true" : "false", setup->train_trips, config.epochs,
        trainer.num_threads(), Percentile(setup_s, 0.5));
    for (size_t k = 0; k < setup_s.size(); ++k) {
      std::printf("%s%.6f", k ? ", " : "", setup_s[k]);
    }
    std::printf("], \"train_trips_per_s\": %.6f, \"epoch_s\": %.6f, "
                "\"step_samples\": %zu, \"step_p50_ms\": %.6f, "
                "\"step_p99_ms\": %.6f, \"mae_s\": %.6f, \"test_trips\": %zu, "
                "\"rss_mb\": %.3f, \"pretrain_s\": %.6f, "
                "\"decode_ns_per_trip\": %.3f, \"forward_backward_us\": %.4f, "
                "\"optimizer_us\": %.4f, \"forward_us\": %.4f, "
                "\"backward_us\": %.4f, \"replay_untraced_s\": %.6f, "
                "\"replay_traced_s\": %.6f, \"nn_flops_per_query\": %.0f, "
                "\"nn_bytes_per_query\": %.0f, \"spans\": %s}\n",
                AtZeroSteal(window_rate, window_steal), median_epoch_s,
                feed.step_ms.size(), CalmMedian(window_p50, window_steal),
                Percentile(feed.step_ms, 0.99),
                mae, predicted.size(), PeakRssMb(), layers.pretrain_s,
                layers.decode_ns_per_trip, layers.forward_backward_us,
                layers.optimizer_us, layers.forward_us, layers.backward_us,
                replay_untraced_s, replay_traced_s, QueryCost(config).flops,
                QueryCost(config).bytes, totals_json.c_str());
    return finite ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_train: %s\n", e.what());
    return 1;
  }
}
