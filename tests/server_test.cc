// Network front-end contracts (DESIGN.md "Network serving"):
//  - the frame codec round-trips requests/responses bit-for-bit and turns
//    malformed payloads into typed statuses (with the request id recovered
//    whenever the truncated payload still carries it);
//  - TokenBucket and AdmissionQueue are deterministic: quotas, queue
//    capacity, strict priority order, deadline-infeasible shedding and the
//    draining handshake all behave exactly as specified;
//  - EtaService::EstimateBatch matches Estimate;
//  - a live DeepOdServer over a one-row fleet (the single-city deployment)
//    answers valid requests with a standalone service's exact numbers,
//    answers every protocol error and every out-of-domain request or
//    observe frame with a typed frame while keeping the connection usable,
//    sheds over the wire with retry-after hints, serves its obs registry
//    through a stats frame, and answers every in-flight request across a
//    graceful shutdown.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/deepod_model.h"
#include "io/model_artifact.h"
#include "io/trip_io.h"
#include "serve/eta_service.h"
#include "serve/fleet_router.h"
#include "serve/server/admission.h"
#include "serve/server/frame.h"
#include "serve/server/loadgen.h"
#include "serve/server/server.h"
#include "sim/dataset.h"

namespace deepod {
namespace {

using namespace serve::net;

// The network_id the test server's artifact is stamped with.
constexpr uint32_t kNetworkId = 5;

// --- Frame codec ------------------------------------------------------------

RequestFrame SampleRequest() {
  RequestFrame frame;
  frame.request_id = 0x0123456789abcdefull;
  frame.network_id = kNetworkId;
  frame.tenant_id = 42;
  frame.priority = 2;
  frame.deadline_ms = 1500;
  frame.od.origin_segment = 7;
  frame.od.dest_segment = 31;
  frame.od.origin_ratio = 0.125;
  frame.od.dest_ratio = 0.875;
  frame.od.departure_time = 10.0 * 86400.0 + 8.0 * 3600.0 + 0.1;
  frame.od.weather_type = 3;
  return frame;
}

TEST(FrameCodec, RequestRoundTripsBitForBit) {
  const RequestFrame frame = SampleRequest();
  const std::vector<uint8_t> wire = EncodeRequestFrame(frame);
  ASSERT_EQ(wire.size(), 4 + kRequestPayloadBytes);
  RequestFrame back;
  ASSERT_EQ(DecodeRequestPayload(wire.data() + 4, wire.size() - 4, &back),
            Status::kOk);
  EXPECT_EQ(back.request_id, frame.request_id);
  EXPECT_EQ(back.network_id, frame.network_id);
  EXPECT_EQ(back.tenant_id, frame.tenant_id);
  EXPECT_EQ(back.priority, frame.priority);
  EXPECT_EQ(back.deadline_ms, frame.deadline_ms);
  EXPECT_EQ(back.od.origin_segment, frame.od.origin_segment);
  EXPECT_EQ(back.od.dest_segment, frame.od.dest_segment);
  EXPECT_EQ(std::memcmp(&back.od.origin_ratio, &frame.od.origin_ratio,
                        sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&back.od.departure_time, &frame.od.departure_time,
                        sizeof(double)),
            0);
  EXPECT_EQ(back.od.weather_type, frame.od.weather_type);
}

TEST(FrameCodec, NegativeDeadlineSurvivesTheWire) {
  RequestFrame frame = SampleRequest();
  frame.deadline_ms = -7;
  const std::vector<uint8_t> wire = EncodeRequestFrame(frame);
  RequestFrame back;
  ASSERT_EQ(DecodeRequestPayload(wire.data() + 4, wire.size() - 4, &back),
            Status::kOk);
  EXPECT_EQ(back.deadline_ms, -7);
}

TEST(FrameCodec, ResponseRoundTripsBitForBit) {
  ResponseFrame frame;
  frame.request_id = 99;
  frame.status = Status::kShedQuota;
  frame.estimator = Estimator::kLinkMean;
  frame.retry_after_ms = 250;
  frame.eta_seconds = 123.456789;
  const std::vector<uint8_t> wire = EncodeResponseFrame(frame);
  ASSERT_EQ(wire.size(), 4 + kResponsePayloadBytes);
  ResponseFrame back;
  ASSERT_TRUE(DecodeResponsePayload(wire.data() + 4, wire.size() - 4, &back));
  EXPECT_EQ(back.request_id, frame.request_id);
  EXPECT_EQ(back.status, frame.status);
  EXPECT_EQ(back.estimator, frame.estimator);
  EXPECT_EQ(back.retry_after_ms, frame.retry_after_ms);
  EXPECT_EQ(
      std::memcmp(&back.eta_seconds, &frame.eta_seconds, sizeof(double)), 0);
}

TEST(FrameCodec, V1SizedRequestPayloadIsBadFrame) {
  // A v1 client's request is exactly 4 bytes (network_id) shorter; it must
  // decode as kBadFrame — with the id recovered — not as a garbled request.
  const std::vector<uint8_t> wire = EncodeRequestFrame(SampleRequest());
  RequestFrame back;
  EXPECT_EQ(
      DecodeRequestPayload(wire.data() + 4, kRequestPayloadBytes - 4, &back),
      Status::kBadFrame);
  EXPECT_EQ(back.request_id, SampleRequest().request_id);
}

TEST(FrameCodec, TruncatedPayloadRecoversRequestId) {
  const std::vector<uint8_t> wire = EncodeRequestFrame(SampleRequest());
  // Magic + request id survive; everything after is cut off.
  RequestFrame back;
  EXPECT_EQ(DecodeRequestPayload(wire.data() + 4, 12, &back),
            Status::kBadFrame);
  EXPECT_EQ(back.request_id, SampleRequest().request_id);
}

TEST(FrameCodec, TooShortForAnIdIsStillBadFrame) {
  const std::vector<uint8_t> wire = EncodeRequestFrame(SampleRequest());
  RequestFrame back;
  EXPECT_EQ(DecodeRequestPayload(wire.data() + 4, 6, &back),
            Status::kBadFrame);
  EXPECT_EQ(back.request_id, 0u);
}

TEST(FrameCodec, UnknownMagicIsBadMagic) {
  std::vector<uint8_t> wire = EncodeRequestFrame(SampleRequest());
  wire[4] ^= 0xff;  // corrupt the magic, keep the length
  RequestFrame back;
  EXPECT_EQ(DecodeRequestPayload(wire.data() + 4, wire.size() - 4, &back),
            Status::kBadMagic);
}

// --- TokenBucket ------------------------------------------------------------

TEST(TokenBucket, RateZeroIsAHardCap) {
  TokenBucket bucket(0.0, 2.0);
  EXPECT_TRUE(bucket.TryTake(0.0));
  EXPECT_TRUE(bucket.TryTake(100.0));
  EXPECT_FALSE(bucket.TryTake(1e6));  // never refills
  EXPECT_GT(bucket.SecondsUntilNextToken(1e6), 3599.0);
}

TEST(TokenBucket, RefillsAtTheConfiguredRate) {
  TokenBucket bucket(10.0, 1.0);  // one token per 100ms, burst 1
  EXPECT_TRUE(bucket.TryTake(0.0));
  EXPECT_FALSE(bucket.TryTake(0.05));
  EXPECT_NEAR(bucket.SecondsUntilNextToken(0.05), 0.05, 1e-9);
  EXPECT_TRUE(bucket.TryTake(0.11));
}

// --- AdmissionQueue ---------------------------------------------------------

AdmittedRequest MakeAdmitted(uint8_t priority, int32_t deadline_ms = 0,
                             uint32_t tenant_id = 0) {
  AdmittedRequest request;
  request.frame = SampleRequest();
  request.frame.priority = priority;
  request.frame.deadline_ms = deadline_ms;
  request.frame.tenant_id = tenant_id;
  request.arrival = std::chrono::steady_clock::now();
  request.deadline =
      deadline_ms > 0
          ? request.arrival + std::chrono::milliseconds(deadline_ms)
          : std::chrono::steady_clock::time_point::max();
  request.respond = [](const ResponseFrame&) {};
  return request;
}

TEST(AdmissionQueue, ShedsAtCapacityWithARetryHint) {
  AdmissionOptions options;
  options.queue_capacity = 2;
  AdmissionQueue queue(options);
  EXPECT_EQ(queue.Offer(MakeAdmitted(1)).status, Status::kOk);
  EXPECT_EQ(queue.Offer(MakeAdmitted(1)).status, Status::kOk);
  const AdmitDecision shed = queue.Offer(MakeAdmitted(1));
  EXPECT_EQ(shed.status, Status::kShedQueueFull);
  EXPECT_GE(shed.retry_after_ms, 1u);
  EXPECT_EQ(queue.Depth(), 2u);
}

TEST(AdmissionQueue, TenantQuotaAndUnknownTenant) {
  AdmissionOptions options;
  options.num_tenants = 1;
  options.tenant_rate = 0.0;  // hard cap at the burst
  options.tenant_burst = 2.0;
  AdmissionQueue queue(options);
  EXPECT_EQ(queue.Offer(MakeAdmitted(1)).status, Status::kOk);
  EXPECT_EQ(queue.Offer(MakeAdmitted(1)).status, Status::kOk);
  const AdmitDecision shed = queue.Offer(MakeAdmitted(1));
  EXPECT_EQ(shed.status, Status::kShedQuota);
  EXPECT_GE(shed.retry_after_ms, 1u);
  EXPECT_EQ(queue.Offer(MakeAdmitted(1, 0, /*tenant_id=*/5)).status,
            Status::kUnknownTenant);
}

TEST(AdmissionQueue, PopsInStrictPriorityOrder) {
  AdmissionQueue queue(AdmissionOptions{});
  EXPECT_EQ(queue.Offer(MakeAdmitted(2)).status, Status::kOk);
  EXPECT_EQ(queue.Offer(MakeAdmitted(0)).status, Status::kOk);
  EXPECT_EQ(queue.Offer(MakeAdmitted(1)).status, Status::kOk);
  std::vector<AdmittedRequest> batch;
  ASSERT_TRUE(queue.PopBatch(8, &batch));
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].frame.priority, 0);
  EXPECT_EQ(batch[1].frame.priority, 1);
  EXPECT_EQ(batch[2].frame.priority, 2);
}

TEST(AdmissionQueue, ShedsDeadlinesTheBacklogCannotMeet) {
  AdmissionQueue queue(AdmissionOptions{});
  // Executor feedback: one second per request. With one request already
  // queued, a 10ms deadline is infeasible; no deadline is always feasible.
  queue.RecordServiceTime(1.0);
  EXPECT_DOUBLE_EQ(queue.EwmaServiceSeconds(), 1.0);
  EXPECT_EQ(queue.Offer(MakeAdmitted(1)).status, Status::kOk);
  const AdmitDecision shed = queue.Offer(MakeAdmitted(1, /*deadline_ms=*/10));
  EXPECT_EQ(shed.status, Status::kShedDeadline);
  EXPECT_GE(shed.retry_after_ms, 1u);
  EXPECT_EQ(queue.Offer(MakeAdmitted(1, /*deadline_ms=*/0)).status,
            Status::kOk);
}

TEST(AdmissionQueue, DrainingAnswersShuttingDownAndEmptiesTheBacklog) {
  AdmissionQueue queue(AdmissionOptions{});
  EXPECT_EQ(queue.Offer(MakeAdmitted(1)).status, Status::kOk);
  EXPECT_EQ(queue.Offer(MakeAdmitted(0)).status, Status::kOk);
  queue.SetDraining();
  EXPECT_EQ(queue.Offer(MakeAdmitted(1)).status, Status::kShuttingDown);
  std::vector<AdmittedRequest> batch;
  EXPECT_TRUE(queue.PopBatch(1, &batch));  // backlog still drains
  EXPECT_TRUE(queue.PopBatch(1, &batch));
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_FALSE(queue.PopBatch(1, &batch));  // drained + empty -> done
}

TEST(AdmissionQueue, EwmaSmoothsServiceTimes) {
  AdmissionQueue queue(AdmissionOptions{});
  queue.RecordServiceTime(1.0);
  queue.RecordServiceTime(2.0);  // 0.8 * 1.0 + 0.2 * 2.0
  EXPECT_NEAR(queue.EwmaServiceSeconds(), 1.2, 1e-12);
}

// --- EtaService: EstimateBatch ---------------------------------------------

const sim::Dataset& TinyDataset() {
  static const sim::Dataset* dataset = [] {
    sim::DatasetConfig config;
    config.city = road::XianSimConfig();
    config.city.rows = 6;
    config.city.cols = 6;
    config.trips_per_day = 12;
    config.num_days = 15;
    config.seed = 23;
    return new sim::Dataset(sim::BuildDataset(config));
  }();
  return *dataset;
}

core::DeepOdModel& TinyInferenceModel() {
  static core::DeepOdModel* model = [] {
    core::DeepOdConfig config = core::DeepOdConfig().Scaled(16);
    config.epochs = 1;
    config.batch_size = 8;
    auto* m = new core::DeepOdModel(config, TinyDataset());
    m->SetTraining(false);
    return m;
  }();
  return *model;
}

std::vector<traj::OdInput> SampleOds(size_t n) {
  const auto& trips = TinyDataset().test.empty() ? TinyDataset().train
                                                 : TinyDataset().test;
  std::vector<traj::OdInput> ods;
  for (size_t i = 0; i < n; ++i) {
    traj::OdInput od = trips[i % trips.size()].od;
    od.departure_time = 10.0 * 86400.0 + 8.0 * 3600.0 + 60.0 * double(i);
    ods.push_back(od);
  }
  return ods;
}

TEST(EtaServiceEstimateBatch, MatchesEstimate) {
  serve::EtaService batched(TinyInferenceModel(), serve::EtaServiceOptions{});
  serve::EtaService single(TinyInferenceModel(), serve::EtaServiceOptions{});
  const auto ods = SampleOds(16);
  const std::vector<double> answers =
      batched.EstimateBatch({ods.data(), ods.size()});
  ASSERT_EQ(answers.size(), ods.size());
  for (size_t i = 0; i < ods.size(); ++i) {
    EXPECT_EQ(answers[i], single.Estimate(ods[i])) << "query " << i;
  }
  // Second pass answers from the cache with the same numbers.
  const std::vector<double> again =
      batched.EstimateBatch({ods.data(), ods.size()});
  EXPECT_EQ(again, answers);
}

// --- Live server over a real socket -----------------------------------------

// TinyInferenceModel as a deployment ships it: an artifact stamped with
// kNetworkId plus its network CSV, written once per process. Each file is
// written under a per-process name and renamed into place, so concurrent
// runs of this binary never read each other's half-written files.
struct ArtifactFiles {
  std::string artifact;
  std::string network;
};

const ArtifactFiles& TinyArtifactFiles() {
  static const ArtifactFiles* files = [] {
    auto* f = new ArtifactFiles;
    f->artifact = testing::TempDir() + "server_test.model.artifact";
    f->network = testing::TempDir() + "server_test.network.csv";
    const std::string tmp = "." + std::to_string(::getpid()) + ".tmp";
    io::WriteNetworkCsv(TinyDataset().network, f->network + tmp);
    io::ArtifactOptions options;
    options.network_id = kNetworkId;
    io::WriteModelArtifact(f->artifact + tmp, TinyInferenceModel(), nullptr,
                           options);
    std::rename((f->network + tmp).c_str(), f->network.c_str());
    std::rename((f->artifact + tmp).c_str(), f->artifact.c_str());
    return f;
  }();
  return *files;
}

RequestFrame ValidRequest(uint64_t request_id, const traj::OdInput& od) {
  RequestFrame request;
  request.request_id = request_id;
  request.network_id = kNetworkId;
  request.od = od;
  return request;
}

// The out-of-domain repros: departures before the slotter's base (-3600 s
// made TimeSlotter::Slot throw on an executor thread and took the whole
// process down), one whose slot index overflows int64 (1e300 s came back
// Ok with an ETA of about -7e296 s), and a position ratio far outside
// [0, 1].
std::vector<traj::OdInput> OutOfDomainOds() {
  const traj::OdInput od = SampleOds(1)[0];
  std::vector<traj::OdInput> out;
  for (const double t : {-3600.0, -1e9, 1e300}) {
    out.push_back(od);
    out.back().departure_time = t;
  }
  out.push_back(od);
  out.back().origin_ratio = 1e6;
  return out;
}

class ServerTest : public ::testing::Test {
 protected:
  // Starts a server over the one-row fleet of TinyArtifactFiles, with
  // `mutate` applied to the default options, and connects a client to it.
  void StartServer(void (*mutate)(ServerOptions*) = nullptr) {
    const ArtifactFiles& files = TinyArtifactFiles();
    fleet_ = serve::FleetRouter::ForArtifact(files.artifact, files.network,
                                             serve::FleetRouterOptions{});
    expected_ = serve::EtaService::FromArtifact(
        files.artifact, fleet_->shards()[0]->network(),
        serve::EtaServiceOptions{});
    ServerOptions options;
    if (mutate != nullptr) mutate(&options);
    server_ = std::make_unique<DeepOdServer>(*fleet_, options);
    server_->Start();
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()));
  }

  // Sends a valid request and expects a standalone service's exact answer.
  void ExpectOkRoundTrip(uint64_t request_id) {
    const auto ods = SampleOds(1);
    ASSERT_TRUE(client_.Send(ValidRequest(request_id, ods[0])));
    ResponseFrame response;
    ASSERT_TRUE(client_.ReadResponse(&response));
    EXPECT_EQ(response.request_id, request_id);
    EXPECT_EQ(response.status, Status::kOk);
    EXPECT_EQ(response.eta_seconds, expected_->Estimate(ods[0]));
  }

  // Sends raw wire bytes (length prefix included).
  void SendRaw(const std::vector<uint8_t>& wire) {
    ASSERT_TRUE(WriteAll(client_.fd(), wire.data(), wire.size()));
  }

  std::unique_ptr<serve::FleetRouter> fleet_;
  std::unique_ptr<serve::EtaService> expected_;
  std::unique_ptr<DeepOdServer> server_;
  Client client_;
};

TEST_F(ServerTest, AnswersWithTheServiceNumbers) {
  StartServer();
  ExpectOkRoundTrip(1);
  ExpectOkRoundTrip(2);  // cache-hit path, same contract
}

TEST_F(ServerTest, TruncatedFrameGetsTypedErrorAndConnectionSurvives) {
  StartServer();
  std::vector<uint8_t> wire = EncodeRequestFrame(SampleRequest());
  // Re-declare the length as 12 and send only magic + id.
  std::vector<uint8_t> truncated(wire.begin(), wire.begin() + 4 + 12);
  truncated[0] = 12;
  truncated[1] = truncated[2] = truncated[3] = 0;
  SendRaw(truncated);
  ResponseFrame response;
  ASSERT_TRUE(client_.ReadResponse(&response));
  EXPECT_EQ(response.status, Status::kBadFrame);
  EXPECT_EQ(response.request_id, SampleRequest().request_id);
  ExpectOkRoundTrip(3);
}

TEST_F(ServerTest, OversizedFrameGetsTypedErrorAndConnectionSurvives) {
  StartServer();
  const uint32_t declared = kMaxInboundFrameBytes + 1000;
  std::vector<uint8_t> wire(4 + declared, 0xab);
  wire[0] = static_cast<uint8_t>(declared & 0xff);
  wire[1] = static_cast<uint8_t>((declared >> 8) & 0xff);
  wire[2] = static_cast<uint8_t>((declared >> 16) & 0xff);
  wire[3] = static_cast<uint8_t>((declared >> 24) & 0xff);
  SendRaw(wire);
  ResponseFrame response;
  ASSERT_TRUE(client_.ReadResponse(&response));
  EXPECT_EQ(response.status, Status::kFrameTooLarge);
  ExpectOkRoundTrip(4);
}

TEST_F(ServerTest, BadMagicGetsTypedErrorAndConnectionSurvives) {
  StartServer();
  std::vector<uint8_t> wire = EncodeRequestFrame(SampleRequest());
  wire[4] ^= 0xff;
  SendRaw(wire);
  ResponseFrame response;
  ASSERT_TRUE(client_.ReadResponse(&response));
  EXPECT_EQ(response.status, Status::kBadMagic);
  ExpectOkRoundTrip(5);
}

TEST_F(ServerTest, ExpiredDeadlineIsAnsweredWithoutQueueing) {
  StartServer();
  RequestFrame request = SampleRequest();
  request.request_id = 6;
  request.od = SampleOds(1)[0];
  request.deadline_ms = -1;
  ASSERT_TRUE(client_.Send(request));
  ResponseFrame response;
  ASSERT_TRUE(client_.ReadResponse(&response));
  EXPECT_EQ(response.request_id, 6u);
  EXPECT_EQ(response.status, Status::kDeadlineExpired);
  ExpectOkRoundTrip(7);
}

TEST_F(ServerTest, OutOfDomainRequestsAreInvalidAndTheServerSurvives) {
  StartServer();
  uint64_t id = 20;
  for (const traj::OdInput& od : OutOfDomainOds()) {
    ++id;
    ASSERT_TRUE(client_.Send(ValidRequest(id, od)));
    ResponseFrame response;
    ASSERT_TRUE(client_.ReadResponse(&response));
    EXPECT_EQ(response.request_id, id);
    EXPECT_EQ(response.status, Status::kInvalidRequest) << "request " << id;
  }
  ExpectOkRoundTrip(++id);
}

TEST_F(ServerTest, OutOfDomainObservesAreInvalidAndTheServerSurvives) {
  StartServer();
  uint64_t id = 30;
  for (const traj::OdInput& od : OutOfDomainOds()) {
    ObserveFrame frame;
    frame.request_id = ++id;
    frame.network_id = kNetworkId;
    frame.od = od;
    frame.actual_seconds = 600.0;
    SendRaw(EncodeObserveFrame(frame));
    ResponseFrame response;
    ASSERT_TRUE(client_.ReadResponse(&response));
    EXPECT_EQ(response.request_id, id);
    EXPECT_EQ(response.status, Status::kInvalidRequest) << "observe " << id;
  }
  ExpectOkRoundTrip(++id);
}

TEST_F(ServerTest, UnknownNetworkIsRejected) {
  StartServer();
  RequestFrame request = ValidRequest(40, SampleOds(1)[0]);
  request.network_id = kNetworkId + 1;
  ASSERT_TRUE(client_.Send(request));
  ResponseFrame response;
  ASSERT_TRUE(client_.ReadResponse(&response));
  EXPECT_EQ(response.status, Status::kUnknownNetwork);
  ExpectOkRoundTrip(41);
}

TEST_F(ServerTest, OutOfRangeSegmentIsInvalid) {
  StartServer();
  RequestFrame request = SampleRequest();
  request.request_id = 8;
  request.od = SampleOds(1)[0];
  request.od.dest_segment = 1u << 30;  // far outside the tiny network
  ASSERT_TRUE(client_.Send(request));
  ResponseFrame response;
  ASSERT_TRUE(client_.ReadResponse(&response));
  EXPECT_EQ(response.status, Status::kInvalidRequest);
  ExpectOkRoundTrip(9);
}

TEST_F(ServerTest, UnknownTenantIsRejected) {
  StartServer(+[](ServerOptions* options) {
    options->admission.num_tenants = 2;
  });
  RequestFrame request = SampleRequest();
  request.request_id = 10;
  request.od = SampleOds(1)[0];
  request.tenant_id = 7;
  ASSERT_TRUE(client_.Send(request));
  ResponseFrame response;
  ASSERT_TRUE(client_.ReadResponse(&response));
  EXPECT_EQ(response.status, Status::kUnknownTenant);
  request.request_id = 11;
  request.tenant_id = 1;
  ASSERT_TRUE(client_.Send(request));
  ASSERT_TRUE(client_.ReadResponse(&response));
  EXPECT_EQ(response.status, Status::kOk);
}

TEST_F(ServerTest, QuotaShedsOverTheWireWithARetryHint) {
  StartServer(+[](ServerOptions* options) {
    options->admission.num_tenants = 1;
    options->admission.tenant_rate = 0.0;  // hard cap
    options->admission.tenant_burst = 2.0;
  });
  const auto ods = SampleOds(1);
  uint64_t shed_count = 0;
  for (uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(client_.Send(ValidRequest(id, ods[0])));
    ResponseFrame response;
    ASSERT_TRUE(client_.ReadResponse(&response));
    if (response.status == Status::kShedQuota) {
      ++shed_count;
      EXPECT_GE(response.retry_after_ms, 1u);
    } else {
      EXPECT_EQ(response.status, Status::kOk);
    }
  }
  EXPECT_EQ(shed_count, 1u);
}

TEST_F(ServerTest, GracefulShutdownAnswersEveryPipelinedRequest) {
  StartServer();
  const auto ods = SampleOds(8);
  for (uint64_t id = 0; id < 8; ++id) {
    ASSERT_TRUE(client_.Send(ValidRequest(id + 1, ods[id])));
  }
  std::thread shutdown([this] { server_->Shutdown(); });
  size_t answered = 0;
  ResponseFrame response;
  while (answered < 8 && client_.ReadResponse(&response)) {
    // Every pipelined request is answered: either served before the drain
    // finished or refused with kShuttingDown — never silently dropped.
    EXPECT_TRUE(response.status == Status::kOk ||
                response.status == Status::kShuttingDown)
        << StatusName(response.status);
    ++answered;
  }
  shutdown.join();
  EXPECT_EQ(answered, 8u);
}

TEST_F(ServerTest, StatsFrameServesTheObsRegistry) {
  StartServer();
  ExpectOkRoundTrip(12);
  const std::string json = client_.FetchStatsJson();
  EXPECT_NE(json.find("server/requests"), std::string::npos);
  EXPECT_NE(json.find("server/admitted"), std::string::npos);
  // The city's service and drift monitor ride along under its name.
  EXPECT_NE(json.find("serve/default/requests"), std::string::npos);
  EXPECT_NE(json.find("drift/default/rolling_mae"), std::string::npos);
}

TEST_F(ServerTest, LoadgenDrivesTheServerWithoutLosses) {
  StartServer(+[](ServerOptions* options) { options->executors = 2; });
  LoadgenOptions load;
  load.port = server_->port();
  load.qps = 100.0;
  load.duration_seconds = 0.5;
  load.connections = 2;
  load.num_segments = TinyDataset().network.num_segments();
  load.network_ids = {kNetworkId};
  load.fetch_server_stats = true;
  const LoadgenReport report = RunLoadgen(load);
  EXPECT_GT(report.sent, 0u);
  EXPECT_EQ(report.lost, 0u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.ok + report.shed + report.deadline_expired, report.sent);
  EXPECT_NE(report.server_stats_json.find("server/completed"),
            std::string::npos);
}

}  // namespace
}  // namespace deepod
