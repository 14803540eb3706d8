// The unified transport entry point's contract: RunWithTransport(kSim)
// is the byte-identical continuation of sim::RunTracking, the concurrent
// backends run the same protocol through the same call with one enum
// changed, and the transport-agnostic CheckLinearizable accepts captured
// concurrent runs (and explains itself on a sim result).

#include "runtime/run.h"

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "registry/builtin.h"
#include "runtime/transport.h"
#include "sim/assignment.h"
#include "sim/registry.h"
#include "streams/bernoulli.h"

namespace nmc::runtime {
namespace {

sim::ProtocolParams TestParams(int64_t n) {
  sim::ProtocolParams params;
  params.epsilon = 0.25;
  params.horizon_n = n;
  params.seed = 53;
  return params;
}

std::unique_ptr<sim::Protocol> MakeCounter(int num_sites, int64_t n) {
  registry::RegisterBuiltinProtocols();
  return sim::ProtocolRegistry::Global().Create("counter", num_sites,
                                                TestParams(n));
}

TEST(RunApiTest, ParseTransportKindCoversSockets) {
  TransportKind kind = TransportKind::kSim;
  EXPECT_TRUE(ParseTransportKind("sockets", &kind));
  EXPECT_EQ(kind, TransportKind::kSockets);
  EXPECT_STREQ(TransportKindName(TransportKind::kSockets), "sockets");
}

TEST(RunApiTest, SimPathIsBitIdenticalToDirectRunTracking) {
  const int64_t n = 16384;
  const int k = 4;
  const std::vector<double> stream = streams::BernoulliStream(n, 0.1, 11);
  sim::TrackingOptions tracking;
  tracking.epsilon = 0.25;
  tracking.curve_points = 32;

  const auto direct_protocol = MakeCounter(k, n);
  sim::RoundRobinAssignment direct_psi(k);
  const sim::TrackingResult direct =
      sim::RunTracking(stream, &direct_psi, direct_protocol.get(), tracking);

  const auto unified_protocol = MakeCounter(k, n);
  sim::RoundRobinAssignment unified_psi(k);
  RunConfig config;
  config.protocol = unified_protocol.get();
  config.stream = &stream;
  config.psi = &unified_psi;
  config.tracking = tracking;
  const RunResult unified = RunWithTransport(TransportKind::kSim, config);

  EXPECT_EQ(unified.transport, TransportKind::kSim);
  EXPECT_EQ(unified.tracking.n, direct.n);
  EXPECT_EQ(unified.tracking.messages, direct.messages);
  EXPECT_EQ(unified.tracking.broadcasts, direct.broadcasts);
  EXPECT_EQ(unified.tracking.violation_steps, direct.violation_steps);
  EXPECT_EQ(std::bit_cast<uint64_t>(unified.tracking.final_estimate),
            std::bit_cast<uint64_t>(direct.final_estimate));
  EXPECT_EQ(std::bit_cast<uint64_t>(unified.tracking.final_sum),
            std::bit_cast<uint64_t>(direct.final_sum));
  EXPECT_EQ(std::bit_cast<uint64_t>(unified.tracking.max_rel_error),
            std::bit_cast<uint64_t>(direct.max_rel_error));
  ASSERT_EQ(unified.tracking.curve.size(), direct.curve.size());
}

TEST(RunApiTest, NullPsiDefaultsToRoundRobin) {
  const int64_t n = 4096;
  const int k = 4;
  const std::vector<double> stream = streams::BernoulliStream(n, 0.1, 12);
  sim::TrackingOptions tracking;
  tracking.epsilon = 0.25;

  const auto explicit_protocol = MakeCounter(k, n);
  sim::RoundRobinAssignment psi(k);
  RunConfig explicit_config;
  explicit_config.protocol = explicit_protocol.get();
  explicit_config.stream = &stream;
  explicit_config.psi = &psi;
  explicit_config.tracking = tracking;
  const RunResult with_psi =
      RunWithTransport(TransportKind::kSim, explicit_config);

  const auto defaulted_protocol = MakeCounter(k, n);
  RunConfig defaulted_config;
  defaulted_config.protocol = defaulted_protocol.get();
  defaulted_config.stream = &stream;
  defaulted_config.tracking = tracking;
  const RunResult defaulted =
      RunWithTransport(TransportKind::kSim, defaulted_config);

  EXPECT_EQ(std::bit_cast<uint64_t>(defaulted.tracking.final_estimate),
            std::bit_cast<uint64_t>(with_psi.tracking.final_estimate));
  EXPECT_EQ(defaulted.tracking.messages, with_psi.tracking.messages);
}

TEST(RunApiTest, ShardsInputDrivesSimAsTheCanonicalInterleaving) {
  const int64_t n = 4096;
  const int k = 3;
  const std::vector<double> stream = streams::BernoulliStream(n, 0.1, 13);
  const std::vector<std::vector<double>> shards = ShardRoundRobin(stream, k);
  sim::TrackingOptions tracking;
  tracking.epsilon = 0.25;

  const auto from_stream = MakeCounter(k, n);
  RunConfig stream_config;
  stream_config.protocol = from_stream.get();
  stream_config.stream = &stream;
  stream_config.tracking = tracking;
  const RunResult via_stream =
      RunWithTransport(TransportKind::kSim, stream_config);

  const auto from_shards = MakeCounter(k, n);
  RunConfig shard_config;
  shard_config.protocol = from_shards.get();
  shard_config.shards = shards;
  shard_config.tracking = tracking;
  const RunResult via_shards =
      RunWithTransport(TransportKind::kSim, shard_config);

  EXPECT_EQ(std::bit_cast<uint64_t>(via_shards.tracking.final_estimate),
            std::bit_cast<uint64_t>(via_stream.tracking.final_estimate));
  EXPECT_EQ(via_shards.tracking.messages, via_stream.tracking.messages);
}

TEST(RunApiTest, ThreadsBackendLinearizesThroughUnifiedApi) {
  const int64_t n = 16384;
  const int k = 4;
  const std::vector<double> stream = streams::BernoulliStream(n, 0.1, 14);
  const auto protocol = MakeCounter(k, n);
  RunConfig config;
  config.protocol = protocol.get();
  config.stream = &stream;
  config.threaded.capture = true;
  config.threaded.num_readers = 2;
  const RunResult run = RunWithTransport(TransportKind::kThreads, config);
  EXPECT_EQ(run.transport, TransportKind::kThreads);
  EXPECT_EQ(run.serving.updates, n);
  const auto oracle = MakeCounter(k, n);
  const LinearizabilityReport report = CheckLinearizable(run, oracle.get());
  EXPECT_TRUE(report.linearizable) << report.failure;
}

TEST(RunApiTest, SocketsBackendLinearizesThroughUnifiedApi) {
  const int64_t n = 8192;
  const int k = 4;
  const std::vector<double> stream = streams::BernoulliStream(n, 0.1, 15);
  const auto protocol = MakeCounter(k, n);
  RunConfig config;
  config.protocol = protocol.get();
  config.stream = &stream;
  config.sockets.capture = true;
  const RunResult run = RunWithTransport(TransportKind::kSockets, config);
  EXPECT_EQ(run.transport, TransportKind::kSockets);
  EXPECT_EQ(run.serving.updates, n);
  EXPECT_EQ(run.sockets.unexpected_exits, 0);
  const auto oracle = MakeCounter(k, n);
  const LinearizabilityReport report = CheckLinearizable(run, oracle.get());
  EXPECT_TRUE(report.linearizable) << report.failure;
}

// The captured publish log is the serving layer's whole history on both
// concurrent backends: generation 0 first, strictly increasing, ending at
// the last consumed update, one entry per counted publish.
TEST(RunApiTest, PublishLogRunsFromZeroToEveryUpdate) {
  const int64_t n = 8192;
  const int k = 3;
  const std::vector<double> stream = streams::BernoulliStream(n, 0.1, 17);
  for (const TransportKind kind :
       {TransportKind::kThreads, TransportKind::kSockets}) {
    SCOPED_TRACE(TransportKindName(kind));
    const auto protocol = MakeCounter(k, n);
    RunConfig config;
    config.protocol = protocol.get();
    config.stream = &stream;
    config.threaded.capture = true;
    config.threaded.num_readers = 1;
    config.sockets.capture = true;
    config.sockets.num_readers = 1;
    const RunResult run = RunWithTransport(kind, config);
    EXPECT_EQ(run.transport, kind);
    const std::vector<PublishedEstimate>& log = run.serving.publish_log;
    ASSERT_FALSE(log.empty());
    EXPECT_EQ(log.front().generation, 0);
    for (size_t i = 1; i < log.size(); ++i) {
      ASSERT_GT(log[i].generation, log[i - 1].generation) << "entry " << i;
    }
    EXPECT_EQ(log.back().generation, n);
    EXPECT_EQ(run.serving.final_published.generation, log.back().generation);
    EXPECT_EQ(std::bit_cast<uint64_t>(run.serving.final_published.estimate),
              std::bit_cast<uint64_t>(log.back().estimate));
    EXPECT_EQ(run.serving.publishes, static_cast<int64_t>(log.size()));
  }
}

TEST(RunApiTest, SimResultIsNotLinearizabilityCheckable) {
  const int64_t n = 1024;
  const int k = 2;
  const std::vector<double> stream = streams::BernoulliStream(n, 0.1, 16);
  const auto protocol = MakeCounter(k, n);
  RunConfig config;
  config.protocol = protocol.get();
  config.stream = &stream;
  const RunResult run = RunWithTransport(TransportKind::kSim, config);
  const auto oracle = MakeCounter(k, n);
  const LinearizabilityReport report = CheckLinearizable(run, oracle.get());
  EXPECT_FALSE(report.linearizable);
  EXPECT_FALSE(report.failure.empty())
      << "a sim result must explain why there is nothing to check";
}

}  // namespace
}  // namespace nmc::runtime
