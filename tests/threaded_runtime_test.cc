#include "runtime/threaded.h"

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/nonmonotonic_counter.h"
#include "registry/builtin.h"
#include "runtime/run.h"
#include "runtime/transport.h"
#include "sim/registry.h"
#include "streams/bernoulli.h"

namespace nmc::runtime {
namespace {

sim::ProtocolParams TestParams(int64_t n) {
  sim::ProtocolParams params;
  params.epsilon = 0.25;
  params.horizon_n = n;
  params.seed = 41;
  return params;
}

std::unique_ptr<sim::Protocol> MakeCounter(int num_sites, int64_t n) {
  registry::RegisterBuiltinProtocols();
  return sim::ProtocolRegistry::Global().Create("counter", num_sites,
                                                TestParams(n));
}

TEST(TransportKindTest, ParseAndName) {
  TransportKind kind = TransportKind::kThreads;
  EXPECT_TRUE(ParseTransportKind("sim", &kind));
  EXPECT_EQ(kind, TransportKind::kSim);
  EXPECT_TRUE(ParseTransportKind("threads", &kind));
  EXPECT_EQ(kind, TransportKind::kThreads);
  EXPECT_FALSE(ParseTransportKind("simulate", &kind));
  EXPECT_EQ(kind, TransportKind::kThreads) << "failed parse must not write";
  EXPECT_STREQ(TransportKindName(TransportKind::kSim), "sim");
  EXPECT_STREQ(TransportKindName(TransportKind::kThreads), "threads");
}

TEST(ShardingTest, RoundRobinAndInterleaveAreInverse) {
  std::vector<double> stream;
  for (int i = 0; i < 23; ++i) stream.push_back(static_cast<double>(i));
  const std::vector<std::vector<double>> shards = ShardRoundRobin(stream, 4);
  ASSERT_EQ(shards.size(), 4u);
  EXPECT_EQ(shards[0].size(), 6u);
  EXPECT_EQ(shards[3].size(), 5u);
  EXPECT_EQ(shards[1][2], 9.0);  // t = 2*4 + 1
  EXPECT_EQ(InterleaveShards(shards), stream);
}

TEST(ThreadedRuntimeTest, ConsumesEveryUpdateAndPublishesFinalGeneration) {
  const int64_t n = 20000;
  const int k = 4;
  const std::vector<double> stream = streams::BernoulliStream(n, 0.0, 77);
  const std::vector<std::vector<double>> shards = ShardRoundRobin(stream, k);
  const std::unique_ptr<sim::Protocol> protocol = MakeCounter(k, n);
  ThreadedRunOptions options;
  options.num_readers = 4;
  const RunResult result =
      RunThreaded(protocol.get(), shards, options);
  EXPECT_EQ(result.serving.updates, n);
  EXPECT_EQ(result.serving.final_published.generation, n);
  EXPECT_GE(result.serving.publishes, 1);
  EXPECT_EQ(result.serving.generation_regressions, 0);
  EXPECT_GT(result.serving.total_reads, 0);
}

// The tentpole's correctness claim: with k site threads and m concurrent
// readers, a captured run replays bit-identically through the
// deterministic simulator — every published estimate and every reader
// snapshot is the oracle's value at its generation.
TEST(ThreadedRuntimeTest, CapturedRunIsLinearizableAgainstSimOracle) {
  const int64_t n = 16384;
  const int k = 4;
  const std::vector<double> stream = streams::BernoulliStream(n, 0.0, 91);
  const std::vector<std::vector<double>> shards = ShardRoundRobin(stream, k);
  const std::unique_ptr<sim::Protocol> protocol = MakeCounter(k, n);
  ThreadedRunOptions options;
  options.num_readers = 4;
  options.capture = true;
  const RunResult result =
      RunThreaded(protocol.get(), shards, options);
  ASSERT_EQ(static_cast<int64_t>(result.serving.transcript.size()), n);

  const std::unique_ptr<sim::Protocol> oracle = MakeCounter(k, n);
  const LinearizabilityReport report =
      CheckLinearizable(result, oracle.get());
  EXPECT_TRUE(report.linearizable) << report.failure;
  EXPECT_GE(report.publishes_checked, 1);
}

// A corrupted transcript (one update flipped) must be caught: the replayed
// trajectory diverges from some published estimate. Guards against the
// check silently accepting everything.
TEST(ThreadedRuntimeTest, LinearizabilityCheckDetectsCorruption) {
  const int64_t n = 4096;
  const int k = 2;
  const std::vector<double> stream = streams::BernoulliStream(n, 0.0, 13);
  const std::vector<std::vector<double>> shards = ShardRoundRobin(stream, k);
  const std::unique_ptr<sim::Protocol> protocol = MakeCounter(k, n);
  ThreadedRunOptions options;
  options.capture = true;
  RunResult result = RunThreaded(protocol.get(), shards, options);
  // Flip the sign of an early consumed update: the oracle's trajectory
  // diverges by 2 from there on, so some later publish must mismatch.
  ASSERT_GT(result.serving.transcript.size(), 16u);
  result.serving.transcript[7].value = -result.serving.transcript[7].value;
  const std::unique_ptr<sim::Protocol> oracle = MakeCounter(k, n);
  const LinearizabilityReport report =
      CheckLinearizable(result, oracle.get());
  EXPECT_FALSE(report.linearizable);
  EXPECT_FALSE(report.failure.empty());
}

// Tiny mailboxes force constant producer backpressure (every push path
// hits the full-queue branch); the run must still consume everything.
TEST(ThreadedRuntimeTest, SurvivesTinyMailboxBackpressure) {
  const int64_t n = 8192;
  const int k = 3;
  const std::vector<double> stream = streams::BernoulliStream(n, 0.0, 29);
  const std::vector<std::vector<double>> shards = ShardRoundRobin(stream, k);
  const std::unique_ptr<sim::Protocol> protocol = MakeCounter(k, n);
  ThreadedRunOptions options;
  options.mailbox_capacity = 4;
  options.max_pull = 2;
  options.capture = true;
  const RunResult result =
      RunThreaded(protocol.get(), shards, options);
  EXPECT_EQ(result.serving.updates, n);
  const std::unique_ptr<sim::Protocol> oracle = MakeCounter(k, n);
  EXPECT_TRUE(CheckLinearizable(result, oracle.get()).linearizable);
}

TEST(ThreadedRuntimeTest, EchoesFlowBackToSites) {
  const int64_t n = 32768;
  const int k = 2;
  const std::vector<double> stream = streams::BernoulliStream(n, 0.0, 57);
  const std::vector<std::vector<double>> shards = ShardRoundRobin(stream, k);
  const std::unique_ptr<sim::Protocol> protocol = MakeCounter(k, n);
  ThreadedRunOptions options;
  const RunResult result =
      RunThreaded(protocol.get(), shards, options);
  EXPECT_GT(result.serving.echoes_sent, 0);
  EXPECT_LE(result.serving.echoes_received, result.serving.echoes_sent);
}

// Phase 2 on real threads: once the drift resolves, each ProcessBatch
// consumes a whole mixed-sign mailbox span up to the next HYZ report, and
// the coordinator publishes once per call. The captured run must still
// replay bit-identically through the per-update oracle, and the publish
// count is pinned structurally: far fewer publishes than updates.
TEST(ThreadedRuntimeTest, Phase2ConsumesWholeSpansAndStaysLinearizable) {
  const int64_t n = 1 << 19;
  const int k = 2;
  core::CounterOptions counter_options;
  counter_options.epsilon = 0.25;
  counter_options.horizon_n = n;
  counter_options.drift_mode = core::DriftMode::kUnknownUnitDrift;
  counter_options.seed = 43;
  const std::vector<double> stream = streams::BernoulliStream(n, 0.1, 47);
  const std::vector<std::vector<double>> shards = ShardRoundRobin(stream, k);
  core::NonMonotonicCounter counter(k, counter_options);
  ThreadedRunOptions options;
  options.num_readers = 1;
  options.capture = true;
  const RunResult result = RunThreaded(&counter, shards, options);
  EXPECT_EQ(result.serving.updates, n);
  EXPECT_TRUE(counter.diagnostics().phase2_active);
  EXPECT_LE(result.serving.publishes, result.serving.updates / 16);

  core::NonMonotonicCounter oracle(k, counter_options);
  const LinearizabilityReport report = CheckLinearizable(result, &oracle);
  EXPECT_TRUE(report.linearizable) << report.failure;
  EXPECT_EQ(report.publishes_checked, result.serving.publishes);
}

TEST(ThreadedRuntimeTest, SingleSiteNoReadersDegeneratesToSequentialFeed) {
  const int64_t n = 4096;
  const std::vector<double> stream = streams::BernoulliStream(n, 0.0, 3);
  const std::vector<std::vector<double>> shards = ShardRoundRobin(stream, 1);
  const std::unique_ptr<sim::Protocol> protocol = MakeCounter(1, n);
  ThreadedRunOptions options;
  options.capture = true;
  const RunResult result =
      RunThreaded(protocol.get(), shards, options);
  EXPECT_EQ(result.serving.updates, n);
  // With one site the consumption order IS the stream order.
  for (size_t t = 0; t < result.serving.transcript.size(); ++t) {
    ASSERT_EQ(result.serving.transcript[t].site, 0);
    ASSERT_EQ(result.serving.transcript[t].value, stream[t]);
  }
}

}  // namespace
}  // namespace nmc::runtime
