// End-to-end tests of the sockets transport: forked site processes, the
// framed wire, the go-back-N reliable link, and the fault twins (socket
// loss, SIGKILL). Everything here runs real fork/socketpair machinery, so
// the assertions are about contracts (bit-identical replay, zero leaks of
// children or fds) rather than timing.

#include "runtime/sockets.h"

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/exact_sync.h"
#include "registry/builtin.h"
#include "runtime/run.h"
#include "runtime/threaded.h"
#include "sim/registry.h"
#include "streams/bernoulli.h"

// The SIGKILL tests fork children that the sanitizer runtimes dislike
// interrupting; under TSan the atexit machinery of a killed child can
// deadlock spuriously, so those tests are compiled out there (ASan and
// plain builds run them).
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NMC_TSAN 1
#endif
#endif
#ifndef NMC_TSAN
#define NMC_TSAN 0
#endif

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

std::vector<std::vector<double>> TestShards(int64_t n, int num_sites,
                                            uint64_t seed) {
  return ShardRoundRobin(streams::BernoulliStream(n, 0.2, seed), num_sites);
}

TEST(SocketsRuntimeTest, ConsumesEveryUpdateAndTearsDownCleanly) {
  const int64_t n = 8192;
  const int k = 4;
  const auto shards = TestShards(n, k, 91);
  const auto protocol = MakeCounter(k, n);
  SocketRunOptions options;
  const RunResult result = RunSockets(protocol.get(), shards, options);
  EXPECT_EQ(result.serving.updates, n);
  EXPECT_FALSE(result.sockets.timed_out);
  EXPECT_EQ(result.sockets.unexpected_exits, 0);
  EXPECT_EQ(result.sockets.children_reaped, k);
  EXPECT_EQ(result.sockets.updates_lost, 0);
  EXPECT_EQ(result.sockets.generated_updates, n);
  EXPECT_GE(result.sockets.frames, n);  // n updates + k FINs at least
}

TEST(SocketsRuntimeTest, CapturedRunReplaysBitIdenticallyAgainstSimOracle) {
  const int64_t n = 8192;
  const int k = 4;
  const auto shards = TestShards(n, k, 92);
  const auto protocol = MakeCounter(k, n);
  SocketRunOptions options;
  options.capture = true;
  options.num_readers = 2;
  const RunResult result = RunSockets(protocol.get(), shards, options);
  ASSERT_EQ(result.serving.updates, n);
  const auto oracle = MakeCounter(k, n);
  const LinearizabilityReport report =
      CheckLinearizable(result, oracle.get());
  EXPECT_TRUE(report.linearizable) << report.failure;
  EXPECT_EQ(report.publishes_checked, result.serving.publishes);
  EXPECT_GT(report.samples_checked, 0);
  EXPECT_EQ(result.serving.generation_regressions, 0);
}

TEST(SocketsRuntimeTest, MalformedUpdateEndsOnlyThatSitesStream) {
  // A NaN update frames cleanly; without the ingress check it would reach
  // the counter's aborting |v| <= 1 check.
  const int64_t n = 4096;
  const int k = 4;
  auto shards = TestShards(n, k, 94);
  const int64_t bad_seq = 10;
  shards[1][static_cast<size_t>(bad_seq)] =
      std::numeric_limits<double>::quiet_NaN();
  const int64_t owed = static_cast<int64_t>(shards[1].size()) - bad_seq;
  for (const bool reliable : {false, true}) {
    SCOPED_TRACE(reliable ? "reliable" : "raw");
    const auto protocol = MakeCounter(k, n);
    SocketRunOptions options;
    options.reliable = reliable;
    const RunResult result = RunSockets(protocol.get(), shards, options);
    EXPECT_EQ(result.sockets.rejected_updates, 1);
    EXPECT_EQ(result.serving.updates, n - owed);
    EXPECT_EQ(result.sockets.generated_updates, n - owed);
    EXPECT_EQ(result.sockets.unexpected_exits, 0);
    EXPECT_EQ(result.sockets.children_reaped, k);
    EXPECT_FALSE(result.sockets.timed_out);
  }
}

TEST(SocketsRuntimeTest, RawLinkUnderLossViolatesAndLosesUpdates) {
  const int64_t n = 8192;
  const int k = 4;
  const auto shards = TestShards(n, k, 93);
  baselines::ExactSyncProtocol protocol(k);
  SocketRunOptions options;
  options.reliable = false;
  options.faults.loss = 0.02;
  options.faults.seed = 7;
  options.epsilon = 0.002;
  options.rel_error_floor = 32.0;
  const RunResult result = RunSockets(&protocol, shards, options);
  EXPECT_GT(result.sockets.drops_injected, 0);
  EXPECT_GT(result.sockets.updates_lost, 0);
  EXPECT_GT(result.sockets.violation_steps, 0);
  EXPECT_EQ(result.sockets.nacks_sent, 0) << "raw link must never NACK";
  // Lost = generated-but-never-consumed; drops at a shard's very tail
  // never enter the generated world at all, so generated <= n.
  EXPECT_EQ(result.serving.updates + result.sockets.updates_lost,
            result.sockets.generated_updates);
  EXPECT_LE(result.sockets.generated_updates, n);
  EXPECT_LT(result.serving.updates, n);
  EXPECT_FALSE(result.sockets.timed_out);
}

TEST(SocketsRuntimeTest, ReliableLinkUnderLossIsExact) {
  const int64_t n = 8192;
  const int k = 4;
  const auto shards = TestShards(n, k, 93);
  baselines::ExactSyncProtocol protocol(k);
  SocketRunOptions options;
  options.reliable = true;
  options.faults.loss = 0.02;
  options.faults.seed = 7;
  options.epsilon = 0.002;
  const RunResult result = RunSockets(&protocol, shards, options);
  EXPECT_EQ(result.serving.updates, n);
  EXPECT_EQ(result.sockets.updates_lost, 0);
  EXPECT_EQ(result.sockets.violation_steps, 0);
  EXPECT_GT(result.sockets.drops_injected, 0);
  EXPECT_GT(result.sockets.nacks_sent, 0) << "loss must trigger go-back-N";
  EXPECT_GT(result.sockets.duplicate_updates, 0)
      << "rewind retransmissions necessarily overlap";
  EXPECT_FALSE(result.sockets.timed_out);
}

// The coordinator offers its estimate to every live site once per echo
// period; sites count what they drained and report it in their kFin.
TEST(SocketsRuntimeTest, EchoesFlowBackToSites) {
  const int64_t n = 16384;
  const int k = 2;
  const auto shards = TestShards(n, k, 97);
  const auto protocol = MakeCounter(k, n);
  SocketRunOptions options;
  const RunResult result = RunSockets(protocol.get(), shards, options);
  EXPECT_EQ(result.serving.updates, n);
  EXPECT_GT(result.serving.echoes_sent, 0);
  EXPECT_LE(result.sockets.echoes_acked, result.serving.echoes_sent);
  EXPECT_FALSE(result.sockets.timed_out);
}

TEST(SocketsRuntimeTest, TcpLoopbackCarriesTheSameRun) {
  const int64_t n = 4096;
  const int k = 3;
  const auto shards = TestShards(n, k, 94);
  const auto protocol = MakeCounter(k, n);
  SocketRunOptions options;
  options.use_tcp = true;
  const RunResult result = RunSockets(protocol.get(), shards, options);
  EXPECT_EQ(result.serving.updates, n);
  EXPECT_EQ(result.sockets.unexpected_exits, 0);
  EXPECT_EQ(result.sockets.children_reaped, k);
  EXPECT_FALSE(result.sockets.timed_out);
}

#if !NMC_TSAN

TEST(SocketsRuntimeTest, SigkilledSiteRespawnsAndFinishesExactly) {
  const int64_t n = 8192;
  const int k = 4;
  const auto shards = TestShards(n, k, 95);
  baselines::ExactSyncProtocol protocol(k);
  SocketRunOptions options;
  options.reliable = true;
  options.epsilon = 0.002;
  options.resync_deadline_updates = n;
  options.faults.kills.push_back(SiteKillSpec{1, 512});
  const RunResult result = RunSockets(&protocol, shards, options);
  EXPECT_EQ(result.sockets.kills_delivered, 1);
  EXPECT_EQ(result.sockets.respawns, 1);
  EXPECT_TRUE(result.sockets.all_kills_recovered);
  EXPECT_GT(result.sockets.max_recovery_updates, 0);
  EXPECT_LE(result.sockets.max_recovery_updates, n);
  EXPECT_EQ(result.serving.updates, n)
      << "the replacement incarnation must finish the shard";
  EXPECT_EQ(result.sockets.violation_steps, 0);
  EXPECT_EQ(result.sockets.updates_lost, 0);
  EXPECT_EQ(result.sockets.unexpected_exits, 0);
  // k children FIN'd plus one killed incarnation reaped on EOF.
  EXPECT_EQ(result.sockets.children_reaped, k + 1);
}

TEST(SocketsRuntimeTest, SigkillOnRawLinkStaysDeadAndTearsDown) {
  const int64_t n = 8192;
  const int k = 4;
  const auto shards = TestShards(n, k, 96);
  baselines::ExactSyncProtocol protocol(k);
  SocketRunOptions options;
  options.reliable = false;
  options.epsilon = 0.002;
  options.faults.kills.push_back(SiteKillSpec{2, 256});
  const RunResult result = RunSockets(&protocol, shards, options);
  EXPECT_EQ(result.sockets.kills_delivered, 1);
  EXPECT_EQ(result.sockets.respawns, 0);
  EXPECT_FALSE(result.sockets.all_kills_recovered);
  EXPECT_LT(result.serving.updates, n) << "the dead site's tail is gone";
  EXPECT_EQ(result.sockets.children_reaped, k);
  EXPECT_FALSE(result.sockets.timed_out);
}

#endif  // !NMC_TSAN

}  // namespace
}  // namespace nmc::runtime
