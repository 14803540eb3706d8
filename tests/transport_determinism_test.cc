// Determinism pin for the sim transport: with --transport=sim nothing in
// this PR's concurrent runtime touches the deterministic simulator, and
// these goldens prove it stays bit-identical. One config per tracked bench
// family (e2 multisite / e8 adversarial / e11 monotonic / e14 faulty
// channel), built through the registry exactly as the benches build them,
// pinned to the message count and the hex-float final state produced
// before the threaded backend existed. A mismatch means the sim oracle
// moved — which invalidates both the perf trajectory and the
// linearizability check's ground truth.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/nonmonotonic_counter.h"
#include "registry/builtin.h"
#include "sim/assignment.h"
#include "sim/harness.h"
#include "sim/registry.h"
#include "streams/adversarial.h"
#include "streams/bernoulli.h"
#include "streams/fbm.h"
#include "streams/permutation.h"

namespace nmc {
namespace {

struct Golden {
  int64_t messages = 0;
  int64_t violation_steps = 0;
  double final_sum = 0.0;
  double final_estimate = 0.0;
};

sim::TrackingResult RunCase(const std::string& protocol_name,
                            const sim::ProtocolParams& params, int num_sites,
                            const std::vector<double>& stream) {
  registry::RegisterBuiltinProtocols();
  std::unique_ptr<sim::Protocol> protocol =
      sim::ProtocolRegistry::Global().Create(protocol_name, num_sites,
                                             params);
  sim::RoundRobinAssignment psi(num_sites);
  sim::TrackingOptions tracking;
  tracking.epsilon = params.epsilon;
  return sim::RunTracking(stream, &psi, protocol.get(), tracking);
}

// The counter built directly from CounterOptions (the sampler selector and
// the fBm / variance-adaptive laws are not ProtocolParams fields).
sim::TrackingResult RunCounter(const core::CounterOptions& options,
                               int num_sites,
                               const std::vector<double>& stream,
                               core::CounterDiagnostics* diagnostics) {
  core::NonMonotonicCounter counter(num_sites, options);
  sim::RoundRobinAssignment psi(num_sites);
  sim::TrackingOptions tracking;
  tracking.epsilon = options.epsilon;
  const sim::TrackingResult result =
      sim::RunTracking(stream, &psi, &counter, tracking);
  *diagnostics = counter.diagnostics();
  return result;
}

void ExpectGolden(const sim::TrackingResult& result, const Golden& golden) {
  EXPECT_EQ(result.messages, golden.messages);
  EXPECT_EQ(result.violation_steps, golden.violation_steps);
  // Bitwise, not approximate: the sim transport is the oracle and must not
  // drift by an ulp. (%a below prints the goldens for re-pinning if a
  // *deliberate* protocol change moves them.)
  EXPECT_EQ(result.final_sum, golden.final_sum);
  EXPECT_EQ(result.final_estimate, golden.final_estimate);
  if (result.final_estimate != golden.final_estimate ||
      result.messages != golden.messages) {
    std::printf("golden update: {%lld, %lld, %a, %a}\n",
                static_cast<long long>(result.messages),
                static_cast<long long>(result.violation_steps),
                result.final_sum, result.final_estimate);
  }
}

// E2-shaped: 8-site counter, zero-drift Bernoulli walk.
TEST(TransportDeterminismTest, MultisiteCounterPinned) {
  sim::ProtocolParams params;
  params.epsilon = 0.25;
  params.horizon_n = 1 << 15;
  params.seed = 17;
  const std::vector<double> stream =
      streams::BernoulliStream(1 << 15, 0.0, 300);
  const sim::TrackingResult result = RunCase("counter", params, 8, stream);
  ExpectGolden(result, Golden{61472, 0, 0x1.2cp+7, 0x1.2cp+7});
}

// E8-shaped: adversarial alternating stream, randomly permuted.
TEST(TransportDeterminismTest, AdversarialPermutedPinned) {
  sim::ProtocolParams params;
  params.epsilon = 0.25;
  params.horizon_n = 1 << 14;
  params.seed = 31;
  const std::vector<double> stream =
      streams::RandomlyPermuted(streams::AlternatingStream(1 << 14), 1100);
  const sim::TrackingResult result = RunCase("counter", params, 4, stream);
  ExpectGolden(result, Golden{32768, 0, 0x0p+0, 0x0p+0});
}

// E11-shaped: the monotonic special case on the HYZ counter.
TEST(TransportDeterminismTest, MonotonicHyzPinned) {
  sim::ProtocolParams params;
  params.epsilon = 0.25;
  params.horizon_n = 1 << 14;
  params.seed = 4500;
  const std::vector<double> stream(1 << 14, 1.0);
  const sim::TrackingResult result = RunCase("hyz", params, 4, stream);
  ExpectGolden(result, Golden{903, 0, 0x1p+14, 0x1.fap+13});
}

// E14-shaped: counter over a lossy duplicating channel.
TEST(TransportDeterminismTest, FaultyChannelPinned) {
  sim::ProtocolParams params;
  params.epsilon = 0.25;
  params.horizon_n = 1 << 14;
  params.seed = 1400;
  params.channel.kind = sim::ChannelConfig::Kind::kLoss;
  params.channel.loss = 0.05;
  params.channel.duplicate = 0.02;
  params.channel.seed = 9;
  const std::vector<double> stream =
      streams::BernoulliStream(1 << 14, 0.3, 1500);
  // The lossy channel (no resync wrapper) deliberately breaks tracking —
  // 15888 violation steps is the *pinned deterministic outcome* of this
  // seed, not a quality claim; E14 proper layers ReliableProtocol on top.
  const sim::TrackingResult result = RunCase("counter", params, 4, stream);
  ExpectGolden(result, Golden{3244, 15888, 0x1.24cp+12, 0x1.22p+7});
}

// The pins below hold the counter's fast-forward and per-coin sampling
// loops: the four above sit almost entirely in StraightSync, where every
// update messages and no loop ever skips.

// Shaped like BM_TrackingPumpLongGap/1: single site, drifted walk, so |s|
// stays large and the thinned skip runs long chunks between reports.
TEST(TransportDeterminismTest, SingleSiteLongGapPinned) {
  sim::ProtocolParams params;
  params.epsilon = 0.25;
  params.horizon_n = 1 << 15;
  params.seed = 11;
  const std::vector<double> stream =
      streams::BernoulliStream(1 << 15, 0.75, 21);
  const sim::TrackingResult result = RunCase("counter", params, 1, stream);
  ExpectGolden(result, Golden{580, 0, 0x1.80d8p+14, 0x1.7f84p+14});
}

// Shaped like the sim_drift benchmark workload: four sites, mu = 0.1, the
// full Section 3.2 algorithm — SBC skip sampling against the broadcast
// estimate, then the Phase-2 HYZ pair.
TEST(TransportDeterminismTest, DriftCounterReachesPhase2Pinned) {
  core::CounterOptions options;
  options.epsilon = 0.1;
  options.horizon_n = 1 << 20;
  options.drift_mode = core::DriftMode::kUnknownUnitDrift;
  options.seed = 23;
  const std::vector<double> stream = streams::BernoulliStream(1 << 20, 0.1, 24);
  core::CounterDiagnostics diagnostics;
  const sim::TrackingResult result =
      RunCounter(options, 4, stream, &diagnostics);
  EXPECT_GT(diagnostics.sbc_syncs, 0);
  EXPECT_TRUE(diagnostics.phase2_active);
  ExpectGolden(result, Golden{42457, 0, 0x1.9a4ap+16, 0x1.991bp+16});
}

// Single site under the variance-adaptive law: the rate is rescaled per
// update, so every update is an exact per-coin trial.
TEST(TransportDeterminismTest, SingleSiteVarianceAdaptivePinned) {
  core::CounterOptions options;
  options.epsilon = 0.25;
  options.horizon_n = 1 << 14;
  options.variance_adaptive = true;
  options.seed = 41;
  const std::vector<double> stream =
      streams::FractionalIidStream(1 << 14, 0.05, 0.5, 42);
  core::CounterDiagnostics diagnostics;
  const sim::TrackingResult result =
      RunCounter(options, 1, stream, &diagnostics);
  ExpectGolden(result,
               Golden{1033, 0, 0x1.c1ab34ff8e917p+9, 0x1.a6b73d9ff1d72p+9});
}

// Single site under the fBm law eq. (2): unbounded Gaussian increments,
// again one per-coin trial per update.
TEST(TransportDeterminismTest, SingleSiteFbmPinned) {
  core::CounterOptions options;
  options.epsilon = 0.25;
  options.horizon_n = 1 << 13;
  options.fbm_delta = 1.0 / 0.7;
  options.seed = 51;
  const std::vector<double> stream = streams::FgnDaviesHarte(1 << 13, 0.7, 52);
  core::CounterDiagnostics diagnostics;
  const sim::TrackingResult result =
      RunCounter(options, 1, stream, &diagnostics);
  ExpectGolden(result,
               Golden{6080, 0, 0x1.e423ee6e01ea8p+7, 0x1.e20779fc0c2f5p+7});
}

// Multi-site SBC on the per-coin reference sampler.
TEST(TransportDeterminismTest, PerCoinSbcPinned) {
  core::CounterOptions options;
  options.epsilon = 0.25;
  options.horizon_n = 1 << 15;
  options.sampler = common::SamplerMode::kPerCoin;
  options.seed = 61;
  const std::vector<double> stream = streams::BernoulliStream(1 << 15, 0.3, 62);
  core::CounterDiagnostics diagnostics;
  const sim::TrackingResult result =
      RunCounter(options, 4, stream, &diagnostics);
  EXPECT_GT(diagnostics.sbc_syncs, 0);
  ExpectGolden(result, Golden{5684, 0, 0x1.2e5p+13, 0x1.2bp+13});
}

}  // namespace
}  // namespace nmc
