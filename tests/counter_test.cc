#include "core/nonmonotonic_counter.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "sim/channel.h"
#include "streams/bernoulli.h"
#include "streams/fbm.h"
#include "streams/permutation.h"
#include "test_util.h"

namespace nmc::core {
namespace {

using nmc::testing::DefaultOptions;
using nmc::testing::RunCounter;

TEST(CounterTest, SingleSiteZeroDriftTracks) {
  const int64_t n = 1 << 15;
  const auto stream = streams::BernoulliStream(n, 0.0, 1);
  const auto result = RunCounter(stream, 1, DefaultOptions(n, 0.1, 2));
  EXPECT_EQ(result.violation_steps, 0);
  EXPECT_LE(result.max_rel_error, 0.1);
}

TEST(CounterTest, SingleSiteCommunicationSublinear) {
  // The sqrt(n) regime needs sqrt(n) >> sqrt(alpha)*log(n)/eps, so this
  // runs at a larger n and a moderate eps.
  const int64_t n = 1 << 18;
  const auto stream = streams::BernoulliStream(n, 0.0, 3);
  const auto result = RunCounter(stream, 1, DefaultOptions(n, 0.25, 4));
  EXPECT_EQ(result.violation_steps, 0);
  EXPECT_LT(result.messages, n / 2);
  EXPECT_GT(result.messages, 16);
}

TEST(CounterTest, MultiSiteZeroDriftTracks) {
  const int64_t n = 1 << 14;
  for (int k : {2, 4, 16}) {
    const auto stream = streams::BernoulliStream(n, 0.0, 5);
    const auto result = RunCounter(stream, k, DefaultOptions(n, 0.1, 6));
    EXPECT_EQ(result.violation_steps, 0) << "k=" << k;
  }
}

TEST(CounterTest, StraightSyncKeepsCoordinatorExactNearZero) {
  // An alternating ±1 stream never leaves the straight stage (|S| <= 1),
  // so the estimate must be exact at every step.
  const int64_t n = 2000;
  std::vector<double> stream;
  for (int64_t t = 0; t < n; ++t) stream.push_back(t % 2 == 0 ? 1.0 : -1.0);
  core::NonMonotonicCounter counter(4, DefaultOptions(n, 0.1, 7));
  sim::RoundRobinAssignment psi(4);
  double sum = 0.0;
  for (int64_t t = 0; t < n; ++t) {
    const double v = stream[static_cast<size_t>(t)];
    counter.ProcessUpdate(psi.NextSite(t, v), v);
    sum += v;
    ASSERT_DOUBLE_EQ(counter.Estimate(), sum) << "t=" << t;
  }
  const auto diag = counter.diagnostics();
  EXPECT_EQ(diag.stage_switches, 0);
  EXPECT_FALSE(diag.in_sbc_stage);
  // 2 messages per update.
  EXPECT_EQ(counter.stats().total(), 2 * n);
}

TEST(CounterTest, StageSwitchesHappenOnDriftingStream) {
  // Strong drift pushes |eps*S|^2 past k and back is unlikely; at least
  // one switch into SBC must occur.
  const int64_t n = 1 << 14;
  const auto stream = streams::BernoulliStream(n, 0.4, 9);
  core::CounterOptions options = DefaultOptions(n, 0.1, 10);
  core::NonMonotonicCounter counter(4, options);
  sim::RoundRobinAssignment psi(4);
  for (int64_t t = 0; t < n; ++t) {
    const double v = stream[static_cast<size_t>(t)];
    counter.ProcessUpdate(psi.NextSite(t, v), v);
  }
  const auto diag = counter.diagnostics();
  EXPECT_GE(diag.stage_switches, 1);
  EXPECT_TRUE(diag.in_sbc_stage);
  EXPECT_GT(diag.sbc_syncs, 0);
}

TEST(CounterTest, PermutedAdversarialInputTracks) {
  const int64_t n = 1 << 14;
  for (const char* name : {"balanced", "biased", "oscillating", "skewed"}) {
    const auto multiset = streams::MakeAdversaryMultiset(name, n);
    const auto stream = streams::RandomlyPermuted(multiset, 11);
    const auto result = RunCounter(stream, 4, DefaultOptions(n, 0.1, 12));
    EXPECT_EQ(result.violation_steps, 0) << name;
  }
}

TEST(CounterTest, FractionalUpdatesSupported) {
  const int64_t n = 1 << 13;
  const auto stream = streams::FractionalIidStream(n, 0.0, 1.0, 13);
  const auto result = RunCounter(stream, 2, DefaultOptions(n, 0.15, 14));
  EXPECT_EQ(result.violation_steps, 0);
}

TEST(CounterTest, FbmModeTracksLongRangeDependentInput) {
  const int64_t n = 1 << 13;
  const double hurst = 0.75;
  // Raw unit-scale fGn increments (Gaussian, unbounded — Section 3.4's
  // continuous model, which fBm mode accepts as-is).
  const auto stream = streams::FgnDaviesHarte(n, hurst, 15);
  core::CounterOptions options = DefaultOptions(n, 0.1, 16);
  options.fbm_delta = 1.0 / hurst;
  const auto result = RunCounter(stream, 2, options);
  EXPECT_EQ(result.violation_steps, 0);
  EXPECT_LT(result.messages, 2 * n);
}

TEST(CounterTest, DriftModeActivatesPhaseTwo) {
  const int64_t n = 1 << 15;
  const auto stream = streams::BernoulliStream(n, 0.5, 17);
  core::CounterOptions options = DefaultOptions(n, 0.1, 18);
  options.drift_mode = DriftMode::kUnknownUnitDrift;
  core::NonMonotonicCounter counter(4, options);
  sim::RoundRobinAssignment psi(4);
  sim::TrackingOptions tracking;
  tracking.epsilon = 0.1;
  const auto result = sim::RunTracking(stream, &psi, &counter, tracking);
  EXPECT_EQ(result.violation_steps, 0);
  const auto diag = counter.diagnostics();
  EXPECT_TRUE(diag.phase2_active);
  EXPECT_NEAR(diag.mu_hat, 0.5, 0.15);
  EXPECT_GT(diag.phase2_switch_time, 0);
  EXPECT_LT(diag.phase2_switch_time, n / 2);
}

TEST(CounterTest, DriftGuardIsWhatMakesDriftingStreamsSafe) {
  // On a strong-drift stream the count escapes the eps-ball after ~eps*S/mu
  // steps — far sooner than the (eps*S)^2 the eq. (1) law budgets for — so
  // without the conservative 1/(eps*t) guard the counter eventually misses
  // an escape, while with it (the default) tracking holds. (All randomness
  // is seeded, so this contrast is deterministic.)
  const int64_t n = 1 << 16;
  const auto stream = streams::BernoulliStream(n, 0.5, 19);
  core::CounterOptions guarded = DefaultOptions(n, 0.1, 20);
  core::CounterOptions unguarded = guarded;
  unguarded.enable_drift_guard = false;
  const auto r_guarded = RunCounter(stream, 4, guarded);
  const auto r_unguarded = RunCounter(stream, 4, unguarded);
  EXPECT_EQ(r_guarded.violation_steps, 0);
  EXPECT_GT(r_unguarded.violation_steps, 0);
}

TEST(CounterTest, MonotonicSpecialCaseTracks) {
  // mu = 1: the counter solves the monotonic problem of [12].
  const int64_t n = 1 << 15;
  const std::vector<double> stream(static_cast<size_t>(n), 1.0);
  core::CounterOptions options = DefaultOptions(n, 0.1, 21);
  options.drift_mode = DriftMode::kUnknownUnitDrift;
  core::NonMonotonicCounter counter(4, options);
  sim::RoundRobinAssignment psi(4);
  sim::TrackingOptions tracking;
  tracking.epsilon = 0.1;
  const auto result = sim::RunTracking(stream, &psi, &counter, tracking);
  EXPECT_EQ(result.violation_steps, 0);
  EXPECT_TRUE(counter.diagnostics().phase2_active);
  EXPECT_NEAR(counter.diagnostics().mu_hat, 1.0, 0.05);
  EXPECT_LT(result.messages, n / 3);
}

TEST(CounterTest, NegativeDriftHandledSymmetrically) {
  const int64_t n = 1 << 15;
  const auto stream = streams::BernoulliStream(n, -0.6, 23);
  core::CounterOptions options = DefaultOptions(n, 0.1, 24);
  options.drift_mode = DriftMode::kUnknownUnitDrift;
  core::NonMonotonicCounter counter(4, options);
  sim::RoundRobinAssignment psi(4);
  sim::TrackingOptions tracking;
  tracking.epsilon = 0.1;
  const auto result = sim::RunTracking(stream, &psi, &counter, tracking);
  EXPECT_EQ(result.violation_steps, 0);
  EXPECT_TRUE(counter.diagnostics().phase2_active);
  EXPECT_NEAR(counter.diagnostics().mu_hat, -0.6, 0.15);
}

TEST(CounterTest, Phase2DisabledKeepsTrackingCorrect) {
  const int64_t n = 1 << 14;
  const auto stream = streams::BernoulliStream(n, 0.5, 25);
  core::CounterOptions options = DefaultOptions(n, 0.1, 26);
  options.drift_mode = DriftMode::kUnknownUnitDrift;
  options.enable_phase2 = false;
  core::NonMonotonicCounter counter(4, options);
  sim::RoundRobinAssignment psi(4);
  sim::TrackingOptions tracking;
  tracking.epsilon = 0.1;
  const auto result = sim::RunTracking(stream, &psi, &counter, tracking);
  EXPECT_EQ(result.violation_steps, 0);
  EXPECT_FALSE(counter.diagnostics().phase2_active);
}

TEST(CounterTest, StagePolicyAblationsStayCorrect) {
  const int64_t n = 1 << 13;
  const auto stream = streams::BernoulliStream(n, 0.0, 27);
  for (StagePolicy policy :
       {StagePolicy::kAuto, StagePolicy::kSbcOnly, StagePolicy::kStraightOnly}) {
    core::CounterOptions options = DefaultOptions(n, 0.1, 28);
    options.stage_policy = policy;
    const auto result = RunCounter(stream, 4, options);
    EXPECT_EQ(result.violation_steps, 0)
        << "policy=" << static_cast<int>(policy);
  }
}

TEST(CounterTest, StraightOnlyCostsTwoPerUpdate) {
  const int64_t n = 4000;
  const auto stream = streams::BernoulliStream(n, 0.0, 29);
  core::CounterOptions options = DefaultOptions(n, 0.1, 30);
  options.stage_policy = StagePolicy::kStraightOnly;
  const auto result = RunCounter(stream, 4, options);
  EXPECT_EQ(result.messages, 2 * n);
  EXPECT_EQ(result.violation_steps, 0);
}

TEST(CounterTest, DeterministicGivenSeed) {
  const int64_t n = 1 << 12;
  const auto stream = streams::BernoulliStream(n, 0.0, 31);
  const auto a = RunCounter(stream, 4, DefaultOptions(n, 0.1, 32));
  const auto b = RunCounter(stream, 4, DefaultOptions(n, 0.1, 32));
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.final_estimate, b.final_estimate);
}

TEST(CounterTest, TighterEpsilonCostsMore) {
  // A biased multiset pushes |S| through the SBC region where the 1/eps^2
  // rate differentiates the costs (a driftless walk at this n never leaves
  // the straight stage, where cost is eps-independent).
  const int64_t n = 1 << 16;
  const auto stream =
      streams::RandomlyPermuted(streams::SignMultiset(n, 0.7), 33);
  const auto loose = RunCounter(stream, 2, DefaultOptions(n, 0.25, 34));
  const auto tight = RunCounter(stream, 2, DefaultOptions(n, 0.0625, 34));
  EXPECT_EQ(loose.violation_steps, 0);
  EXPECT_EQ(tight.violation_steps, 0);
  EXPECT_GT(tight.messages, loose.messages);
}

TEST(CounterTest, EstimateAvailableFromStart) {
  core::NonMonotonicCounter counter(3, DefaultOptions(100, 0.1, 35));
  EXPECT_DOUBLE_EQ(counter.Estimate(), 0.0);
  counter.ProcessUpdate(0, 1.0);
  EXPECT_DOUBLE_EQ(counter.Estimate(), 1.0);  // straight stage: exact
}

// Feeds a drifting ±1 stream of 2^15 updates one at a time, round-robin
// over the sites, and checks that the counter ended in Phase 2. With
// `resync`, a Resync() every 1024 updates unsticks collect rounds whose
// replies a faulty channel lost.
void FeedIntoPhase2(NonMonotonicCounter* counter, uint64_t seed,
                    bool resync = false) {
  const auto stream = streams::BernoulliStream(1 << 15, 0.55, seed);
  const size_t k = static_cast<size_t>(counter->num_sites());
  for (size_t t = 0; t < stream.size(); ++t) {
    counter->ProcessUpdate(static_cast<int>(t % k), stream[t]);
    if (resync && t % 1024 == 1023) counter->Resync();
  }
  ASSERT_TRUE(counter->diagnostics().phase2_active);
}

// +1, -1, +1, ...: every same-sign run is one update long.
std::vector<double> AlternatingSpan(size_t length, double first) {
  std::vector<double> span(length);
  for (size_t i = 0; i < length; ++i) span[i] = i % 2 == 0 ? first : -first;
  return span;
}

TEST(CounterTest, Phase2BatchConsumesMixedSignSpans) {
  // Phase 2 consumes a span up to its first HYZ report whatever the signs,
  // so on alternating spans calls run far past the leading same-sign run.
  const int64_t n = 1 << 15;
  CounterOptions options = DefaultOptions(n, 0.1, 38);
  options.drift_mode = DriftMode::kUnknownUnitDrift;
  NonMonotonicCounter counter(2, options);
  FeedIntoPhase2(&counter, 39);
  const std::vector<double> span = AlternatingSpan(32, 1.0);
  int64_t longest = 0;
  for (int call = 0; call < 32; ++call) {
    const int64_t consumed = counter.ProcessBatch(call % 2, span);
    ASSERT_GE(consumed, 1);
    ASSERT_LE(consumed, 32);
    longest = std::max(longest, consumed);
  }
  EXPECT_EQ(longest, 32);
}

TEST(CounterTest, Phase2BatchTakesOneUpdateUnderFaultyChannels) {
  // Consuming a span assumes its silent prefix stays silent, which delayed
  // or lost deliveries break: under every non-perfect channel a Phase-2
  // ProcessBatch consumes exactly one update of a mixed-sign span.
  sim::ChannelConfig loss;
  loss.kind = sim::ChannelConfig::Kind::kLoss;
  loss.loss = 0.01;
  loss.duplicate = 0.01;
  sim::ChannelConfig delay;
  delay.kind = sim::ChannelConfig::Kind::kDelay;
  delay.delay_probability = 0.1;
  sim::ChannelConfig crash;
  crash.kind = sim::ChannelConfig::Kind::kCrash;
  crash.crashes = {sim::CrashInterval{1, 100, 200}};
  for (const sim::ChannelConfig& channel : {loss, delay, crash}) {
    SCOPED_TRACE(::testing::Message()
                 << "channel kind=" << static_cast<int>(channel.kind));
    CounterOptions options = DefaultOptions(1 << 15, 0.1, 40);
    options.drift_mode = DriftMode::kUnknownUnitDrift;
    options.channel = channel;
    NonMonotonicCounter counter(2, options);
    FeedIntoPhase2(&counter, 41, /*resync=*/true);
    for (int call = 0; call < 32; ++call) {
      const std::vector<double> span =
          AlternatingSpan(64, call % 4 < 2 ? 1.0 : -1.0);
      EXPECT_EQ(counter.ProcessBatch(call % 2, span), 1);
    }
  }
}

TEST(CounterDeathTest, Phase2RejectsNonUnitValueInsideSpan) {
  CounterOptions options = DefaultOptions(1 << 15, 0.1, 42);
  options.drift_mode = DriftMode::kUnknownUnitDrift;
  NonMonotonicCounter counter(1, options);
  FeedIntoPhase2(&counter, 43);
  std::vector<double> span = AlternatingSpan(200, 1.0);
  span[150] = 0.5;
  // Pump the span as the harness does, so the bad value is reached even
  // if an earlier update reports and ends a call.
  const auto pump = [&] {
    for (size_t pos = 0; pos < span.size();) {
      pos += static_cast<size_t>(counter.ProcessBatch(
          0, std::span<const double>(span).subspan(pos)));
    }
  };
  EXPECT_DEATH(pump(), "NMC_CHECK");
}

TEST(CounterDeathTest, DriftModeRejectsFractionalUpdates) {
  core::CounterOptions options = DefaultOptions(100, 0.1, 36);
  options.drift_mode = DriftMode::kUnknownUnitDrift;
  core::NonMonotonicCounter counter(2, options);
  EXPECT_DEATH(counter.ProcessUpdate(0, 0.5), "NMC_CHECK");
}

TEST(CounterDeathTest, RejectsOutOfRangeValues) {
  core::NonMonotonicCounter counter(2, DefaultOptions(100, 0.1, 37));
  EXPECT_DEATH(counter.ProcessUpdate(0, 2.0), "NMC_CHECK");
}

}  // namespace
}  // namespace nmc::core
