// The ProcessBatch and ProcessSpan contracts in one suite: for any stream
// slicing and any assignment policy the batched pump must reproduce the
// per-update pump bit for bit — same messages, same violations, same
// curve — in both sampler modes, and the chunked stream sources must emit
// exactly the value sequences of their vector counterparts.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/exact_sync.h"
#include "baselines/two_monotonic.h"
#include "common/simd_dispatch.h"
#include "core/nonmonotonic_counter.h"
#include "hyz/hyz_counter.h"
#include "sim/assignment.h"
#include "sim/harness.h"
#include "sim/stream_source.h"
#include "streams/adversarial.h"
#include "streams/bernoulli.h"
#include "streams/chunked.h"
#include "test_util.h"

namespace nmc {
namespace {

void ExpectSameResult(const sim::TrackingResult& a,
                      const sim::TrackingResult& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.broadcasts, b.broadcasts);
  EXPECT_EQ(a.violation_steps, b.violation_steps);
  EXPECT_EQ(a.max_rel_error, b.max_rel_error);  // bitwise, not approximate
  EXPECT_EQ(a.final_sum, b.final_sum);
  EXPECT_EQ(a.final_estimate, b.final_estimate);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].t, b.curve[i].t);
    EXPECT_EQ(a.curve[i].messages, b.curve[i].messages);
    EXPECT_EQ(a.curve[i].sum, b.curve[i].sum);
    EXPECT_EQ(a.curve[i].estimate, b.curve[i].estimate);
  }
}

sim::TrackingResult RunCounterBatched(const std::vector<double>& stream,
                                      int num_sites,
                                      const core::CounterOptions& options,
                                      int batch_size) {
  core::NonMonotonicCounter counter(num_sites, options);
  sim::RoundRobinAssignment psi(num_sites);
  sim::TrackingOptions tracking;
  tracking.epsilon = options.epsilon;
  tracking.curve_points = 16;
  tracking.batch_size = batch_size;
  return sim::RunTracking(stream, &psi, &counter, tracking);
}

// ---- Counter: batch size is unobservable ---------------------------------

TEST(BatchedPumpTest, CounterBitIdenticalAcrossBatchSizes) {
  const int64_t n = 1 << 13;
  for (int num_sites : {1, 4}) {
    for (const auto sampler :
         {common::SamplerMode::kGeometricSkip, common::SamplerMode::kPerCoin}) {
      core::CounterOptions options = testing::DefaultOptions(n, 0.2, 404);
      options.sampler = sampler;
      const auto stream = streams::BernoulliStream(n, 0.5, 91);
      const auto reference = RunCounterBatched(stream, num_sites, options, 1);
      for (int batch : {7, 256, 1 << 14}) {
        SCOPED_TRACE(::testing::Message()
                     << "sites=" << num_sites << " batch=" << batch
                     << " sampler=" << static_cast<int>(sampler));
        ExpectSameResult(reference,
                         RunCounterBatched(stream, num_sites, options, batch));
      }
    }
  }
}

TEST(BatchedPumpTest, CounterBitIdenticalOnAdversarialStream) {
  // Sawtooth keeps |S| crossing zero, so the batched invariant check runs
  // in the regime where the estimate matters most and chunks restart
  // constantly.
  const int64_t n = 1 << 12;
  core::CounterOptions options = testing::DefaultOptions(n, 0.25, 77);
  const auto stream = streams::SawtoothStream(n, 100);
  const auto reference = RunCounterBatched(stream, 2, options, 1);
  ExpectSameResult(reference, RunCounterBatched(stream, 2, options, 64));
}

// Phase 2 consumes whole mixed-sign spans (up to the first HYZ report),
// so the slicing must stay unobservable there too. A drifting ±1 stream
// under block-cyclic assignment hands the counter long same-site spans
// holding both signs; both HYZ variants run (deterministic thresholds and
// sampled gaps, whose RNG draw order the span scan must not move).
TEST(BatchedPumpTest, CounterPhase2BatchMatchesPerUpdate) {
  const int64_t n = 1 << 15;
  const auto stream = streams::BernoulliStream(n, 0.55, 505);
  for (int num_sites : {1, 3}) {
    for (bool auto_hyz_mode : {true, false}) {
      core::CounterOptions options = testing::DefaultOptions(n, 0.2, 505);
      options.drift_mode = core::DriftMode::kUnknownUnitDrift;
      options.phase2_auto_hyz_mode = auto_hyz_mode;
      const auto run = [&](int batch_size) {
        core::NonMonotonicCounter counter(num_sites, options);
        sim::BlockCyclicAssignment psi(num_sites, 1000);
        sim::TrackingOptions tracking;
        tracking.epsilon = options.epsilon;
        tracking.curve_points = 16;
        tracking.batch_size = batch_size;
        const auto result = sim::RunTracking(stream, &psi, &counter, tracking);
        EXPECT_TRUE(counter.diagnostics().phase2_active);
        return result;
      };
      const auto reference = run(1);
      for (int batch : {7, 256, 1 << 14}) {
        SCOPED_TRACE(::testing::Message()
                     << "sites=" << num_sites << " auto_hyz=" << auto_hyz_mode
                     << " batch=" << batch);
        ExpectSameResult(reference, run(batch));
      }
    }
  }
}

TEST(BatchedPumpTest, CounterPhase2SpanScanKeepsSampledDrawOrder) {
  // A sampled HYZ site draws its next gap at its first increment after a
  // round change. A span scan that queried both signs' headrooms up front
  // would draw one for a sign the span never feeds; if another site's
  // report then starts a new round, that draw is discarded and the site's
  // RNG stream has moved. Scripted to hit exactly that: site 0 takes a
  // +-only span between two - round changes driven by site 1, then mixed
  // spans whose - reports expose its - RNG stream.
  const int64_t n = 1 << 15;
  core::CounterOptions options = testing::DefaultOptions(n, 0.1, 707);
  options.drift_mode = core::DriftMode::kUnknownUnitDrift;
  options.phase2_auto_hyz_mode = false;  // sampled HYZ
  core::NonMonotonicCounter batched(2, options);
  core::NonMonotonicCounter per_update(2, options);
  const auto warmup = streams::BernoulliStream(n, 0.55, 708);
  for (size_t t = 0; t < warmup.size(); ++t) {
    batched.ProcessUpdate(static_cast<int>(t % 2), warmup[t]);
    per_update.ProcessUpdate(static_cast<int>(t % 2), warmup[t]);
  }
  ASSERT_TRUE(batched.diagnostics().phase2_active);

  const std::vector<double> minus_run(1 << 15, -1.0);
  const std::vector<double> plus_only = {1.0, 1.0};
  const auto mixed = streams::BernoulliStream(1 << 12, 0.0, 709);
  const struct {
    int site;
    const std::vector<double>* values;
  } script[] = {{1, &minus_run}, {0, &plus_only}, {1, &minus_run},
                {0, &mixed}};
  for (const auto& step : script) {
    const std::span<const double> values(*step.values);
    for (size_t pos = 0; pos < values.size();) {
      const size_t len = std::min<size_t>(256, values.size() - pos);
      const int64_t consumed =
          batched.ProcessBatch(step.site, values.subspan(pos, len));
      for (int64_t j = 0; j < consumed; ++j) {
        per_update.ProcessUpdate(step.site,
                                 values[pos + static_cast<size_t>(j)]);
      }
      pos += static_cast<size_t>(consumed);
      ASSERT_EQ(batched.Estimate(), per_update.Estimate()) << "at " << pos;
    }
  }
  EXPECT_EQ(batched.stats().total(), per_update.stats().total());
}

// ---- Interleaved spans: ProcessSpan is unobservable ----------------------

// The sim pump hands whole multi-site chunks to ProcessSpan, which the
// counter scans per site (Phase 1) and per (site, sign) (Phase 2). Every
// assignment policy, at several k, in every drift regime, must reproduce
// the per-update pump (batch 1) bit for bit, curve included. The
// half-unit prefix leaves Phase-1 totals fractional, so later ±1 spans hit
// the scan's exact-tally refusal.
TEST(BatchedPumpTest, CounterInterleavedSpansMatchPerUpdate) {
  const int64_t n = 1 << 14;
  enum class Regime { kZeroDrift, kHalfUnitPrefix, kDriftDeterministic,
                      kDriftSampled };
  for (const Regime regime :
       {Regime::kZeroDrift, Regime::kHalfUnitPrefix,
        Regime::kDriftDeterministic, Regime::kDriftSampled}) {
    const bool drift = regime == Regime::kDriftDeterministic ||
                       regime == Regime::kDriftSampled;
    auto stream = streams::BernoulliStream(n, drift ? 0.55 : 0.0, 515);
    if (regime == Regime::kHalfUnitPrefix) {
      for (size_t t = 0; t < 64; ++t) stream[t] *= 0.5;
    }
    for (const char* policy : {"round_robin", "random", "single", "block",
                               "sign_split", "zero_crossing"}) {
      for (int num_sites : {3, 4, 16}) {
        core::CounterOptions options = testing::DefaultOptions(n, 0.2, 616);
        if (drift) {
          options.drift_mode = core::DriftMode::kUnknownUnitDrift;
          options.phase2_auto_hyz_mode = regime == Regime::kDriftDeterministic;
        }
        const auto run = [&](int batch_size) {
          core::NonMonotonicCounter counter(num_sites, options);
          auto psi = sim::MakeAssignment(policy, num_sites, 717);
          sim::TrackingOptions tracking;
          tracking.epsilon = options.epsilon;
          tracking.curve_points = 16;
          tracking.batch_size = batch_size;
          const auto result =
              sim::RunTracking(stream, psi.get(), &counter, tracking);
          EXPECT_EQ(counter.diagnostics().phase2_active, drift);
          return result;
        };
        const auto reference = run(1);
        for (int batch : {7, 256, 1 << 14}) {
          SCOPED_TRACE(::testing::Message()
                       << "regime=" << static_cast<int>(regime)
                       << " policy=" << policy << " sites=" << num_sites
                       << " batch=" << batch);
          ExpectSameResult(reference, run(batch));
        }
      }
    }
  }
}

/// Feeds `values` to `sites` through ProcessSpan in chunks of `chunk`,
/// and the consumed updates one at a time to `per_update`, asserting equal
/// estimates after every call.
void FeedSpansInLockstep(sim::Protocol* spans, sim::Protocol* per_update,
                         std::span<const int> sites,
                         std::span<const double> values, size_t chunk) {
  for (size_t pos = 0; pos < values.size();) {
    const size_t len = std::min(chunk, values.size() - pos);
    const int64_t consumed =
        spans->ProcessSpan(sites.subspan(pos, len), values.subspan(pos, len));
    ASSERT_GE(consumed, 1);
    ASSERT_LE(consumed, static_cast<int64_t>(len));
    for (int64_t j = 0; j < consumed; ++j) {
      const size_t t = pos + static_cast<size_t>(j);
      per_update->ProcessUpdate(sites[t], values[t]);
    }
    pos += static_cast<size_t>(consumed);
    ASSERT_EQ(spans->Estimate(), per_update->Estimate()) << "at " << pos;
  }
}

TEST(BatchedPumpTest, CounterInterleavedScanKeepsSampledDrawOrder) {
  // The per-(site, sign) form of CounterPhase2SpanScanKeepsSampledDrawOrder:
  // sites 0 and 1 take long interleaved - spans whose reports keep
  // starting new rounds of the - counter, while site 2 gets nothing. A
  // scan that queried every slot's headroom up front would draw a gap for
  // (2, -) in each call and lose it at the next round change; the mixed
  // spans that follow feed site 2 and expose its - RNG stream.
  const int64_t n = 1 << 15;
  core::CounterOptions options = testing::DefaultOptions(n, 0.1, 727);
  options.drift_mode = core::DriftMode::kUnknownUnitDrift;
  options.phase2_auto_hyz_mode = false;  // sampled HYZ
  core::NonMonotonicCounter spans(3, options);
  core::NonMonotonicCounter per_update(3, options);
  const auto warmup = streams::BernoulliStream(n, 0.55, 728);
  for (size_t t = 0; t < warmup.size(); ++t) {
    spans.ProcessUpdate(static_cast<int>(t % 3), warmup[t]);
    per_update.ProcessUpdate(static_cast<int>(t % 3), warmup[t]);
  }
  ASSERT_TRUE(spans.diagnostics().phase2_active);

  const std::vector<double> minus_run(1 << 15, -1.0);
  std::vector<int> two_sites(minus_run.size());
  for (size_t t = 0; t < two_sites.size(); ++t) {
    two_sites[t] = static_cast<int>(t % 2);
  }
  const auto mixed = streams::BernoulliStream(1 << 12, 0.0, 729);
  std::vector<int> three_sites(mixed.size());
  for (size_t t = 0; t < three_sites.size(); ++t) {
    three_sites[t] = static_cast<int>(t % 3);
  }
  FeedSpansInLockstep(&spans, &per_update, two_sites, minus_run, 256);
  FeedSpansInLockstep(&spans, &per_update, three_sites, mixed, 256);
  EXPECT_EQ(spans.stats().total(), per_update.stats().total());
}

TEST(BatchedPumpTest, HyzInterleavedScanKeepsSampledDrawOrder) {
  // The monotonic form: sites 0 and 1 alternate and site 2 takes only the
  // last update of every 256, so most spans reach a report before they
  // reach site 2. A scan that queried site 2's headroom before its update
  // would draw a gap that a round change at that report discards.
  hyz::HyzOptions options;
  options.epsilon = 0.1;
  options.seed = 747;
  hyz::HyzProtocol spans(3, options);
  hyz::HyzProtocol per_update(3, options);
  const std::vector<double> ones(1 << 16, 1.0);
  std::vector<int> sites(ones.size());
  for (size_t t = 0; t < sites.size(); ++t) {
    sites[t] = t % 256 == 255 ? 2 : static_cast<int>(t % 2);
  }
  FeedSpansInLockstep(&spans, &per_update, sites, ones, 256);
  EXPECT_EQ(spans.stats().total(), per_update.stats().total());
  EXPECT_GT(spans.rounds(), 4);
}

TEST(BatchedPumpTest, CounterFaultyChannelSpansConsumeOneUpdate) {
  // Delayed delivery breaks the silent-prefix assumption, so under a
  // channel model every ProcessSpan call takes exactly one update, in both
  // phases, whether the span opens on one site or several.
  const int64_t n = 1 << 14;
  core::CounterOptions options = testing::DefaultOptions(n, 0.2, 737);
  options.drift_mode = core::DriftMode::kUnknownUnitDrift;
  options.channel.kind = sim::ChannelConfig::Kind::kDelay;
  options.channel.delay_probability = 0.2;
  options.channel.max_delay = 8;
  options.channel.seed = 738;
  core::NonMonotonicCounter counter(3, options);
  const auto stream = streams::BernoulliStream(n, 0.55, 739);
  std::vector<int> sites(stream.size());
  for (size_t t = 0; t < sites.size(); ++t) {
    // Interleaved stretches alternating with same-site runs.
    sites[t] = static_cast<int>((t / 32) % 2 == 0 ? t % 3 : (t / 32) % 3);
  }
  const std::span<const int> all_sites(sites);
  const std::span<const double> all_values(stream);
  for (size_t t = 0; t < stream.size(); ++t) {
    const size_t len = std::min<size_t>(64, stream.size() - t);
    ASSERT_EQ(counter.ProcessSpan(all_sites.subspan(t, len),
                                  all_values.subspan(t, len)),
              1)
        << "at " << t;
  }
  EXPECT_TRUE(counter.diagnostics().phase2_active);
}

TEST(BatchedPumpTest, HyzFaultyChannelSpansConsumeOneUpdate) {
  // The same rule for the two protocols that scan spans over HYZ
  // counters: standalone HYZ and two_monotonic's ±1 pair.
  sim::ChannelConfig channel;
  channel.kind = sim::ChannelConfig::Kind::kDelay;
  channel.delay_probability = 0.2;
  channel.max_delay = 8;
  channel.seed = 757;
  hyz::HyzOptions options;
  options.epsilon = 0.1;
  options.seed = 758;
  options.channel = channel;
  hyz::HyzProtocol hyz(3, options);
  baselines::TwoMonotonicProtocol pair(3, 0.1, 1e-6, 759, channel);
  const std::vector<double> ones(1 << 12, 1.0);
  const auto signs = streams::BernoulliStream(1 << 12, 0.0, 760);
  std::vector<int> sites(ones.size());
  for (size_t t = 0; t < sites.size(); ++t) {
    sites[t] = static_cast<int>((t / 32) % 2 == 0 ? t % 3 : (t / 32) % 3);
  }
  const std::span<const int> all_sites(sites);
  for (size_t t = 0; t < sites.size(); ++t) {
    const size_t len = std::min<size_t>(64, sites.size() - t);
    ASSERT_EQ(hyz.ProcessSpan(all_sites.subspan(t, len),
                              std::span<const double>(ones).subspan(t, len)),
              1)
        << "hyz at " << t;
    ASSERT_EQ(pair.ProcessSpan(all_sites.subspan(t, len),
                               std::span<const double>(signs).subspan(t, len)),
              1)
        << "two_monotonic at " << t;
  }
}

// Records every (t, value) the pump asks about, then answers round-robin.
class RecordingAssignment final : public sim::AssignmentPolicy {
 public:
  explicit RecordingAssignment(int num_sites) : num_sites_(num_sites) {}

  int NextSite(int64_t t, double value) override {
    seen_t_.push_back(t);
    seen_values_.push_back(value);
    return static_cast<int>(t % num_sites_);
  }

  const std::vector<int64_t>& seen_t() const { return seen_t_; }
  const std::vector<double>& seen_values() const { return seen_values_; }

 private:
  int num_sites_;
  std::vector<int64_t> seen_t_;
  std::vector<double> seen_values_;
};

TEST(BatchedPumpTest, PumpCallsNextSiteOncePerUpdateInOrder) {
  const int64_t n = 1000;  // not a multiple of the batch: ragged last chunk
  const auto stream = streams::BernoulliStream(n, 0.0, 747);
  for (int batch : {1, 7, 256}) {
    core::NonMonotonicCounter counter(3, testing::DefaultOptions(n, 0.2, 748));
    RecordingAssignment psi(3);
    sim::TrackingOptions tracking;
    tracking.epsilon = 0.2;
    tracking.batch_size = batch;
    sim::RunTracking(stream, &psi, &counter, tracking);
    ASSERT_EQ(psi.seen_t().size(), stream.size()) << "batch=" << batch;
    for (size_t t = 0; t < stream.size(); ++t) {
      ASSERT_EQ(psi.seen_t()[t], static_cast<int64_t>(t)) << "batch=" << batch;
    }
    EXPECT_EQ(psi.seen_values(), stream) << "batch=" << batch;
  }
}

// ---- SIMD dispatch is unobservable in results ----------------------------

TEST(BatchedPumpTest, CounterBitIdenticalAcrossSimdLevels) {
  // The vector kernels are bit-identical to the scalar oracle, so a full
  // tracking run — stream generation, sampler feed, pump fast paths — must
  // produce identical TrackingResults whichever level dispatch picks, in
  // both sampler modes.
  const int64_t n = 1 << 13;
  for (const auto sampler :
       {common::SamplerMode::kGeometricSkip, common::SamplerMode::kPerCoin}) {
    core::CounterOptions options = testing::DefaultOptions(n, 0.2, 909);
    options.sampler = sampler;
    ASSERT_TRUE(common::ForceSimdLevel(common::SimdLevel::kScalar));
    const auto stream = streams::BernoulliStream(n, 0.5, 92);
    const auto reference = RunCounterBatched(stream, 4, options, 64);
    common::ResetSimdLevel();
    for (const auto level :
         {common::SimdLevel::kAvx2, common::SimdLevel::kNeon}) {
      if (!common::SimdLevelAvailable(level)) continue;
      SCOPED_TRACE(::testing::Message()
                   << "level=" << common::SimdLevelName(level)
                   << " sampler=" << static_cast<int>(sampler));
      ASSERT_TRUE(common::ForceSimdLevel(level));
      const auto vec_stream = streams::BernoulliStream(n, 0.5, 92);
      EXPECT_EQ(vec_stream, stream);  // generator itself is level-blind
      ExpectSameResult(reference,
                       RunCounterBatched(vec_stream, 4, options, 64));
      common::ResetSimdLevel();
    }
  }
}

// ---- HYZ: batch and run forms --------------------------------------------

TEST(BatchedPumpTest, HyzBitIdenticalAcrossBatchSizes) {
  const int64_t n = 1 << 13;
  const std::vector<double> stream(static_cast<size_t>(n), 1.0);
  for (const auto mode : {hyz::HyzMode::kSampled, hyz::HyzMode::kDeterministic}) {
    for (const auto sampler :
         {common::SamplerMode::kGeometricSkip, common::SamplerMode::kPerCoin}) {
      hyz::HyzOptions options;
      options.mode = mode;
      options.epsilon = 0.1;
      options.delta = 1e-6;
      options.seed = 606;
      options.sampler = sampler;
      sim::TrackingOptions tracking;
      tracking.epsilon = 1.0;  // HYZ promises eps only per round; be lax
      sim::RoundRobinAssignment psi1(3), psi2(3);
      hyz::HyzProtocol per_update(3, options);
      hyz::HyzProtocol batched(3, options);
      tracking.batch_size = 1;
      const auto a = sim::RunTracking(stream, &psi1, &per_update, tracking);
      tracking.batch_size = 97;
      const auto b = sim::RunTracking(stream, &psi2, &batched, tracking);
      SCOPED_TRACE(::testing::Message()
                   << "mode=" << static_cast<int>(mode)
                   << " sampler=" << static_cast<int>(sampler));
      ExpectSameResult(a, b);
    }
  }
}

// ---- Default ProcessBatch (protocols without a fast path) ----------------

TEST(BatchedPumpTest, DefaultProcessBatchConsumesOneUpdate) {
  const auto stream = streams::BernoulliStream(1 << 12, 0.0, 17);
  sim::TrackingOptions tracking;
  tracking.epsilon = 0.1;
  sim::RoundRobinAssignment psi1(3), psi2(3);
  baselines::ExactSyncProtocol per_update(3);
  baselines::ExactSyncProtocol batched(3);
  tracking.batch_size = 1;
  const auto a = sim::RunTracking(stream, &psi1, &per_update, tracking);
  tracking.batch_size = 256;
  const auto b = sim::RunTracking(stream, &psi2, &batched, tracking);
  ExpectSameResult(a, b);
  EXPECT_EQ(a.messages, a.n);  // ExactSync really saw every update
}

// ---- StreamSource overload ----------------------------------------------

TEST(BatchedPumpTest, SourceOverloadMatchesVectorOverload) {
  const int64_t n = 1 << 13;
  core::CounterOptions options = testing::DefaultOptions(n, 0.2, 808);
  const auto stream = streams::BernoulliStream(n, 0.5, 33);

  core::NonMonotonicCounter vec_counter(2, options);
  core::NonMonotonicCounter src_counter(2, options);
  sim::RoundRobinAssignment psi1(2), psi2(2);
  sim::TrackingOptions tracking;
  tracking.epsilon = options.epsilon;
  tracking.curve_points = 16;
  tracking.batch_size = 50;  // n not divisible by 50: ragged final chunk
  const auto a = sim::RunTracking(stream, &psi1, &vec_counter, tracking);
  streams::BernoulliSource source(n, 0.5, 33);
  const auto b = sim::RunTracking(&source, &psi2, &src_counter, tracking);
  ExpectSameResult(a, b);
}

// ---- Chunked sources ≡ vector generators ---------------------------------

TEST(BatchedPumpTest, ChunkedSourcesMatchVectorGenerators) {
  const int64_t n = 4097;  // odd length: ragged last chunk everywhere
  {
    streams::BernoulliSource source(n, 0.3, 55);
    EXPECT_EQ(streams::Materialize(&source), streams::BernoulliStream(n, 0.3, 55));
  }
  {
    streams::FractionalIidSource source(n, 0.1, 0.5, 56);
    EXPECT_EQ(streams::Materialize(&source),
              streams::FractionalIidStream(n, 0.1, 0.5, 56));
  }
  {
    streams::AlternatingSource source(n);
    EXPECT_EQ(streams::Materialize(&source), streams::AlternatingStream(n));
  }
  {
    streams::SawtoothSource source(n, 37);
    EXPECT_EQ(streams::Materialize(&source), streams::SawtoothStream(n, 37));
  }
}

TEST(BatchedPumpTest, ChunkedSourcesSurviveOddChunkBoundaries) {
  // Chunk size 7 forces every source to carry generator state (RNG,
  // sawtooth level/direction, parity) across FillChunk calls.
  const int64_t n = 1000;
  const auto reference = streams::SawtoothStream(n, 13);
  streams::SawtoothSource source(n, 13);
  std::vector<double> buffer(7);
  std::vector<double> collected;
  int64_t filled;
  while ((filled = source.FillChunk(buffer)) > 0) {
    collected.insert(collected.end(), buffer.begin(), buffer.begin() + filled);
  }
  EXPECT_EQ(collected, reference);
  EXPECT_EQ(source.FillChunk(buffer), 0);  // stays exhausted
}

TEST(BatchedPumpTest, MaterializedSourceRoundTrips) {
  const auto stream = streams::BernoulliStream(513, 0.0, 3);
  streams::MaterializedSource source(stream);
  EXPECT_EQ(source.length(), 513);
  EXPECT_EQ(streams::Materialize(&source), stream);
}

}  // namespace
}  // namespace nmc
