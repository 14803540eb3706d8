// The ProcessBatch contract in one suite: for any stream slicing the
// batched pump must reproduce the per-update pump bit for bit — same
// messages, same violations, same curve — in both sampler modes, and the
// chunked stream sources must emit exactly the value sequences of their
// vector counterparts.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/exact_sync.h"
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
