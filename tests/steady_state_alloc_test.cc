// Counting-allocator proof of the zero-allocation steady state: after a
// warm-up prefix (message queues and other vectors growing to their peak
// reserved capacity, Phase 2 activation),
// pumping updates through the counter must perform NO heap allocations at
// all. This is the runtime check backing the NO_HEAP_IN_HOT_PATH lint rule
// — the lint rule polices the entry points' text, this test counts actual
// operator new calls across everything they transitively touch.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/nonmonotonic_counter.h"
#include "sim/assignment.h"
#include "sim/harness.h"
#include "sim/stream_source.h"
#include "streams/bernoulli.h"

namespace {
/// Global allocation counter, bumped by the replaced operator new below.
/// Plain (non-atomic) on purpose: the test is single-threaded and the
/// counter must not perturb codegen on the measured path.
int64_t g_allocations = 0;
}  // namespace

// Replace the global allocation functions for this binary. Only the
// unaligned forms are replaced; over-aligned allocations fall through to
// the library's aligned pair (a consistent new/delete pairing either way).
void* operator new(size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace nmc {
namespace {

/// One pumped update, exactly as the harness issues it for a single-site
/// zero-drift run (batching and curve recording change nothing about the
/// allocation profile — they only group calls).
void Pump(core::NonMonotonicCounter* counter, const std::vector<double>& s,
          int64_t t) {
  counter->ProcessUpdate(0, s[static_cast<size_t>(t) % s.size()]);
}

TEST(SteadyStateAllocTest, CounterPumpIsAllocationFreeAfterWarmup) {
  const int64_t n = 1 << 20;  // horizon sized so Phase 2 stays off
  const auto stream = streams::BernoulliStream(1 << 16, 0.0, 21);
  core::CounterOptions options;
  options.epsilon = 0.25;
  options.horizon_n = n;
  options.seed = 11;
  core::NonMonotonicCounter counter(1, options);

  // Warm-up: queues at peak capacity, sampler feeds primed, message-type
  // breakdown grown.
  for (int64_t t = 0; t < (1 << 14); ++t) Pump(&counter, stream, t);

  const int64_t before = g_allocations;
  for (int64_t t = 1 << 14; t < (1 << 14) + 100000; ++t) {
    Pump(&counter, stream, t);
  }
  const int64_t after = g_allocations;
  EXPECT_EQ(after - before, 0)
      << (after - before) << " heap allocations across 100k steady-state "
      << "updates; the hot path must not touch the allocator";
  // The counter still works after being spied on.
  EXPECT_GE(counter.Estimate(), -static_cast<double>(n));
}

TEST(SteadyStateAllocTest, MultiSitePumpIsAllocationFreeAfterWarmup) {
  const int64_t n = 1 << 20;
  const int k = 8;
  const auto stream = streams::BernoulliStream(1 << 16, 0.0, 33);
  core::CounterOptions options;
  options.epsilon = 0.25;
  options.horizon_n = n;
  options.seed = 13;
  core::NonMonotonicCounter counter(k, options);
  sim::RoundRobinAssignment psi(k);

  for (int64_t t = 0; t < (1 << 14); ++t) {
    const double v = stream[static_cast<size_t>(t) % stream.size()];
    counter.ProcessUpdate(psi.NextSite(t, v), v);
  }
  const int64_t before = g_allocations;
  for (int64_t t = 1 << 14; t < (1 << 14) + 100000; ++t) {
    const double v = stream[static_cast<size_t>(t) % stream.size()];
    counter.ProcessUpdate(psi.NextSite(t, v), v);
  }
  EXPECT_EQ(g_allocations - before, 0);
}

TEST(SteadyStateAllocTest, DelayChannelPumpIsAllocationFreeAfterWarmup) {
  // Under a delay channel the Network's delayed queue is live: envelopes
  // are parked there and flushed in place as their due ticks arrive. Its
  // capacity must settle during warm-up like the delivery queue's.
  const int64_t n = 1 << 20;
  const int k = 4;
  const auto stream = streams::BernoulliStream(1 << 16, 0.0, 45);
  core::CounterOptions options;
  options.epsilon = 0.25;
  options.horizon_n = n;
  options.seed = 17;
  options.channel.kind = sim::ChannelConfig::Kind::kDelay;
  options.channel.delay_probability = 0.2;
  options.channel.max_delay = 8;
  options.channel.seed = 19;
  core::NonMonotonicCounter counter(k, options);
  sim::RoundRobinAssignment psi(k);

  for (int64_t t = 0; t < (1 << 14); ++t) {
    const double v = stream[static_cast<size_t>(t) % stream.size()];
    counter.ProcessUpdate(psi.NextSite(t, v), v);
  }
  const int64_t before = g_allocations;
  for (int64_t t = 1 << 14; t < (1 << 14) + 100000; ++t) {
    const double v = stream[static_cast<size_t>(t) % stream.size()];
    counter.ProcessUpdate(psi.NextSite(t, v), v);
  }
  EXPECT_EQ(g_allocations - before, 0);
  EXPECT_GT(counter.stats().delayed, 0) << "the delayed queue never filled";
}

/// Serves a materialized stream chunk by chunk and snapshots the
/// allocation counter when the chunk holding item `warmup` is requested and
/// again when the stream runs out: everything between is steady state.
class SpyingSource final : public sim::StreamSource {
 public:
  SpyingSource(const std::vector<double>& stream, int64_t warmup)
      : inner_(stream), warmup_(warmup) {}

  int64_t length() const override { return inner_.length(); }

  int64_t FillChunk(std::span<double> out) override {
    if (produced_ <= warmup_ && warmup_ < produced_ + static_cast<int64_t>(
                                                         out.size())) {
      at_warmup_ = g_allocations;
    }
    const int64_t filled = inner_.FillChunk(out);
    if (filled == 0) at_end_ = g_allocations;
    produced_ += filled;
    return filled;
  }

  int64_t steady_state_allocations() const { return at_end_ - at_warmup_; }

 private:
  sim::SpanSource inner_;
  int64_t warmup_;
  int64_t produced_ = 0;
  int64_t at_warmup_ = -1;
  int64_t at_end_ = -1;
};

TEST(SteadyStateAllocTest, InterleavedDriftPumpIsAllocationFreeAfterWarmup) {
  // Round-robin spans at k = 4 through the tracking pump, across the
  // Phase-2 switch: the pump's site buffer and the counter's span-scan
  // slots are sized before the first chunk, so neither Phase 1's per-site
  // scan nor Phase 2's per-(site, sign) scan may touch the allocator once
  // the HYZ pair is built and its queues have grown.
  const int64_t n = 1 << 19;
  const int k = 4;
  const auto stream = streams::BernoulliStream(n, 0.2, 55);
  core::CounterOptions options;
  options.epsilon = 0.1;
  options.horizon_n = n;
  options.drift_mode = core::DriftMode::kUnknownUnitDrift;
  options.seed = 57;
  core::NonMonotonicCounter counter(k, options);
  sim::RoundRobinAssignment psi(k);
  const int64_t warmup = n / 2;
  SpyingSource source(stream, warmup);
  sim::TrackingOptions tracking;
  tracking.epsilon = options.epsilon;
  const auto result = sim::RunTracking(&source, &psi, &counter, tracking);
  ASSERT_EQ(result.n, n);
  ASSERT_TRUE(counter.diagnostics().phase2_active);
  ASSERT_LT(counter.diagnostics().phase2_switch_time, warmup / 2)
      << "warm-up must cover the switch and the first HYZ rounds";
  EXPECT_EQ(source.steady_state_allocations(), 0);
}

}  // namespace
}  // namespace nmc
