#include "common/geometric_skip.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace nmc::common {
namespace {

/// Every seed in this file routes through a test-local factory whose
/// construction site takes the seed as a traceable parameter; a
/// statistical flake is then fixed by varying one literal at the call.
common::Rng MakeRng(uint64_t seed) { return common::Rng(seed); }

// ---- Gap distribution ---------------------------------------------------

// One-sample chi-square of DrawGap against the Geometric(p) pmf
// P[gap = g] = (1-p)^g * p. Fixed seed, so this is deterministic — the
// generous critical value guards against seed-hunting, not flakiness.
TEST(GeometricSkipTest, GapHistogramMatchesGeometricPmf) {
  const double p = 0.2;
  const int kDraws = 200000;
  const int kBins = 16;  // gaps 0..14 plus pooled tail
  common::Rng rng = MakeRng(2024);
  std::vector<int64_t> counts(kBins, 0);
  for (int i = 0; i < kDraws; ++i) {
    const int64_t gap = GeometricSkip::DrawGap(&rng, p);
    counts[static_cast<size_t>(std::min<int64_t>(gap, kBins - 1))] += 1;
  }
  double chi2 = 0.0;
  double tail_prob = 1.0;
  for (int b = 0; b < kBins; ++b) {
    const double prob =
        b < kBins - 1 ? tail_prob * p : tail_prob;  // last bin pools the tail
    tail_prob *= (1.0 - p);
    const double expected = prob * kDraws;
    ASSERT_GT(expected, 5.0);  // chi-square validity
    const double diff = static_cast<double>(counts[static_cast<size_t>(b)]) -
                        expected;
    chi2 += diff * diff / expected;
  }
  // df = 15; the 0.999 quantile is 37.7.
  EXPECT_LT(chi2, 37.7);
}

TEST(GeometricSkipTest, GapMeanMatchesGeometricMean) {
  const double p = 0.01;
  const int kDraws = 100000;
  common::Rng rng = MakeRng(7);
  double sum = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    sum += static_cast<double>(GeometricSkip::DrawGap(&rng, p));
  }
  const double mean = sum / kDraws;
  // E[gap] = (1-p)/p = 99; stderr ~ sqrt((1-p))/p/sqrt(N) ~ 0.31.
  EXPECT_NEAR(mean, (1.0 - p) / p, 2.0);
}

// ---- Boundary cases ------------------------------------------------------

TEST(GeometricSkipTest, CertainRateDrawsNoRandomness) {
  common::Rng rng = MakeRng(5);
  common::Rng untouched = MakeRng(5);
  EXPECT_EQ(GeometricSkip::DrawGap(&rng, 1.0), 0);
  EXPECT_EQ(GeometricSkip::DrawGap(&rng, 2.0), 0);
  EXPECT_EQ(rng.NextU64(), untouched.NextU64());  // no draw consumed
}

TEST(GeometricSkipTest, ZeroRateIsInfiniteWithoutRandomness) {
  common::Rng rng = MakeRng(5);
  common::Rng untouched = MakeRng(5);
  EXPECT_EQ(GeometricSkip::DrawGap(&rng, 0.0), GeometricSkip::kInfiniteGap);
  EXPECT_EQ(GeometricSkip::DrawGap(&rng, -1.0), GeometricSkip::kInfiniteGap);
  EXPECT_EQ(rng.NextU64(), untouched.NextU64());
}

TEST(GeometricSkipTest, TinyRateClampsInsteadOfOverflowing) {
  // log(u)/log1p(-p) for p = 1e-300 overflows any int64; the clamp must
  // return the sentinel instead of invoking UB on the cast.
  common::Rng rng = MakeRng(11);
  for (int i = 0; i < 100; ++i) {
    const int64_t gap = GeometricSkip::DrawGap(&rng, 1e-300);
    EXPECT_EQ(gap, GeometricSkip::kInfiniteGap);
  }
  // A small-but-sane rate stays finite and non-negative.
  for (int i = 0; i < 1000; ++i) {
    const int64_t gap = GeometricSkip::DrawGap(&rng, 1e-6);
    EXPECT_GE(gap, 0);
    EXPECT_LT(gap, GeometricSkip::kInfiniteGap);
  }
}

TEST(GeometricSkipTest, EnsureGapMemoMatchesDrawGapBitwise) {
  // EnsureGap memoizes log1p(-rate) across draws; the values must still
  // be bit-identical to the un-memoized DrawGap at every rate change.
  GeometricSkip skip;
  common::Rng rng_a = MakeRng(31);
  common::Rng rng_b = MakeRng(31);
  const double rates[] = {0.25, 0.25, 0.03, 0.25, 0.9, 0.03};
  for (int i = 0; i < 6000; ++i) {
    const double rate = rates[i % 6];
    skip.EnsureGap(&rng_a, rate);
    EXPECT_EQ(skip.gap(), GeometricSkip::DrawGap(&rng_b, rate));
    skip.Invalidate();
  }
}

// ---- State machine -------------------------------------------------------

TEST(GeometricSkipTest, AdvanceAndTakeCandidateWalkTheGap) {
  GeometricSkip skip;
  common::Rng rng = MakeRng(13);
  for (int run = 0; run < 100; ++run) {
    skip.EnsureGap(&rng, 0.1);
    const int64_t gap = skip.gap();
    const int64_t half = gap / 2;
    skip.Advance(half);
    EXPECT_EQ(skip.gap(), gap - half);
    skip.Advance(gap - half);
    EXPECT_EQ(skip.gap(), 0);
    skip.TakeCandidate();
    EXPECT_FALSE(skip.valid());
  }
}

// ---- RNG-stream independence between sites -------------------------------

TEST(GeometricSkipTest, ForkedSiteStreamsAreIndependent) {
  // Sites draw gaps from forked RNGs; interleaving one site's draws must
  // not perturb another's sequence (each site owns its stream).
  common::Rng seeder_a = MakeRng(99);
  common::Rng seeder_b = MakeRng(99);
  common::Rng site1_solo = seeder_a.Fork();
  common::Rng ignored = seeder_a.Fork();
  (void)ignored;
  common::Rng site1 = seeder_b.Fork();
  common::Rng site2 = seeder_b.Fork();

  std::vector<int64_t> solo, interleaved;
  for (int i = 0; i < 1000; ++i) {
    solo.push_back(GeometricSkip::DrawGap(&site1_solo, 0.1));
  }
  for (int i = 0; i < 1000; ++i) {
    interleaved.push_back(GeometricSkip::DrawGap(&site1, 0.1));
    (void)GeometricSkip::DrawGap(&site2, 0.1);  // interleaved other-site draw
  }
  EXPECT_EQ(solo, interleaved);

  // And the two sites' gap sequences are not correlated copies.
  common::Rng seeder_c = MakeRng(99);
  common::Rng s1 = seeder_c.Fork();
  common::Rng s2 = seeder_c.Fork();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (GeometricSkip::DrawGap(&s1, 0.1) == GeometricSkip::DrawGap(&s2, 0.1)) {
      ++equal;
    }
  }
  // P[equal] = sum p_g^2 = p/(2-p) ~ 0.053 per index; 1000 trials.
  EXPECT_LT(equal, 150);
}

// ---- Bulk gap feed (AttachBatchRng) ---------------------------------------

TEST(GeometricSkipTest, FeedGapHistogramMatchesGeometricPmf) {
  // Gaps drawn through the vectorized bulk feed at a frozen rate must be
  // Geometric(p) exactly like the scalar path (the feed changes the RNG
  // consumption order, never the distribution). Same chi-square as
  // GapHistogramMatchesGeometricPmf, routed through EnsureGapFromFeed.
  const double p = 0.2;
  const int kDraws = 200000;
  const int kBins = 16;
  GeometricSkip skip;
  BatchRng batch(2024);
  skip.AttachBatchRng(&batch);
  common::Rng unused = MakeRng(1);  // feed-backed EnsureGap never touches it
  std::vector<int64_t> counts(kBins, 0);
  for (int i = 0; i < kDraws; ++i) {
    skip.EnsureGap(&unused, p);
    const int64_t gap = skip.gap();
    counts[static_cast<size_t>(std::min<int64_t>(gap, kBins - 1))] += 1;
    skip.Invalidate();
  }
  double chi2 = 0.0;
  double tail_prob = 1.0;
  for (int b = 0; b < kBins; ++b) {
    const double prob = b < kBins - 1 ? tail_prob * p : tail_prob;
    tail_prob *= (1.0 - p);
    const double expected = prob * kDraws;
    ASSERT_GT(expected, 5.0);
    const double diff = static_cast<double>(counts[static_cast<size_t>(b)]) -
                        expected;
    chi2 += diff * diff / expected;
  }
  // df = 15; the 0.999 quantile is 37.7.
  EXPECT_LT(chi2, 37.7);
  // The scalar RNG really was never consumed.
  common::Rng check = MakeRng(1);
  EXPECT_EQ(unused.NextU64(), check.NextU64());
}

TEST(GeometricSkipTest, FeedRateLadderCostsOneDrawPerFreshRate) {
  // A fresh rate must cost exactly one stream element (no speculative
  // block), and only the second consecutive same-rate request may buy a
  // block. Verified through the BatchRng stream position: a ladder of n
  // distinct rates consumes exactly n elements.
  GeometricSkip skip;
  BatchRng batch(7);
  BatchRng shadow(7);  // tracks the expected stream position
  skip.AttachBatchRng(&batch);
  common::Rng unused = MakeRng(1);
  const double rates[] = {0.5, 0.25, 0.125, 0.0625, 0.03125};
  for (const double rate : rates) {
    skip.EnsureGap(&unused, rate);
    skip.Invalidate();
    (void)shadow.NextU64();  // one element per fresh rate
  }
  EXPECT_EQ(batch.NextU64(), shadow.NextU64());
}

TEST(GeometricSkipTest, FeedBlockRefillServesRepeatRateFromBlock) {
  // Once a rate repeats, blocks are pre-drawn on the growth schedule
  // (kFeedFirstBlockGaps, ×kFeedBlockGrowth per refill, capped at
  // kFeedBlockGaps) and every request in between is served without
  // further stream traffic. The shadow generator replays the same fills,
  // so matching stream positions prove both the schedule and the served
  // values' provenance.
  GeometricSkip skip;
  BatchRng batch(13);
  BatchRng shadow(13);
  skip.AttachBatchRng(&batch);
  common::Rng unused = MakeRng(1);
  const double rate = 0.1;
  skip.EnsureGap(&unused, rate);  // fresh rate: single draw
  skip.Invalidate();
  (void)shadow.NextU64();
  int fill = GeometricSkip::kFeedFirstBlockGaps;
  int served = 0;
  std::vector<int64_t> block;
  // Run past the cap so the steady (fill == kFeedBlockGaps) regime is
  // exercised too.
  while (served < 3 * GeometricSkip::kFeedBlockGaps) {
    block.resize(static_cast<size_t>(fill));
    shadow.FillGeometricGaps(std::span<int64_t>(block), rate);
    for (int i = 0; i < fill; ++i) {
      skip.EnsureGap(&unused, rate);  // i == 0 buys the block
      EXPECT_EQ(skip.gap(), block[static_cast<size_t>(i)]);
      skip.Invalidate();
    }
    served += fill;
    fill = std::min(fill * GeometricSkip::kFeedBlockGrowth,
                    GeometricSkip::kFeedBlockGaps);
  }
  EXPECT_EQ(batch.NextU64(), shadow.NextU64());
}

}  // namespace
}  // namespace nmc::common
