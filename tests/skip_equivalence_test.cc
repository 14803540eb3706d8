// Skip-vs-coins equivalence: the geometric fast-forward must be
// indistinguishable from the per-coin reference in distribution. Three
// angles: (1) the inter-report gap histogram of a frozen-rate HYZ round,
// compared by a two-sample chi-square; (2) the coin-free deterministic
// HYZ variant, whose transcript must be bit-identical in both sampler
// modes; (3) pooled end-to-end message counts on E2/E8/E11-style
// configurations, which must agree within sampling-noise bands.

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "core/nonmonotonic_counter.h"
#include "hyz/hyz_counter.h"
#include "sim/assignment.h"
#include "sim/harness.h"
#include "streams/adversarial.h"
#include "streams/bernoulli.h"
#include "test_util.h"

namespace nmc {
namespace {

constexpr int kHyzReport = 1;    // mirrors hyz_counter.cc's MessageType
constexpr int kHyzCollect = 2;

// ---- (1) Frozen-rate inter-report gaps ------------------------------------

struct GapSample {
  std::vector<int64_t> gaps;
  double rate = 0.0;
};

// Runs single-site kSampled HYZ trials sized to stay inside the first
// round (initial_total dominates, so the estimate never doubles and the
// rate stays frozen) and pools the distances between consecutive reports.
GapSample CollectHyzGaps(common::SamplerMode sampler, uint64_t seed_base) {
  const int64_t kBase = 20000;
  const int64_t kPerTrial = 15000;  // < kBase: no collect can trigger
  const int kTrials = 80;
  GapSample out;
  for (int trial = 0; trial < kTrials; ++trial) {
    hyz::HyzOptions options;
    options.mode = hyz::HyzMode::kSampled;
    options.epsilon = 0.5;
    options.delta = 1e-6;
    options.initial_total = kBase;
    options.sampler = sampler;
    options.seed = seed_base + static_cast<uint64_t>(trial);
    hyz::HyzProtocol protocol(1, options);
    out.rate = protocol.current_rate();
    bool reported = false;
    protocol.SetMessageObserver([&](const sim::Network::SentMessage& sent) {
      if (sent.message.type == kHyzReport) reported = true;
      // A collect would end the round and unfreeze the rate, voiding the
      // experiment's premise.
      ASSERT_NE(sent.message.type, kHyzCollect);
    });
    int64_t t = 0;
    int64_t last_report = 0;
    while (t < kPerTrial) {
      reported = false;
      const int64_t consumed =
          protocol.ProcessRun(0, std::min<int64_t>(4096, kPerTrial - t));
      t += consumed;
      if (reported) {
        // Memorylessness makes every inter-report distance (including the
        // one from the trial start) i.i.d. Geometric(rate) + 1.
        out.gaps.push_back(t - last_report);
        last_report = t;
      }
    }
  }
  return out;
}

TEST(SkipEquivalenceTest, HyzFrozenRateGapHistogramsAgree) {
  const GapSample per_coin = CollectHyzGaps(common::SamplerMode::kPerCoin, 900);
  const GapSample skip = CollectHyzGaps(common::SamplerMode::kGeometricSkip, 900);
  ASSERT_EQ(per_coin.rate, skip.rate);  // same options => same frozen rate
  ASSERT_GT(per_coin.gaps.size(), 1000u);
  ASSERT_GT(skip.gaps.size(), 1000u);

  // Bin edges at fractions of the geometric mean 1/rate; the tail bin
  // (>= 3 means) still expects ~5% of the mass.
  const double mean = 1.0 / per_coin.rate;
  const double edges[] = {0.125 * mean, 0.25 * mean, 0.5 * mean, 0.75 * mean,
                          mean,         1.5 * mean,  2.0 * mean, 3.0 * mean};
  const int kBins = 9;
  auto histogram = [&](const std::vector<int64_t>& gaps) {
    std::vector<double> counts(kBins, 0.0);
    for (const int64_t gap : gaps) {
      int bin = 0;
      while (bin < kBins - 1 && static_cast<double>(gap) > edges[bin]) ++bin;
      counts[static_cast<size_t>(bin)] += 1.0;
    }
    return counts;
  };
  const auto a = histogram(per_coin.gaps);
  const auto b = histogram(skip.gaps);
  const double na = static_cast<double>(per_coin.gaps.size());
  const double nb = static_cast<double>(skip.gaps.size());
  const double k_ab = std::sqrt(nb / na);
  double chi2 = 0.0;
  for (int bin = 0; bin < kBins; ++bin) {
    const size_t i = static_cast<size_t>(bin);
    if (a[i] + b[i] == 0.0) continue;
    const double diff = k_ab * a[i] - b[i] / k_ab;
    chi2 += diff * diff / (a[i] + b[i]);
  }
  // df = 8; the 0.999 quantile is 26.1. Fixed seeds, so this is a
  // deterministic regression check, not a flaky statistical one.
  EXPECT_LT(chi2, 30.0);

  // The pooled means must agree too (a location shift could in principle
  // slip past a coarse histogram).
  auto mean_of = [](const std::vector<int64_t>& gaps) {
    double sum = 0.0;
    for (const int64_t gap : gaps) sum += static_cast<double>(gap);
    return sum / static_cast<double>(gaps.size());
  };
  const double ma = mean_of(per_coin.gaps);
  const double mb = mean_of(skip.gaps);
  // stderr of a geometric mean ~ mean/sqrt(n) ~ 546/sqrt(2000) ~ 12.
  EXPECT_NEAR(ma, mb, 4.0 * mean / std::sqrt(std::min(na, nb)));
}

// ---- (2) Deterministic HYZ: coin-free, so bit-exact either way ------------

TEST(SkipEquivalenceTest, DeterministicHyzTranscriptIdenticalAcrossSamplers) {
  struct Sent {
    bool to_coordinator;
    int site_id;
    int type;
    int64_t u;
    bool operator==(const Sent&) const = default;
  };
  auto run = [](common::SamplerMode sampler) {
    hyz::HyzOptions options;
    options.mode = hyz::HyzMode::kDeterministic;
    options.epsilon = 0.1;
    options.delta = 1e-6;
    options.seed = 42;
    options.sampler = sampler;
    hyz::HyzProtocol protocol(3, options);
    std::vector<Sent> transcript;
    protocol.SetMessageObserver([&](const sim::Network::SentMessage& sent) {
      transcript.push_back({sent.to_coordinator, sent.site_id,
                            sent.message.type, sent.message.u});
    });
    for (int64_t t = 0; t < (1 << 14); ++t) {
      protocol.ProcessUpdate(static_cast<int>(t % 3), 1.0);
    }
    return transcript;
  };
  const auto per_coin = run(common::SamplerMode::kPerCoin);
  const auto skip = run(common::SamplerMode::kGeometricSkip);
  ASSERT_FALSE(per_coin.empty());
  EXPECT_EQ(per_coin, skip);
}

// ---- (3) Pooled message counts on bench-style configurations --------------

struct Pooled {
  double mean = 0.0;
  double stderr_mean = 0.0;
  int64_t violations = 0;
};

Pooled Summarize(const std::vector<double>& samples) {
  Pooled out;
  const double n = static_cast<double>(samples.size());
  for (const double s : samples) out.mean += s;
  out.mean /= n;
  double ss = 0.0;
  for (const double s : samples) ss += (s - out.mean) * (s - out.mean);
  out.stderr_mean = std::sqrt(ss / (n - 1.0) / n);
  return out;
}

void ExpectWithinBand(const Pooled& a, const Pooled& b) {
  const double band = 4.0 * std::sqrt(a.stderr_mean * a.stderr_mean +
                                      b.stderr_mean * b.stderr_mean);
  const double slack = 0.02 * std::max(a.mean, b.mean);
  EXPECT_NEAR(a.mean, b.mean, std::max(band, slack))
      << "per-coin mean " << a.mean << " +- " << a.stderr_mean << ", skip mean "
      << b.mean << " +- " << b.stderr_mean;
}

Pooled RunCounterTrials(common::SamplerMode sampler, int num_sites,
                        double epsilon,
                        const std::function<std::vector<double>(int)>& stream,
                        int trials) {
  std::vector<double> messages;
  Pooled out;
  for (int trial = 0; trial < trials; ++trial) {
    core::CounterOptions options = testing::DefaultOptions(
        0, epsilon, 1000 + static_cast<uint64_t>(trial) * 7919);
    const auto values = stream(trial);
    options.horizon_n = static_cast<int64_t>(values.size());
    options.sampler = sampler;
    const auto result = testing::RunCounter(values, num_sites, options);
    messages.push_back(static_cast<double>(result.messages));
    out.violations += result.violation_steps;
  }
  const Pooled stats = Summarize(messages);
  out.mean = stats.mean;
  out.stderr_mean = stats.stderr_mean;
  return out;
}

TEST(SkipEquivalenceTest, MultisiteDriftMessageMeansAgree) {
  // E2-style: k = 8 sites, drifting Bernoulli stream.
  const auto stream = [](int trial) {
    return streams::BernoulliStream(1 << 14, 0.5,
                                    200 + static_cast<uint64_t>(trial));
  };
  const auto per_coin =
      RunCounterTrials(common::SamplerMode::kPerCoin, 8, 0.2, stream, 12);
  const auto skip =
      RunCounterTrials(common::SamplerMode::kGeometricSkip, 8, 0.2, stream, 12);
  ExpectWithinBand(per_coin, skip);
}

TEST(SkipEquivalenceTest, SingleSiteDriftMessageMeansAgree) {
  // k = 1 long-gap regime: chunked domination against the site's own
  // exact count, thinned at every candidate.
  const auto stream = [](int trial) {
    return streams::BernoulliStream(1 << 14, 0.75,
                                    300 + static_cast<uint64_t>(trial));
  };
  const auto per_coin =
      RunCounterTrials(common::SamplerMode::kPerCoin, 1, 0.2, stream, 12);
  const auto skip =
      RunCounterTrials(common::SamplerMode::kGeometricSkip, 1, 0.2, stream, 12);
  ExpectWithinBand(per_coin, skip);
}

TEST(SkipEquivalenceTest, AdversarialSawtoothMessageMeansAgree) {
  // E8-style: deterministic zero-crossing sawtooth; the only randomness is
  // the protocol's own coins.
  const auto stream = [](int) { return streams::SawtoothStream(1 << 13, 64); };
  const auto per_coin =
      RunCounterTrials(common::SamplerMode::kPerCoin, 4, 0.25, stream, 12);
  const auto skip =
      RunCounterTrials(common::SamplerMode::kGeometricSkip, 4, 0.25, stream, 12);
  ExpectWithinBand(per_coin, skip);
}

TEST(SkipEquivalenceTest, MonotonicHyzMessageMeansAgree) {
  // E11-style: native HYZ (kSampled) on an all-ones stream.
  const int64_t n = 1 << 14;
  const std::vector<double> stream(static_cast<size_t>(n), 1.0);
  auto run = [&](common::SamplerMode sampler) {
    std::vector<double> messages;
    for (int trial = 0; trial < 12; ++trial) {
      hyz::HyzOptions options;
      options.epsilon = 0.1;
      options.delta = 1e-6;
      options.seed = 4500 + static_cast<uint64_t>(trial);
      options.sampler = sampler;
      hyz::HyzProtocol protocol(8, options);
      sim::RoundRobinAssignment psi(8);
      sim::TrackingOptions tracking;
      tracking.epsilon = 1.0;  // per-round guarantee only; don't gate here
      const auto result = sim::RunTracking(stream, &psi, &protocol, tracking);
      messages.push_back(static_cast<double>(result.messages));
    }
    return Summarize(messages);
  };
  ExpectWithinBand(run(common::SamplerMode::kPerCoin),
                   run(common::SamplerMode::kGeometricSkip));
}

}  // namespace
}  // namespace nmc
