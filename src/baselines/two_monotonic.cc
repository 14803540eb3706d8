#include "baselines/two_monotonic.h"

#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace nmc::baselines {

TwoMonotonicProtocol::TwoMonotonicProtocol(int num_sites, double epsilon,
                                           double delta, uint64_t seed,
                                           const sim::ChannelConfig& channel)
    : span_scan_(num_sites, 2) {
  common::Rng seeder(seed);
  hyz::HyzOptions options;
  options.epsilon = epsilon;
  options.delta = delta;
  // Each counter runs its own star network; distinct channel seeds keep
  // the two fault patterns independent (unused on the perfect default).
  options.channel = channel;
  options.seed = seeder.NextU64();
  options.channel.seed = channel.seed + 1;
  positive_ = std::make_unique<hyz::HyzProtocol>(num_sites, options);
  options.seed = seeder.NextU64();
  options.channel.seed = channel.seed + 2;
  negative_ = std::make_unique<hyz::HyzProtocol>(num_sites, options);
}

int TwoMonotonicProtocol::num_sites() const { return positive_->num_sites(); }

void TwoMonotonicProtocol::ProcessUpdate(int site_id, double value) {
  NMC_CHECK_EQ(std::fabs(value), 1.0);
  if (value > 0) {
    positive_->ProcessUpdate(site_id, 1.0);
  } else {
    negative_->ProcessUpdate(site_id, 1.0);
  }
}

int64_t TwoMonotonicProtocol::ProcessSpan(std::span<const int> sites,
                                          std::span<const double> values) {
  NMC_CHECK(!values.empty());
  NMC_CHECK_EQ(sites.size(), values.size());
  if (positive_->channeled()) {
    ProcessUpdate(sites[0], values[0]);
    return 1;
  }
  hyz::HyzProtocol* const pair[2] = {positive_.get(), negative_.get()};
  return span_scan_.Consume(pair, sites, values);
}

double TwoMonotonicProtocol::Estimate() const {
  return positive_->Estimate() - negative_->Estimate();
}

const sim::MessageStats& TwoMonotonicProtocol::stats() const {
  combined_stats_ = positive_->stats();
  combined_stats_ += negative_->stats();
  return combined_stats_;
}

bool TwoMonotonicProtocol::Resync() {
  const bool positive_ok = positive_->Resync();
  const bool negative_ok = negative_->Resync();
  return positive_ok && negative_ok;
}

}  // namespace nmc::baselines
