#include "sim/assignment.h"

#include <algorithm>

#include "common/check.h"

namespace nmc::sim {

void AssignmentPolicy::FillSites(int64_t t0, std::span<const double> values,
                                 std::span<int> out) {
  NMC_CHECK_EQ(values.size(), out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = NextSite(t0 + static_cast<int64_t>(i), values[i]);
  }
}

RoundRobinAssignment::RoundRobinAssignment(int num_sites)
    : num_sites_(num_sites) {
  NMC_CHECK_GE(num_sites, 1);
}

int RoundRobinAssignment::NextSite(int64_t t, double /*value*/) {
  return static_cast<int>(t % num_sites_);
}

void RoundRobinAssignment::FillSites(int64_t t0,
                                     std::span<const double> values,
                                     std::span<int> out) {
  NMC_CHECK_EQ(values.size(), out.size());
  const int num_sites = num_sites_;  // the stores below may alias members
  int site = static_cast<int>(t0 % num_sites);
  for (int& s : out) {
    s = site;
    site = site + 1 == num_sites ? 0 : site + 1;
  }
}

UniformRandomAssignment::UniformRandomAssignment(int num_sites, uint64_t seed)
    : num_sites_(num_sites), rng_(seed) {
  NMC_CHECK_GE(num_sites, 1);
}

int UniformRandomAssignment::NextSite(int64_t /*t*/, double /*value*/) {
  return static_cast<int>(rng_.UniformInt(0, num_sites_ - 1));
}

SingleSiteAssignment::SingleSiteAssignment(int num_sites, int target_site)
    : target_site_(target_site) {
  NMC_CHECK_GE(target_site, 0);
  NMC_CHECK_LT(target_site, num_sites);
}

int SingleSiteAssignment::NextSite(int64_t /*t*/, double /*value*/) {
  return target_site_;
}

void SingleSiteAssignment::FillSites(int64_t /*t0*/,
                                     std::span<const double> values,
                                     std::span<int> out) {
  NMC_CHECK_EQ(values.size(), out.size());
  std::fill(out.begin(), out.end(), target_site_);
}

BlockCyclicAssignment::BlockCyclicAssignment(int num_sites, int64_t block_size)
    : num_sites_(num_sites), block_size_(block_size) {
  NMC_CHECK_GE(num_sites, 1);
  NMC_CHECK_GE(block_size, 1);
}

int BlockCyclicAssignment::NextSite(int64_t t, double /*value*/) {
  return static_cast<int>((t / block_size_) % num_sites_);
}

void BlockCyclicAssignment::FillSites(int64_t t0,
                                      std::span<const double> values,
                                      std::span<int> out) {
  NMC_CHECK_EQ(values.size(), out.size());
  int64_t t = t0;
  for (auto it = out.begin(); it != out.end();) {
    const int64_t left = block_size_ - t % block_size_;  // rest of t's block
    const auto len = std::min<int64_t>(left, out.end() - it);
    std::fill(it, it + len, NextSite(t, 0.0));
    it += len;
    t += len;
  }
}

SignSplitAssignment::SignSplitAssignment(int num_sites)
    : num_sites_(num_sites) {
  NMC_CHECK_GE(num_sites, 1);
}

int SignSplitAssignment::NextSite(int64_t /*t*/, double value) {
  if (num_sites_ == 1) return 0;
  const int half = num_sites_ / 2;
  if (value >= 0) {
    return static_cast<int>(positive_count_++ % half);
  }
  return half + static_cast<int>(negative_count_++ % (num_sites_ - half));
}

void SignSplitAssignment::FillSites(int64_t /*t0*/,
                                    std::span<const double> values,
                                    std::span<int> out) {
  NMC_CHECK_EQ(values.size(), out.size());
  if (num_sites_ == 1) {
    std::fill(out.begin(), out.end(), 0);
    return;
  }
  const int half = num_sites_ / 2;
  // The sites NextSite would pick next for a positive and a negative
  // update; the counts are brought up to date once, after the span.
  int up_site = static_cast<int>(positive_count_ % half);
  int down_site =
      half + static_cast<int>(negative_count_ % (num_sites_ - half));
  int64_t positives = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    const bool up = values[i] >= 0;
    out[i] = up ? up_site : down_site;
    const int up_next = up_site + 1 == half ? 0 : up_site + 1;
    const int down_next = down_site + 1 == num_sites_ ? half : down_site + 1;
    up_site = up ? up_next : up_site;
    down_site = up ? down_site : down_next;
    positives += up;
  }
  positive_count_ += positives;
  negative_count_ += static_cast<int64_t>(out.size()) - positives;
}

ZeroCrossingAssignment::ZeroCrossingAssignment(int num_sites)
    : num_sites_(num_sites) {
  NMC_CHECK_GE(num_sites, 1);
}

int ZeroCrossingAssignment::NextSite(int64_t /*t*/, double value) {
  const double previous = prefix_sum_;
  prefix_sum_ += value;
  const bool crossed = (previous > 0.0 && prefix_sum_ <= 0.0) ||
                       (previous < 0.0 && prefix_sum_ >= 0.0);
  if (crossed) current_site_ = (current_site_ + 1) % num_sites_;
  return current_site_;
}

std::unique_ptr<AssignmentPolicy> MakeAssignment(const std::string& name,
                                                 int num_sites,
                                                 uint64_t seed) {
  if (name == "round_robin") {
    return std::make_unique<RoundRobinAssignment>(num_sites);
  }
  if (name == "random") {
    return std::make_unique<UniformRandomAssignment>(num_sites, seed);
  }
  if (name == "single") {
    return std::make_unique<SingleSiteAssignment>(num_sites, 0);
  }
  if (name == "block") {
    return std::make_unique<BlockCyclicAssignment>(num_sites, 64);
  }
  if (name == "sign_split") {
    return std::make_unique<SignSplitAssignment>(num_sites);
  }
  if (name == "zero_crossing") {
    return std::make_unique<ZeroCrossingAssignment>(num_sites);
  }
  return nullptr;
}

}  // namespace nmc::sim
