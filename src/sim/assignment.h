#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/rng.h"

namespace nmc::sim {

/// The adversary's data-partitioning function psi(t): which site receives
/// the t-th update. The model allows psi to adapt to everything observed
/// so far (update values and previous assignments), but not to the sites'
/// private coin flips; implementations therefore see (t, value, previous
/// choice) and nothing protocol-internal.
class AssignmentPolicy {
 public:
  virtual ~AssignmentPolicy() = default;

  /// Returns the site (in [0, k)) that receives the t-th update (t is
  /// 0-based). `value` is the update's content, which an adaptive adversary
  /// is allowed to inspect.
  virtual int NextSite(int64_t t, double value) = 0;

  /// Span form of NextSite: out[i] = NextSite(t0 + i, values[i]) for
  /// every i, called in order (the policies are stateful). Policies with a
  /// closed form override it to skip the per-update virtual call.
  virtual void FillSites(int64_t t0, std::span<const double> values,
                         std::span<int> out);
};

/// Cycles 0, 1, ..., k-1, 0, ... — an even load-balancer.
class RoundRobinAssignment : public AssignmentPolicy {
 public:
  explicit RoundRobinAssignment(int num_sites);
  int NextSite(int64_t t, double value) override;
  /// Increment-and-wrap: one divide per span, not one per update.
  void FillSites(int64_t t0, std::span<const double> values,
                 std::span<int> out) override;

 private:
  int num_sites_;
};

/// Each update goes to an independently uniform site.
class UniformRandomAssignment : public AssignmentPolicy {
 public:
  UniformRandomAssignment(int num_sites, uint64_t seed);
  int NextSite(int64_t t, double value) override;

 private:
  int num_sites_;
  common::Rng rng_;
};

/// All updates go to one fixed site — the maximally skewed partition.
class SingleSiteAssignment : public AssignmentPolicy {
 public:
  SingleSiteAssignment(int num_sites, int target_site);
  int NextSite(int64_t t, double value) override;
  void FillSites(int64_t t0, std::span<const double> values,
                 std::span<int> out) override;

 private:
  int target_site_;
};

/// Blocks of `block_size` consecutive updates per site, cycling over sites:
/// a bursty adversary that concentrates load then moves on.
class BlockCyclicAssignment : public AssignmentPolicy {
 public:
  BlockCyclicAssignment(int num_sites, int64_t block_size);
  int NextSite(int64_t t, double value) override;
  /// One divide per block, not one per update.
  void FillSites(int64_t t0, std::span<const double> values,
                 std::span<int> out) override;

 private:
  int num_sites_;
  int64_t block_size_;
};

/// A value-adaptive adversary: positive updates are funneled to one half of
/// the sites and negative updates to the other half (round-robin within a
/// half). This exercises the model's allowance that psi may depend on the
/// update content.
class SignSplitAssignment : public AssignmentPolicy {
 public:
  explicit SignSplitAssignment(int num_sites);
  int NextSite(int64_t t, double value) override;
  /// Increment-and-wrap within each half, selected without a branch on
  /// the sign: no divide per update.
  void FillSites(int64_t t0, std::span<const double> values,
                 std::span<int> out) override;

 private:
  int num_sites_;
  int64_t positive_count_ = 0;
  int64_t negative_count_ = 0;
};

/// A prefix-adaptive adversary (the strongest the model allows): it
/// watches the running sum of the values it has routed and keeps loading
/// one site for as long as the prefix sum keeps its sign, hopping to the
/// next site at every zero crossing. Near-zero regions — where the
/// protocol is most fragile — thus arrive maximally scattered.
class ZeroCrossingAssignment : public AssignmentPolicy {
 public:
  explicit ZeroCrossingAssignment(int num_sites);
  int NextSite(int64_t t, double value) override;

 private:
  int num_sites_;
  int current_site_ = 0;
  double prefix_sum_ = 0.0;
};

/// Factory by name ("round_robin", "random", "single", "block",
/// "sign_split", "zero_crossing") used by benches to sweep policies.
/// Returns nullptr for unknown names.
std::unique_ptr<AssignmentPolicy> MakeAssignment(const std::string& name,
                                                 int num_sites, uint64_t seed);

}  // namespace nmc::sim

