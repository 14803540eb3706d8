#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "hyz/hyz_counter.h"
#include "sim/channel.h"
#include "sim/protocol.h"

namespace nmc::baselines {

/// The "naive difference" approach the paper's introduction warns about:
/// track the positive updates and the negative updates with two
/// independent monotonic (HYZ) counters of accuracy epsilon each and
/// report the difference. Each counter is individually within epsilon of
/// P resp. N, but the difference carries absolute error up to
/// epsilon*(P+N) = epsilon*t, so its RELATIVE error against S = P - N is
/// unbounded whenever |S| << t (e.g. balanced voting). Requires ±1
/// updates.
class TwoMonotonicProtocol : public sim::Protocol {
 public:
  TwoMonotonicProtocol(int num_sites, double epsilon, double delta,
                       uint64_t seed,
                       const sim::ChannelConfig& channel = {});

  int num_sites() const override;
  void ProcessUpdate(int site_id, double value) override;
  /// Consumes a whole interleaved stretch per call through a
  /// hyz::SpanScan over the two counters (one update per call under a
  /// faulty channel).
  int64_t ProcessSpan(std::span<const int> sites,
                      std::span<const double> values) override;
  double Estimate() const override;
  const sim::MessageStats& stats() const override;
  bool Resync() override;

 private:
  std::unique_ptr<hyz::HyzProtocol> positive_;
  std::unique_ptr<hyz::HyzProtocol> negative_;
  hyz::SpanScan span_scan_;
  mutable sim::MessageStats combined_stats_;
};

}  // namespace nmc::baselines
