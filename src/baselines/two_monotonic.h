#pragma once

#include <cstdint>

#include "hyz/hyz_counter.h"
#include "sim/channel.h"

namespace nmc::baselines {

/// The "naive difference" approach the paper's introduction warns about:
/// track the positive updates and the negative updates with two
/// independent monotonic (HYZ) counters of accuracy epsilon each and
/// report the difference. Each counter is individually within epsilon of
/// P resp. N, but the difference carries absolute error up to
/// epsilon*(P+N) = epsilon*t, so its RELATIVE error against S = P - N is
/// unbounded whenever |S| << t (e.g. balanced voting). Requires ±1
/// updates. It is the counter's Phase-2 pair (hyz::HyzPair) run from the
/// first update at accuracy epsilon.
class TwoMonotonicProtocol final : public hyz::HyzPair {
 public:
  TwoMonotonicProtocol(int num_sites, double epsilon, double delta,
                       uint64_t seed,
                       const sim::ChannelConfig& channel = {});
};

}  // namespace nmc::baselines
