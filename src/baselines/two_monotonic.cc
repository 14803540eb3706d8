#include "baselines/two_monotonic.h"

namespace nmc::baselines {

TwoMonotonicProtocol::TwoMonotonicProtocol(int num_sites, double epsilon,
                                           double delta, uint64_t seed,
                                           const sim::ChannelConfig& channel)
    : hyz::HyzPair(num_sites,
                   hyz::HyzOptions{
                       .epsilon = epsilon, .delta = delta, .channel = channel},
                   seed, /*positive_total=*/0, /*negative_total=*/0) {}

}  // namespace nmc::baselines
