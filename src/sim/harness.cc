#include "sim/harness.h"

#include <algorithm>

#include "common/batch_ops.h"
#include "common/check.h"

namespace nmc::sim {

namespace {

/// Loop state threaded through PumpChunk so the two RunTracking overloads
/// share one hot loop.
struct PumpState {
  TrackingResult result;
  double sum = 0.0;
  int64_t t = 0;               // items consumed so far
  int64_t curve_stride = 0;    // 0 = no curve
  double estimate = 0.0;       // protocol estimate after the last update
  std::vector<int> sites;      // psi's choices for the current chunk
};

/// Aborts unless every site lies in [0, num_sites). One branch-free pass;
/// the per-entry checks run only to name the offending value.
void CheckSites(std::span<const int> sites, int num_sites) {
  const auto k = static_cast<unsigned>(num_sites);
  bool out_of_range = false;
  for (const int s : sites) out_of_range |= static_cast<unsigned>(s) >= k;
  if (!out_of_range) return;
  for (const int s : sites) {
    NMC_CHECK_GE(s, 0);
    NMC_CHECK_LT(s, num_sites);
  }
}

/// Pumps one contiguous chunk of the stream: fills the chunk's site array
/// once (NextSite exactly once per t, in order), then hands the rest of
/// the chunk to Protocol::ProcessSpan until it is consumed. The tracking
/// invariant for a call's silent prefix is checked against the cached
/// estimate (the ProcessSpan contract guarantees it cannot have changed),
/// so the virtual Estimate() call is paid once per call, not once per
/// item. `num_sites` is protocol->num_sites(), hoisted by the callers: the
/// virtual call is loop-invariant but the compiler cannot prove it, and
/// PumpChunk runs once per batch.
void PumpChunk(std::span<const double> chunk, AssignmentPolicy* psi,
               Protocol* protocol, int num_sites,
               const TrackingOptions& options, PumpState* state) {
  const int64_t len = static_cast<int64_t>(chunk.size());
  const bool record_curve = state->curve_stride > 0;
  const std::span<int> sites(state->sites.data(), chunk.size());
  // A single-site protocol keeps the zeros the buffer was built with.
  if (num_sites > 1) {
    psi->FillSites(state->t, chunk, sites);
    CheckSites(sites, num_sites);
  }

  for (int64_t pos = 0; pos < len;) {
    // Messages before the call: a curve point landing in its silent
    // prefix must not count the message its final update sends (the
    // per-update pump would not have sent it yet at that step). Probed
    // only when a curve is recorded — it is the sole consumer, and the
    // stats() call is not free for protocols that aggregate.
    const int64_t messages_before =
        record_curve ? protocol->stats().total() : 0;
    const int64_t consumed = protocol->ProcessSpan(
        std::span<const int>(sites).subspan(static_cast<size_t>(pos)),
        chunk.subspan(static_cast<size_t>(pos)));
    NMC_CHECK_GE(consumed, 1);
    NMC_CHECK_LE(consumed, len - pos);
    if (!record_curve && consumed >= 8) {
      // Vectorized invariant check over the call's silent prefix: the
      // estimate is frozen there (ProcessSpan contract), so the j-loop
      // below degenerates to a prefix-sum scan against a constant —
      // exactly CheckUnitPrefix. The kernel only accepts ±1 runs with an
      // integer running sum (where its regrouped additions are bit-exact),
      // and mirrors the loop's violation / max-rel-error updates
      // operation for operation, so TrackingResult is bit-identical
      // whether or not this path fires.
      common::PrefixCheckResult prefix;
      if (common::CheckUnitPrefix(
              chunk.subspan(static_cast<size_t>(pos),
                            static_cast<size_t>(consumed - 1)),
              state->sum, state->estimate, options.epsilon,
              kTrackingAbsoluteSlack, options.rel_error_floor,
              state->result.max_rel_error, &prefix)) {
        state->sum = prefix.final_sum;
        state->result.violation_steps += prefix.violations;
        state->result.max_rel_error =
            std::max(state->result.max_rel_error, prefix.max_rel_error);
        // The call's final update is the one that may have messaged:
        // refresh the estimate and check it the scalar way.
        state->sum += chunk[static_cast<size_t>(pos + consumed - 1)];
        state->estimate = protocol->Estimate();
        CheckTrackingStep(state->estimate, state->sum, options.epsilon,
                          options.rel_error_floor,
                          &state->result.violation_steps,
                          &state->result.max_rel_error);
        pos += consumed;
        continue;
      }
    }
    for (int64_t j = 0; j < consumed; ++j) {
      state->sum += chunk[static_cast<size_t>(pos + j)];
      if (j == consumed - 1) state->estimate = protocol->Estimate();
      CheckTrackingStep(state->estimate, state->sum, options.epsilon,
                        options.rel_error_floor,
                        &state->result.violation_steps,
                        &state->result.max_rel_error);
      if (record_curve) {
        const int64_t done = state->t + pos + j + 1;
        if (done % state->curve_stride == 0 || done == state->result.n) {
          state->result.curve.push_back(CurvePoint{
              done,
              j == consumed - 1 ? protocol->stats().total() : messages_before,
              state->sum, state->estimate});
        }
      }
    }
    pos += consumed;
  }
  state->t += len;
}

PumpState InitPumpState(int64_t n, Protocol* protocol,
                        const TrackingOptions& options) {
  NMC_CHECK(protocol != nullptr);
  NMC_CHECK_GT(options.epsilon, 0.0);
  NMC_CHECK_GE(options.batch_size, 1);

  PumpState state;
  state.result.n = n;
  state.sites.assign(static_cast<size_t>(options.batch_size), 0);
  state.estimate = protocol->Estimate();
  state.curve_stride =
      options.curve_points > 0 ? std::max<int64_t>(1, n / options.curve_points)
                               : 0;
  if (state.curve_stride > 0) {
    // One point per stride plus the forced final point; +2 absorbs the
    // rounding so the push_back loop below never reallocates.
    state.result.curve.reserve(
        static_cast<size_t>(n / state.curve_stride + 2));
  }
  return state;
}

TrackingResult FinishPump(Protocol* protocol, PumpState* state) {
  NMC_CHECK_EQ(state->t, state->result.n);
  state->result.messages = protocol->stats().total();
  state->result.broadcasts = protocol->stats().broadcasts;
  state->result.final_sum = state->sum;
  state->result.final_estimate = protocol->Estimate();
  return std::move(state->result);
}

}  // namespace

TrackingResult RunTracking(const std::vector<double>& stream,
                           AssignmentPolicy* psi, Protocol* protocol,
                           const TrackingOptions& options) {
  NMC_CHECK(psi != nullptr);
  PumpState state =
      InitPumpState(static_cast<int64_t>(stream.size()), protocol, options);
  const std::span<const double> all(stream);
  const size_t batch = static_cast<size_t>(options.batch_size);
  const int num_sites = protocol->num_sites();
  for (size_t offset = 0; offset < all.size(); offset += batch) {
    PumpChunk(all.subspan(offset, std::min(batch, all.size() - offset)), psi,
              protocol, num_sites, options, &state);
  }
  return FinishPump(protocol, &state);
}

TrackingResult RunTracking(StreamSource* source, AssignmentPolicy* psi,
                           Protocol* protocol, const TrackingOptions& options) {
  NMC_CHECK(source != nullptr);
  NMC_CHECK(psi != nullptr);
  PumpState state = InitPumpState(source->length(), protocol, options);
  std::vector<double> buffer(static_cast<size_t>(options.batch_size));
  const int num_sites = protocol->num_sites();
  int64_t filled;
  while ((filled = source->FillChunk(buffer)) > 0) {
    PumpChunk(std::span<const double>(buffer.data(),
                                      static_cast<size_t>(filled)),
              psi, protocol, num_sites, options, &state);
  }
  return FinishPump(protocol, &state);
}

}  // namespace nmc::sim
