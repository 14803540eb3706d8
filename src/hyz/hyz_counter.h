#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/geometric_skip.h"
#include "common/rng.h"
#include "sim/channel.h"
#include "sim/network.h"
#include "sim/protocol.h"

namespace nmc::hyz {

/// Reporting strategy within a round.
enum class HyzMode {
  /// Randomized per-update sampling with the unbiased gap correction
  /// (the counter of [12]; cost ~ (sqrt(k L) + L)/eps per round).
  kSampled,
  /// Deterministic thresholds: a site reports whenever its in-round count
  /// grows by eps*n_r/(2k), leaving total residual < eps*n_r/2 with
  /// certainty (cost ~ 2k/eps per round). This is the flavor of strategy
  /// [12] uses in its large-k regime; cheaper than sampling while
  /// k = O(log(1/delta)).
  kDeterministic,
};

/// Parameters of the HYZ monotonic counter.
struct HyzOptions {
  HyzMode mode = HyzMode::kSampled;
  /// Relative accuracy guarantee.
  double epsilon = 0.1;
  /// Failure probability target; the sampling rate scales with
  /// sqrt(log(2/delta)).
  double delta = 1e-6;
  /// Test reference only. kGeometricSkip (the default, and the only
  /// production sampler) consumes a whole inter-report run per gap draw:
  /// the kSampled rate is frozen between round broadcasts. kPerCoin flips
  /// one Bernoulli coin per increment — the per-coin distribution the
  /// equivalence tests compare the skip sampler against. kDeterministic
  /// needs no coins and fast-forwards either way.
  common::SamplerMode sampler = common::SamplerMode::kGeometricSkip;

  /// Offset added to the tracked count: Estimate() returns
  /// initial_total + (count of increments seen). Used when HYZ is started
  /// mid-stream from an exact snapshot (Phase 2 of the non-monotonic
  /// counter).
  int64_t initial_total = 0;

  /// Fault model of the star network (default: perfect, bit-identical to
  /// the historical reliable network). Under a faulty channel the counter
  /// processes increments one at a time in simulated-tick time, survives
  /// dropped / delayed / duplicated messages (collect rounds are epoch-
  /// tagged and replies carry lifetime totals, so lost replies lose no
  /// counts), and recovers exactness via Resync().
  sim::ChannelConfig channel;

  uint64_t seed = 1;
};

class HyzProtocol;

/// The interleaved-span scan of every ProcessSpan that feeds HYZ
/// counters: HyzProtocol's own (one counter) and HyzPair's (two). Between
/// reports every HYZ site
/// counts on its own state and RNG, so a span is tallied per slot — one
/// per (site, counter) — against the slot's Headroom until the first
/// update that makes its site report, then handed over as one ProcessRun
/// per touched slot, the reporting slot last. The silent runs cannot
/// message, so the span's only message is its final update's.
///
/// A slot's headroom is queried at its first update in the span, the
/// moment the per-update feed would first touch that HYZ site, so a
/// sampled site draws its gap exactly when it would have anyway. Asking
/// earlier could draw a gap that no update of the span uses; another
/// site's report could then start a new round, discard it and shift that
/// site's RNG stream.
class SpanScan {
 public:
  /// Slots for `num_sites` sites of each of `num_counters` (1 or 2)
  /// counters, allocated here once.
  SpanScan(int num_sites, int num_counters);

  /// Consumes a prefix of the non-empty span (`sites[i]` receives
  /// `values[i]`) on perfect channels, stopping right after the first
  /// update that reports; returns the count consumed. With one counter
  /// every value must be +1; with two, +1 goes to counters[0] and -1 to
  /// counters[1] as a unit increment.
  int64_t Consume(std::span<HyzProtocol* const> counters,
                  std::span<const int> sites, std::span<const double> values);

 private:
  // At rest between calls: room -1 (not queried), nothing taken.
  struct Slot {
    int64_t room = -1;
    int64_t taken = 0;
  };
  int num_counters_;
  std::vector<Slot> slots_;   // slots_[num_counters * site + counter]
  std::vector<int> touched_;  // slots a call touched, in first-touch order
};

/// The randomized monotonic distributed counter of Huang, Yi and Zhang
/// ("Randomized algorithms for tracking distributed count, frequencies,
/// and ranks", arXiv:1108.3413), reconstructed from its published
/// description. It tracks the number of unit increments across k sites
/// within relative accuracy epsilon w.h.p. at expected communication cost
/// O((sqrt(k)/eps + k) * log n):
///
///   * Rounds: a round begins with the coordinator knowing the exact count
///     n_r (collected with Theta(k) messages) and broadcasting a sampling
///     probability p_r ~ (sqrt(k L) + L) / (eps * n_r), L = log(1/delta)
///     (the additive L term covers the geometric residuals' heavy single-
///     site tail, which dominates for k = O(L)).
///   * Within a round, a site receiving an increment reports its in-round
///     local count with probability p_r. The coordinator's per-site
///     estimator  (last reported count) + 1/p - 1  (0 if the site never
///     reported) is exactly unbiased — the unreported tail is geometric —
///     with variance <= (1-p)/p^2, so the k-site estimate concentrates
///     within eps * n_r.
///   * When the estimate doubles, the coordinator collects exact counts and
///     starts the next round; there are O(log n) rounds.
///
/// Used both standalone (the monotonic special case mu = 1, experiment E11)
/// and as the Phase-2 building block of the non-monotonic counter.
class HyzProtocol : public sim::Protocol {
 public:
  HyzProtocol(int num_sites, const HyzOptions& options);
  ~HyzProtocol() override;

  int num_sites() const override;

  /// `value` must be +1: this is a monotonic counter of unit increments.
  void ProcessUpdate(int site_id, double value) override;

  /// Batched form (every value must be +1): consumes a non-empty prefix,
  /// stopping right after the first increment that emits a message, and
  /// returns the count consumed (see the Protocol::ProcessBatch contract).
  int64_t ProcessBatch(int site_id, std::span<const double> values) override;

  /// Feeds an interleaved span (see the Protocol::ProcessSpan contract;
  /// every value must be +1) through a SpanScan. A span that opens on one
  /// site hands its whole same-site run to ProcessBatch; a faulty channel
  /// takes one update per call.
  int64_t ProcessSpan(std::span<const int> sites,
                      std::span<const double> values) override;

  /// Value-free form of ProcessBatch for callers that already know the
  /// run is `count` unit increments (HyzPair, which splits a run by
  /// sign): identical semantics without touching the values.
  int64_t ProcessRun(int site_id, int64_t count);

  /// Increments `site_id` can absorb before its next report: on a perfect
  /// channel, ProcessRun(site_id, count) is silent and consumes all of
  /// `count` iff count <= Headroom(site_id), and otherwise consumes
  /// Headroom(site_id) + 1 and reports. In the sampled mode the query
  /// draws the site's next inter-report gap if none is cached — exactly
  /// the draw its next increment would make — so it leaves the RNG stream
  /// unchanged only if an increment reaches this site before a broadcast
  /// invalidates that gap. The per-coin reference sampler has not flipped
  /// its next coin yet and answers 0, a lower bound: its next increment
  /// may or may not report.
  int64_t Headroom(int site_id);

  /// Whether the network runs a faulty channel, where ProcessRun takes
  /// one increment per call and Headroom promises nothing.
  bool channeled() const { return network_.channeled(); }

  double Estimate() const override;

  const sim::MessageStats& stats() const override;

  /// Fault recovery (see Protocol::Resync): forces a fresh epoch-tagged
  /// collect round, abandoning any round stuck on lost replies. If the
  /// resync traffic is delivered intact, Estimate() is exact afterwards.
  bool Resync() override;

  /// Taps the network (see sim::Network::SetObserver) — used by the
  /// skip-vs-coins equivalence tests to histogram inter-report gaps.
  void SetMessageObserver(
      std::function<void(const sim::Network::SentMessage&)> observer) {
    network_.SetObserver(std::move(observer));
  }

  /// Current round's sampling probability (exposed for tests/ablations).
  double current_rate() const;
  /// Number of completed round transitions.
  int64_t rounds() const;

 private:
  class Site;
  class Coordinator;

  sim::Network network_;
  std::unique_ptr<Coordinator> coordinator_;
  std::vector<std::unique_ptr<Site>> sites_;

  SpanScan span_scan_;
};

/// The ±1 pair of Section 3.2: two HYZ counters, one counting the +1
/// updates and one the -1 updates (each as a unit increment), whose
/// estimates' difference tracks the sum. At accuracy Theta(eps |mu_hat|)
/// it is Phase 2 of the non-monotonic counter; at accuracy eps it is the
/// naive-difference baseline two_monotonic. Requires ±1 updates.
///
/// The overrides are final, so calls through a HyzPair bind statically;
/// a subclass only supplies constructor arguments.
class HyzPair : public sim::Protocol {
 public:
  /// Both counters run `options` on separate networks, except: the first
  /// two draws of Rng(seed) seed the + and the - counter, their channels
  /// take seeds options.channel.seed + 1 and + 2 (independent fault
  /// patterns; unused on the perfect channel), and they start from the
  /// totals `positive_total` and `negative_total`.
  HyzPair(int num_sites, const HyzOptions& options, uint64_t seed,
          int64_t positive_total, int64_t negative_total);

  int num_sites() const final;
  void ProcessUpdate(int site_id, double value) final;

  /// A same-site run of mixed signs, scanned in blocks against both
  /// counters' headrooms (each sign's is queried at that sign's first
  /// update, so the RNG draw order matches per-update feeding) and handed
  /// over as at most one ProcessRun per sign, the reporting sign last (see
  /// the Protocol::ProcessBatch contract). One update, or any call under a
  /// faulty channel, goes straight to the counter of its sign.
  int64_t ProcessBatch(int site_id, std::span<const double> values) final;

  /// An interleaved span (see the Protocol::ProcessSpan contract) through
  /// a SpanScan over the pair, one slot per (site, sign). A span that
  /// opens on one site hands its whole same-site run to ProcessBatch; a
  /// faulty channel takes one update per call.
  int64_t ProcessSpan(std::span<const int> sites,
                      std::span<const double> values) final;

  double Estimate() const final;
  const sim::MessageStats& stats() const final;
  bool Resync() final;

 private:
  HyzProtocol positive_;
  HyzProtocol negative_;
  SpanScan span_scan_;
  mutable sim::MessageStats combined_stats_;
};

}  // namespace nmc::hyz

