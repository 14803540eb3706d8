#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>

#include "common/batch_rng.h"
#include "common/check.h"
#include "common/rng.h"

namespace nmc::common {

/// How a protocol realizes its per-update Bernoulli report coins.
enum class SamplerMode {
  /// Fast-forward: draw the gap to the next report as a geometric variate
  /// (one uniform per inter-report run) and consume the silent updates in
  /// bulk. The production sampler.
  kGeometricSkip,
  /// One Bernoulli coin per update: the distributional reference the
  /// equivalence tests compare the skip sampler against. Same law, a
  /// different RNG consumption pattern, so fixed-seed transcripts differ.
  kPerCoin,
};

/// Vitter-style skip sampler: for a Bernoulli(p) coin sequence with a
/// frozen rate p, the number of tails before the next head is
/// Geometric(p), so a site can consume a whole inter-report run in O(1)
/// instead of flipping O(gap) coins. The cached gap stays valid only
/// while the rate it was drawn at still applies; the owner must call
/// Invalidate() whenever a broadcast (or any other state change) moves
/// the rate. Header-only so that nmc_hyz can use it without linking
/// nmc_core.
///
/// Rates that drift *downward* between invalidations (e.g. the decaying
/// drift-guard term) are handled by thinning: draw the gap at a
/// dominating rate `dom >= p_t`, then accept each candidate with
/// probability p_t / dom — the compound is exactly Bernoulli(p_t) per
/// update. Memorylessness makes it exact to discard a partially consumed
/// gap at any boundary that is deterministic given the coins already
/// realized (a chunk-span expiry or an incoming broadcast).
class GeometricSkip {
 public:
  /// Sentinel for "no report will ever fire at this rate" (p <= 0). Half
  /// of the int64 range so Advance() arithmetic cannot overflow.
  static constexpr int64_t kInfiniteGap =
      std::numeric_limits<int64_t>::max() / 2;

  /// Opt-in bulk gap feed: with a BatchRng attached, EnsureGap draws from
  /// vector-generated blocks instead of one scalar transcendental per
  /// run. The feed only pre-draws a block once the same rate is requested
  /// twice in a row, so rate ladders (the single-site chunk walk, where
  /// every draw is at a fresh rate) never waste bulk draws, while
  /// frozen-rate consumers (HYZ rounds, SBC stages) amortize one log1p
  /// over up to kFeedBlockGaps draws. Pre-drawn gaps are discarded on any
  /// rate change — exact by memorylessness, since the discard decision
  /// never looks at the unexamined values. Attaching a feed reorders RNG
  /// consumption, so fixed-seed transcripts depend on whether one is
  /// attached. The pointer is non-owning and must outlive the sampler. The first attach allocates the block storage once — a
  /// setup-time allocation; the serve path itself never allocates.
  void AttachBatchRng(common::BatchRng* batch) {
    batch_ = batch;
    if (batch != nullptr && feed_store_ == nullptr) {
      feed_store_ = std::make_unique<FeedBlock>();
    }
  }

  /// Cap on gaps pre-drawn per block. Blocks start at kFeedFirstBlockGaps
  /// on the first repeat of a rate and grow by kFeedBlockGrowth per refill
  /// up to this cap: truly frozen-rate consumers reach full amortization
  /// (a small fraction of a nanosecond of fill fixed costs per gap) within
  /// three refills, while consumers whose rate drifts every few dozen
  /// draws (the single-site chunk walk between restarts) never pre-draw —
  /// and so never discard — more than they plausibly use. Discards are
  /// free in distribution by memorylessness; the growth schedule only
  /// bounds the wasted fill work.
  ///
  /// The block lives behind a pointer (one setup-time allocation at
  /// AttachBatchRng) rather than inline, deliberately: the refill hands a
  /// span over the block to the out-of-line fill, and if that span were
  /// derived from `this` the compiler would have to assume the call can
  /// touch every member, forcing the serve cursor through memory on each
  /// draw. With the storage external, a sampler that lives in a tight
  /// local loop keeps its cursor in registers between refills — worth
  /// about 2 ns/draw on the serve fast path.
  static constexpr int kFeedBlockGaps = 256;
  static constexpr int kFeedFirstBlockGaps = 8;
  static constexpr int kFeedBlockGrowth = 4;

  /// Gap to the next head of a Bernoulli(p) sequence:
  /// floor(log1p(-U)/log1p(-p)) with U uniform on [0, 1). Matches
  /// Rng::Bernoulli's clamps (p >= 1 reports immediately and p <= 0
  /// never reports, neither consuming randomness) and clamps the cast so
  /// a tiny p cannot overflow int64 (UB on the raw cast).
  // nmc: reentrant
  static int64_t DrawGap(common::Rng* rng, double p) {
    if (p >= 1.0) return 0;
    if (p <= 0.0) return kInfiniteGap;
    const double u = 1.0 - rng->UniformDouble();  // in (0, 1]
    const double gap = std::floor(std::log(u) / std::log1p(-p));
    if (!(gap < static_cast<double>(kInfiniteGap))) return kInfiniteGap;
    return static_cast<int64_t>(gap);
  }

  bool valid() const { return valid_; }

  /// Discards the cached gap. Must be called whenever the (dominating)
  /// rate the gap was drawn at stops applying.
  void Invalidate() { valid_ = false; }

  /// Draws a fresh gap at `rate` unless one is already cached. Repeated
  /// draws at one rate (thinning redraws, chunked domination) reuse the
  /// memoized log1p(-rate), halving the transcendental cost per draw;
  /// the drawn value is bit-identical to DrawGap either way.
  void EnsureGap(common::Rng* rng, double rate) {
    if (valid_) return;
    if (rate == feed_rate_) {
      // Hottest path — a frozen-rate feed consumer. feed_rate_ is only
      // ever set by a feed draw, so a match implies an attached BatchRng
      // and a non-degenerate rate; the degenerate checks below are
      // skipped without being weakened.
      ServeFromFeedBlock();
      valid_ = true;
      return;
    }
    if (rate >= 1.0) {
      gap_ = 0;
    } else if (rate <= 0.0) {
      gap_ = kInfiniteGap;
    } else if (batch_ != nullptr) {
      EnsureGapFromFeed(rate);
    } else {
      if (rate != memo_rate_) {
        memo_rate_ = rate;
        // nmc-lint: allow(NO_PER_UPDATE_TRANSCENDENTALS) memoized: one log1p per rate change, reused for every gap drawn at that rate
        memo_log_q_ = std::log1p(-rate);
      }
      const double u = 1.0 - rng->UniformDouble();  // in (0, 1]
      // nmc-lint: allow(NO_PER_UPDATE_TRANSCENDENTALS) one log per *drawn gap*, amortized over the gap's length — the geometric skip exists precisely to replace per-update coin flips with this single draw
      const double gap = std::floor(std::log(u) / memo_log_q_);
      gap_ = gap < static_cast<double>(kInfiniteGap)
                 ? static_cast<int64_t>(gap)
                 : kInfiniteGap;
    }
    valid_ = true;
  }

  /// Updates left before the next candidate. Only meaningful while
  /// valid().
  int64_t gap() const {
    NMC_CHECK(valid_);
    return gap_;
  }

  /// Consumes `steps` candidate-free updates (steps <= gap()).
  void Advance(int64_t steps) {
    NMC_CHECK(valid_);
    NMC_CHECK_GE(steps, 0);
    NMC_CHECK_LE(steps, gap_);
    gap_ -= steps;
  }

  /// Consumes the candidate update itself (requires gap() == 0); the next
  /// EnsureGap starts a fresh inter-report run.
  void TakeCandidate() {
    NMC_CHECK(valid_);
    NMC_CHECK_EQ(gap_, 0);
    valid_ = false;
  }

  /// Fused whole-run draw for frozen-rate consumers: draws a gap at
  /// `rate` unless one is cached, consumes the silent stretch *and* the
  /// candidate, and returns the stretch length. Exactly EnsureGap +
  /// gap() + Advance(gap()) + TakeCandidate(), minus the per-call
  /// bookkeeping — the cached-gap checks collapse after inlining, which
  /// matters at vector-feed draw rates. A kInfiniteGap return means no
  /// candidate ever fires at this rate (the caller must not treat the
  /// sentinel as a consumed candidate).
  int64_t TakeRun(common::Rng* rng, double rate) {
    // Fast path: no cached gap, the rate matches the feed, and the block
    // still has entries — serve straight from the array without touching
    // gap_/valid_ (their stores are dead here: valid_ is false before and
    // after, and gap_ is only read through the valid_-guarded accessors).
    if (!valid_ && rate == feed_rate_ && feed_pos_ != feed_len_) {
      return (*feed_store_)[static_cast<size_t>(feed_pos_++)];
    }
    EnsureGap(rng, rate);
    valid_ = false;
    return gap_;
  }

 private:
  /// Repeat-rate feed draw: serve the next pre-drawn gap, refilling a
  /// block (at the current rung of the growth schedule) when the previous
  /// one is spent.
  void ServeFromFeedBlock() {
    if (feed_pos_ == feed_len_) {
      batch_->FillGeometricGaps(
          std::span<int64_t>(feed_store_->data(),
                             static_cast<size_t>(feed_fill_)),
          feed_rate_);
      feed_len_ = feed_fill_;
      feed_pos_ = 0;
      feed_fill_ = std::min(feed_fill_ * kFeedBlockGrowth, kFeedBlockGaps);
    }
    gap_ = (*feed_store_)[static_cast<size_t>(feed_pos_++)];
  }

  /// Feed-backed gap draw for a non-degenerate rate. The block refill
  /// fires only on the second consecutive same-rate request; a fresh rate
  /// costs one single-gap draw, exactly like the scalar path.
  void EnsureGapFromFeed(double rate) {
    if (rate == feed_rate_) {
      ServeFromFeedBlock();
      return;
    }
    feed_rate_ = rate;
    feed_pos_ = 0;
    feed_len_ = 0;
    feed_fill_ = kFeedFirstBlockGaps;
    int64_t single = 0;
    batch_->FillGeometricGaps(std::span<int64_t>(&single, 1), rate);
    gap_ = single;
  }

  bool valid_ = false;
  int64_t gap_ = 0;
  /// Memoized log1p(-memo_rate_) for EnsureGap (kept across Invalidate:
  /// the memo depends only on the rate value, not on gap validity).
  double memo_rate_ = -1.0;
  double memo_log_q_ = 0.0;
  /// Bulk feed state (see AttachBatchRng). *feed_store_ holds pre-drawn
  /// gaps at feed_rate_; entries feed_pos_..feed_len_-1 are still
  /// unconsumed. The feed paths are only reachable once a feed rate has
  /// been recorded, which implies an attached BatchRng and therefore a
  /// live feed_store_.
  using FeedBlock = std::array<int64_t, kFeedBlockGaps>;
  common::BatchRng* batch_ = nullptr;
  double feed_rate_ = -1.0;
  int feed_pos_ = 0;
  int feed_len_ = 0;
  int feed_fill_ = kFeedFirstBlockGaps;  // next refill size (growth rung)
  std::unique_ptr<FeedBlock> feed_store_;
};

}  // namespace nmc::common
