#include "core/nonmonotonic_counter.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/batch_ops.h"
#include "common/check.h"
#include "common/geometric_skip.h"
#include "common/rng.h"
#include "core/sampling.h"

namespace nmc::core {

namespace {

enum MessageType {
  kSyncRequest = 1,    // site -> coord: SBC coin came up heads
  kCollect = 2,        // coord -> all: request local totals
  kCollectReply = 3,   // site -> coord: u = #updates, a = sum, b = sum sq
  kState = 4,          // coord -> site(s): a = S_hat, u = t_hat, v = stage,
                       //                   b = variance rate scale
  kStraightReport = 5, // site -> coord: u = #updates, a = sum, b = sum sq
  kExactReport = 6,    // site -> coord (k == 1 fast path): same payload
  kPhase2 = 7,         // coord -> all: switch to the HYZ pair
};

constexpr int64_t kStageStraight = 0;
constexpr int64_t kStageSbc = 1;

/// Fraction of |s| a single-site fast-forward chunk may span: the
/// dominating rate is evaluated at |s| * (1 - 1/kChunkDivisor), so the
/// acceptance probability of a thinned candidate stays >=
/// ((kChunkDivisor-1)/kChunkDivisor)^2 ~ 0.77 while a chunk restart is
/// amortized over |s|/kChunkDivisor updates.
constexpr double kChunkDivisor = 8.0;

/// Eq. (2) constant alpha_delta (paper: c(2(c+1))^{delta/2}, c > 3/2).
constexpr double kFbmAlpha = 2.0;

/// Drift-guard rate = c log(n)/(eps t): a drift-dominated escape takes
/// ~eps*t steps, so the per-window failure is ~n^{-c}; c = 2 matches the
/// 1/n^2 per-event budget of the walk law.
constexpr double kDriftGuardC = 2.0;

/// GPSearch target accuracy for mu_hat.
constexpr double kGpEpsilon0 = 0.25;

/// Phase-2 HYZ counters run at eps_h = max(kPhase2EpsFraction * eps *
/// |mu_hat|, 1e-5): the error budget eps_h * t must fit in eps * |S_t|
/// ~= eps * |mu| * t.
constexpr double kPhase2EpsFraction = 0.25;

/// Phase-2 HYZ failure probability is kPhase2DeltaScale / n^2 (paper:
/// Theta(1/n^2)).
constexpr double kPhase2DeltaScale = 1.0;

// Rate scale from the mean square of the updates seen so far. The eq. (1)
// first-passage calibration assumes ±1 steps; steps of variance m2 take
// 1/m2 times longer to cover the same distance, so the rate may be scaled
// down by m2 (kept conservative with a 2x margin, and never scaled up).
double VarianceScale(const CounterOptions& options, double sum_sq,
                     int64_t updates) {
  if (!options.variance_adaptive || updates <= 0) return 1.0;
  const double mean_sq = sum_sq / static_cast<double>(updates);
  return std::clamp(2.0 * mean_sq, 1e-9, 1.0);
}

// The Phase-1 sampling rate a site evaluates against the shared estimate.
// `scale` (in (0, 1], from VarianceScale) rescales the diffusive term; the
// drift guard is time-based and therefore scale-free. `cache` memoizes the
// walk/fBm term for call sites whose estimate is frozen between broadcasts
// (bit-identical to recomputation).
double Phase1Rate(const CounterOptions& options, double estimate,
                  int64_t t_estimate, double scale,
                  RateCache* cache = nullptr) {
  // Folding the scale into epsilon keeps the min{., 1} clamps intact:
  // scale * alpha log^b / (eps s)^2 == alpha log^b / (eps' s)^2 with
  // eps' = eps / sqrt(scale) (delta-th root in fBm mode). scale == 1.0
  // (every non-variance-adaptive run) short-circuits the pow/sqrt, which
  // is exact: x / sqrt(1.0) == x / pow(1.0, y) == x.
  double rate;
  if (options.fbm_delta > 0.0) {
    const double eps_eff =
        scale == 1.0
            ? options.epsilon
            // nmc-lint: allow(NO_PER_UPDATE_TRANSCENDENTALS) runs only in variance-adaptive runs (scale != 1.0) when the scale actually changed; the resulting rate is memoized in the RateCache
            : options.epsilon / std::pow(scale, 1.0 / options.fbm_delta);
    const auto compute = [&] {
      return FbmRate(estimate, eps_eff, options.horizon_n, options.fbm_delta,
                     kFbmAlpha);
    };
    rate = cache != nullptr ? cache->Get(estimate, eps_eff, compute)
                            : compute();
  } else {
    const double eps_eff =
        scale == 1.0 ? options.epsilon : options.epsilon / std::sqrt(scale);
    const auto compute = [&] {
      return RandomWalkRate(estimate, eps_eff, options.horizon_n,
                            options.alpha, options.beta);
    };
    rate = cache != nullptr ? cache->Get(estimate, eps_eff, compute)
                            : compute();
  }
  if (options.enable_drift_guard) {
    rate = std::max(rate, DriftGuardRate(t_estimate, options.epsilon,
                                         options.horizon_n, kDriftGuardC));
  }
  return rate;
}

}  // namespace

/// Site-side state machine of Phase 1.
class NonMonotonicCounter::Site final : public sim::SiteNode {
 public:
  Site(int site_id, int num_sites, const CounterOptions& options,
       sim::Network* network, common::Rng rng)
      : site_id_(site_id),
        num_sites_(num_sites),
        options_(options),
        network_(network),
        rng_(rng) {
    if (options_.sampler == common::SamplerMode::kGeometricSkip) {
      // Bulk gap feed for skip-mode draws (seeding consumes one u64 from
      // rng_; the per-coin reference draws no gaps and skips it).
      batch_rng_ = common::BatchRng(rng_.NextU64());
      skip_.AttachBatchRng(&batch_rng_);
    }
    if (num_sites_ == 1) {
      // The single site holds the entire history, including any carried
      // state from a previous horizon epoch.
      local_updates_ = options_.initial_updates;
      local_sum_ = options_.initial_sum;
      local_sum_sq_ = options_.initial_sum_sq;
    }
  }

  void OnLocalUpdate(double value) override {
    ConsumeRun(std::span<const double>(&value, 1));
  }

  /// Consumes a prefix of `values` (>= 1 update), stopping immediately
  /// after the first update that emits a message; returns the count
  /// consumed. ProcessUpdate is the count == 1 special case, so batched
  /// and per-update pumping share one state machine and are bit-identical
  /// for every slicing of the stream into runs.
  int64_t ConsumeRun(std::span<const double> values) {
    NMC_CHECK(!phase2_);  // Phase-2 updates are routed to the HYZ pair
    NMC_CHECK(!values.empty());

    if (straight()) {
      // StraightSync: every update is forwarded, so runs cannot be
      // fast-forwarded — each update is a message event. The perfect
      // channel takes the direct step (StraightStep) instead.
      NMC_CHECK(network_->channeled());
      network_->SendToCoordinator(site_id_, StraightReport(values[0]));
      return 1;
    }
    return ConsumeThinned(values);
  }

  /// True when every update of this site is a StraightSync report.
  bool straight() const { return num_sites_ > 1 && !in_sbc_stage_; }

  /// Absorbs one StraightSync update and returns its report.
  sim::Message StraightReport(double value) {
    Absorb(value);
    return Snapshot(kStraightReport);
  }

  /// Silent updates this site (k > 1) absorbs before its next sampling
  /// event — a candidate, the end of its domination span, or in
  /// StraightSync (budget 0) a report — as the per-update feed would
  /// meet it from here: starts the domination span and draws the gap if
  /// the next update would. Returns -1, touching nothing, when the next
  /// `horizon` unit updates could not be tallied exactly (totals outside
  /// the exact-integer range).
  int64_t SilentBudget(int64_t horizon) {
    if (!in_sbc_stage_) return 0;
    if (!SmallTotalsFor(horizon)) return -1;
    if (span_left_ <= 0) Dominate();
    skip_.EnsureGap(&rng_, dom_);
    return std::min(skip_.gap(), span_left_);
  }

  /// Applies `count` silent unit updates summing to `net`, all within the
  /// budget SilentBudget reported: bit-identical to absorbing them one at
  /// a time (the budget certified the exact-integer range).
  void AbsorbSilent(int64_t count, int64_t net) {
    small_budget_ -= count;
    local_updates_ += count;
    local_sum_ += static_cast<double>(net);
    local_sum_sq_ += static_cast<double>(count);
    updates_since_state_ += count;
    span_left_ -= count;
    skip_.Advance(count);
  }

  void OnCoordinatorMessage(const sim::Message& message) override {
    switch (message.type) {
      case kCollect:
        // The epoch rides in u; the reply echoes it so the coordinator can
        // discard replies to abandoned rounds under faulty channels.
        collect_epoch_ = message.u;
        SendSnapshot(kCollectReply);
        break;
      case kState:
        ApplyState(message);
        break;
      case kPhase2:
        phase2_ = true;
        break;
      default:
        NMC_CHECK(false);
    }
  }

  /// A kState: a sync's broadcast or a StraightSync ack.
  void ApplyState(const sim::Message& message) {
    global_estimate_ = message.a;
    global_time_ = message.u;
    in_sbc_stage_ = (message.v == kStageSbc);
    rate_scale_ = message.b;
    updates_since_state_ = 0;
    // The state moved the rate inputs: the dominating rate of the cached
    // inter-report gap no longer applies.
    span_left_ = 0;
  }

  /// Emits one message carrying this site's exact totals (used by the
  /// protocol's ForceSync as well as the regular flows above).
  void SendSnapshot(int type) {
    network_->SendToCoordinator(site_id_, Snapshot(type));
  }

  /// Emits a sync request (ForceSync in the SBC stage).
  void SendSyncRequest() {
    sim::Message m;
    m.type = kSyncRequest;
    network_->SendToCoordinator(site_id_, m);
  }

 private:
  /// A message carrying this site's exact totals. Collect replies also
  /// echo the round epoch in v.
  sim::Message Snapshot(int type) const {
    sim::Message m;
    m.type = type;
    m.u = local_updates_;
    m.a = local_sum_;
    m.b = local_sum_sq_;
    if (type == kCollectReply) m.v = collect_epoch_;
    return m;
  }

  /// Applies one update to the local totals (the per-update bookkeeping
  /// every path shares, coins or not).
  void Absorb(double value) {
    // The discrete models assume bounded updates in [-1, 1]; fBm mode
    // feeds Gaussian (unbounded) increments, per Section 3.4.
    if (options_.fbm_delta == 0.0) NMC_CHECK_LE(std::fabs(value), 1.0);
    if (options_.drift_mode == DriftMode::kUnknownUnitDrift) {
      NMC_CHECK_EQ(std::fabs(value), 1.0);
    }
    ++local_updates_;
    local_sum_ += value;
    local_sum_sq_ += value * value;
    ++updates_since_state_;
    // A scalar update may be fractional or push the totals toward the
    // exact-integer limit: drop the banked small-totals certificate and
    // let the next bulk run revalidate (one store; no branch).
    small_budget_ = 0;
  }

  /// True when x is an integer far enough below 2^51 that `margin` more
  /// unit steps keep every intermediate exactly representable — the gate
  /// that makes the bulk path below bit-identical to the scalar loop.
  static bool SmallInteger(double x, double margin) {
    return x == std::floor(x) && std::fabs(x) + margin < 0x1.0p51;
  }

  /// Validation margin banked by a successful small-totals test: one test
  /// certifies the next ~2^20 unit updates (any scalar Absorb voids the
  /// bank), so consecutive bulk runs pay one integer compare instead of
  /// two floor tests each. Small against 2^51, so banking it never
  /// excludes a run the per-call test would have admitted in practice.
  static constexpr double kSmallBudgetMargin = 0x1.0p20;

  /// True when both totals are integers far enough below 2^51 that `n`
  /// more unit steps stay exactly representable. Prefers the banked
  /// certificate; a revalidation banks the larger margin when it passes.
  /// Conservative only: a false here merely routes the run to the scalar
  /// loop, which is bit-identical to the bulk path whenever both apply.
  bool SmallTotalsFor(int64_t n) {
    if (small_budget_ >= n) return true;
    const double margin = std::max(static_cast<double>(n), kSmallBudgetMargin);
    if (SmallInteger(local_sum_, margin) &&
        SmallInteger(local_sum_sq_, margin)) {
      small_budget_ = static_cast<int64_t>(margin);
      return true;
    }
    return false;
  }

  void AbsorbRun(std::span<const double> values) {
    // Bulk path for ±1 runs: with integer totals in the exact range,
    // grouped additions of ±1 are bit-identical to the per-update loop
    // (every intermediate is an exactly-representable integer), so
    // batch-size invariance survives. The tally also subsumes Absorb's
    // per-update range checks — all-unit implies |v| == 1. Non-unit or
    // non-integer-total runs (fBm, fractional streams) fall through.
    const int64_t n = static_cast<int64_t>(values.size());
    if (n >= 4 && SmallTotalsFor(n)) {
      const common::SignTally tally = common::TallySigns(values);
      if (tally.all_unit) {
        small_budget_ -= n;
        local_updates_ += n;
        local_sum_ += static_cast<double>(tally.plus - tally.minus);
        local_sum_sq_ += static_cast<double>(n);
        updates_since_state_ += n;
        return;
      }
    }
    for (const double value : values) Absorb(value);
  }

  /// Phase 1's one sampling rule, eq. (1)/(2): each update fires a report
  /// with probability rate_t. Candidates come from geometric gaps drawn at
  /// a dominating rate dom_ >= rate_t that holds for the next span_left_
  /// updates, and each candidate is accepted with probability
  /// rate_t / dom_, which makes every update an exact Bernoulli(rate_t)
  /// trial. Discarding a partially consumed gap when the span expires is
  /// exact by memorylessness. Dominate(), CandidateRate() and Report()
  /// are all that differ between the single-site, SBC and per-coin forms.
  int64_t ConsumeThinned(std::span<const double> values) {
    const int64_t count = static_cast<int64_t>(values.size());
    // Whole-run fast path: a cached gap that covers the run inside the
    // live domination span absorbs it in one shot. Exactly the loop below
    // with m == count — EnsureGap is a no-op on a valid gap and the
    // candidate branch is unreachable — minus the min/branch bookkeeping,
    // which is most of the per-call cost at small pump batch sizes.
    if (span_left_ >= count && skip_.valid() && skip_.gap() >= count) {
      AbsorbRun(values);
      span_left_ -= count;
      skip_.Advance(count);
      return count;
    }
    int64_t consumed = 0;
    while (consumed < count) {
      if (span_left_ <= 0) Dominate();
      skip_.EnsureGap(&rng_, dom_);
      const int64_t m =
          std::min({skip_.gap(), span_left_, count - consumed});
      if (m > 0) {
        AbsorbRun(values.subspan(static_cast<size_t>(consumed),
                                 static_cast<size_t>(m)));
        consumed += m;
        span_left_ -= m;
        skip_.Advance(m);
      }
      if (consumed == count) break;
      if (span_left_ == 0) continue;  // domination span expired
      // gap == 0 within the span: the next update is a candidate.
      Absorb(values[static_cast<size_t>(consumed)]);
      ++consumed;
      --span_left_;
      skip_.TakeCandidate();
      const double rate = CandidateRate();
      // The single-site bound covers |s| and t over the whole chunk and
      // does not involve the report history, so it survives candidates and
      // only the gap is redrawn. SBC re-dominates at every redraw instead:
      // the decaying drift guard makes the next update's rate the tightest
      // bound.
      if (num_sites_ > 1) span_left_ = 0;
      if (rate >= dom_ || rng_.UniformDouble() * dom_ < rate) {
        Report();
        break;
      }
    }
    return consumed;
  }

  /// Starts a domination span: sets dom_ and span_left_.
  void Dominate() {
    skip_.Invalidate();
    if (per_coin_) {
      // Every update is a candidate accepted with probability rate (> 0
      // for finite estimates): exactly the draws of rng_.Bernoulli(rate).
      dom_ = 1.0;
      span_left_ = 1;
    } else if (num_sites_ == 1) {
      // Single site: a chunk of max(1, |s|/kChunkDivisor) updates. Updates
      // are bounded by 1, so |s| >= s_min throughout the chunk and
      // t >= local_updates_ + 1 at its first update: both the walk law
      // (decreasing in |s|) and the drift guard (decreasing in t) are
      // dominated by the rate at (s_min, t + 1).
      const double abs_s = std::fabs(local_sum_);
      span_left_ = std::max<int64_t>(
          static_cast<int64_t>(abs_s / kChunkDivisor), 1);
      const double s_min =
          std::max(abs_s - static_cast<double>(span_left_), 0.0);
      dom_ = Phase1Rate(options_, s_min, local_updates_ + 1, /*scale=*/1.0);
    } else {
      // SBC samples against the last broadcast: the walk/fBm term is
      // frozen until the next kState and the drift guard only decays, so
      // the rate at the next update dominates every later one.
      dom_ = Phase1Rate(options_, global_estimate_,
                        global_time_ + updates_since_state_ + 1, rate_scale_,
                        &walk_cache_);
      span_left_ = common::GeometricSkip::kInfiniteGap;
    }
  }

  /// The exact eq. (1)/(2) rate at the update just absorbed. The single
  /// site samples against its own exact count (Theorem 3.1); SBC against
  /// the last broadcast estimate, with the broadcast time plus the updates
  /// this site has seen since as the drift guard's t — an underestimate of
  /// the true t, which errs toward sampling more, never less.
  double CandidateRate() {
    if (num_sites_ == 1) {
      if (options_.stage_policy == StagePolicy::kStraightOnly) return 1.0;
      return Phase1Rate(options_, local_sum_, local_updates_,
                        VarianceScale(options_, local_sum_sq_, local_updates_));
    }
    return Phase1Rate(options_, global_estimate_,
                      global_time_ + updates_since_state_, rate_scale_,
                      &walk_cache_);
  }

  /// A single-site report carries the exact totals and needs no reply; an
  /// SBC head asks the coordinator for a full sync.
  void Report() {
    if (num_sites_ > 1) {
      SendSyncRequest();
    } else {
      SendSnapshot(kExactReport);
    }
  }

  int site_id_;
  int num_sites_;
  CounterOptions options_;
  sim::Network* network_;
  common::Rng rng_;
  common::GeometricSkip skip_;
  common::BatchRng batch_rng_{0};  // reseeded + attached in skip mode only
  // Sites that run ConsumeThinned at dom = 1, span 1. Besides the per-coin
  // reference sampler, that is every single site whose chunk bound fails:
  // it needs |local_sum_| to move by at most 1 per update and the rate law
  // to be monotone in |s| at fixed epsilon, which rules out unbounded fBm
  // increments and the per-update rescaling of variance_adaptive
  // (kStraightOnly reports every update anyway).
  const bool per_coin_ =
      options_.sampler == common::SamplerMode::kPerCoin ||
      (num_sites_ == 1 &&
       (options_.fbm_delta != 0.0 || options_.variance_adaptive ||
        options_.stage_policy == StagePolicy::kStraightOnly));
  RateCache walk_cache_;

  // Domination span (see ConsumeThinned): the rate the cached gap was
  // drawn at, and the updates it still holds for.
  double dom_ = 0.0;
  int64_t span_left_ = 0;

  int64_t local_updates_ = 0;
  double local_sum_ = 0.0;
  double local_sum_sq_ = 0.0;
  int64_t small_budget_ = 0;  // banked small-totals margin (see SmallTotalsFor)
  int64_t updates_since_state_ = 0;
  double global_estimate_ = 0.0;
  int64_t global_time_ = 0;
  double rate_scale_ = 1.0;
  bool in_sbc_stage_ = false;
  bool phase2_ = false;
  int64_t collect_epoch_ = 0;
};

/// Coordinator-side state machine of Phase 1.
class NonMonotonicCounter::Coordinator final : public sim::CoordinatorNode {
 public:
  Coordinator(int num_sites, const CounterOptions& options,
              sim::Network* network)
      : num_sites_(num_sites),
        options_(options),
        network_(network),
        known_updates_(static_cast<size_t>(num_sites), 0),
        known_sum_(static_cast<size_t>(num_sites), 0.0),
        known_sum_sq_(static_cast<size_t>(num_sites), 0.0),
        bracketable_(options.fbm_delta == 0.0 && !options.variance_adaptive &&
                     options.stage_boundary_factor >= 0.0),
        collect_replied_(static_cast<size_t>(num_sites), false),
        gp_(GpSearchOptions{kGpEpsilon0, options.horizon_n,
                            /*observation_epsilon=*/0.0,
                            /*geometric_checkpoints=*/true}) {
    // Carried state from a previous horizon epoch (HorizonFreeCounter).
    // With k > 1 the sites restart their local totals at zero, so the
    // carried part lives only in these aggregates; with k = 1 the single
    // site carries it itself and reports absolute totals, so the per-site
    // "known" entry starts at the carried values to keep the deltas right.
    total_updates_ = options.initial_updates;
    total_sum_ = options.initial_sum;
    total_sum_sq_ = options.initial_sum_sq;
    if (num_sites == 1) {
      known_updates_[0] = options.initial_updates;
      known_sum_[0] = options.initial_sum;
      known_sum_sq_[0] = options.initial_sum_sq;
    }
  }

  void OnSiteMessage(int site_id, const sim::Message& message) override {
    switch (message.type) {
      case kSyncRequest:
        if (collecting_ || phase2_pending_) break;
        ++sbc_syncs_;
        StartCollect();
        break;
      case kCollectReply: {
        const size_t i = static_cast<size_t>(site_id);
        // A faulty channel can replay a reply (duplicate) or deliver one
        // from an abandoned round (delay across a resync). Totals are
        // absorbed whenever they are no older than what we know — per-site
        // totals are monotone in u, so this never regresses state — but
        // only a first reply to the current epoch advances the round.
        const bool current = collecting_ && message.v == collect_epoch_ &&
                             !collect_replied_[i];
        if (message.u >= known_updates_[i]) {
          UpdateKnown(site_id, message.u, message.a, message.b);
        }
        if (!current) break;
        collect_replied_[i] = true;
        NMC_CHECK_GT(pending_replies_, 0);
        if (--pending_replies_ == 0) {
          collecting_ = false;
          OnExactState(/*reporter=*/-1, /*ack=*/nullptr);
        }
        break;
      }
      case kStraightReport: {
        sim::Message ack;
        if (OnStraightReport(site_id, message, &ack)) {
          network_->SendToSite(site_id, ack);
        }
        break;
      }
      case kExactReport:
        NMC_CHECK_EQ(num_sites_, 1);
        if (message.u < known_updates_[static_cast<size_t>(site_id)]) break;
        UpdateKnown(site_id, message.u, message.a, message.b);
        OnExactState(/*reporter=*/-1, /*ack=*/nullptr);
        break;
      default:
        NMC_CHECK(false);
    }
  }

  /// The StraightSync rule: true when the answer is the reporter's ack, in
  /// *ack for the caller to deliver (broadcasts are sent here). Stale
  /// reports are dropped whole: absorbing them is a no-op, acking them
  /// would re-send old state.
  bool OnStraightReport(int site_id, const sim::Message& report,
                        sim::Message* ack) {
    if (report.u < known_updates_[static_cast<size_t>(site_id)]) return false;
    UpdateKnown(site_id, report.u, report.a, report.b);
    ++straight_reports_;
    return OnExactState(site_id, ack);
  }

  /// Fault recovery: opens a fresh epoch-tagged collect round, superseding
  /// any round stuck on lost replies (their late replies are recognized by
  /// epoch and ignored). No-op once the Phase-2 handoff is pending — the
  /// HYZ pair owns recovery from there.
  void BeginResync() {
    if (phase2_pending_) return;
    ++resyncs_;
    StartCollect();
  }

  double Estimate() const { return total_sum_; }
  int64_t known_updates() const { return total_updates_; }
  double known_sum_sq() const { return total_sum_sq_; }
  bool phase2_pending() const { return phase2_pending_; }
  double mu_hat() const { return gp_.mu_hat(); }
  int64_t snapshot_updates() const { return snapshot_updates_; }
  double snapshot_sum() const { return snapshot_sum_; }
  int64_t sbc_syncs() const { return sbc_syncs_; }
  int64_t straight_reports() const { return straight_reports_; }
  int64_t stage_switches() const { return stage_switches_; }
  int64_t resyncs() const { return resyncs_; }
  bool in_sbc_stage() const { return in_sbc_stage_; }
  bool gp_resolved() const { return gp_.resolved(); }

 private:
  void StartCollect() {
    collecting_ = true;
    ++collect_epoch_;
    pending_replies_ = num_sites_;
    std::fill(collect_replied_.begin(), collect_replied_.end(), false);
    sim::Message m;
    m.type = kCollect;
    m.u = collect_epoch_;
    network_->Broadcast(m);
  }

  void UpdateKnown(int site_id, int64_t updates, double sum, double sum_sq) {
    const size_t i = static_cast<size_t>(site_id);
    total_updates_ += updates - known_updates_[i];
    total_sum_ += sum - known_sum_[i];
    total_sum_sq_ += sum_sq - known_sum_sq_[i];
    known_updates_[i] = updates;
    known_sum_[i] = sum;
    known_sum_sq_[i] = sum_sq;
  }

  /// Both ends of a collect and every straight report leave the
  /// coordinator with the exact (t, S): all per-site totals are current.
  /// `reporter`: a straight report's site, else -1; true: its ack is in *ack.
  bool OnExactState(int reporter, sim::Message* ack) {
    if (options_.drift_mode == DriftMode::kUnknownUnitDrift) {
      gp_.Observe(total_updates_, total_sum_);
      if (options_.enable_phase2 && gp_.resolved() && !phase2_pending_) {
        phase2_pending_ = true;
        snapshot_updates_ = total_updates_;
        snapshot_sum_ = total_sum_;
        sim::Message m;
        m.type = kPhase2;
        network_->Broadcast(m);
        return false;
      }
    }

    if (num_sites_ == 1) return false;  // single-site form: no replies

    const bool want_sbc = WantSbcStage();
    const bool changed = want_sbc != in_sbc_stage_;
    if (changed) {
      in_sbc_stage_ = want_sbc;
      ++stage_switches_;
    }

    sim::Message state;
    state.type = kState;
    state.a = total_sum_;
    state.u = total_updates_;
    state.v = in_sbc_stage_ ? kStageSbc : kStageStraight;
    state.b = VarianceScale(options_, total_sum_sq_, total_updates_);
    if (reporter < 0 || changed) {
      network_->Broadcast(state);
      return false;
    }
    // StraightSync: acknowledge the reporting site with the fresh global
    // state (2 messages per update in total).
    *ack = state;
    return true;
  }

  bool WantSbcStage() {
    switch (options_.stage_policy) {
      case StagePolicy::kSbcOnly:
        return true;
      case StagePolicy::kStraightOnly:
        return false;
      case StagePolicy::kPaperBoundary: {
        // The paper's Õ-level rule (eps*|S_hat|)^2 >= k: correct
        // asymptotically but ignores the log factor, leaving a band where
        // SBC samples at rate ~1 and pays 3k+1 per update (the E12
        // ablation quantifies this).
        const double d = options_.fbm_delta > 0.0 ? options_.fbm_delta : 2.0;
        const double scaled = options_.epsilon * std::fabs(total_sum_);
        // nmc-lint: allow(NO_PER_UPDATE_TRANSCENDENTALS) stage decision runs once per sync round (OnExactState), not per update
        return std::pow(scaled, d) >= static_cast<double>(num_sites_);
      }
      case StagePolicy::kAuto:
        break;
    }
    // Bracket cache: under the walk law (fbm_delta == 0) with no variance
    // rescaling, the fresh computation below reduces to
    //   factor * (3k+1) * RandomWalkRate(|S|, eps, n, alpha, beta) <= 2
    // and RandomWalkRate is IEEE-monotone non-increasing in |S| — one
    // multiply, one square, one divide, one min, each correctly rounded
    // and monotone; the log^beta factor is a memoized run constant, so
    // no pow is evaluated per call (pow carries no monotonicity
    // guarantee, which is why the fBm law and the per-call epsilon
    // rescaling of variance_adaptive skip the cache). The decision is
    // therefore a threshold in |S|: remember the tightest true/false
    // bracket observed and only recompute strictly inside it. Every
    // answer equals what the full computation would return, so the
    // cache is observationally invisible. StraightSync regimes hit the
    // bracket every update, eliminating a CounterOptions copy and a
    // rate evaluation from the per-update message path.
    const double abs_s = std::fabs(total_sum_);
    if (bracketable_) {
      if (abs_s >= sbc_true_min_) return true;
      if (abs_s <= sbc_false_max_) return false;
    }
    // Cost-comparing form of the same rule: an SBC sync costs 3k+1
    // messages and fires at the eq. (1)/(2) rate, StraightSync costs 2 per
    // update; switch to SBC exactly when it is the cheaper pattern. Up to
    // the log factor this is the paper's (eps*|S_hat|)^2 >= k boundary.
    CounterOptions rate_options = options_;
    rate_options.enable_drift_guard = false;  // guard cost is stage-free
    const double scale =
        VarianceScale(options_, total_sum_sq_, total_updates_);
    const double rate =
        Phase1Rate(rate_options, total_sum_, total_updates_, scale);
    const double sync_cost = 3.0 * static_cast<double>(num_sites_) + 1.0;
    const bool want =
        options_.stage_boundary_factor * sync_cost * rate <= 2.0;
    if (bracketable_) {
      if (want) {
        sbc_true_min_ = abs_s;
      } else {
        sbc_false_max_ = abs_s;
      }
    }
    return want;
  }

  int num_sites_;
  CounterOptions options_;
  sim::Network* network_;

  std::vector<int64_t> known_updates_;
  std::vector<double> known_sum_;
  std::vector<double> known_sum_sq_;
  int64_t total_updates_ = 0;
  double total_sum_ = 0.0;
  double total_sum_sq_ = 0.0;

  bool in_sbc_stage_ = false;
  // WantSbcStage bracket cache (kAuto + walk law with no variance
  // rescaling, bracketable_): the decision is true for |S| >= sbc_true_min_
  // and false for |S| <= sbc_false_max_.
  const bool bracketable_;
  double sbc_true_min_ = std::numeric_limits<double>::infinity();
  double sbc_false_max_ = -1.0;
  bool collecting_ = false;
  int pending_replies_ = 0;
  int64_t collect_epoch_ = 0;
  std::vector<bool> collect_replied_;
  int64_t resyncs_ = 0;

  GpSearch gp_;
  bool phase2_pending_ = false;
  int64_t snapshot_updates_ = 0;
  double snapshot_sum_ = 0.0;

  int64_t sbc_syncs_ = 0;
  int64_t straight_reports_ = 0;
  int64_t stage_switches_ = 0;
};

NonMonotonicCounter::NonMonotonicCounter(int num_sites,
                                         const CounterOptions& options)
    : options_(options), network_(num_sites) {
  NMC_CHECK_GT(options.epsilon, 0.0);
  NMC_CHECK_GE(options.horizon_n, 1);
  NMC_CHECK_GE(options.initial_updates, 0);
  network_.SetChannel(sim::MakeChannel(options.channel));
  slots_.resize(static_cast<size_t>(num_sites));
  touched_.resize(static_cast<size_t>(num_sites));
  common::Rng seeder(options.seed);
  coordinator_ = std::make_unique<Coordinator>(num_sites, options, &network_);
  network_.AttachCoordinator(coordinator_.get());
  sites_.reserve(static_cast<size_t>(num_sites));
  for (int s = 0; s < num_sites; ++s) {
    sites_.push_back(std::make_unique<Site>(s, num_sites, options, &network_,
                                            seeder.Fork()));
    network_.AttachSite(s, sites_.back().get());
  }
}

NonMonotonicCounter::~NonMonotonicCounter() = default;

int NonMonotonicCounter::num_sites() const { return network_.num_sites(); }

void NonMonotonicCounter::ProcessUpdate(int site_id, double value) {
  // Per-update fast path for the common Phase-1 / perfect-channel case:
  // skips the batch plumbing (Phase-2 check, channel probe) that
  // ProcessBatch pays per call.
  if (phase2_ == nullptr && !network_.channeled()) {
    NMC_CHECK_GE(site_id, 0);
    NMC_CHECK_LT(site_id, num_sites());
    FeedPhase1(site_id, std::span<const double>(&value, 1));
    return;
  }
  ProcessBatch(site_id, std::span<const double>(&value, 1));
}

inline int64_t NonMonotonicCounter::FeedPhase1(
    int site_id, std::span<const double> values) {
  Site& site = *sites_[static_cast<size_t>(site_id)];
  if (site.straight()) {
    StraightStep(site_id, values.front());
    return 1;
  }
  const int64_t consumed = site.ConsumeRun(values);
  Settle();
  return consumed;
}

void NonMonotonicCounter::StraightStep(int site_id, double value) {
  // The report and its ack, charged as the queue would charge them. The
  // queue is empty on entry (every call runs to quiescence) and a report's
  // only consequence besides its ack goes through Broadcast, so handing
  // each message straight to its recipient is the FIFO delivery order.
  Site& site = *sites_[static_cast<size_t>(site_id)];
  const sim::Message report = site.StraightReport(value);
  network_.ChargeUnicast(/*to_coordinator=*/true, site_id, report);
  sim::Message ack;
  if (coordinator_->OnStraightReport(site_id, report, &ack)) {
    network_.ChargeUnicast(/*to_coordinator=*/false, site_id, ack);
    site.ApplyState(ack);
  }
  Settle();  // a stage flip's or the Phase-2 commit's broadcast
}

int64_t NonMonotonicCounter::ProcessBatch(int site_id,
                                          std::span<const double> values) {
  NMC_CHECK_GE(site_id, 0);
  NMC_CHECK_LT(site_id, num_sites());
  NMC_CHECK(!values.empty());
  if (phase2_ != nullptr) return phase2_->ProcessBatch(site_id, values);
  if (!network_.channeled()) return FeedPhase1(site_id, values);
  // Under a faulty channel, advance simulated time (delivering anything
  // that came due) and process one update per call, queued: fast-forwarding
  // a silent prefix assumes it stays silent, which delayed delivery breaks.
  network_.BeginTick();
  sites_[static_cast<size_t>(site_id)]->ConsumeRun(values.first(1));
  Settle();
  return 1;
}

int64_t NonMonotonicCounter::ProcessSpan(std::span<const int> sites,
                                         std::span<const double> values) {
  NMC_CHECK(!values.empty());
  NMC_CHECK_EQ(sites.size(), values.size());
  if (sites_.size() == 1) {
    return NonMonotonicCounter::ProcessBatch(sites[0], values);
  }
  if (phase2_ != nullptr) return phase2_->ProcessSpan(sites, values);
  const int site_id = sites[0];
  NMC_CHECK_GE(site_id, 0);
  NMC_CHECK_LT(site_id, num_sites());
  // A faulty channel takes one update per call; a span opening on one
  // site hands its whole same-site run to ProcessBatch, which
  // fast-forwards it and returns at the run's first message.
  if (network_.channeled()) {
    return NonMonotonicCounter::ProcessBatch(site_id, values.first(1));
  }
  if (sites_[static_cast<size_t>(site_id)]->straight()) {
    // StraightSync reports every update: the span ends at its first.
    StraightStep(site_id, values.front());
    return 1;
  }
  if (sites.size() == 1 || sites[1] == site_id) {
    return NonMonotonicCounter::ProcessBatch(site_id,
                                             values.first(LeadingRun(sites)));
  }
  return ScanPhase1(sites, values);
}

void NonMonotonicCounter::ListSlot(int slot, int* count) {
  ScanSlot& entry = slots_[static_cast<size_t>(slot)];
  if (entry.listed) return;
  entry.listed = true;
  touched_[static_cast<size_t>((*count)++)] = slot;
}

int64_t NonMonotonicCounter::ScanPhase1(std::span<const int> sites,
                                        std::span<const double> values) {
  // Between two messages each site evolves on its own state and RNG, so a
  // site's silent updates can be tallied and applied later, in bulk: the
  // site sees the same updates in the same order. What must not move is
  // when a site draws: its budget is queried at its first update in the
  // span (and again at its first update after each event), exactly where
  // the per-update feed would start a domination span or draw a gap.
  // Asking earlier could draw a gap that a message ending the span then
  // discards, shifting the site's RNG stream.
  const int num_sites = static_cast<int>(sites_.size());
  const int64_t messages_before = network_.total_messages();
  const size_t n = values.size();
  int touched = 0;
  size_t i = 0;
  while (i < n) {
    const double value = values[i];
    const int s = sites[i];
    NMC_CHECK_GE(s, 0);
    NMC_CHECK_LT(s, num_sites);
    if (std::fabs(value) != 1.0) break;  // tallies hold ±1 updates only
    ScanSlot& slot = slots_[static_cast<size_t>(s)];
    Site& site = *sites_[static_cast<size_t>(s)];
    if (slot.room < 0) {
      const int64_t room = site.SilentBudget(static_cast<int64_t>(n - i));
      if (room < 0) break;
      slot.room = room;
      ListSlot(s, &touched);
    }
    if (slot.taken < slot.room) {
      ++slot.taken;
      slot.net += static_cast<int64_t>(value);  // exact: value is ±1
      ++i;
      continue;
    }
    // The site's next sampling event: bring the site up to date and run
    // this update through the per-update state machine. A rejected
    // candidate or an expired domination span is silent, and the scan
    // goes on; the site's budget is queried afresh at its next update.
    if (slot.taken > 0) site.AbsorbSilent(slot.taken, slot.net);
    slot.taken = 0;
    slot.net = 0;
    slot.room = -1;
    site.ConsumeRun(values.subspan(i, 1));
    ++i;
    if (network_.total_messages() != messages_before) break;
  }
  if (i == 0) {
    // The first update cannot be tallied (non-±1 value or totals outside
    // the exact range); nothing was touched.
    return NonMonotonicCounter::ProcessBatch(sites[0], values.first(1));
  }
  // Every site's totals must be current before the message (if any) is
  // delivered: a collect reads them, and a state broadcast restarts the
  // per-site update count.
  for (int j = 0; j < touched; ++j) {
    const size_t s = static_cast<size_t>(touched_[static_cast<size_t>(j)]);
    ScanSlot& slot = slots_[s];
    if (slot.taken > 0) sites_[s]->AbsorbSilent(slot.taken, slot.net);
    slot = ScanSlot{};
  }
  Settle();
  return static_cast<int64_t>(i);
}

bool NonMonotonicCounter::Resync() {
  if (phase2_ != nullptr) return phase2_->Resync();
  if (num_sites() == 1) {
    sites_[0]->SendSnapshot(kExactReport);
  } else {
    coordinator_->BeginResync();
  }
  // A resync round that completes may resolve the drift and commit the
  // coordinator to Phase 2, like any other exact state.
  Settle();
  return true;
}

void NonMonotonicCounter::ForceSync() {
  NMC_CHECK(phase2_ == nullptr);  // Phase 1 only
  if (num_sites() == 1) {
    sites_[0]->SendSnapshot(kExactReport);
  } else if (coordinator_->in_sbc_stage()) {
    sites_[0]->SendSyncRequest();
  } else {
    return;  // StraightSync: the coordinator is already exact
  }
  Settle();
}

int64_t NonMonotonicCounter::SyncedUpdates() const {
  return coordinator_->known_updates();
}

double NonMonotonicCounter::SyncedSumSquares() const {
  return coordinator_->known_sum_sq();
}

void NonMonotonicCounter::Settle() {
  network_.DeliverAll();
  if (coordinator_->phase2_pending() && phase2_ == nullptr) {
    ActivatePhase2();
  }
}

void NonMonotonicCounter::ActivatePhase2() {
  const int64_t t = coordinator_->snapshot_updates();
  const double s = coordinator_->snapshot_sum();
  // For ±1 updates, #positives = (t + S)/2 and #negatives = (t - S)/2.
  const double positives = (static_cast<double>(t) + s) / 2.0;
  const double negatives = (static_cast<double>(t) - s) / 2.0;
  const int64_t p0 = std::llround(positives);
  const int64_t n0 = std::llround(negatives);
  NMC_CHECK_LE(std::fabs(positives - static_cast<double>(p0)), 1e-6);
  NMC_CHECK_LE(std::fabs(negatives - static_cast<double>(n0)), 1e-6);
  phase2_switch_time_ = t;

  const double mu = coordinator_->mu_hat();
  hyz::HyzOptions hyz_options;
  hyz_options.epsilon = std::clamp(
      kPhase2EpsFraction * options_.epsilon * std::fabs(mu), 1e-5, 0.9);
  const double n = static_cast<double>(options_.horizon_n);
  hyz_options.delta = std::min(0.5, kPhase2DeltaScale / (n * n));
  hyz_options.sampler = options_.sampler;
  if (options_.phase2_auto_hyz_mode) {
    // Per-round cost: deterministic ~2k, sampled ~sqrt(kL) + L.
    const double k = static_cast<double>(num_sites());
    // nmc-lint: allow(NO_PER_UPDATE_TRANSCENDENTALS) phase-2 activation is a once-per-trial transition, not per-update work
    const double log_term = std::log(2.0 / hyz_options.delta);
    if (2.0 * k < std::sqrt(k * log_term) + log_term) {
      hyz_options.mode = hyz::HyzMode::kDeterministic;
    }
  }
  // The pair inherits the fault model, forked onto its own networks.
  hyz_options.channel = options_.channel;
  phase2_ = std::make_unique<hyz::HyzPair>(  // nmc-lint: allow(NO_HEAP_IN_HOT_PATH) phase-2 activation allocates the HYZ pair exactly once per trial
      num_sites(), hyz_options, options_.seed ^ 0x9e3779b97f4a7c15ULL, p0,
      n0);
}

double NonMonotonicCounter::Estimate() const {
  if (phase2_ != nullptr) return phase2_->Estimate();
  return coordinator_->Estimate();
}

const sim::MessageStats& NonMonotonicCounter::stats() const {
  // Phase 1 serves the network's stats by reference: the tracking pump
  // reads stats() around every batch, so the combined-copy path would be
  // a per-batch struct copy for the lifetime of most runs.
  if (phase2_ == nullptr) return network_.stats();
  combined_stats_ = network_.stats();
  combined_stats_ += phase2_->stats();
  return combined_stats_;
}

CounterDiagnostics NonMonotonicCounter::diagnostics() const {
  CounterDiagnostics d;
  d.phase2_active = phase2_ != nullptr;
  d.mu_hat = coordinator_->gp_resolved() ? coordinator_->mu_hat() : 0.0;
  d.phase2_switch_time = phase2_switch_time_;
  d.sbc_syncs = coordinator_->sbc_syncs();
  d.straight_reports = coordinator_->straight_reports();
  d.stage_switches = coordinator_->stage_switches();
  d.in_sbc_stage = coordinator_->in_sbc_stage();
  d.resyncs = coordinator_->resyncs();
  return d;
}

}  // namespace nmc::core
