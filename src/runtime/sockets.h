#pragma once

#include <cstdint>
#include <vector>

namespace nmc::runtime {

/// One scheduled crash: SIGKILL the live incarnation of `site` once the
/// coordinator has consumed `after_consumed` of that site's updates. The
/// process-level twin of the sim CrashScheduleChannel: a killed site stops
/// generating — its unsent tail leaves the world — and, on the reliable
/// link, a replacement incarnation is forked that resumes the shard at the
/// coordinator's consumption cursor.
struct SiteKillSpec {
  int site = 0;
  int64_t after_consumed = 0;
};

/// Socket-level fault plan, applied at coordinator ingress so the faults
/// hit real frames on real sockets (the twin of BernoulliLossChannel /
/// CrashScheduleChannel, which perturb sim::Message objects in memory).
struct SocketFaultOptions {
  /// Probability of dropping a kUpdate frame at ingress. Control frames
  /// (kHello/kFin/kNack/kEcho/kFinAck) ride a reliable control plane and
  /// are never dropped — loss models a flaky data path, not a broken link.
  double loss = 0.0;
  /// Probability (per site per poll round) of a head-of-line stall: the
  /// coordinator stops reading that site's socket for a fixed number of
  /// rounds, so frames back up in the kernel buffer and arrive late but
  /// in order — the socket-level shape of a delay channel.
  double delay_probability = 0.0;
  /// Seed of the deterministic fault stream. Drops hash (seed, site,
  /// arrival index); the same plan replays the same faults.
  uint64_t seed = 1;
  std::vector<SiteKillSpec> kills;
};

struct SocketRunOptions {
  /// Serving layer, identical to the threads backend: query threads read
  /// the seqlock-published estimate while the run progresses.
  int num_readers = 0;
  bool capture = false;
  /// Sites connect over TCP to a loopback listener instead of inheriting
  /// a Unix socketpair end. Same framing either way.
  bool use_tcp = false;
  /// Reliable link discipline: strictly in-order consumption, gaps NACKed
  /// (go-back-N), killed sites respawned at the consumption cursor. When
  /// false the link is raw — dropped frames are lost forever and killed
  /// sites stay dead — which is exactly the configuration that must
  /// violate the tracking guarantee under loss (E14's point).
  bool reliable = true;
  SocketFaultOptions faults;
  /// Tracking-guarantee check against the generated world (see
  /// SocketStats::violation_steps). Matches sim::TrackingOptions.
  double epsilon = 0.1;
  double rel_error_floor = 1.0;
  /// A respawned site must deliver its first resumed update within this
  /// many coordinator-consumed updates (across all sites) of the kill;
  /// otherwise the run reports all_kills_recovered = false.
  int64_t resync_deadline_updates = 1 << 20;
};

/// Link- and fault-level counters of one sockets run (RunResult::sockets).
/// The serving-side counters (updates, publishes, reads, samples) live in
/// RunResult::serving, filled as on the threads backend.
struct SocketStats {
  /// Frames decoded at ingress, all types, counted before the loss shim.
  int64_t frames = 0;
  int64_t drops_injected = 0;
  int64_t delays_injected = 0;
  int64_t nacks_sent = 0;
  /// kUpdate frames discarded as already-consumed duplicates — the
  /// retransmission overlap a go-back-N rewind necessarily resends.
  int64_t duplicate_updates = 0;
  /// kUpdate frames that failed wire::ValidUpdate (sequence number outside
  /// the site's shard, or a value that is not a finite update in [-1, 1]).
  /// Each one ends that site's stream before it reaches the protocol.
  int64_t rejected_updates = 0;
  int64_t kills_delivered = 0;
  int64_t respawns = 0;
  /// Worst observed kill->first-resumed-update distance, in coordinator
  /// consumed updates. 0 when no kill recovered (or none scheduled).
  int64_t max_recovery_updates = 0;
  /// Every scheduled kill was followed by a resumed update within
  /// resync_deadline_updates. Vacuously true without kills; always false
  /// for kills on a raw link (dead sites stay dead).
  bool all_kills_recovered = true;
  /// Updates the generated world contains but the coordinator never
  /// consumed: raw-link loss plus killed sites' in-flight gaps.
  int64_t updates_lost = 0;
  int64_t generated_updates = 0;
  /// Tracking-guarantee check of every consumed step against the exact
  /// sum of the *generated* world prefix (per-site prefix sums; a gap
  /// consumed out of order on the raw link pulls the skipped updates into
  /// the world — the site generated them, the protocol never saw them).
  int64_t violation_steps = 0;
  int64_t checked_steps = 0;
  double max_rel_error = 0.0;
  /// Children that died without a scheduled kill (nonzero means a site
  /// crashed or hit a framing error — always a bug worth looking at).
  int64_t unexpected_exits = 0;
  /// Echo receipts the sites reported back in their kFin frames.
  int64_t echoes_acked = 0;
  int64_t poll_rounds = 0;
  bool timed_out = false;
  int children_reaped = 0;
};

}  // namespace nmc::runtime
