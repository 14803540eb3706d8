#pragma once

#include <cstdint>
#include <vector>

namespace nmc::runtime {

/// The coordinator's continuously published serving slot: the estimate
/// Ŝ_t after `generation` stream updates have been applied. 16 bytes —
/// two seqlock words.
struct PublishedEstimate {
  int64_t generation = 0;
  double estimate = 0.0;
};

/// One consumed update in coordinator order — the unit of the captured
/// transcript. Replaying the transcript through a fresh protocol instance
/// on the deterministic simulator reproduces the threaded run exactly
/// (the protocol itself is single-threaded either way; the only
/// nondeterminism is the mailbox interleaving, which the transcript pins).
struct TranscriptEntry {
  int64_t site = 0;
  double value = 0.0;
};

/// One reader-observed snapshot retained for the linearizability check.
struct ReadSample {
  int64_t generation = 0;
  double estimate = 0.0;
};

struct ThreadedRunOptions {
  /// Query-client threads reading the published estimate concurrently.
  int num_readers = 0;
  /// Per-site mailbox capacity in updates (rounded up to a power of two).
  int64_t mailbox_capacity = 1 << 12;
  /// Max updates the coordinator pulls from one mailbox per visit — the
  /// fairness quantum across sites.
  int64_t max_pull = 256;
  /// Record the transcript and the publish log for the linearizability
  /// check. Costs O(n) memory — meant for tests and verification runs.
  bool capture = false;
};

/// The serving layer's outcome, filled the same way by both concurrent
/// backends (RunResult::serving).
struct ThreadedRunResult {
  /// Updates consumed by the coordinator (== the summed shard lengths).
  int64_t updates = 0;
  /// Seqlock publishes (one per ProcessBatch return, plus the initial
  /// generation-0 publish).
  int64_t publishes = 0;
  /// Coordinator->site echo messages actually enqueued / actually drained.
  int64_t echoes_sent = 0;
  int64_t echoes_received = 0;
  /// Pooled over readers. torn_reads counts snapshot attempts that lost
  /// the race with an in-flight publish (retried, never served torn).
  int64_t total_reads = 0;
  int64_t torn_reads = 0;
  /// Reader-observed generation going backwards — any nonzero value is a
  /// published-estimate ordering bug.
  int64_t generation_regressions = 0;
  /// Summed over readers: each reader thread's CPU time, i.e. the time it
  /// was actually running. total_reads over the mean of it is the read
  /// rate of a running reader, however little of the run the host
  /// scheduled it for.
  double reader_seconds = 0.0;
  PublishedEstimate final_published;
  /// Captured only when options.capture is set.
  std::vector<TranscriptEntry> transcript;
  std::vector<PublishedEstimate> publish_log;
  /// Per-reader retained snapshots (capture-independent).
  std::vector<std::vector<ReadSample>> reader_samples;
};

}  // namespace nmc::runtime
