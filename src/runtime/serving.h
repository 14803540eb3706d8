#pragma once

#include <cstdint>
#include <thread>
#include <vector>

#include "common/atomic_policy.h"
#include "common/seqlock.h"
#include "runtime/threaded.h"

namespace nmc::runtime::internal {

/// The seqlock serving layer shared by every concurrent transport backend
/// (threads, sockets): the coordinator publishes PublishedEstimate
/// generations into one Seqlock slot, m reader threads poll it wait-free,
/// and their per-thread accumulators are folded into the run result only
/// after the pool has joined. Internal — backends include this; users see
/// the reader counters through RunResult/ThreadedRunResult.

/// Per-reader accumulator. Owned by one reader thread for the duration of
/// the run; the coordinator folds them only after the pool has joined.
struct ReaderStats {
  int64_t reads = 0;
  int64_t torn = 0;
  int64_t regressions = 0;
  int64_t sampled = 0;
  std::vector<ReadSample> samples;
};

/// Reader snapshots are thinned by a fixed stride and retained in a ring,
/// so both early and late generations survive into the linearizability
/// check without unbounded memory. Prime, so readers de-synchronize from
/// the coordinator's publish cadence instead of aliasing it.
inline constexpr int64_t kSampleStride = 17;

/// Per-reader retained snapshot count (ring-replaced, so the tail of the
/// run stays covered).
inline constexpr int64_t kReaderSampleCapacity = 256;

/// Yield cadence for the spin paths. On an oversubscribed machine (more
/// threads than cores — CI runners, the 1-core container this repo grows
/// in) an unyielding spin loop starves the very thread it waits on.
inline constexpr int64_t kReaderYieldEvery = 256;

inline void ReaderLoop(const common::Seqlock<PublishedEstimate>& slot,
                       const common::RuntimeAtomic<bool>& run_done,
                       ReaderStats* stats) {
  stats->samples.resize(static_cast<size_t>(kReaderSampleCapacity));
  int64_t last_generation = 0;
  while (!run_done.load(std::memory_order_acquire)) {
    PublishedEstimate snapshot;
    if (!slot.TryRead(&snapshot)) {
      ++stats->torn;
      std::this_thread::yield();
      continue;
    }
    ++stats->reads;
    if (snapshot.generation < last_generation) {
      ++stats->regressions;
    } else {
      last_generation = snapshot.generation;
    }
    if (stats->reads % kSampleStride == 0) {
      stats->samples[static_cast<size_t>(stats->sampled %
                                         kReaderSampleCapacity)] =
          ReadSample{snapshot.generation, snapshot.estimate};
      ++stats->sampled;
    }
    if (stats->reads % kReaderYieldEvery == 0) std::this_thread::yield();
  }
}

/// Folds the joined readers' accumulators into the run result (totals plus
/// the retained snapshot rings, trimmed to what was actually sampled).
inline void FoldReaderStats(std::vector<ReaderStats>* reader_stats,
                            ThreadedRunResult* result) {
  result->reader_samples.reserve(reader_stats->size());
  for (ReaderStats& stats : *reader_stats) {
    result->total_reads += stats.reads;
    result->torn_reads += stats.torn;
    result->generation_regressions += stats.regressions;
    const int64_t kept =
        stats.sampled < static_cast<int64_t>(stats.samples.size())
            ? stats.sampled
            : static_cast<int64_t>(stats.samples.size());
    stats.samples.resize(static_cast<size_t>(kept));
    result->reader_samples.push_back(std::move(stats.samples));
  }
}

}  // namespace nmc::runtime::internal
