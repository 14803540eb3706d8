#pragma once

#include <algorithm>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include <time.h>

#include "common/atomic_policy.h"
#include "common/check.h"
#include "common/seqlock.h"
#include "common/thread_pool.h"
#include "runtime/threaded.h"
#include "sim/protocol.h"

namespace nmc::runtime::internal {

/// Coordinator->site echo cadence, in consumed updates: once this many
/// updates have been consumed since the last offer, the current published
/// estimate is offered to every site (dropped, not blocked on, when a site
/// lags).
inline constexpr int64_t kEchoPeriod = 1024;

/// Reader snapshots are thinned by a fixed stride and retained in a ring,
/// so both early and late generations survive into the linearizability
/// check without unbounded memory. Prime, so readers de-synchronize from
/// the coordinator's publish cadence instead of aliasing it.
inline constexpr int64_t kSampleStride = 17;

/// Per-reader retained snapshot count (ring-replaced, so the tail of the
/// run stays covered).
inline constexpr int64_t kReaderSampleCapacity = 256;

/// Yield cadence for the spin paths. On an oversubscribed machine (more
/// threads than cores) an unyielding spin loop starves the very thread it
/// waits on.
inline constexpr int64_t kReaderYieldEvery = 256;

/// The serving side of the coordinator, shared by both concurrent backends
/// (threads, sockets). It feeds the confined protocol, publishes every
/// estimate the protocol may have changed into one Seqlock slot, runs m
/// reader threads that poll the slot wait-free, captures the transcript
/// and publish log, and keeps the echo cadence. A backend owns only its
/// ingress: it hands each site's updates to Feed in consumption order and
/// offers echoes through Echo. The protocol is only ever touched by the
/// thread that owns the Server.
class Server {
 public:
  /// Publishes generation 0 and starts `num_readers` reader threads. With
  /// `capture`, reserves the transcript at `total_updates` entries and the
  /// publish log at `publish_log_reserve`.
  Server(sim::Protocol* protocol, int num_readers, bool capture,
         int64_t total_updates, int64_t publish_log_reserve)
      : protocol_(protocol), capture_(capture) {
    NMC_CHECK(protocol != nullptr);
    NMC_CHECK_GE(num_readers, 0);
    if (capture_) {
      result_.transcript.reserve(static_cast<size_t>(total_updates));
      result_.publish_log.reserve(static_cast<size_t>(publish_log_reserve));
    }
    estimate_ = protocol_->Estimate();
    Publish();
    if (num_readers == 0) return;
    readers_.resize(static_cast<size_t>(num_readers));
    pool_ = std::make_unique<common::ThreadPool>(num_readers);
    for (Reader& reader : readers_) {
      reader.samples.resize(static_cast<size_t>(kReaderSampleCapacity));
      reader.task = pool_->Submit([this, &reader]() { Read(&reader); });
    }
  }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server() { StopReaders(); }

  /// Feeds `values`, all from `site`, in order: Protocol::ProcessBatch
  /// until the span is consumed, publishing once per return — the only
  /// points at which the estimate may have changed.
  void Feed(int site, std::span<const double> values) {
    size_t pos = 0;
    while (pos < values.size()) {
      const int64_t consumed = protocol_->ProcessBatch(site, values.subspan(pos));
      NMC_CHECK_GE(consumed, 1);
      if (capture_) {
        for (int64_t j = 0; j < consumed; ++j) {
          result_.transcript.push_back(
              TranscriptEntry{site, values[pos + static_cast<size_t>(j)]});
        }
      }
      pos += static_cast<size_t>(consumed);
      updates_ += consumed;
      estimate_ = protocol_->Estimate();
      Publish();
    }
  }

  /// Offers the current estimate to every site once kEchoPeriod updates
  /// have been consumed since the last offer. `send(site, echo)` returns
  /// whether the echo was enqueued.
  template <typename Send>
  void Echo(Send send) {
    if (updates_ - last_echo_ < kEchoPeriod) return;
    last_echo_ = updates_;
    const PublishedEstimate echo{updates_, estimate_};
    for (int s = 0; s < protocol_->num_sites(); ++s) {
      if (send(s, echo)) ++result_.echoes_sent;
    }
  }

  int64_t updates() const { return updates_; }
  double estimate() const { return estimate_; }

  /// Stops and joins the readers and returns the serving result, reader
  /// counters folded in.
  ThreadedRunResult Finish() {
    StopReaders();
    result_.updates = updates_;
    result_.final_published = PublishedEstimate{updates_, estimate_};
    result_.reader_samples.reserve(readers_.size());
    for (Reader& reader : readers_) {
      result_.total_reads += reader.reads;
      result_.torn_reads += reader.torn;
      result_.generation_regressions += reader.regressions;
      result_.reader_seconds += reader.seconds;
      reader.samples.resize(static_cast<size_t>(
          std::min(reader.sampled, kReaderSampleCapacity)));
      result_.reader_samples.push_back(std::move(reader.samples));
    }
    return std::move(result_);
  }

 private:
  /// One reader thread's accumulators, folded only after it has joined.
  struct Reader {
    int64_t reads = 0;
    int64_t torn = 0;
    int64_t regressions = 0;
    int64_t sampled = 0;
    double seconds = 0.0;
    std::vector<ReadSample> samples;
    std::future<void> task;
  };

  void Publish() {
    const PublishedEstimate published{updates_, estimate_};
    slot_.Publish(published);
    ++result_.publishes;
    if (capture_) result_.publish_log.push_back(published);
  }

  void Read(Reader* reader) const {
    const double start = ThreadCpuSeconds();
    int64_t last_generation = 0;
    while (!done_.load(std::memory_order_acquire)) {
      PublishedEstimate snapshot;
      if (!slot_.TryRead(&snapshot)) {
        ++reader->torn;
        std::this_thread::yield();
        continue;
      }
      ++reader->reads;
      if (snapshot.generation < last_generation) {
        ++reader->regressions;
      } else {
        last_generation = snapshot.generation;
      }
      if (reader->reads % kSampleStride == 0) {
        reader->samples[static_cast<size_t>(reader->sampled %
                                            kReaderSampleCapacity)] =
            ReadSample{snapshot.generation, snapshot.estimate};
        ++reader->sampled;
      }
      if (reader->reads % kReaderYieldEvery == 0) std::this_thread::yield();
    }
    reader->seconds = ThreadCpuSeconds() - start;
  }

  /// The calling thread's CPU time. A reader's running time is measured in
  /// it, not in time since it started: a loaded host can deschedule a
  /// reader for most of the run.
  static double ThreadCpuSeconds() {
    timespec cpu{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu);
    return static_cast<double>(cpu.tv_sec) +
           static_cast<double>(cpu.tv_nsec) * 1e-9;
  }

  void StopReaders() {
    done_.store(true, std::memory_order_release);
    for (Reader& reader : readers_) {
      if (reader.task.valid()) reader.task.get();
    }
  }

  sim::Protocol* protocol_;
  const bool capture_;
  int64_t updates_ = 0;
  int64_t last_echo_ = 0;
  double estimate_ = 0.0;
  ThreadedRunResult result_;
  common::Seqlock<PublishedEstimate> slot_;
  common::RuntimeAtomic<bool> done_{false};
  std::vector<Reader> readers_;
  /// Pool workers, not fresh threads: on a loaded host a newly created
  /// thread can wait several scheduler ticks before it first runs.
  std::unique_ptr<common::ThreadPool> pool_;
};

}  // namespace nmc::runtime::internal
