#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/nonmonotonic_counter.h"
#include "runtime/run.h"
#include "trace.h"

namespace perfbench {

/// One named benchmark workload: a ±1 i.i.d. stream with drift `mu`, fed
/// to core::NonMonotonicCounter (epsilon = kEpsilon) over one transport.
struct Workload {
  std::string_view name;
  nmc::runtime::TransportKind transport;
  int sites;
  double mu;
  nmc::core::DriftMode drift;
  /// Concurrent query threads reading the published estimate.
  int readers;
  /// Stream length of one repetition.
  int64_t updates;
  /// Stream length of the captured verification run (concurrent only).
  int64_t verify_updates;
};

inline constexpr double kEpsilon = 0.1;

const Workload* FindWorkload(std::string_view name);

/// Deterministic 64-bit mix (SplitMix64 finalizer) for deriving the
/// per-repetition stream and counter seeds from the command-line seed.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// Failed operations found by the correctness checks, counted by kind.
struct Failures {
  std::map<std::string, int64_t> by_kind;

  void Add(const std::string& kind, int64_t count) {
    if (count > 0) by_kind[kind] += count;
  }
  void Merge(const Failures& other) {
    for (const auto& [kind, count] : other.by_kind) Add(kind, count);
  }
  int64_t total() const {
    int64_t sum = 0;
    for (const auto& entry : by_kind) sum += entry.second;
    return sum;
  }
  /// "kind=count; ..." (empty when nothing failed).
  std::string Describe() const {
    std::string out;
    for (const auto& [kind, count] : by_kind) {
      out += (out.empty() ? "" : "; ") + kind + "=" + std::to_string(count);
    }
    return out;
  }
};

/// Everything one repetition needs before the transport call.
struct RepInput {
  uint64_t counter_seed = 0;
  /// The whole stream (sim) or its round-robin shards (threads, sockets).
  std::vector<double> stream;
  std::vector<std::vector<double>> shards;
  std::unique_ptr<nmc::core::NonMonotonicCounter> counter;
  double setup_s = 0.0;
};

/// Generates the stream (through sim::StreamSource::FillChunk, traced when
/// `tracer` is set), shards it and builds the counter; times all of it.
RepInput Setup(const Workload& w, int64_t updates, uint64_t rep_seed,
               Tracer* tracer);

std::unique_ptr<nmc::core::NonMonotonicCounter> MakeCounter(
    const Workload& w, int64_t updates, uint64_t counter_seed);

/// Outcome of one transport call plus its correctness checks.
struct RepOutcome {
  nmc::runtime::RunResult run;
  int64_t updates = 0;        // updates offered to the transport
  int64_t consumed = 0;       // updates the protocol consumed
  double run_s = 0.0;         // wall time of RunWithTransport
  double cpu_self_s = 0.0;    // this process's CPU during the call
  double cpu_children_s = 0.0;  // reaped children's CPU during the call
  int64_t messages = 0;       // Protocol::stats().total()
  int64_t broadcasts = 0;
  int64_t arena_high_water_bytes = 0;
  double final_estimate = 0.0;
  Failures failures;
};

/// Runs `input` through the workload's transport. With a tracer, the
/// call is wrapped in a run span and the counter in TracedProtocol, so
/// every ProcessBatch/ProcessUpdate gets a core span; `counter` is used
/// as-is otherwise.
RepOutcome Execute(const Workload& w, const RepInput& input,
                   nmc::core::NonMonotonicCounter* counter, Tracer* tracer);

/// Outcome of the captured verification run of a concurrent workload.
struct Verification {
  int64_t updates = 0;
  Failures failures;
};

/// A captured run outside any timed window: its consumption transcript is
/// replayed through a fresh same-seed counter (CheckLinearizable) and
/// through the sim tracking checker in the captured interleaving.
Verification VerifyConcurrent(const Workload& w, uint64_t seed);

}  // namespace perfbench
