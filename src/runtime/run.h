#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "runtime/sockets.h"
#include "runtime/threaded.h"
#include "runtime/transport.h"
#include "sim/assignment.h"
#include "sim/harness.h"

namespace nmc::runtime {

/// The one transport-agnostic run description. Callers fill the input
/// (either a single stream or pre-built per-site shards), the protocol,
/// and the per-backend option blocks; RunWithTransport dispatches on the
/// TransportKind and fills the matching slice of RunResult.
///
/// Input forms:
///   * `stream` set, `shards` empty — the sim backend drives it through
///     `psi` (round-robin when psi is null); the concurrent backends
///     shard it with ShardRoundRobin.
///   * `shards` set, `stream` null — the concurrent backends take them
///     as-is; the sim backend pumps InterleaveShards(shards) round-robin,
///     i.e. the canonical serialization of the same per-site
///     subsequences.
struct RunConfig {
  sim::Protocol* protocol = nullptr;
  const std::vector<double>* stream = nullptr;
  std::span<const std::vector<double>> shards;
  /// Sim-only assignment policy (the adversary's psi). Null means
  /// round-robin, matching what the concurrent backends' sharding
  /// implies. Ignored by kThreads/kSockets — there the partition IS the
  /// sharding.
  sim::AssignmentPolicy* psi = nullptr;
  /// kSim checker configuration.
  sim::TrackingOptions tracking;
  /// kThreads configuration.
  ThreadedRunOptions threaded;
  /// kSockets configuration.
  SocketRunOptions sockets;
};

/// The outcome of a run on any backend. Exactly one slice is
/// authoritative per transport: `tracking` for kSim; `serving` for
/// kThreads and kSockets; `sockets` additionally for kSockets. The
/// untouched slices stay default-initialized.
struct RunResult {
  TransportKind transport = TransportKind::kSim;
  sim::TrackingResult tracking;
  ThreadedRunResult serving;
  SocketStats sockets;
};

/// Runs config.protocol over the chosen transport backend. This is the
/// public entry point for every backend; sim::RunTracking, RunThreaded
/// and RunSockets are its building blocks (benches and integration tests
/// go through here so a backend can be swapped with one flag). The sim
/// path delegates verbatim to sim::RunTracking — same pump, same checker
/// arithmetic — so existing sim outputs are pinned byte-identical.
RunResult RunWithTransport(TransportKind kind, const RunConfig& config);

/// Runs `protocol` on the threaded transport backend: shards[i] streams
/// into site i's thread, updates flow through lock-free SPSC mailboxes to
/// the coordinator (the calling thread), which feeds them to the protocol
/// and publishes the estimate into a seqlock slot that
/// options.num_readers concurrent query threads read wait-free. Returns
/// after every shard is consumed and every thread has joined.
///
/// The protocol object itself is only ever touched by the coordinator
/// thread — protocols stay single-threaded state machines; the
/// concurrency lives in the transport around them.
RunResult RunThreaded(sim::Protocol* protocol,
                      std::span<const std::vector<double>> shards,
                      const ThreadedRunOptions& options);

/// Runs `protocol` on the sockets transport backend: shards[i] streams
/// from a forked child process over a Unix-domain socketpair (or loopback
/// TCP) in the versioned wire framing, a nonblocking poll event loop on
/// the coordinator reassembles frames and feeds the confined protocol one
/// update per frame, and every estimate is published through the same
/// serving layer as the threads backend. Returns once every site has
/// FIN/FinAck'd (or died per the fault plan) and every child is reaped —
/// no zombies, no open fds.
///
/// The protocol object is only ever touched by the calling thread;
/// processes own streaming, not protocol state.
RunResult RunSockets(sim::Protocol* protocol,
                     std::span<const std::vector<double>> shards,
                     const SocketRunOptions& options);

/// Splits `stream` round-robin into `num_sites` shards — the canonical
/// sharding under which the sim transport's RoundRobinAssignment pumps the
/// exact same per-site subsequences as the concurrent backends' sites.
std::vector<std::vector<double>> ShardRoundRobin(
    const std::vector<double>& stream, int num_sites);

/// Inverse of ShardRoundRobin: the canonical single-stream interleaving of
/// per-site shards, for driving the sim transport on a sharded workload.
std::vector<double> InterleaveShards(
    std::span<const std::vector<double>> shards);

/// Verdict of replaying a captured concurrent run against the
/// deterministic simulator (the oracle).
struct LinearizabilityReport {
  bool linearizable = false;
  int64_t publishes_checked = 0;
  int64_t samples_checked = 0;
  /// Empty when linearizable; otherwise the first mismatch, human-readable.
  std::string failure;
};

/// Replays run.serving.transcript through `oracle` — a fresh instance of
/// the same protocol under the same seed, i.e. the deterministic
/// simulator — and checks that every published estimate and every
/// reader-retained snapshot (generation g, estimate v) is bit-identical to
/// the oracle's estimate after exactly g updates. With the single
/// coordinator as the only writer, matching every read to a prefix of the
/// one consumption order *is* linearizability of the estimate register.
/// Requires a kThreads or kSockets run captured with `capture` set; a kSim
/// result has nothing concurrent to check and reports non-linearizable
/// with an explanatory failure string.
LinearizabilityReport CheckLinearizable(const RunResult& run,
                                        sim::Protocol* oracle);

}  // namespace nmc::runtime
