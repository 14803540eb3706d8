#pragma once

#include <cstdint>
#include <memory>

#include "sim/protocol.h"

namespace nmc::sim {

/// Retry/backoff policy of ReliableProtocol, in simulated time (one tick =
/// one stream update).
struct ReliableOptions {
  /// Backoff before retry r is min(backoff_base << r, backoff_cap) ticks
  /// (the first attempt after a detected loss is immediate).
  int64_t backoff_base = 1;
  int64_t backoff_cap = 64;
  /// Retries after the immediate first attempt; a loss event whose
  /// attempts all fail is abandoned (counted in diagnostics; a later loss
  /// event re-arms recovery).
  int max_retries = 16;
};

/// Recovery bookkeeping (for benches/tests).
struct ReliableDiagnostics {
  /// Silence-timeout events: transitions from clean to loss-detected.
  int64_t loss_events = 0;
  /// Resync() calls issued (first attempts + retries).
  int64_t resyncs = 0;
  /// Retries after a dirty attempt (some resync traffic was lost/delayed).
  int64_t retries = 0;
  /// Recoveries whose resync round went through intact.
  int64_t recoveries = 0;
  /// Loss events abandoned after max_retries dirty attempts.
  int64_t abandoned = 0;
  /// True when the wrapped protocol reported Resync() unsupported.
  bool unsupported = false;
};

/// Coordinator-driven fault recovery around any Protocol: watches the
/// wrapped protocol's fault counters after every update, and when new
/// losses appear, drives Protocol::Resync() with bounded retry and
/// exponential backoff in simulated time until one resync round completes
/// with no further loss — at which point the wrapped coordinator is exact
/// again. The silence-timeout detector is modeled on the stats the
/// simulator already keeps (stats().dropped): a real deployment would
/// detect the same events with sequence numbers or acks, at the same
/// message cost.
///
/// Worst-case recovery latency after a loss event is
/// RecoveryDeadlineTicks() (the sum of the backoff schedule), provided one
/// of the attempts goes through intact; the fault-tolerance tests enforce
/// this bound under Bernoulli loss.
///
/// The wrapper forces per-update supervision: the default ProcessBatch and
/// ProcessSpan feed one update per call, so every tick is inspected. Never
/// use it on the perfect-channel hot path.
class ReliableProtocol : public Protocol {
 public:
  ReliableProtocol(std::unique_ptr<Protocol> inner,
                   const ReliableOptions& options);

  int num_sites() const override;
  void ProcessUpdate(int site_id, double value) override;
  double Estimate() const override;
  const MessageStats& stats() const override;
  bool Resync() override;

  const ReliableDiagnostics& diagnostics() const { return diagnostics_; }
  Protocol* inner() { return inner_.get(); }

  /// Upper bound on ticks from loss detection to the last scheduled retry:
  /// sum over attempts of min(backoff_base << r, backoff_cap).
  int64_t RecoveryDeadlineTicks() const;

 private:
  /// One recovery attempt: Resync(), then check whether its own traffic
  /// survived. Clean -> recovered; dirty -> schedule the next retry.
  void AttemptResync();
  void Supervise();

  /// Dropped + delayed as one staleness signal: a delayed resync reply
  /// also leaves the round incomplete at the end of the attempt.
  int64_t FaultCount() const;

  std::unique_ptr<Protocol> inner_;
  ReliableOptions options_;
  ReliableDiagnostics diagnostics_;
  int64_t tick_ = 0;
  /// Fault count last reconciled (recovery triggers when it grows).
  int64_t observed_faults_ = 0;
  bool recovering_ = false;
  int attempts_ = 0;
  int64_t next_attempt_tick_ = 0;
};

}  // namespace nmc::sim
