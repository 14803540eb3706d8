#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/check.h"
#include "sim/message.h"

namespace nmc::sim {

/// A continuous distributed tracking protocol: the unit the harness drives
/// and the benches compare. Implementations own their Network and node
/// objects internally; all communication they perform is charged to
/// stats().
class Protocol {
 public:
  virtual ~Protocol() = default;

  virtual int num_sites() const = 0;

  /// Feeds one stream update to the given site and runs all communication
  /// it triggers to quiescence.
  virtual void ProcessUpdate(int site_id, double value) = 0;

  /// Feeds a run of consecutive updates all addressed to `site_id`.
  /// Consumes at least one update, stops no later than immediately after
  /// the first update that triggers communication, and returns the count
  /// consumed. For every consumed update except possibly the last, no
  /// messages were sent and Estimate() is unchanged, so the callers — the
  /// threads coordinator, which publishes the estimate at every return,
  /// and ProcessSpan overrides handing over a same-site run — read it once
  /// per call instead of once per item.
  /// Equivalence: in any protocol, a ProcessBatch-driven run must be
  /// bit-identical to the same updates fed through ProcessUpdate one at a
  /// time (the default forwards exactly one update, so protocols without
  /// a fast-forward path satisfy this trivially).
  virtual int64_t ProcessBatch(int site_id, std::span<const double> values) {
    NMC_CHECK(!values.empty());
    ProcessUpdate(site_id, values.front());
    return 1;
  }

  /// Feeds an interleaved span: `sites[i]` receives `values[i]`, every
  /// site in [0, num_sites()). Same contract as ProcessBatch — consumes at
  /// least one update, stops no later than immediately after the first
  /// update that triggers communication, returns the count consumed, and
  /// must be bit-identical to feeding the consumed updates one at a time
  /// through ProcessUpdate. This is the sim pump's one entry point.
  ///
  /// The default feeds the first update alone, like the default
  /// ProcessBatch. It does not look for a same-site run: the span does not
  /// say where its runs end, so a probe would rescan the rest of a run on
  /// every call, which a protocol that takes one update per call pays per
  /// update. Protocols with a fast-forward path override it: the ones
  /// whose sites stay silent independently of each other between messages
  /// consume whole multi-site stretches per call, and LeadingRun hands a
  /// same-site run to ProcessBatch.
  virtual int64_t ProcessSpan(std::span<const int> sites,
                              std::span<const double> values) {
    NMC_CHECK(!values.empty());
    NMC_CHECK_EQ(sites.size(), values.size());
    ProcessUpdate(sites.front(), values.front());
    return 1;
  }

  /// The coordinator's current estimate of the tracked sum. Must be valid
  /// after every ProcessUpdate — the tracking guarantee is continuous.
  virtual double Estimate() const = 0;

  /// Coordinator-driven recovery hook for unreliable channels: re-collects
  /// enough state that, if every resync message is delivered, Estimate() is
  /// exact again afterwards. Returns false when the protocol has no such
  /// path (the default) — e.g. a stateless baseline whose lost messages are
  /// unrecoverable. Costs O(k) messages per call; never called by the
  /// perfect-channel harness paths.
  virtual bool Resync() { return false; }

  virtual const MessageStats& stats() const = 0;

 protected:
  /// Length of the same-site run opening the non-empty `sites`. Callers
  /// probe the rest of a run again on every call, so the probe compares
  /// whole blocks without a branch per entry (the compiler vectorizes the
  /// block) before it finds the run's exact end.
  static size_t LeadingRun(std::span<const int> sites) {
    constexpr size_t kBlock = 16;
    const int site = sites.front();
    size_t run = 1;
    while (run + kBlock <= sites.size()) {
      int differ = 0;
      for (size_t j = 0; j < kBlock; ++j) differ |= sites[run + j] ^ site;
      if (differ != 0) break;
      run += kBlock;
    }
    while (run < sites.size() && sites[run] == site) ++run;
    return run;
  }
};

}  // namespace nmc::sim

