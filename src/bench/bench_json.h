#pragma once

#include <string>
#include <vector>

#include "bench/runner.h"
#include "runtime/transport.h"
#include "sim/channel.h"

namespace nmc::bench {

/// One recorded batch of tracked runs, with the configuration that
/// produced it.
struct RunRecord {
  std::string label;
  int trials = 0;
  int num_sites = 0;
  double epsilon = 0.0;
  std::string psi_name;
  RunSummary summary;
};

/// One named scalar a bench records outside the RunRecord vocabulary —
/// throughput-style results (reader queries/sec, update rates, scaling
/// ratios) that have no accuracy/message-count axes. compare_bench.py
/// tracks them as bench/<bench>/<name>.
struct BenchMetric {
  std::string name;
  double value = 0.0;
};

/// Machine-readable record of one bench binary's execution — the unit the
/// perf trajectory is built from (one BENCH_*.json per binary per run).
struct BenchReport {
  std::string bench;
  int threads = 1;
  /// Pump configuration the batches ran under (see --batch).
  int batch = 0;
  std::vector<RunRecord> runs;
  /// Free-form named scalars (see RecordMetric); empty for most benches.
  std::vector<BenchMetric> metrics;
  /// Wall time of the whole binary, not just the recorded batches.
  double wall_seconds = 0.0;

  int64_t total_updates() const;
  double updates_per_sec() const;
  /// Message counts pooled over every trial of every run, combined with
  /// RunningStat::Merge (exact pooled moments, not an average of means).
  common::RunningStat pooled_messages() const;
};

/// Serializes the report as indented JSON (stable key order).
std::string BenchReportToJson(const BenchReport& report);

/// Writes the serialized report to `path`. Returns false and prints to
/// stderr on I/O failure.
bool WriteBenchReport(const std::string& path, const BenchReport& report);

/// ---- Per-binary bench session -------------------------------------------
///
/// The bench_e* binaries are single-threaded at top level, so the session
/// is a plain global: InitBench parses the shared flags, Repeat batches
/// record themselves, FinishBench writes the JSON report if requested.

/// Resolved values of the shared bench flag vocabulary (one declaration,
/// in bench_json.cc's flag table, consumed by every bench binary):
///   --threads=N       worker threads for Repeat batches (0/absent =
///                     hardware concurrency, 1 = legacy serial)
///   --json_out=P      write a BENCH_*.json report to P on FinishBench()
///   --batch=N         harness batch size for Repeat batches (0/absent =
///                     harness default)
///   --channel=K       fault model: perfect (default) | loss | delay
///   --loss=P          drop probability per hop (with --channel=loss)
///   --dup=P           duplicate probability per hop (with --channel=loss)
///   --delay_prob=P    delay probability per hop (with --channel=delay)
///   --delay_max=T     max delay in ticks (with --channel=delay)
///   --channel_seed=S  channel RNG seed (base; offset per trial)
///   --transport=K     runtime backend: sim (deterministic simulator,
///                     default) | threads (concurrent runtime) | sockets
///                     (forked site processes over the wire framing)
/// Crash schedules need interval lists and stay config-driven (see
/// bench_e14_fault_tolerance), not flag-driven.
struct BenchFlagValues {
  int threads = 1;
  std::string json_out;
  int batch = 0;
  sim::ChannelConfig channel;
  runtime::TransportKind transport = runtime::TransportKind::kSim;
};

/// Splits argv[1..) into the shared bench flags above and everything else.
/// Shared flags are parsed into *values; unrecognized tokens are appended
/// to *rest in order, for binaries that forward leftovers to another
/// library (bench_micro -> google-benchmark). Prints to stderr and exits 2
/// on a malformed shared-flag value, so every binary rejects bad input the
/// same way.
void PeelBenchFlags(int argc, const char* const* argv,
                    const std::string& bench_name, BenchFlagValues* values,
                    std::vector<std::string>* rest);

/// "supported: --threads=N, ..." — generated from the same table
/// PeelBenchFlags parses with, so help text can never drift from parsing.
std::string BenchFlagHelp();

/// Parses the shared bench flags from argv (see BenchFlagValues). Exits
/// with status 2 on malformed or unknown flags.
void InitBench(int argc, const char* const* argv, const std::string& bench_name);

/// InitBench for binaries with their own flags on top of the shared set:
/// shared flags initialize the session as in InitBench, everything else is
/// appended to *rest for the caller to parse (and reject leftovers from)
/// itself.
void InitBenchRest(int argc, const char* const* argv,
                   const std::string& bench_name,
                   std::vector<std::string>* rest);

/// Thread count resolved by InitBench (1 before InitBench is called).
int BenchThreads();

/// --batch value resolved by InitBench (0 = harness default).
int BenchBatch();

/// Channel model requested by --channel/--loss/... (kPerfect before
/// InitBench, and by default). The protocol factories in bench_util apply
/// it when it is faulty.
const sim::ChannelConfig& BenchChannel();

/// Runtime backend requested by --transport (kSim before InitBench, and by
/// default).
runtime::TransportKind BenchTransport();

/// Appends a record to the session report (no-op before InitBench).
void RecordRun(const RunRecord& record);

/// Appends a named scalar to the session report's "metrics" array (no-op
/// before InitBench).
void RecordMetric(const std::string& name, double value);

/// Label "repeatNN" for the next auto-recorded batch.
std::string NextRunLabel();

/// Writes the JSON report when --json_out was given. Returns the process
/// exit code for main (0 on success, 1 on write failure).
int FinishBench();

}  // namespace nmc::bench

