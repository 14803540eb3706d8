// E15 — concurrent serving: the threaded transport backend vs the
// deterministic simulator pump. The protocol is the same single-threaded
// state machine either way; this bench measures what the runtime around it
// costs and buys: update throughput through the SPSC mailboxes vs the sim
// transport's own pump (RunWithTransport(kSim) on the same shards), and
// query throughput of m reader threads snapshotting the seqlock-published
// estimate wait-free.
//
// Flags (on top of the shared set): --sites=K, --readers=M (pins the
// reader sweep to one point), --updates=N, --protocol=NAME. With
// --transport=sim only the pump reference runs; --transport=threads runs
// the in-process backend (the CI TSan smoke runs `--transport=threads
// --sites=2 --readers=2`) and --transport=sockets runs the same sweep
// with the sites as forked processes streaming wire frames over Unix
// sockets (the CI multi-process smoke). Both concurrent backends end in
// the linearizability epilogue against the sim oracle.
//
// Each rate is the median of kPasses timed passes, printed with its
// interquartile range: one pass over 2^16 updates lasts a few ms, and a
// single pass swung 2x between runs of the same binary. Every reported
// median is also recorded via RecordMetric, so the BENCH json carries
// bench/bench_e15_concurrent_serving/<metric> rows for
// scripts/compare_bench.py.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/statistics.h"
#include "registry/builtin.h"
#include "runtime/run.h"
#include "sim/registry.h"
#include "streams/bernoulli.h"

namespace {

using nmc::bench::BenchTransport;
using nmc::bench::RecordMetric;
using nmc::runtime::TransportKind;

struct E15Options {
  int sites = 4;
  int readers = 0;  // 0 = sweep {1, 2, 4, 8}
  int64_t updates = 1 << 16;
  std::string protocol = "counter";
};

constexpr double kEpsilon = 0.25;
constexpr uint64_t kStreamSeed = 1500;
constexpr uint64_t kCounterSeed = 23;

/// Timed passes per reference and per reader point.
constexpr int kPasses = 25;

/// Median and interquartile range of one measurement's passes.
struct Timed {
  double median = 0.0;
  double iqr = 0.0;
};

Timed Summarize(const std::vector<double>& samples) {
  return Timed{nmc::common::Quantile(samples, 0.5),
               nmc::common::Quantile(samples, 0.75) -
                   nmc::common::Quantile(samples, 0.25)};
}

[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr,
               "bench_e15_concurrent_serving: %s\n"
               "own flags: --sites=K, --readers=M, --updates=N, "
               "--protocol=NAME; plus the shared set (%s)\n",
               message.c_str(), nmc::bench::BenchFlagHelp().c_str());
  std::exit(2);
}

E15Options ParseOwnFlags(const std::vector<std::string>& rest) {
  E15Options options;
  for (const std::string& token : rest) {
    const size_t eq = token.find('=');
    const std::string key = token.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : token.substr(eq + 1);
    if (key == "--sites") {
      options.sites = std::atoi(value.c_str());
      if (options.sites < 1) UsageError("--sites must be >= 1");
    } else if (key == "--readers") {
      options.readers = std::atoi(value.c_str());
      if (options.readers < 1) UsageError("--readers must be >= 1");
    } else if (key == "--updates") {
      options.updates = std::atoll(value.c_str());
      if (options.updates < 1) UsageError("--updates must be >= 1");
    } else if (key == "--protocol") {
      if (value.empty()) UsageError("--protocol needs a name");
      options.protocol = value;
    } else {
      UsageError("unknown flag " + token);
    }
  }
  return options;
}

nmc::sim::ProtocolParams Params(const E15Options& options) {
  nmc::sim::ProtocolParams params;
  params.epsilon = kEpsilon;
  params.horizon_n = options.updates;
  params.seed = kCounterSeed;
  return params;
}

std::unique_ptr<nmc::sim::Protocol> FreshProtocol(const E15Options& options) {
  return nmc::sim::ProtocolRegistry::Global().Create(
      options.protocol, options.sites, Params(options));
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One pass of the single-threaded reference: the sim transport's own pump
/// on the same shards — RunWithTransport(kSim), which interleaves them
/// round-robin and feeds the stream through the tracking checker, exactly
/// what --transport=sim runs. This is the pump the concurrent backends'
/// update throughput is judged against.
double SimTransportUpdatesPerSec(
    const E15Options& options, const std::vector<std::vector<double>>& shards) {
  const std::unique_ptr<nmc::sim::Protocol> protocol = FreshProtocol(options);
  nmc::runtime::RunConfig config;
  config.protocol = protocol.get();
  config.shards = shards;
  config.tracking.epsilon = kEpsilon;
  const auto start = std::chrono::steady_clock::now();
  const nmc::runtime::RunResult result =
      nmc::runtime::RunWithTransport(TransportKind::kSim, config);
  const double elapsed = Seconds(start);
  return elapsed > 0.0 ? static_cast<double>(result.tracking.n) / elapsed
                       : 0.0;
}

/// One pass at a reader count on a concurrent backend (threads or sockets),
/// through the unified transport entry point.
struct ServingPass {
  double updates_per_sec = 0.0;
  double reads_per_sec = 0.0;
  /// Reader snapshots retried because a publish overlapped them.
  double read_retries = 0.0;
};

ServingPass RunServingPass(const E15Options& options,
                             const std::vector<std::vector<double>>& shards,
                             int readers, TransportKind kind) {
  const std::unique_ptr<nmc::sim::Protocol> protocol = FreshProtocol(options);
  nmc::runtime::RunConfig config;
  config.protocol = protocol.get();
  config.shards = shards;
  config.threaded.num_readers = readers;
  config.sockets.num_readers = readers;
  config.sockets.epsilon = kEpsilon;
  const auto start = std::chrono::steady_clock::now();
  const nmc::runtime::RunResult result =
      nmc::runtime::RunWithTransport(kind, config);
  const double elapsed = Seconds(start);
  ServingPass pass;
  if (elapsed > 0.0) {
    pass.updates_per_sec =
        static_cast<double>(result.serving.updates) / elapsed;
    pass.reads_per_sec =
        static_cast<double>(result.serving.total_reads) / elapsed;
  }
  pass.read_retries = static_cast<double>(result.serving.torn_reads);
  return pass;
}

/// One reader-count point: each figure is summarized over kPasses passes.
struct ServingPoint {
  int readers = 0;
  Timed updates_per_sec;
  Timed reads_per_sec;
  Timed read_retries;
};

ServingPoint RunServingPoint(const E15Options& options,
                             const std::vector<std::vector<double>>& shards,
                             int readers, TransportKind kind) {
  std::vector<double> updates(kPasses), reads(kPasses), retries(kPasses);
  for (int i = 0; i < kPasses; ++i) {
    const ServingPass pass = RunServingPass(options, shards, readers, kind);
    updates[i] = pass.updates_per_sec;
    reads[i] = pass.reads_per_sec;
    retries[i] = pass.read_retries;
  }
  return ServingPoint{readers, Summarize(updates), Summarize(reads),
                      Summarize(retries)};
}

/// A small captured run replayed against the deterministic simulator: every
/// published estimate and every reader snapshot must be bit-identical to
/// the oracle's trajectory at its generation. Aborts the bench (exit 1) on
/// a violation — a concurrency bug, not a perf result.
bool VerifyLinearizable(const E15Options& options, TransportKind kind) {
  E15Options small = options;
  small.updates = std::min<int64_t>(options.updates, 1 << 14);
  const std::vector<double> stream = nmc::streams::BernoulliStream(
      small.updates, 0.0, kStreamSeed);
  const std::vector<std::vector<double>> shards =
      nmc::runtime::ShardRoundRobin(stream, small.sites);

  const std::unique_ptr<nmc::sim::Protocol> protocol = FreshProtocol(small);
  nmc::runtime::RunConfig config;
  config.protocol = protocol.get();
  config.shards = shards;
  config.threaded.num_readers = 2;
  config.threaded.capture = true;
  config.sockets.num_readers = 2;
  config.sockets.capture = true;
  config.sockets.epsilon = kEpsilon;
  const nmc::runtime::RunResult result =
      nmc::runtime::RunWithTransport(kind, config);

  const std::unique_ptr<nmc::sim::Protocol> oracle = FreshProtocol(small);
  const nmc::runtime::LinearizabilityReport report =
      nmc::runtime::CheckLinearizable(result, oracle.get());
  if (!report.linearizable) {
    std::fprintf(stderr, "LINEARIZABILITY VIOLATION: %s\n",
                 report.failure.c_str());
    return false;
  }
  std::printf("linearizability: %lld publishes + %lld reader snapshots "
              "replay bit-identically against the sim oracle\n",
              static_cast<long long>(report.publishes_checked),
              static_cast<long long>(report.samples_checked));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> rest;
  nmc::bench::InitBenchRest(argc, argv, "bench_e15_concurrent_serving", &rest);
  const E15Options options = ParseOwnFlags(rest);
  nmc::registry::RegisterBuiltinProtocols();
  if (!nmc::sim::ProtocolRegistry::Global().Contains(options.protocol)) {
    UsageError("unknown protocol '" + options.protocol + "'");
  }

  nmc::bench::Banner(
      "E15 — concurrent serving: threaded transport vs simulator pump",
      "same protocol state machine; the runtime adds wait-free reads");
  std::printf("sites=%d updates=%lld protocol=%s transport=%s\n",
              options.sites, static_cast<long long>(options.updates),
              options.protocol.c_str(),
              nmc::runtime::TransportKindName(BenchTransport()));

  const std::vector<double> stream = nmc::streams::BernoulliStream(
      options.updates, 0.0, kStreamSeed);
  const std::vector<std::vector<double>> shards =
      nmc::runtime::ShardRoundRobin(stream, options.sites);

  std::vector<double> sim_passes(kPasses);
  for (double& pass : sim_passes) {
    pass = SimTransportUpdatesPerSec(options, shards);
  }
  const Timed sim = Summarize(sim_passes);
  const double sim_ups = sim.median;
  std::printf("\nsim pump (--transport=sim, one thread): %.3e updates/sec "
              "(median of %d passes, iqr %.2e)\n",
              sim_ups, kPasses, sim.iqr);
  RecordMetric("sim_pump_updates_per_sec", sim_ups);

  const TransportKind kind = BenchTransport();
  if (kind == TransportKind::kSim) {
    std::printf("(--transport=sim: skipping the concurrent sweep)\n");
    return nmc::bench::FinishBench();
  }
  const char* kind_name = nmc::runtime::TransportKindName(kind);

  std::vector<int> sweep;
  if (options.readers > 0) {
    sweep.push_back(options.readers);
  } else {
    sweep = {1, 2, 4, 8};
  }
  std::printf("\n-- %s backend: %d sites, m reader threads; medians of %d "
              "passes (iqr) --\n",
              kind_name, options.sites, kPasses);
  std::printf("%8s  %22s  %22s  %18s\n", "readers", "updates/sec (iqr)",
              "reads/sec (iqr)", "read retries (iqr)");
  std::vector<ServingPoint> points;
  for (const int m : sweep) {
    points.push_back(RunServingPoint(options, shards, m, kind));
    const ServingPoint& p = points.back();
    std::printf("%8d  %10.3e (%9.2e)  %10.3e (%9.2e)  %8.0f (%7.1f)\n",
                p.readers, p.updates_per_sec.median, p.updates_per_sec.iqr,
                p.reads_per_sec.median, p.reads_per_sec.iqr,
                p.read_retries.median, p.read_retries.iqr);
    char name[64];
    std::snprintf(name, sizeof(name), "%s_updates_per_sec_m%d", kind_name,
                  p.readers);
    RecordMetric(name, p.updates_per_sec.median);
    std::snprintf(name, sizeof(name), "reads_per_sec_m%d", p.readers);
    RecordMetric(name, p.reads_per_sec.median);
  }

  const ServingPoint& first = points.front();
  if (sim_ups > 0.0) {
    char name[64];
    std::snprintf(name, sizeof(name), "%s_vs_sim_pump", kind_name);
    RecordMetric(name, first.updates_per_sec.median / sim_ups);
    std::printf("\n%s/sim update throughput: %.2fx (transport overhead; >1x "
                "needs real cores for the sites)\n",
                kind_name, first.updates_per_sec.median / sim_ups);
  }
  if (points.size() > 1 && first.reads_per_sec.median > 0.0) {
    const double scaling =
        points.back().reads_per_sec.median / first.reads_per_sec.median;
    RecordMetric("reader_scaling", scaling);
    std::printf("reader scaling m=%d vs m=%d: %.2fx (wait-free reads; "
                "scaling needs >= m cores)\n",
                points.back().readers, first.readers, scaling);
  }

  std::printf("\n-- linearizability (captured %s run vs sim oracle) --\n",
              kind_name);
  if (!VerifyLinearizable(options, kind)) return 1;
  return nmc::bench::FinishBench();
}
