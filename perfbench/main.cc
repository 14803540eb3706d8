// nmc_perfbench — the repository benchmark's measuring program.
//
//   nmc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--updates N] [--out_dir DIR] [--git_commit SHA]
//                 [--source_digest HEX]
//
// Repeats one workload (see workloads.cc) until S seconds have been spent
// in repetitions, each with its own stream and counter seed derived from
// --seed. With --trace 0 it reports the end-to-end metrics; with --trace 1
// it runs each repetition untraced and traced on the same input and
// reports the per-layer metrics, and writes the span file. The last line
// of stdout is the result object; exit status 1 means a correctness check
// failed, 2 a usage error.

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/simd_dispatch.h"
#include "common/statistics.h"
#include "probes.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using nmc::runtime::TransportKind;

constexpr int kMinReps = 3;
/// A traced repetition's trace fails when |wall time - sum of layer self
/// times| exceeds kReconcileTolerance * wall time + kReconcileSlackNs. The
/// wall time (setup + transport call) is taken outside the tracer; the
/// slack covers the few clock reads between it and the root spans, which
/// matter only at smoke sizes.
constexpr double kReconcileTolerance = 1e-3;
constexpr double kReconcileSlackNs = 20e3;
/// Spans kept verbatim for the trace file (roots are always kept).
constexpr size_t kKeptSpans = 1 << 14;
constexpr int kProbeRepeats = 5;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The per-layer metrics of a traced run, in report order. Each is the
/// median over repetitions (probes: over kProbeRepeats); 0 where the
/// workload does not exercise the layer.
constexpr MetricDef kLayerMetrics[] = {
    {"streams.gen_s", "s"},
    {"streams.gen_ns_per_update", "ns"},
    {"core.calls", "count"},
    {"core.updates_per_call", "update/call"},
    {"core.silent_s", "s"},
    {"core.msg_s", "s"},
    {"core.msg_calls", "count"},
    {"core.call_ns_p50", "ns"},
    {"core.call_ns_p99", "ns"},
    {"core.call_samples", "count"},
    {"core.broadcasts", "count"},
    {"core.arena_high_water_bytes", "bytes"},
    {"sim.track_s", "s"},
    {"sim.checker_self_s", "s"},
    {"sim.checker_share", "share"},
    {"runtime.run_s", "s"},
    {"runtime.coord_protocol_share", "share"},
    {"runtime.coord_transport_s", "s"},
    {"runtime.publishes", "count"},
    {"runtime.updates_per_publish", "update/publish"},
    {"runtime.torn_read_share", "share"},
    {"runtime.reads_per_s", "1/s"},
    {"runtime.echo_delivery_ratio", "share"},
    {"runtime.frames_per_poll_round", "frame/round"},
    {"runtime.useful_frame_ratio", "share"},
    {"runtime.wire_frames_per_update", "frame/update"},
    {"runtime.nacks", "count"},
    {"runtime.site_cpu_s", "s"},
    {"common.spsc_ns_per_item", "ns"},
    {"common.seqlock_publish_ns", "ns"},
    {"common.seqlock_read_ns", "ns"},
    {"wire.codec_ns_per_frame", "ns"},
    {"proc.cpu_util", "share"},
    {"trace.overhead_share", "share"},
    {"trace.unattributed_share", "share"},
    {"check.error_rate", "share"},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  int64_t updates = 0;
  std::string out_dir = ".bench_out";
  std::string git_commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void Usage(const std::string& message) {
  std::fprintf(stderr,
               "nmc_perfbench: %s\nusage: nmc_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--updates N] "
               "[--out_dir DIR] [--git_commit SHA] [--source_digest HEX]\n",
               message.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + key);
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed must be a non-negative integer");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) Usage("bad --seconds");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      args.trace = value == "1" ? 1 : 0;
    } else if (key == "--updates") {
      args.updates = std::strtoll(value.c_str(), &end, 10);
      if (*end != '\0' || args.updates < 64) Usage("--updates must be >= 64");
    } else if (key == "--out_dir") {
      args.out_dir = value;
    } else if (key == "--git_commit") {
      args.git_commit = value;
    } else if (key == "--source_digest") {
      args.source_digest = value;
    } else {
      Usage("unknown flag " + key);
    }
  }
  if (args.workload.empty() || args.seconds <= 0.0 || args.trace < 0) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

/// Metrics in insertion order, rendered as {"name": {"value", "unit"}}.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonString(entries_[i].name) +
             ": {\"value\": " + JsonNumber(entries_[i].value) +
             ", \"unit\": " + JsonString(entries_[i].unit) + "}";
    }
    return out + "}";
  }
  void Print() const {
    for (const Entry& e : entries_) {
      std::printf("  %-34s %16.6g %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// nmc::common::Quantile, or 0 for no values.
double QuantileOr0(const std::vector<double>& values, double q) {
  return values.empty() ? 0.0 : nmc::common::Quantile(values, q);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string StampJson(const Args& args, const Workload& w, int64_t updates) {
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) != 0) std::strcpy(host, "unknown");
  std::string out = "{";
  out += "\"host\": " + JsonString(host);
  out += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"cpu_model\": " + JsonString(CpuModel());
  out += ", \"compiler\": " +
         JsonString(std::string(NMC_PERFBENCH_COMPILER) + " (" + __VERSION__ +
                    ")");
  out += ", \"build_type\": " + JsonString(NMC_PERFBENCH_BUILD_TYPE);
  out += ", \"simd\": " +
         JsonString(nmc::common::SimdLevelName(nmc::common::ActiveSimdLevel()));
  out += ", \"git_commit\": " + JsonString(args.git_commit);
  out += ", \"source_digest\": " + JsonString(args.source_digest);
  out += ", \"workload\": " + JsonString(std::string(w.name));
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"updates_per_rep\": " + std::to_string(updates);
  out += ", \"sites\": " + std::to_string(w.sites);
  out += ", \"readers\": " + std::to_string(w.readers);
  out += ", \"epsilon\": " + JsonNumber(kEpsilon);
  out += ", \"mu\": " + JsonNumber(w.mu);
  out += ", \"seconds\": " + JsonNumber(args.seconds);
  out += ", \"trace\": " + std::to_string(args.trace);
  return out + "}";
}

double PeakRssMb() {
  struct rusage self {};
  struct rusage children {};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

/// Per-repetition samples of one metric, reported as their median.
class Samples {
 public:
  void Add(const std::string& name, double value) {
    series_[name].push_back(value);
  }
  double Median(const std::string& name) const {
    const auto it = series_.find(name);
    return it == series_.end() ? 0.0 : QuantileOr0(it->second, 0.5);
  }
  const std::vector<double>& Series(const std::string& name) {
    return series_[name];
  }

 private:
  std::map<std::string, std::vector<double>> series_;
};

struct Tally {
  int64_t attempted = 0;
  Failures failures;

  void Count(int64_t updates, const Failures& found) {
    attempted += updates;
    failures.Merge(found);
  }
};

void RecordTracedRep(const Workload& w, const RepOutcome& plain,
                     const RepOutcome& traced, double traced_setup_s,
                     const Tracer& tracer, int64_t updates, Samples* s,
                     Tally* tally) {
  const double ns = 1e-9;
  const bool sim = w.transport == TransportKind::kSim;
  const bool sockets = w.transport == TransportKind::kSockets;
  const LayerTotals& t = tracer.totals();
  const int64_t run_ns = t.total(SpanKind::kRun);
  const int64_t core_ns =
      t.total(SpanKind::kProcessBatch) + t.total(SpanKind::kProcessUpdate);
  const int64_t core_calls =
      t.calls(SpanKind::kProcessBatch) + t.calls(SpanKind::kProcessUpdate);
  // Wall time of the traced setup and transport call, timed outside the
  // tracer; the layers' self times must account for all of it. A span
  // left open, or a call the root spans do not cover, shows up here.
  const double wall_ns = (traced_setup_s + traced.run_s) / ns;
  const double unattributed_ns = wall_ns - static_cast<double>(t.self_sum());
  const double unattributed = Ratio(unattributed_ns, wall_ns);

  // The trace must reconcile, and (sim is deterministic) the decorated run
  // must reproduce the plain run exactly.
  Failures failures;
  if (tracer.open_spans() != 0 ||
      std::abs(unattributed_ns) >
          kReconcileTolerance * wall_ns + kReconcileSlackNs) {
    failures.Add("trace_does_not_reconcile", 1);
  }
  if (sim && (plain.messages != traced.messages ||
              std::bit_cast<uint64_t>(plain.final_estimate) !=
                  std::bit_cast<uint64_t>(traced.final_estimate) ||
              plain.run.tracking.violation_steps !=
                  traced.run.tracking.violation_steps)) {
    failures.Add("decorator_changed_result", 1);
  }
  tally->Count(0, failures);

  s->Add("streams.gen_s",
         static_cast<double>(t.total(SpanKind::kFillChunk)) * ns);
  s->Add("streams.gen_ns_per_update",
         Ratio(static_cast<double>(t.total(SpanKind::kFillChunk)),
               static_cast<double>(updates)));
  s->Add("core.calls", static_cast<double>(core_calls));
  s->Add("core.updates_per_call", Ratio(static_cast<double>(traced.consumed),
                                        static_cast<double>(core_calls)));
  s->Add("core.silent_s", static_cast<double>(t.silent_ns) * ns);
  s->Add("core.msg_s", static_cast<double>(t.messaging_ns) * ns);
  s->Add("core.msg_calls", static_cast<double>(t.messaging_calls));
  s->Add("core.call_ns_p50", t.core_call_ns.Quantile(0.50));
  s->Add("core.call_ns_p99", t.core_call_ns.Quantile(0.99));
  s->Add("core.call_samples", static_cast<double>(t.core_call_ns.count()));
  s->Add("core.broadcasts", static_cast<double>(traced.broadcasts));
  s->Add("core.arena_high_water_bytes",
         static_cast<double>(traced.arena_high_water_bytes));

  const double run_s = static_cast<double>(run_ns) * ns;
  const double run_self_s = static_cast<double>(t.self(SpanKind::kRun)) * ns;
  s->Add("sim.track_s", sim ? run_s : 0.0);
  s->Add("sim.checker_self_s", sim ? run_self_s : 0.0);
  s->Add("sim.checker_share", sim ? Ratio(run_self_s, run_s) : 0.0);

  const nmc::runtime::ThreadedRunResult& serving = traced.run.serving;
  const nmc::runtime::SocketStats& link = traced.run.sockets;
  s->Add("runtime.run_s", run_s);
  s->Add("runtime.coord_protocol_share",
         sim ? 0.0 : Ratio(static_cast<double>(core_ns),
                           static_cast<double>(run_ns)));
  s->Add("runtime.coord_transport_s", sim ? 0.0 : run_self_s);
  s->Add("runtime.publishes", static_cast<double>(serving.publishes));
  s->Add("runtime.updates_per_publish",
         Ratio(static_cast<double>(serving.updates),
               static_cast<double>(serving.publishes)));
  s->Add("runtime.torn_read_share",
         Ratio(static_cast<double>(serving.torn_reads),
               static_cast<double>(serving.total_reads + serving.torn_reads)));
  // Read and frame rates are taken from the untraced run of the pair.
  s->Add("runtime.reads_per_s",
         Ratio(static_cast<double>(plain.run.serving.total_reads),
               plain.run_s));
  s->Add("runtime.echo_delivery_ratio",
         Ratio(static_cast<double>(sockets ? link.echoes_acked
                                           : serving.echoes_received),
               static_cast<double>(serving.echoes_sent)));
  s->Add("runtime.frames_per_poll_round",
         Ratio(static_cast<double>(link.frames),
               static_cast<double>(link.poll_rounds)));
  s->Add("runtime.useful_frame_ratio",
         Ratio(static_cast<double>(serving.updates),
               static_cast<double>(link.frames)));
  s->Add("runtime.wire_frames_per_update",
         Ratio(static_cast<double>(plain.run.sockets.frames),
               static_cast<double>(plain.consumed)));
  s->Add("runtime.nacks", static_cast<double>(link.nacks_sent));
  s->Add("runtime.site_cpu_s", sockets ? traced.cpu_children_s : 0.0);
  s->Add("proc.cpu_util",
         Ratio(traced.cpu_self_s + traced.cpu_children_s, traced.run_s));
  s->Add("trace.unattributed_share", unattributed);
  s->Add("plain_updates_per_s",
         Ratio(static_cast<double>(plain.consumed), plain.run_s));
  s->Add("traced_updates_per_s",
         Ratio(static_cast<double>(traced.consumed), traced.run_s));
}

/// Runs the layer probes at the workload's own volume (0 where the
/// workload does not use the layer). The wire codec also runs on the
/// threads workload, at one frame per update (what the sockets transport
/// sends for the same stream), so the benchmark's workloads measure it
/// without the sockets workload.
void RunProbes(const Workload& w, int64_t updates, Samples* s, Tally* tally) {
  const bool threads = w.transport == TransportKind::kThreads;
  const bool sockets = w.transport == TransportKind::kSockets;
  const nmc::runtime::ThreadedRunOptions defaults;
  const auto publishes = static_cast<int64_t>(s->Median("runtime.publishes"));
  for (int r = 0; r < kProbeRepeats; ++r) {
    double spsc = 0.0;
    if (threads) {
      spsc = ProbeSpscNsPerItem(updates, defaults.mailbox_capacity,
                                defaults.max_pull);
      if (spsc < 0.0) tally->failures.Add("spsc_probe_wrong_output", 1);
    }
    s->Add("common.spsc_ns_per_item", spsc);
    SeqlockProbe seqlock;
    if (threads || sockets) {
      seqlock = ProbeSeqlock(publishes, publishes);
      if (!seqlock.ok) tally->failures.Add("seqlock_probe_wrong_output", 1);
    }
    s->Add("common.seqlock_publish_ns", seqlock.publish_ns);
    s->Add("common.seqlock_read_ns", seqlock.read_ns);
    double codec = 0.0;
    if (threads || sockets) {
      const double frames_per_update =
          sockets ? s->Median("runtime.wire_frames_per_update") : 1.0;
      codec = ProbeWireCodecNsPerFrame(static_cast<int64_t>(
          frames_per_update * static_cast<double>(updates)));
      if (codec < 0.0) tally->failures.Add("wire_probe_wrong_output", 1);
    }
    s->Add("wire.codec_ns_per_frame", codec);
  }
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* found = FindWorkload(args.workload);
  if (found == nullptr) Usage("unknown workload " + args.workload);
  Workload w = *found;
  const int64_t updates = args.updates > 0 ? args.updates : w.updates;
  w.verify_updates = std::min(w.verify_updates, updates);
  const bool traced_mode = args.trace == 1;
  const std::string stamp = StampJson(args, w, updates);
  std::printf("nmc_perfbench %s\nstamp %s\n", std::string(w.name).c_str(),
              stamp.c_str());

  Tally tally;
  if (w.transport != TransportKind::kSim) {
    const Verification v = VerifyConcurrent(w, args.seed);
    tally.Count(v.updates, v.failures);
  }

  Samples samples;
  Tracer tracer(kKeptSpans);
  int64_t messages = 0;
  int64_t consumed = 0;
  int reps = 0;
  const int64_t start = Tracer::NowNs();
  const auto elapsed_s = [&]() {
    return static_cast<double>(Tracer::NowNs() - start) / 1e9;
  };
  while (reps < kMinReps || elapsed_s() < args.seconds) {
    const uint64_t rep_seed =
        MixSeed(args.seed, 1000 + static_cast<uint64_t>(reps));
    if (traced_mode) tracer.BeginRun();
    RepInput input =
        Setup(w, updates, rep_seed, traced_mode ? &tracer : nullptr);
    const RepOutcome plain = Execute(w, input, input.counter.get(), nullptr);
    tally.Count(plain.updates, plain.failures);
    samples.Add("setup_s", input.setup_s);
    samples.Add("updates_per_s",
                Ratio(static_cast<double>(plain.consumed), plain.run_s));
    samples.Add("reads_per_s",
                Ratio(static_cast<double>(plain.run.serving.total_reads),
                      plain.run_s));
    samples.Add("wire_frames_per_update",
                Ratio(static_cast<double>(plain.run.sockets.frames),
                      static_cast<double>(plain.consumed)));
    messages += plain.messages;
    consumed += plain.consumed;
    if (traced_mode) {
      const auto counter = MakeCounter(w, updates, input.counter_seed);
      const RepOutcome traced = Execute(w, input, counter.get(), &tracer);
      tally.Count(traced.updates, traced.failures);
      RecordTracedRep(w, plain, traced, input.setup_s, tracer, updates,
                      &samples, &tally);
    }
    ++reps;
  }
  const double measured_s = elapsed_s();

  MetricSet e2e;
  e2e.Add("updates_per_s", samples.Median("updates_per_s"), "1/s");
  e2e.Add("msgs_per_update",
          Ratio(static_cast<double>(messages), static_cast<double>(consumed)),
          "msg/update");
  e2e.Add("setup_s", samples.Median("setup_s"), "s");
  e2e.Add("peak_rss_mb", PeakRssMb(), "MB");
  MetricSet layers;
  if (traced_mode) {
    RunProbes(w, updates, &samples, &tally);
    samples.Add("trace.overhead_share",
                1.0 - Ratio(samples.Median("traced_updates_per_s"),
                            samples.Median("plain_updates_per_s")));
    samples.Add("check.error_rate",
                Ratio(static_cast<double>(tally.failures.total()),
                      static_cast<double>(tally.attempted)));
    for (const MetricDef& m : kLayerMetrics) {
      layers.Add(m.name, samples.Median(m.name), m.unit);
    }
  }
  const bool correct = tally.failures.total() == 0;
  const std::string failures_text = tally.failures.Describe();

  // Everything a reader needs to place the numbers: the stamp, the spread
  // of the timed repetitions, and the metrics the final line leaves out
  // because they are zero on some workloads.
  const std::vector<double>& rates = samples.Series("updates_per_s");
  std::string record = "{\"stamp\": " + stamp;
  record += ", \"reps\": " + std::to_string(reps);
  record += ", \"measured_s\": " + JsonNumber(measured_s);
  record += ", \"updates_per_s_p25\": " + JsonNumber(QuantileOr0(rates, 0.25));
  record += ", \"updates_per_s_p75\": " + JsonNumber(QuantileOr0(rates, 0.75));
  record += ", \"updates_per_s_reps\": [";
  for (size_t i = 0; i < rates.size(); ++i) {
    record += (i == 0 ? "" : ", ") + JsonNumber(rates[i]);
  }
  record += "]";
  record += ", \"reads_per_s\": " + JsonNumber(samples.Median("reads_per_s"));
  record += ", \"wire_frames_per_update\": " +
            JsonNumber(samples.Median("wire_frames_per_update"));
  record += ", \"error_rate\": " +
            JsonNumber(Ratio(static_cast<double>(tally.failures.total()),
                             static_cast<double>(tally.attempted)));
  record += ", \"end_to_end\": " + e2e.Json();
  if (traced_mode) record += ", \"per_layer\": " + layers.Json();
  record += ", \"correct\": " + std::string(correct ? "true" : "false");
  record += ", \"attempted\": " + std::to_string(tally.attempted);
  record += ", \"failed\": " + std::to_string(tally.failures.total());
  record += ", \"failures\": " + JsonString(failures_text) + "}";

  mkdir(args.out_dir.c_str(), 0755);
  const std::string base = args.out_dir + "/" + std::string(w.name) + "-seed" +
                           std::to_string(args.seed);
  const std::string record_path =
      base + (traced_mode ? "-trace1.json" : "-trace0.json");
  if (std::FILE* f = std::fopen(record_path.c_str(), "w")) {
    std::fprintf(f, "%s\n", record.c_str());
    std::fclose(f);
  }
  if (traced_mode) {
    const std::string trace_path = base + ".trace.json";
    if (!tracer.WriteChromeTrace(trace_path, stamp)) {
      std::fprintf(stderr, "nmc_perfbench: cannot write %s\n",
                   trace_path.c_str());
    }
    std::printf("spans kept %zu, dropped %lld, written to %s\n",
                tracer.kept(), static_cast<long long>(tracer.dropped()),
                trace_path.c_str());
  }

  std::printf("reps %d in %.3f s, attempted %lld, failed %lld%s%s\n", reps,
              measured_s, static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failures.total()),
              failures_text.empty() ? "" : ": ", failures_text.c_str());
  (traced_mode ? layers : e2e).Print();
  std::printf("record %s\n", record.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failures.total()),
              (traced_mode ? layers : e2e).Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
