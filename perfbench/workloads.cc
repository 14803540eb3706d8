#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "sim/assignment.h"
#include "sim/protocol.h"
#include "sim/stream_source.h"
#include "streams/chunked.h"

namespace perfbench {

namespace {

using nmc::core::DriftMode;
using nmc::runtime::TransportKind;

// name, transport, sites, mu, drift mode, readers, updates, verify updates.
// Threads and sockets keep to 4 threads of load: 2 sites, 1 reader and the
// coordinator (the calling thread).
constexpr Workload kWorkloads[] = {
    {"sim_drift", TransportKind::kSim, 4, 0.1, DriftMode::kUnknownUnitDrift,
     0, int64_t{1} << 22, 0},
    {"sim_nodrift", TransportKind::kSim, 16, 0.0, DriftMode::kZeroDrift, 0,
     int64_t{1} << 20, 0},
    {"threads_drift", TransportKind::kThreads, 2, 0.1,
     DriftMode::kUnknownUnitDrift, 1, int64_t{1} << 22, int64_t{1} << 16},
    {"sockets_drift", TransportKind::kSockets, 2, 0.1,
     DriftMode::kUnknownUnitDrift, 1, int64_t{1} << 20, int64_t{1} << 16},
};

constexpr size_t kChunk = 1 << 14;

/// sim::StreamSource wrapper: one streams.FillChunk span per call.
class TracedSource final : public nmc::sim::StreamSource {
 public:
  TracedSource(nmc::sim::StreamSource* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  int64_t length() const override { return inner_->length(); }

  int64_t FillChunk(std::span<double> out) override {
    tracer_->Open(SpanKind::kFillChunk);
    const int64_t filled = inner_->FillChunk(out);
    tracer_->Close();
    return filled;
  }

 private:
  nmc::sim::StreamSource* inner_;
  Tracer* tracer_;
};

/// sim::Protocol decorator: forwards every call to the real counter and
/// wraps ProcessBatch / ProcessUpdate in a core span tagged silent or
/// messaging by the change in stats().total().
class TracedProtocol final : public nmc::sim::Protocol {
 public:
  TracedProtocol(nmc::sim::Protocol* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  int num_sites() const override { return inner_->num_sites(); }

  void ProcessUpdate(int site_id, double value) override {
    tracer_->Open(SpanKind::kProcessUpdate);
    const int64_t before = inner_->stats().total();
    inner_->ProcessUpdate(site_id, value);
    tracer_->Close(Tag(before));
  }

  int64_t ProcessBatch(int site_id, std::span<const double> values) override {
    tracer_->Open(SpanKind::kProcessBatch);
    const int64_t before = inner_->stats().total();
    const int64_t consumed = inner_->ProcessBatch(site_id, values);
    tracer_->Close(Tag(before));
    return consumed;
  }

  double Estimate() const override { return inner_->Estimate(); }
  bool Resync() override { return inner_->Resync(); }
  const nmc::sim::MessageStats& stats() const override {
    return inner_->stats();
  }

 private:
  SpanTag Tag(int64_t before) const {
    return inner_->stats().total() != before ? SpanTag::kMessaging
                                             : SpanTag::kSilent;
  }

  nmc::sim::Protocol* inner_;
  Tracer* tracer_;
};

/// Replays a captured consumption order through the sim checker: the t-th
/// update goes to the site that delivered it in the concurrent run.
class TranscriptAssignment final : public nmc::sim::AssignmentPolicy {
 public:
  explicit TranscriptAssignment(
      const std::vector<nmc::runtime::TranscriptEntry>* transcript)
      : transcript_(transcript) {}

  int NextSite(int64_t t, double /*value*/) override {
    return static_cast<int>((*transcript_)[static_cast<size_t>(t)].site);
  }

 private:
  const std::vector<nmc::runtime::TranscriptEntry>* transcript_;
};

double CpuSeconds(int who) {
  struct rusage usage {};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

nmc::runtime::RunConfig MakeConfig(const Workload& w, const RepInput& input,
                                   nmc::sim::Protocol* protocol) {
  nmc::runtime::RunConfig config;
  config.protocol = protocol;
  if (w.transport == TransportKind::kSim) {
    config.stream = &input.stream;
  } else {
    config.shards = input.shards;
  }
  config.tracking.epsilon = kEpsilon;
  config.threaded.num_readers = w.readers;
  config.sockets.num_readers = w.readers;
  config.sockets.epsilon = kEpsilon;
  return config;
}

}  // namespace

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::unique_ptr<nmc::core::NonMonotonicCounter> MakeCounter(
    const Workload& w, int64_t updates, uint64_t counter_seed) {
  nmc::core::CounterOptions options;
  options.epsilon = kEpsilon;
  options.horizon_n = updates;
  options.drift_mode = w.drift;
  options.seed = counter_seed;
  return std::make_unique<nmc::core::NonMonotonicCounter>(w.sites, options);
}

RepInput Setup(const Workload& w, int64_t updates, uint64_t rep_seed,
               Tracer* tracer) {
  const int64_t start = Tracer::NowNs();
  if (tracer != nullptr) tracer->Open(SpanKind::kSetup);
  RepInput input;
  input.counter_seed = MixSeed(rep_seed, 2);
  nmc::streams::BernoulliSource bernoulli(updates, w.mu, MixSeed(rep_seed, 1));
  TracedSource traced(&bernoulli, tracer);
  nmc::sim::StreamSource* source =
      tracer != nullptr ? static_cast<nmc::sim::StreamSource*>(&traced)
                        : &bernoulli;
  input.stream.resize(static_cast<size_t>(updates));
  for (size_t filled = 0; filled < input.stream.size();) {
    const size_t want = std::min(kChunk, input.stream.size() - filled);
    const std::span<double> chunk(input.stream.data() + filled, want);
    filled += static_cast<size_t>(source->FillChunk(chunk));
  }
  if (w.transport != TransportKind::kSim) {
    input.shards = nmc::runtime::ShardRoundRobin(input.stream, w.sites);
    input.stream = std::vector<double>();
  }
  input.counter = MakeCounter(w, updates, input.counter_seed);
  if (tracer != nullptr) tracer->Close();
  input.setup_s = static_cast<double>(Tracer::NowNs() - start) / 1e9;
  return input;
}

RepOutcome Execute(const Workload& w, const RepInput& input,
                   nmc::core::NonMonotonicCounter* counter, Tracer* tracer) {
  RepOutcome out;
  TracedProtocol traced(counter, tracer);
  nmc::sim::Protocol* protocol =
      tracer != nullptr ? static_cast<nmc::sim::Protocol*>(&traced) : counter;
  const nmc::runtime::RunConfig config = MakeConfig(w, input, protocol);
  out.updates = static_cast<int64_t>(input.stream.size());
  for (const std::vector<double>& shard : input.shards) {
    out.updates += static_cast<int64_t>(shard.size());
  }

  const double cpu_self = CpuSeconds(RUSAGE_SELF);
  const double cpu_children = CpuSeconds(RUSAGE_CHILDREN);
  const int64_t start = Tracer::NowNs();
  if (tracer != nullptr) tracer->Open(SpanKind::kRun);
  out.run = nmc::runtime::RunWithTransport(w.transport, config);
  if (tracer != nullptr) tracer->Close();
  out.run_s = static_cast<double>(Tracer::NowNs() - start) / 1e9;
  out.cpu_self_s = CpuSeconds(RUSAGE_SELF) - cpu_self;
  out.cpu_children_s = CpuSeconds(RUSAGE_CHILDREN) - cpu_children;

  const nmc::sim::MessageStats& stats = counter->stats();
  out.messages = stats.total();
  out.broadcasts = stats.broadcasts;
  out.arena_high_water_bytes = stats.arena_high_water_bytes;

  // Correctness: every consumed step inside (1±eps)S_t, every offered
  // update consumed, and a sane serving layer.
  Failures& failures = out.failures;
  if (w.transport == TransportKind::kSim) {
    const nmc::sim::TrackingResult& t = out.run.tracking;
    out.consumed = t.n;
    out.final_estimate = t.final_estimate;
    failures.Add("violation_steps", t.violation_steps);
    failures.Add("message_count_mismatch",
                 t.messages != out.messages ? 1 : 0);
  } else {
    const nmc::runtime::ThreadedRunResult& s = out.run.serving;
    out.consumed = s.updates;
    out.final_estimate = s.final_published.estimate;
    failures.Add("generation_regressions", s.generation_regressions);
    if (w.transport == TransportKind::kSockets) {
      const nmc::runtime::SocketStats& k = out.run.sockets;
      failures.Add("violation_steps", k.violation_steps);
      failures.Add("updates_lost", k.updates_lost);
      failures.Add("unexpected_exits", k.unexpected_exits);
      failures.Add("timed_out", k.timed_out ? 1 : 0);
    } else {
      // The threads backend has no per-step checker of its own; check the
      // final published step here (the verification run checks them all).
      double true_sum = 0.0;
      for (const std::vector<double>& shard : input.shards) {
        for (const double value : shard) true_sum += value;
      }
      const double error = std::fabs(out.final_estimate - true_sum);
      failures.Add("final_step_violation",
                   error > kEpsilon * std::fabs(true_sum) + 1e-9 ? 1 : 0);
    }
  }
  failures.Add("updates_not_consumed", out.updates - out.consumed);
  return out;
}

Verification VerifyConcurrent(const Workload& w, uint64_t seed) {
  Verification v;
  const RepInput input = Setup(w, w.verify_updates, MixSeed(seed, 99), nullptr);
  nmc::runtime::RunConfig config = MakeConfig(w, input, input.counter.get());
  config.threaded.capture = true;
  config.sockets.capture = true;
  const nmc::runtime::RunResult run =
      nmc::runtime::RunWithTransport(w.transport, config);
  v.updates = w.verify_updates;

  const auto oracle = MakeCounter(w, w.verify_updates, input.counter_seed);
  const nmc::runtime::LinearizabilityReport report =
      nmc::runtime::CheckLinearizable(run, oracle.get());
  if (!report.linearizable) {
    v.failures.Add("non_linearizable", 1);
    std::fprintf(stderr, "nmc_perfbench: %s\n", report.failure.c_str());
  }

  // Every step of the captured interleaving inside (1±eps)S_t.
  const std::vector<nmc::runtime::TranscriptEntry>& transcript =
      run.serving.transcript;
  v.failures.Add("verify_updates_not_consumed",
                 w.verify_updates - static_cast<int64_t>(transcript.size()));
  std::vector<double> order(transcript.size());
  for (size_t i = 0; i < transcript.size(); ++i) order[i] = transcript[i].value;
  TranscriptAssignment psi(&transcript);
  const auto replay = MakeCounter(w, w.verify_updates, input.counter_seed);
  nmc::runtime::RunConfig replay_config;
  replay_config.protocol = replay.get();
  replay_config.stream = &order;
  replay_config.psi = &psi;
  replay_config.tracking.epsilon = kEpsilon;
  const nmc::runtime::RunResult checked =
      nmc::runtime::RunWithTransport(TransportKind::kSim, replay_config);
  v.failures.Add("verify_violation_steps", checked.tracking.violation_steps);
  if (std::bit_cast<uint64_t>(checked.tracking.final_estimate) !=
      std::bit_cast<uint64_t>(run.serving.final_published.estimate)) {
    v.failures.Add("verify_final_estimate_mismatch", 1);
  }
  return v;
}

}  // namespace perfbench
