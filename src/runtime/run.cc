#include "runtime/run.h"

#include <bit>
#include <cstdio>

#include "common/check.h"

namespace nmc::runtime {

RunResult RunWithTransport(TransportKind kind, const RunConfig& config) {
  NMC_CHECK(config.protocol != nullptr);
  NMC_CHECK(config.stream != nullptr || !config.shards.empty());
  if (kind == TransportKind::kSim) {
    std::vector<double> interleaved;
    const std::vector<double>* stream = config.stream;
    if (stream == nullptr) {
      interleaved = InterleaveShards(config.shards);
      stream = &interleaved;
    }
    sim::RoundRobinAssignment round_robin(config.protocol->num_sites());
    sim::AssignmentPolicy* psi =
        config.psi != nullptr ? config.psi : &round_robin;
    RunResult out;
    out.tracking =
        sim::RunTracking(*stream, psi, config.protocol, config.tracking);
    return out;
  }
  std::vector<std::vector<double>> owned;
  std::span<const std::vector<double>> shards = config.shards;
  if (shards.empty()) {
    owned = ShardRoundRobin(*config.stream, config.protocol->num_sites());
    shards = owned;
  }
  NMC_CHECK(kind == TransportKind::kThreads ||
            kind == TransportKind::kSockets);
  return kind == TransportKind::kThreads
             ? RunThreaded(config.protocol, shards, config.threaded)
             : RunSockets(config.protocol, shards, config.sockets);
}

std::vector<std::vector<double>> ShardRoundRobin(
    const std::vector<double>& stream, int num_sites) {
  NMC_CHECK_GE(num_sites, 1);
  std::vector<std::vector<double>> shards(static_cast<size_t>(num_sites));
  for (std::vector<double>& shard : shards) {
    shard.reserve(stream.size() / static_cast<size_t>(num_sites) + 1);
  }
  for (size_t t = 0; t < stream.size(); ++t) {
    shards[t % static_cast<size_t>(num_sites)].push_back(stream[t]);
  }
  return shards;
}

std::vector<double> InterleaveShards(
    std::span<const std::vector<double>> shards) {
  size_t total = 0;
  for (const std::vector<double>& shard : shards) total += shard.size();
  std::vector<double> stream;
  stream.reserve(total);
  for (size_t round = 0; stream.size() < total; ++round) {
    for (const std::vector<double>& shard : shards) {
      if (round < shard.size()) stream.push_back(shard[round]);
    }
  }
  return stream;
}

namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

std::string Mismatch(const char* what, int64_t generation, double got,
                     double want) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "%s at generation %lld: observed %.17g, oracle %.17g", what,
                static_cast<long long>(generation), got, want);
  return buffer;
}

}  // namespace

LinearizabilityReport CheckLinearizable(const RunResult& result,
                                        sim::Protocol* oracle) {
  NMC_CHECK(oracle != nullptr);
  LinearizabilityReport report;
  if (result.transport == TransportKind::kSim) {
    report.failure =
        "sim transport runs have no concurrent serving layer to check";
    return report;
  }
  const ThreadedRunResult& run = result.serving;
  if (run.transcript.empty() && run.updates > 0) {
    report.failure = "run was not captured (set the backend's capture option)";
    return report;
  }
  if (run.generation_regressions > 0) {
    report.failure = "a reader observed the published generation regress";
    return report;
  }

  // The oracle trajectory: the deterministic simulator's estimate after
  // each prefix of the captured consumption order, fed one update per
  // call.
  std::vector<double> trajectory;
  trajectory.reserve(run.transcript.size() + 1);
  trajectory.push_back(oracle->Estimate());
  for (const TranscriptEntry& entry : run.transcript) {
    NMC_CHECK_EQ(oracle->ProcessBatch(static_cast<int>(entry.site),
                                      std::span<const double>(&entry.value, 1)),
                 1);
    trajectory.push_back(oracle->Estimate());
  }

  const auto check = [&](const char* what, int64_t generation,
                         double estimate) {
    if (generation < 0 ||
        generation >= static_cast<int64_t>(trajectory.size())) {
      report.failure = Mismatch(what, generation, estimate, 0.0) +
                       " (generation outside the replayed range)";
      return false;
    }
    const double want = trajectory[static_cast<size_t>(generation)];
    if (!SameBits(estimate, want)) {
      report.failure = Mismatch(what, generation, estimate, want);
      return false;
    }
    return true;
  };

  for (const PublishedEstimate& published : run.publish_log) {
    if (!check("publish", published.generation, published.estimate)) {
      return report;
    }
    ++report.publishes_checked;
  }
  for (const std::vector<ReadSample>& samples : run.reader_samples) {
    for (const ReadSample& sample : samples) {
      if (!check("reader snapshot", sample.generation, sample.estimate)) {
        return report;
      }
      ++report.samples_checked;
    }
  }
  report.linearizable = true;
  return report;
}

}  // namespace nmc::runtime
