#include "trace.h"

#include <bit>
#include <cstdio>

namespace perfbench {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSetup:
      return "bench.setup";
    case SpanKind::kFillChunk:
      return "streams.FillChunk";
    case SpanKind::kRun:
      return "runtime.RunWithTransport";
    case SpanKind::kProcessBatch:
      return "core.ProcessBatch";
    case SpanKind::kProcessUpdate:
      return "core.ProcessUpdate";
    case SpanKind::kCount:
      break;
  }
  return "unknown";
}

size_t DurationHistogram::Bucket(int64_t ns) {
  if (ns < 2 * kSub) return static_cast<size_t>(ns < 0 ? 0 : ns);
  const auto v = static_cast<uint64_t>(ns);
  const int exponent = 63 - std::countl_zero(v);  // >= 6
  const int shift = exponent - 5;                 // keep 5 bits below the top
  const auto sub = static_cast<size_t>((v >> shift) & (kSub - 1));
  return static_cast<size_t>(2 * kSub) +
         static_cast<size_t>(exponent - 6) * kSub + sub;
}

double DurationHistogram::BucketMid(size_t bucket) {
  if (bucket < 2 * kSub) return static_cast<double>(bucket);
  const size_t rel = bucket - 2 * kSub;
  const int exponent = static_cast<int>(rel / kSub) + 6;
  const auto sub = static_cast<double>(rel % kSub);
  const double width = static_cast<double>(int64_t{1} << (exponent - 5));
  const double low = static_cast<double>(int64_t{1} << exponent) + sub * width;
  return low + width / 2.0;
}

void DurationHistogram::Add(int64_t ns) {
  const size_t b = Bucket(ns);
  if (b >= buckets_.size()) buckets_.resize(b + 1, 0);
  ++buckets_[b];
  ++count_;
}

double DurationHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  // Smallest bucket whose cumulative count reaches ceil(q * count).
  auto rank = static_cast<int64_t>(q * static_cast<double>(count_));
  if (rank < 1) rank = 1;
  if (rank > count_) rank = count_;
  int64_t seen = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen >= rank) return BucketMid(b);
  }
  return BucketMid(buckets_.size() - 1);
}

int64_t LayerTotals::self_sum() const {
  int64_t sum = 0;
  for (const int64_t ns : self_ns) sum += ns;
  return sum;
}

Tracer::Tracer(size_t keep_limit) : keep_limit_(keep_limit) {
  kept_.reserve(keep_limit + 1024);
  stack_.reserve(16);
}

void Tracer::BeginRun() {
  ++run_id_;
  totals_ = LayerTotals{};
}

void Tracer::CloseAt(int64_t end_ns, SpanTag tag) {
  const Frame f = stack_.back();
  stack_.pop_back();
  const int64_t duration = end_ns - f.start_ns;
  const auto k = static_cast<size_t>(f.kind);
  totals_.self_ns[k] += duration - f.child_ns;
  totals_.total_ns[k] += duration;
  ++totals_.count[k];
  if (f.kind == SpanKind::kProcessBatch || f.kind == SpanKind::kProcessUpdate) {
    totals_.core_call_ns.Add(duration);
    if (tag == SpanTag::kMessaging) {
      totals_.messaging_ns += duration;
      ++totals_.messaging_calls;
    } else {
      totals_.silent_ns += duration;
    }
  }
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  if (f.kept_index >= 0) {
    Span& span = kept_[static_cast<size_t>(f.kept_index)];
    span.end_ns = end_ns;
    span.tag = tag;
  }
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& metadata_json) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const int64_t origin = kept_.empty() ? 0 : kept_.front().start_ns;
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"metadata\":%s,"
                    "\"dropped_spans\":%lld,\"traceEvents\":[\n",
               metadata_json.c_str(), static_cast<long long>(dropped_));
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    const char* tag = s.tag == SpanTag::kSilent      ? "silent"
                      : s.tag == SpanTag::kMessaging ? "messaging"
                                                     : "";
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"run\":%d,\"tag\":\"%s\"}}",
                 i == 0 ? "" : ",\n", SpanName(s.kind),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, s.run_id, tag);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
