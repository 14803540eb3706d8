#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Span kinds the benchmark records around its calls into the program.
/// Every span is opened and closed by the benchmark's own code, on the
/// thread that drives the protocol (the caller of RunWithTransport, which
/// is also the coordinator on the concurrent backends).
enum class SpanKind : uint32_t {
  kSetup = 0,     // stream generation + sharding + protocol construction
  kFillChunk,     // sim::StreamSource::FillChunk (streams layer)
  kRun,           // runtime::RunWithTransport
  kProcessBatch,  // sim::Protocol::ProcessBatch on the real counter (core)
  kProcessUpdate, // sim::Protocol::ProcessUpdate on the real counter (core)
  kCount,
};

inline constexpr size_t kSpanKinds = static_cast<size_t>(SpanKind::kCount);

const char* SpanName(SpanKind kind);

/// Core spans carry whether the call sent any protocol message.
enum class SpanTag : uint32_t { kNone = 0, kSilent = 1, kMessaging = 2 };

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the kept spans, -1 for a root
  int32_t run_id = 0;
  SpanKind kind = SpanKind::kSetup;
  SpanTag tag = SpanTag::kNone;
};

/// Log-linear histogram of durations in ns (1/32 relative resolution), so
/// percentiles over millions of calls need no per-call storage.
class DurationHistogram {
 public:
  void Add(int64_t ns);
  int64_t count() const { return count_; }
  /// Value at quantile q in [0, 1] (bucket midpoint); 0 when empty.
  double Quantile(double q) const;

 private:
  static constexpr int kSub = 32;
  static size_t Bucket(int64_t ns);
  static double BucketMid(size_t bucket);
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
};

/// Per-run layer accounting, fed as spans close. Self time of a span is
/// its duration minus the summed durations of its direct children.
struct LayerTotals {
  std::array<int64_t, kSpanKinds> self_ns{};
  std::array<int64_t, kSpanKinds> total_ns{};
  std::array<int64_t, kSpanKinds> count{};
  int64_t silent_ns = 0;
  int64_t messaging_ns = 0;
  int64_t messaging_calls = 0;
  DurationHistogram core_call_ns;

  int64_t self(SpanKind k) const { return self_ns[static_cast<size_t>(k)]; }
  int64_t total(SpanKind k) const { return total_ns[static_cast<size_t>(k)]; }
  int64_t calls(SpanKind k) const { return count[static_cast<size_t>(k)]; }
  /// Sum of every kind's self time: the time the closed root spans cover.
  int64_t self_sum() const;
};

/// In-memory span recorder. Spans nest strictly (a stack) and are only
/// touched from one thread. Every span feeds the LayerTotals of the
/// current run when it closes; every root span and the first `keep_limit`
/// spans of the whole process are also kept verbatim and written once, at
/// the end, as Chrome trace-event JSON.
class Tracer {
 public:
  explicit Tracer(size_t keep_limit);

  /// Starts a new run id and clears the per-run totals.
  void BeginRun();
  const LayerTotals& totals() const { return totals_; }

  void Open(SpanKind kind) {
    const int64_t now = NowNs();
    const int32_t parent = stack_.empty() ? -1 : stack_.back().kept_index;
    int32_t kept_index = -1;
    // Roots (one setup and one run span per repetition) are always kept,
    // so the file shows every repetition even past the limit.
    if (kept_.size() < keep_limit_ || stack_.empty()) {
      kept_index = static_cast<int32_t>(kept_.size());
      kept_.push_back(Span{now, 0, parent, run_id_, kind, SpanTag::kNone});
    } else {
      ++dropped_;
    }
    stack_.push_back(Frame{kind, now, 0, kept_index});
  }

  void Close(SpanTag tag = SpanTag::kNone) { CloseAt(NowNs(), tag); }

  /// Spans opened but not yet closed; 0 between repetitions.
  size_t open_spans() const { return stack_.size(); }
  size_t kept() const { return kept_.size(); }
  int64_t dropped() const { return dropped_; }

  /// Writes the kept spans as Chrome trace-event JSON ("X" events, ts/dur
  /// in microseconds, parent and run id in args). Returns false when the
  /// file cannot be written.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& metadata_json) const;

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  struct Frame {
    SpanKind kind;
    int64_t start_ns;
    int64_t child_ns;
    int32_t kept_index;
  };

  void CloseAt(int64_t end_ns, SpanTag tag);

  size_t keep_limit_;
  std::vector<Span> kept_;
  std::vector<Frame> stack_;
  int64_t dropped_ = 0;
  int32_t run_id_ = 0;
  LayerTotals totals_;
};

}  // namespace perfbench
