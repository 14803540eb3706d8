#include "probes.h"

#include <algorithm>
#include <span>
#include <thread>
#include <vector>

#include "common/seqlock.h"
#include "common/spsc_queue.h"
#include "runtime/threaded.h"
#include "runtime/wire.h"
#include "trace.h"

namespace perfbench {

double ProbeSpscNsPerItem(int64_t items, int64_t capacity, int64_t max_pull) {
  if (items <= 0) return 0.0;
  std::vector<double> values(static_cast<size_t>(items));
  double expected = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = (i % 3 == 0) ? -1.0 : 1.0;
    expected += values[i];
  }
  nmc::common::SpscQueue<double> ring(static_cast<size_t>(capacity));
  const int64_t start = Tracer::NowNs();
  std::thread producer([&ring, &values]() {
    const std::span<const double> all(values);
    size_t pos = 0;
    while (pos < all.size()) {
      const size_t pushed = ring.TryPushSpan(all.subspan(pos));
      pos += pushed;
      if (pushed == 0) std::this_thread::yield();
    }
  });
  double drained = 0.0;
  int64_t taken = 0;
  while (taken < items) {
    const std::span<const double> view =
        ring.PeekContiguous(static_cast<size_t>(max_pull));
    if (view.empty()) {
      std::this_thread::yield();
      continue;
    }
    for (const double v : view) drained += v;
    taken += static_cast<int64_t>(view.size());
    ring.Advance(view.size());
  }
  producer.join();
  const int64_t elapsed = Tracer::NowNs() - start;
  if (drained != expected) return -1.0;
  return static_cast<double>(elapsed) / static_cast<double>(items);
}

SeqlockProbe ProbeSeqlock(int64_t publishes, int64_t reads) {
  SeqlockProbe probe;
  if (publishes <= 0 || reads <= 0) return probe;
  nmc::common::Seqlock<nmc::runtime::PublishedEstimate> slot;
  int64_t start = Tracer::NowNs();
  for (int64_t g = 1; g <= publishes; ++g) {
    slot.Publish({g, static_cast<double>(g) * 0.5});
  }
  probe.publish_ns = static_cast<double>(Tracer::NowNs() - start) /
                     static_cast<double>(publishes);
  int64_t generation_sum = 0;
  int64_t good = 0;
  start = Tracer::NowNs();
  for (int64_t r = 0; r < reads; ++r) {
    nmc::runtime::PublishedEstimate snapshot;
    if (slot.TryRead(&snapshot)) {
      generation_sum += snapshot.generation;
      ++good;
    }
  }
  probe.read_ns = static_cast<double>(Tracer::NowNs() - start) /
                  static_cast<double>(reads);
  probe.ok = good == reads && generation_sum == reads * publishes;
  return probe;
}

double ProbeWireCodecNsPerFrame(int64_t frames) {
  if (frames <= 0) return 0.0;
  namespace wire = nmc::runtime::wire;
  // Encode and decode in slices of a socket read buffer's size, so the
  // byte buffer stays small whatever the volume.
  constexpr size_t kFramesPerSlice = 16384 / wire::kFrameBytes;
  std::vector<uint8_t> bytes(kFramesPerSlice * wire::kFrameBytes);
  wire::FrameReassembler reassembler;
  nmc::sim::Message message;
  nmc::sim::Message decoded;
  bool ok = true;
  const int64_t start = Tracer::NowNs();
  for (int64_t done = 0; done < frames;) {
    const auto slice = static_cast<size_t>(std::min<int64_t>(
        frames - done, static_cast<int64_t>(kFramesPerSlice)));
    for (size_t i = 0; i < slice; ++i) {
      message.u = done + static_cast<int64_t>(i);
      message.a = (message.u % 3 == 0) ? -1.0 : 1.0;
      wire::EncodeFrame(message, bytes.data() + i * wire::kFrameBytes);
    }
    reassembler.Feed(
        std::span<const uint8_t>(bytes.data(), slice * wire::kFrameBytes));
    for (size_t i = 0; i < slice; ++i) {
      if (reassembler.Next(&decoded) != wire::DecodeStatus::kOk ||
          decoded.u != done + static_cast<int64_t>(i)) {
        ok = false;
      }
    }
    done += static_cast<int64_t>(slice);
  }
  const int64_t elapsed = Tracer::NowNs() - start;
  if (!ok || reassembler.buffered_bytes() != 0) return -1.0;
  return static_cast<double>(elapsed) / static_cast<double>(frames);
}

}  // namespace perfbench
