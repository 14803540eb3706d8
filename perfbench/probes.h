#pragma once

#include <cstdint>

namespace perfbench {

/// Layer probes for the runtime building blocks the end-to-end run hides.
/// Each drives the layer's public functions directly, at a volume the
/// caller takes from the workload's own run, and returns wall time per
/// item. A probe that finds its output wrong returns a negative value.

/// SpscQueue<double>: one producer thread pushes `items` values with
/// TryPushSpan (as a site thread does), the calling thread drains them
/// with PeekContiguous/Advance in `max_pull` slices (as the coordinator
/// does). Ring capacity = `capacity`. ns per item, or -1 when the drained
/// sum differs from the pushed one.
double ProbeSpscNsPerItem(int64_t items, int64_t capacity, int64_t max_pull);

struct SeqlockProbe {
  double publish_ns = 0.0;
  double read_ns = 0.0;
  bool ok = false;
};

/// Seqlock<PublishedEstimate>: `publishes` uncontended Publish calls, then
/// `reads` uncontended TryRead calls on one thread.
SeqlockProbe ProbeSeqlock(int64_t publishes, int64_t reads);

/// wire::EncodeFrame of `frames` update messages into a byte stream, then
/// FrameReassembler Feed/Next over it in socket-read-sized chunks. ns per
/// frame (encode + decode), or -1 when a frame comes back different.
double ProbeWireCodecNsPerFrame(int64_t frames);

}  // namespace perfbench
