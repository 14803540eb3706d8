#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

#include "sim/message.h"
#include "sim/message_wire.h"

namespace nmc::runtime::wire {

/// Versioned length-prefixed framing of sim::Message for the sockets
/// transport — the explicit wire contract the in-process backends never
/// needed. One frame:
///
///   offset  size  field
///        0     4  magic    0x314D434E ("NCM1" on the wire, little-endian)
///        4     2  version  kVersion (decoders reject anything else)
///        6     2  length   payload bytes; must equal sim::kMessageWireBytes
///        8    36  payload  sim::PackMessage image (see sim/message_wire.h)
///
/// The length field is validated against the version's fixed payload size
/// before any payload byte is touched, so truncated, oversized, and
/// garbage frames are rejected cleanly instead of desynchronizing the
/// stream decoder.
inline constexpr uint32_t kMagic = 0x314D434Eu;
inline constexpr uint16_t kVersion = 1;
inline constexpr size_t kHeaderBytes = 8;
inline constexpr size_t kFrameBytes = kHeaderBytes + sim::kMessageWireBytes;

enum class DecodeStatus {
  kOk = 0,
  kNeedMore,    // the buffer ends mid-frame; feed more bytes and retry
  kBadMagic,    // first 4 bytes are not kMagic — stream is desynchronized
  kBadVersion,  // framed by a peer speaking a different wire version
  kBadLength,   // length field disagrees with the version's payload size
};

const char* DecodeStatusName(DecodeStatus status);

/// Serializes one frame (header + payload) into exactly kFrameBytes at
/// `out`.
void EncodeFrame(const sim::Message& message, uint8_t* out);

/// EncodeFrame appended to a byte vector.
void AppendFrame(const sim::Message& message, std::vector<uint8_t>* out);

struct Decoded {
  DecodeStatus status = DecodeStatus::kNeedMore;
  /// Bytes consumed from the input on kOk (always kFrameBytes); 0 on any
  /// other status — a malformed prefix is never silently skipped.
  size_t consumed = 0;
  sim::Message message;
};

/// Decodes the frame at the front of `bytes`. Validation order: magic,
/// version, length, then completeness — so a wrong-version frame is
/// reported as kBadVersion even when truncated past the header.
Decoded DecodeFrame(std::span<const uint8_t> bytes);

/// Trust-boundary check of a decoded update frame before the coordinator
/// feeds it to the protocol: the sequence number (u) must index the
/// sending site's shard, [0, shard_len), and the value (a) must be a
/// finite update in [-1, 1] — the bounded-update model the counter
/// enforces with an aborting check. Framing cannot catch either: a
/// well-formed frame may still carry them.
bool ValidUpdate(const sim::Message& update, int64_t shard_len);

/// Incremental frame decoder over a byte stream (a socket read loop feeds
/// arbitrary chunk boundaries; frames come out whole). A framing error is
/// sticky: once the stream is desynchronized there is no reliable way to
/// find the next frame boundary, so every later Next() repeats the error
/// and the connection should be torn down.
class FrameReassembler {
 public:
  /// Appends raw stream bytes (chunks may split frames anywhere).
  void Feed(std::span<const uint8_t> bytes);

  /// Pops the next complete frame into *out. Returns kOk with *out filled,
  /// kNeedMore when the buffer holds no complete frame (*out untouched),
  /// or the sticky framing error.
  DecodeStatus Next(sim::Message* out);

  /// Bytes buffered but not yet decoded (a partial trailing frame).
  size_t buffered_bytes() const { return buffer_.size() - pos_; }

  /// True after any framing error; the stream cannot be re-synchronized.
  bool corrupt() const { return corrupt_ != DecodeStatus::kOk; }

 private:
  std::vector<uint8_t> buffer_;
  /// Consumed prefix of buffer_; compacted when it grows past the live
  /// bytes so the buffer's footprint stays bounded by the burst size.
  size_t pos_ = 0;
  DecodeStatus corrupt_ = DecodeStatus::kOk;
};

}  // namespace nmc::runtime::wire
