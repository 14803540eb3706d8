#include "runtime/wire.h"

#include <cmath>
#include <cstring>

namespace nmc::runtime::wire {

const char* DecodeStatusName(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk:
      return "ok";
    case DecodeStatus::kNeedMore:
      return "need-more";
    case DecodeStatus::kBadMagic:
      return "bad-magic";
    case DecodeStatus::kBadVersion:
      return "bad-version";
    case DecodeStatus::kBadLength:
      return "bad-length";
  }
  return "unknown";
}

bool ValidUpdate(const sim::Message& update, int64_t shard_len) {
  // NaN fails the bound like an infinity: every comparison is false.
  return update.u >= 0 && update.u < shard_len && std::fabs(update.a) <= 1.0;
}

void EncodeFrame(const sim::Message& message, uint8_t* out) {
  sim::wire_detail::PutLe32(kMagic, out);
  sim::wire_detail::PutLe32(
      static_cast<uint32_t>(kVersion) |
          (static_cast<uint32_t>(sim::kMessageWireBytes) << 16),
      out + 4);
  sim::PackMessage(message, out + kHeaderBytes);
}

void AppendFrame(const sim::Message& message, std::vector<uint8_t>* out) {
  uint8_t frame[kFrameBytes];
  EncodeFrame(message, frame);
  out->insert(out->end(), frame, frame + kFrameBytes);
}

Decoded DecodeFrame(std::span<const uint8_t> bytes) {
  Decoded decoded;
  // Each header field is checked as soon as its bytes are present: a frame
  // that already disagrees on magic or version is an error even when
  // truncated, while a well-formed prefix is just kNeedMore.
  if (bytes.size() < 4) {
    // A short prefix of the magic must still be *consistent* with it —
    // otherwise a garbage trickle would sit in kNeedMore forever.
    for (size_t i = 0; i < bytes.size(); ++i) {
      if (bytes[i] != static_cast<uint8_t>((kMagic >> (8 * i)) & 0xFFu)) {
        decoded.status = DecodeStatus::kBadMagic;
        return decoded;
      }
    }
    return decoded;
  }
  if (sim::wire_detail::GetLe32(bytes.data()) != kMagic) {
    decoded.status = DecodeStatus::kBadMagic;
    return decoded;
  }
  if (bytes.size() < 6) return decoded;
  const uint32_t tail = bytes.size() >= 8
                            ? sim::wire_detail::GetLe32(bytes.data() + 4)
                            : static_cast<uint32_t>(bytes[4]) |
                                  (static_cast<uint32_t>(bytes[5]) << 8);
  if ((tail & 0xFFFFu) != kVersion) {
    decoded.status = DecodeStatus::kBadVersion;
    return decoded;
  }
  if (bytes.size() < kHeaderBytes) return decoded;
  if ((tail >> 16) != sim::kMessageWireBytes) {
    decoded.status = DecodeStatus::kBadLength;
    return decoded;
  }
  if (bytes.size() < kFrameBytes) return decoded;
  decoded.status = DecodeStatus::kOk;
  decoded.consumed = kFrameBytes;
  decoded.message = sim::UnpackMessage(bytes.data() + kHeaderBytes);
  return decoded;
}

void FrameReassembler::Feed(std::span<const uint8_t> bytes) {
  if (corrupt()) return;  // the stream is already dead; don't grow the buffer
  // Compact before growing: the consumed prefix is reclaimed whenever it
  // dominates the buffer, keeping footprint ~ one burst.
  if (pos_ > 0 && pos_ >= buffer_.size() - pos_) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

DecodeStatus FrameReassembler::Next(sim::Message* out) {
  if (corrupt()) return corrupt_;
  const Decoded decoded = DecodeFrame(
      std::span<const uint8_t>(buffer_.data() + pos_, buffer_.size() - pos_));
  if (decoded.status == DecodeStatus::kOk) {
    pos_ += decoded.consumed;
    *out = decoded.message;
    return DecodeStatus::kOk;
  }
  if (decoded.status != DecodeStatus::kNeedMore) corrupt_ = decoded.status;
  return decoded.status;
}

}  // namespace nmc::runtime::wire
