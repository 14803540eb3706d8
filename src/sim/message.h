#pragma once

#include <algorithm>
#include <cstdint>

namespace nmc::sim {

/// A protocol message. The continuous-monitoring literature counts
/// messages of O(log n) bits; accordingly a Message carries a small fixed
/// payload (two doubles, two integers) and protocols define their own
/// meaning for the fields via `type`. Anything larger would be cheating the
/// communication model, so there is deliberately no variable-size payload.
struct Message {
  /// Protocol-defined discriminator (each protocol defines an enum).
  int type = 0;
  double a = 0.0;
  double b = 0.0;
  int64_t u = 0;
  int64_t v = 0;
};

/// Message accounting for one star network. Broadcasts are charged k
/// messages (Section 1.1 of the paper: "a broadcast message counts as k
/// messages").
struct MessageStats {
  int64_t site_to_coordinator = 0;
  int64_t coordinator_to_site = 0;
  /// Number of Broadcast() calls (already included in coordinator_to_site
  /// at cost k each); kept separately so benches can report sync counts.
  int64_t broadcasts = 0;
  /// Channel-model fault counters (all zero under the perfect channel).
  /// Every adjudicated hop is still charged to the directional counters
  /// above — the transmission happened; the fault describes its fate — so
  /// total() is the communication cost whatever the channel did.
  int64_t dropped = 0;
  int64_t delayed = 0;
  int64_t duplicated = 0;
  /// Peak bytes of the network's message-queue storage (delivery plus
  /// delayed queue). The name predates the queues' move from a bump arena
  /// to reserved std::vectors; it is kept because footprint readers key on
  /// it. Max-merged rather than summed in operator+= — footprint peaks of
  /// independent networks do not coincide in time, so the max is the
  /// honest aggregate.
  int64_t arena_high_water_bytes = 0;

  int64_t total() const { return site_to_coordinator + coordinator_to_site; }

  MessageStats& operator+=(const MessageStats& other) {
    site_to_coordinator += other.site_to_coordinator;
    coordinator_to_site += other.coordinator_to_site;
    broadcasts += other.broadcasts;
    dropped += other.dropped;
    delayed += other.delayed;
    duplicated += other.duplicated;
    arena_high_water_bytes =
        std::max(arena_high_water_bytes, other.arena_high_water_bytes);
    return *this;
  }
};

}  // namespace nmc::sim

