#include <algorithm>
#include <cerrno>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/check.h"
#include "runtime/process.h"
#include "runtime/run.h"
#include "runtime/serving.h"
#include "runtime/wire.h"

namespace nmc::runtime {

namespace {

/// Poll rounds a head-of-line stall (SocketFaultOptions::delay_probability)
/// keeps a site's socket unread.
constexpr int64_t kDelayPolls = 8;

/// Safety stop: consecutive poll rounds with no frame consumed before the
/// coordinator declares the run wedged, SIGKILLs everything and returns
/// with SocketStats::timed_out set (a hung CI job is worse than a failed
/// one). Each idle round blocks ~1ms in poll.
constexpr int64_t kMaxIdlePolls = 20000;

/// Deterministic fault stream: splitmix64-style finalizer over (seed,
/// site, index) mapped to [0, 1). The same fault plan replays the same
/// drops and stalls regardless of socket timing, which is what makes the
/// E14-over-sockets runs reproducible.
double FaultUniform(uint64_t seed, uint64_t site, uint64_t index) {
  uint64_t x = seed ^ (site * 0x9E3779B97F4A7C15ull) ^
               (index + 0xBF58476D1CE4E5B9ull);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Sends one control frame on a nonblocking fd, polling through EAGAIN up
/// to `max_attempts` millisecond waits. Returns false when the peer is
/// gone (EPIPE/reset) or the socket never drained — callers treat both as
/// "the EOF path will clean up".
bool SendControl(int fd, const sim::Message& message, int max_attempts) {
  if (fd < 0) return false;
  uint8_t frame[wire::kFrameBytes];
  wire::EncodeFrame(message, frame);
  size_t off = 0;
  for (int attempt = 0; attempt < max_attempts && off < wire::kFrameBytes;
       ++attempt) {
    const ssize_t sent =
        send(fd, frame + off, wire::kFrameBytes - off, MSG_NOSIGNAL);
    if (sent > 0) {
      off += static_cast<size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLOUT;
      pfd.revents = 0;
      (void)poll(&pfd, 1, 1);
      continue;
    }
    return false;
  }
  return off == wire::kFrameBytes;
}

/// Accepts one pending TCP connection and reads its kHello frame (bounded
/// wait). Returns the connection fd and writes the announced site id, or
/// -1 when the connection is malformed or dies mid-handshake.
int AcceptHello(int listener, int* site_id) {
  const int conn = accept(listener, nullptr, nullptr);
  if (conn < 0) return -1;
  BoundSocketBuffers(conn);
  if (!SetNonBlocking(conn)) {
    close(conn);
    return -1;
  }
  uint8_t buf[wire::kFrameBytes];
  size_t got = 0;
  for (int attempt = 0; attempt < 2000 && got < wire::kFrameBytes;
       ++attempt) {
    const ssize_t r = recv(conn, buf + got, wire::kFrameBytes - got, 0);
    if (r > 0) {
      got += static_cast<size_t>(r);
      continue;
    }
    if (r == 0) break;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      struct pollfd pfd;
      pfd.fd = conn;
      pfd.events = POLLIN;
      pfd.revents = 0;
      (void)poll(&pfd, 1, 1);
      continue;
    }
    break;
  }
  if (got < wire::kFrameBytes) {
    close(conn);
    return -1;
  }
  const wire::Decoded decoded =
      wire::DecodeFrame(std::span<const uint8_t>(buf, wire::kFrameBytes));
  if (decoded.status != wire::DecodeStatus::kOk ||
      decoded.message.type != static_cast<int>(FrameType::kHello)) {
    close(conn);
    return -1;
  }
  *site_id = static_cast<int>(decoded.message.u);
  return conn;
}

/// Coordinator-side view of one site across its incarnations.
struct SiteState {
  SiteProcess proc;
  wire::FrameReassembler reassembler;
  /// Reliable link: next sequence number to consume (strictly in-order).
  /// Raw link: one past the highest sequence number consumed.
  int64_t expected_seq = 0;
  /// Generated-world cursor: shard[0..world_next) is in the world.
  int64_t world_next = 0;
  /// kUpdate frames seen at ingress — the loss shim's hash domain, so
  /// retransmissions of the same update draw fresh coins.
  int64_t arrival_updates = 0;
  int64_t consumed_from = 0;
  int64_t stall_rounds = 0;
  bool nacked_this_round = false;
  bool saw_eof = false;
  bool fin_acked = false;
  bool dead = false;
  /// Scheduled kills for this site, sorted by after_consumed.
  std::vector<int64_t> kill_after;
  size_t kill_idx = 0;
  bool kill_pending_eof = false;
  int64_t consumed_at_kill = -1;
  bool awaiting_recovery = false;

  bool done() const { return fin_acked || dead; }
  bool live_fd() const { return proc.fd >= 0 && !done(); }
};

}  // namespace

RunResult RunSockets(sim::Protocol* protocol,
                     std::span<const std::vector<double>> shards,
                     const SocketRunOptions& options) {
  NMC_CHECK(protocol != nullptr);
  const int num_sites = protocol->num_sites();
  NMC_CHECK_EQ(static_cast<int>(shards.size()), num_sites);
  NMC_CHECK_GT(options.epsilon, 0.0);

  int64_t total_updates = 0;
  for (const std::vector<double>& shard : shards) {
    total_updates += static_cast<int64_t>(shard.size());
  }
  RunResult run;
  run.transport = TransportKind::kSockets;
  SocketStats& stats = run.sockets;

  // Per-site prefix sums of the shard: prefix[s][i] = sum of the first i
  // values. The violation checker charges a raw-link gap to the world in
  // one subtraction instead of replaying the lost updates.
  std::vector<std::vector<double>> prefix(static_cast<size_t>(num_sites));
  for (int s = 0; s < num_sites; ++s) {
    const std::vector<double>& shard = shards[static_cast<size_t>(s)];
    std::vector<double>& p = prefix[static_cast<size_t>(s)];
    p.resize(shard.size() + 1);
    p[0] = 0.0;
    for (size_t i = 0; i < shard.size(); ++i) p[i + 1] = p[i] + shard[i];
  }

  // One frame carries one update, so one publish per update.
  internal::Server server(protocol, options.num_readers, options.capture,
                          total_updates, total_updates + 16);

  // Transport bring-up: listener first (TCP children connect-retry against
  // it), then one child per site.
  int listener = -1;
  uint16_t port = 0;
  if (options.use_tcp) listener = OpenTcpListener(&port);

  std::vector<SiteState> sites(static_cast<size_t>(num_sites));
  const auto spawn = [&](int s, int64_t resume_seq) {
    SiteSpawnOptions spawn_options;
    spawn_options.site_id = s;
    spawn_options.shard = shards[static_cast<size_t>(s)];
    spawn_options.resume_seq = resume_seq;
    spawn_options.use_tcp = options.use_tcp;
    spawn_options.tcp_port = port;
    sites[static_cast<size_t>(s)].proc = SpawnSiteProcess(spawn_options);
    sites[static_cast<size_t>(s)].reassembler = wire::FrameReassembler();
    sites[static_cast<size_t>(s)].saw_eof = false;
  };
  for (int s = 0; s < num_sites; ++s) spawn(s, 0);
  for (const SiteKillSpec& kill : options.faults.kills) {
    NMC_CHECK_GE(kill.site, 0);
    NMC_CHECK_LT(kill.site, num_sites);
    sites[static_cast<size_t>(kill.site)].kill_after.push_back(
        kill.after_consumed);
  }
  for (SiteState& st : sites) {
    std::sort(st.kill_after.begin(), st.kill_after.end());
  }

  // Checker state: world_sum is the exact sum of the generated world (all
  // per-site prefixes up to their world cursors).
  double world_sum = 0.0;

  // Scheduled-kill delivery, frame-granular: checked after every consumed
  // update (and once per round as a backstop) so the SIGKILL lands exactly
  // when the coordinator's consumption crosses the threshold — not a whole
  // drain round later, by which point a fast child may already have
  // FIN'd.
  const auto maybe_kill = [&](SiteState& st) {
    if (st.done() || st.kill_pending_eof) return;
    if (st.kill_idx < st.kill_after.size() && st.proc.pid > 0 &&
        st.consumed_from >= st.kill_after[st.kill_idx]) {
      (void)kill(st.proc.pid, SIGKILL);
      st.kill_pending_eof = true;
      st.consumed_at_kill = server.updates();
      ++st.kill_idx;
      ++stats.kills_delivered;
    }
  };

  const auto consume = [&](int s, int64_t seq, double value) {
    SiteState& st = sites[static_cast<size_t>(s)];
    if (seq == st.world_next) {
      world_sum += value;
      st.world_next = seq + 1;
    } else if (seq > st.world_next) {
      // Raw-link gap: the skipped updates were generated (the site sent
      // them before this one) — they enter the world here, unseen by the
      // protocol. This is precisely where the raw counter's estimate
      // detaches from the truth.
      const std::vector<double>& p = prefix[static_cast<size_t>(s)];
      world_sum += p[static_cast<size_t>(seq + 1)] -
                   p[static_cast<size_t>(st.world_next)];
      st.world_next = seq + 1;
    }
    server.Feed(s, std::span<const double>(&value, 1));
    ++st.consumed_from;
    sim::CheckTrackingStep(server.estimate(), world_sum, options.epsilon,
                           options.rel_error_floor, &stats.violation_steps,
                           &stats.max_rel_error);
    ++stats.checked_steps;
    if (st.awaiting_recovery) {
      st.awaiting_recovery = false;
      const int64_t recovery = server.updates() - st.consumed_at_kill;
      stats.max_recovery_updates =
          std::max(stats.max_recovery_updates, recovery);
      if (recovery > options.resync_deadline_updates) {
        stats.all_kills_recovered = false;
      }
    }
    maybe_kill(st);
  };

  const auto maybe_nack = [&](int s) {
    SiteState& st = sites[static_cast<size_t>(s)];
    if (st.nacked_this_round || st.proc.fd < 0) return;
    st.nacked_this_round = true;
    sim::Message nack;
    nack.type = static_cast<int>(FrameType::kNack);
    nack.u = st.expected_seq;
    if (SendControl(st.proc.fd, nack, 200)) ++stats.nacks_sent;
  };

  bool progressed_this_round = false;

  const auto handle_frame = [&](int s, const sim::Message& m) {
    SiteState& st = sites[static_cast<size_t>(s)];
    ++stats.frames;
    progressed_this_round = true;
    switch (static_cast<FrameType>(m.type)) {
      case FrameType::kUpdate: {
        const int64_t shard_len =
            static_cast<int64_t>(shards[static_cast<size_t>(s)].size());
        if (!wire::ValidUpdate(m, shard_len)) {
          // An untrustworthy site: stop reading it. Its later frames are
          // never decoded, and the updates it owes count as lost.
          ++stats.rejected_updates;
          (void)ReapSiteProcess(&st.proc, true);
          ++stats.children_reaped;
          st.dead = true;
          return;
        }
        const int64_t arrival = st.arrival_updates++;
        if (options.faults.loss > 0.0 &&
            FaultUniform(options.faults.seed, static_cast<uint64_t>(s),
                         static_cast<uint64_t>(arrival)) <
                options.faults.loss) {
          ++stats.drops_injected;
          return;
        }
        const int64_t seq = m.u;
        if (options.reliable) {
          if (seq < st.expected_seq) {
            ++stats.duplicate_updates;
            return;
          }
          if (seq > st.expected_seq) {
            maybe_nack(s);
            return;
          }
          consume(s, seq, m.a);
          ++st.expected_seq;
        } else {
          consume(s, seq, m.a);
          st.expected_seq = std::max(st.expected_seq, seq + 1);
        }
        return;
      }
      case FrameType::kFin: {
        if (options.reliable && m.u != st.expected_seq) {
          // The site believes it is done but the coordinator has a gap:
          // rewind it. A stale pre-rewind FIN takes this branch too.
          maybe_nack(s);
          return;
        }
        stats.echoes_acked += m.v;
        sim::Message ack;
        ack.type = static_cast<int>(FrameType::kFinAck);
        (void)SendControl(st.proc.fd, ack, 200);
        st.fin_acked = true;
        // The child exits on FinAck or on the EOF our close() produces —
        // either way this reap is bounded.
        (void)ReapSiteProcess(&st.proc, false);
        ++stats.children_reaped;
        return;
      }
      case FrameType::kHello:
        return;  // Unix-socketpair children never send one; ignore.
      default:
        return;  // site->coordinator control we don't know; ignore.
    }
  };

  const auto handle_eof = [&](int s) {
    SiteState& st = sites[static_cast<size_t>(s)];
    st.saw_eof = false;
    if (st.done()) return;
    // A partial trailing frame (SIGKILL mid-send) dies with this
    // incarnation's reassembler; whole frames were already drained.
    (void)ReapSiteProcess(&st.proc, true);
    ++stats.children_reaped;
    if (st.kill_pending_eof) {
      st.kill_pending_eof = false;
      if (options.reliable) {
        spawn(s, st.expected_seq);
        ++stats.respawns;
        st.awaiting_recovery = true;
      } else {
        st.dead = true;
        stats.all_kills_recovered = false;
      }
    } else {
      ++stats.unexpected_exits;
      st.dead = true;
    }
  };

  // The event loop: poll the live sockets (plus the TCP listener while any
  // site lacks a connection), reassemble frames, feed the confined
  // protocol, publish. 1ms poll timeout keeps the fault schedule and the
  // idle watchdog ticking even when no site is talking.
  std::vector<struct pollfd> pfds;
  std::vector<int> pfd_site;
  pfds.reserve(static_cast<size_t>(num_sites) + 1);
  pfd_site.reserve(static_cast<size_t>(num_sites) + 1);
  int64_t idle_rounds = 0;
  uint8_t rbuf[16384];

  while (true) {
    bool all_done = true;
    bool tcp_pending = false;
    for (const SiteState& st : sites) {
      if (!st.done()) all_done = false;
      if (!st.done() && st.proc.fd < 0) tcp_pending = true;
    }
    if (all_done) break;

    ++stats.poll_rounds;
    progressed_this_round = false;

    pfds.clear();
    pfd_site.clear();
    for (int s = 0; s < num_sites; ++s) {
      SiteState& st = sites[static_cast<size_t>(s)];
      st.nacked_this_round = false;
      if (!st.live_fd()) continue;
      if (st.stall_rounds > 0) {
        --st.stall_rounds;
        continue;
      }
      if (options.faults.delay_probability > 0.0 &&
          FaultUniform(options.faults.seed ^ 0xD31Au,
                       static_cast<uint64_t>(s),
                       static_cast<uint64_t>(stats.poll_rounds)) <
              options.faults.delay_probability) {
        st.stall_rounds = kDelayPolls;
        ++stats.delays_injected;
        continue;
      }
      struct pollfd pfd;
      pfd.fd = st.proc.fd;
      pfd.events = POLLIN;
      pfd.revents = 0;
      pfds.push_back(pfd);
      pfd_site.push_back(s);
    }
    if (listener >= 0 && tcp_pending) {
      struct pollfd pfd;
      pfd.fd = listener;
      pfd.events = POLLIN;
      pfd.revents = 0;
      pfds.push_back(pfd);
      pfd_site.push_back(-1);
    }

    if (!pfds.empty()) {
      (void)poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 1);
    }

    for (size_t i = 0; i < pfds.size(); ++i) {
      if (pfd_site[i] < 0) {
        // TCP accepts: map each kHello to the site waiting for an fd.
        if ((pfds[i].revents & POLLIN) == 0) continue;
        int hello_site = -1;
        const int conn = AcceptHello(listener, &hello_site);
        if (conn < 0) continue;
        if (hello_site < 0 || hello_site >= num_sites ||
            sites[static_cast<size_t>(hello_site)].proc.fd >= 0) {
          close(conn);  // stray or duplicate connection
          continue;
        }
        sites[static_cast<size_t>(hello_site)].proc.fd = conn;
        progressed_this_round = true;
        continue;
      }
      const int s = pfd_site[i];
      SiteState& st = sites[static_cast<size_t>(s)];
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      // Bounded reads per site per round keep the loop fair across sites.
      for (int reads = 0; reads < 8; ++reads) {
        const ssize_t got = recv(st.proc.fd, rbuf, sizeof(rbuf), 0);
        if (got > 0) {
          st.reassembler.Feed(std::span<const uint8_t>(
              rbuf, static_cast<size_t>(got)));
          if (got < static_cast<ssize_t>(sizeof(rbuf))) break;
          continue;
        }
        if (got == 0) {
          st.saw_eof = true;
        } else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          st.saw_eof = true;  // reset by a killed peer: same as EOF
        }
        break;
      }
    }

    // Drain every reassembler fully, then settle EOFs. (A killed child's
    // final whole frames are consumed before its death is handled.)
    for (int s = 0; s < num_sites; ++s) {
      SiteState& st = sites[static_cast<size_t>(s)];
      sim::Message m;
      while (!st.done() && st.reassembler.Next(&m) == wire::DecodeStatus::kOk) {
        handle_frame(s, m);
      }
      // Our own children cannot desynchronize the stream; a corrupt
      // reassembler means a wire bug, not a fault to tolerate.
      NMC_CHECK(!st.reassembler.corrupt());
      if (st.saw_eof) handle_eof(s);
    }

    // Backstop for kill thresholds already crossed when a site (re)spawns
    // — consume-time delivery handles the common case. The EOF shows up on
    // a later round.
    for (int s = 0; s < num_sites; ++s) {
      maybe_kill(sites[static_cast<size_t>(s)]);
    }

    server.Echo([&](int s, const PublishedEstimate& published) {
      const SiteState& st = sites[static_cast<size_t>(s)];
      sim::Message echo;
      echo.type = static_cast<int>(FrameType::kEcho);
      echo.a = published.estimate;
      echo.u = published.generation;
      return st.live_fd() && SendControl(st.proc.fd, echo, 1);
    });

    if (progressed_this_round) {
      idle_rounds = 0;
    } else if (++idle_rounds > kMaxIdlePolls) {
      stats.timed_out = true;
      break;
    }
  }

  // Teardown: stop the serving layer, then make sure nothing survives us —
  // no zombies, no open fds, regardless of how the loop ended.
  run.serving = server.Finish();
  for (SiteState& st : sites) {
    if (st.proc.pid > 0 || st.proc.fd >= 0) {
      (void)ReapSiteProcess(&st.proc, true);
      ++stats.children_reaped;
    }
    if (st.awaiting_recovery) stats.all_kills_recovered = false;
    if (st.kill_pending_eof) stats.all_kills_recovered = false;
    stats.generated_updates += st.world_next;
  }
  if (listener >= 0) close(listener);
  stats.updates_lost = stats.generated_updates - run.serving.updates;
  return run;
}

}  // namespace nmc::runtime
