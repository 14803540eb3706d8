#include <future>
#include <memory>
#include <thread>

#include "common/atomic_policy.h"
#include "common/check.h"
#include "common/spsc_queue.h"
#include "common/thread_pool.h"
#include "runtime/run.h"
#include "runtime/serving.h"

namespace nmc::runtime {

namespace {

void SiteLoop(const std::vector<double>& shard,
              common::SpscQueue<double>* inbox,
              common::SpscQueue<PublishedEstimate>* echoes,
              common::RuntimeAtomic<bool>* done,
              common::RuntimeAtomic<int64_t>* echoes_received) {
  int64_t received = 0;
  size_t pos = 0;
  const std::span<const double> all(shard);
  while (pos < all.size()) {
    const size_t pushed = inbox->TryPushSpan(all.subspan(pos));
    pos += pushed;
    PublishedEstimate echo;
    while (echoes->TryPop(&echo)) ++received;
    if (pushed == 0) std::this_thread::yield();
  }
  // Publish the shard-exhausted flag only after the last TryPushSpan: the
  // release store orders every enqueued update before the flag, so a
  // coordinator that sees done==true and an empty mailbox has seen
  // everything.
  done->store(true, std::memory_order_release);
  echoes_received->fetch_add(received, std::memory_order_relaxed);
}

}  // namespace

RunResult RunThreaded(sim::Protocol* protocol,
                      std::span<const std::vector<double>> shards,
                      const ThreadedRunOptions& options) {
  NMC_CHECK(protocol != nullptr);
  const int num_sites = protocol->num_sites();
  NMC_CHECK_EQ(static_cast<int>(shards.size()), num_sites);
  NMC_CHECK_GE(options.mailbox_capacity, 1);
  NMC_CHECK_GE(options.max_pull, 1);

  int64_t total_updates = 0;
  for (const std::vector<double>& shard : shards) {
    total_updates += static_cast<int64_t>(shard.size());
  }
  std::vector<std::unique_ptr<common::SpscQueue<double>>> inboxes;
  std::vector<std::unique_ptr<common::SpscQueue<PublishedEstimate>>> echoes;
  inboxes.reserve(static_cast<size_t>(num_sites));
  echoes.reserve(static_cast<size_t>(num_sites));
  for (int i = 0; i < num_sites; ++i) {
    inboxes.push_back(std::make_unique<common::SpscQueue<double>>(
        static_cast<size_t>(options.mailbox_capacity)));
    // The echo ring is advisory (lagging sites drop echoes), so a small
    // fixed capacity suffices.
    echoes.push_back(std::make_unique<common::SpscQueue<PublishedEstimate>>(64));
  }
  std::unique_ptr<common::RuntimeAtomic<bool>[]> site_done(
      new common::RuntimeAtomic<bool>[static_cast<size_t>(num_sites)]);
  for (int i = 0; i < num_sites; ++i) {
    site_done[i].store(false, std::memory_order_relaxed);
  }
  common::RuntimeAtomic<int64_t> echoes_received{0};

  // Sites on pool threads; the coordinator is the calling thread, so the
  // pool never has to schedule a task that other running tasks spin-wait
  // on. Pool workers rather than fresh threads: under a concurrent build a
  // fresh site thread started several scheduler ticks late, and the run
  // took 16 ms instead of 2.
  common::ThreadPool pool(num_sites);
  std::vector<std::future<void>> sites;
  sites.reserve(static_cast<size_t>(num_sites));
  for (int i = 0; i < num_sites; ++i) {
    sites.push_back(pool.Submit(
        [&shards, &inboxes, &echoes, &site_done, &echoes_received, i]() {
          SiteLoop(shards[static_cast<size_t>(i)],
                   inboxes[static_cast<size_t>(i)].get(),
                   echoes[static_cast<size_t>(i)].get(), &site_done[i],
                   &echoes_received);
        }));
  }
  // Readers start after the sites, so they do not compete with the setup
  // above. One publish per ProcessBatch return: far fewer than one per
  // update.
  internal::Server server(protocol, options.num_readers, options.capture,
                          total_updates, total_updates / 8 + 16);

  // Coordinator: round-robin over the mailboxes, feeding contiguous spans
  // straight from the ring storage (zero copies).
  while (true) {
    bool progressed = false;
    for (int s = 0; s < num_sites; ++s) {
      common::SpscQueue<double>& inbox = *inboxes[static_cast<size_t>(s)];
      const std::span<const double> batch =
          inbox.PeekContiguous(static_cast<size_t>(options.max_pull));
      if (batch.empty()) continue;
      progressed = true;
      server.Feed(s, batch);
      inbox.Advance(batch.size());
    }
    server.Echo([&](int s, const PublishedEstimate& echo) {
      return echoes[static_cast<size_t>(s)]->TryPush(echo);
    });
    if (progressed) continue;
    // Check done flags before re-probing the mailboxes: a site's pushes
    // happen-before its done flag, so done && empty is conclusive.
    bool finished = true;
    for (int s = 0; s < num_sites; ++s) {
      if (!site_done[s].load(std::memory_order_acquire) ||
          !inboxes[static_cast<size_t>(s)]->PeekContiguous(1).empty()) {
        finished = false;
        break;
      }
    }
    if (finished) break;
    std::this_thread::yield();
  }
  NMC_CHECK_EQ(server.updates(), total_updates);
  for (std::future<void>& site : sites) site.get();

  RunResult out;
  out.transport = TransportKind::kThreads;
  out.serving = server.Finish();
  out.serving.echoes_received =
      echoes_received.load(std::memory_order_relaxed);
  return out;
}

}  // namespace nmc::runtime
