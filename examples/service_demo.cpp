// Serving DFS queries while the graph churns.
//
//   $ example_service_demo
//
// Starts a ShardRouter over a Barabási–Albert social graph, runs four reader
// threads answering ancestry/connectivity queries against immutable
// snapshots, and streams the social-mix workload through the MPSC queue.
// Prints the serving stats at the end: how the writer coalesced concurrent
// updates into batches and how few O(n) rebuilds those batches cost.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "service/shard_router.hpp"
#include "service/workload.hpp"
#include "tree/validation.hpp"
#include "util/random.hpp"

using namespace pardfs;
using namespace pardfs::service;

int main() {
  const WorkloadSpec spec{Scenario::kSocialMix, 2000, 1};
  WorkloadDriver driver(spec);
  ShardRouter svc(make_initial_graph(spec));
  std::printf("serving a %s graph: %d vertices, %lld edges\n",
              scenario_name(spec.scenario), svc.shard_snapshot(0)->num_vertices(),
              static_cast<long long>(svc.shard_snapshot(0)->num_edges()));

  // Four readers answer queries against whatever snapshot is current.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> queries{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(100 + r);
      std::uint64_t sink = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const SnapshotPtr snap = svc.shard_snapshot(0);
        for (int q = 0; q < 128; ++q) {
          const Vertex u = static_cast<Vertex>(rng.below(snap->capacity()));
          const Vertex v = static_cast<Vertex>(rng.below(snap->capacity()));
          sink += snap->same_component(u, v) ? 1 : 0;
          sink += static_cast<std::uint64_t>(snap->lca(u, v));
        }
        queries.fetch_add(256, std::memory_order_relaxed);
      }
      volatile std::uint64_t discard = sink;
      (void)discard;
    });
  }

  // One producer streams 2000 updates without waiting on each ack, so the
  // writer coalesces whatever accumulates while the previous batch applies;
  // every 256 updates it syncs on the latest ticket.
  std::uint64_t last_version = 0;
  std::vector<UpdateTicket> tickets;
  tickets.reserve(2000);
  for (int i = 0; i < 2000; ++i) {
    tickets.push_back(svc.submit(driver.next()));
    if (i % 256 == 255) last_version = tickets.back().wait();
  }
  for (const UpdateTicket& t : tickets) last_version = t.wait();
  stop.store(true);
  for (auto& t : readers) t.join();
  svc.stop();

  const ServiceStats stats = svc.stats();
  const SnapshotPtr final_snap = svc.shard_snapshot(0);
  std::printf("final snapshot: version %llu, %d vertices, %lld edges\n",
              static_cast<unsigned long long>(final_snap->version()),
              final_snap->num_vertices(),
              static_cast<long long>(final_snap->num_edges()));
  std::printf("reads answered while updating: %llu\n",
              static_cast<unsigned long long>(queries.load()));
  std::printf("updates: %llu applied (%llu structural, %llu back-edge patches)\n",
              static_cast<unsigned long long>(stats.updates_applied),
              static_cast<unsigned long long>(stats.structural),
              static_cast<unsigned long long>(stats.back_edges));
  std::printf("batches: %llu (largest %llu), index rebuilds %llu => %.2f per update\n",
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.max_batch),
              static_cast<unsigned long long>(stats.index_rebuilds),
              static_cast<double>(stats.index_rebuilds) /
                  static_cast<double>(stats.updates_applied));
  const auto val = validate_dfs_forest(svc.core(0).graph(), svc.core(0).parent());
  std::printf("final forest valid: %s (last ack version %llu)\n",
              val.ok ? "yes" : val.reason.c_str(),
              static_cast<unsigned long long>(last_version));
  return val.ok ? 0 : 1;
}
