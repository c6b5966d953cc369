#include "load.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

namespace perfbench {

using pardfs::kNullVertex;
using pardfs::service::DfsSnapshot;
using pardfs::service::ShardRouter;
using pardfs::service::SnapshotPtr;
using pardfs::service::UpdateTicket;

namespace {

// An ack slower than this counts as failed (kTimeout); the client then keeps
// waiting so the served graph still matches the consumed stream.
constexpr auto kAckTimeout = std::chrono::seconds(5);
// Every kCheckEvery-th read batch of a client is cross-checked.
constexpr std::uint64_t kCheckEvery = 16;
// Per-thread span cap: bounds a traced run's memory at a few tens of MB.
constexpr std::size_t kMaxSpansPerThread = 500000;

std::atomic<std::uint64_t> g_sink{0};

std::uint64_t answer(const DfsSnapshot& s, const Query& q) {
  switch (q.kind) {
    case kIsAncestor: return s.is_ancestor(q.u, q.v) ? 1 : 0;
    case kLca: return static_cast<std::uint64_t>(s.lca(q.u, q.v));
    case kSameComponent: return s.same_component(q.u, q.v) ? 1 : 0;
    case kRootOf: return static_cast<std::uint64_t>(s.root_of(q.u));
    case kDepth: return static_cast<std::uint64_t>(s.depth(q.u));
    case kPathToRoot: return s.path_to_root(q.u).size();
    case kNumQueryKinds: break;
  }
  return 0;
}

// Cross-checks one query's answer against the rest of the snapshot: the
// tree index (depth, pre/post intervals, LCA table) must agree with the
// published parent array. Returns an empty string when consistent.
std::string check_query(const DfsSnapshot& s, const Query& q) {
  const Vertex u = q.u;
  const Vertex v = q.v;
  switch (q.kind) {
    case kIsAncestor:
      if (s.is_ancestor(u, v) && (s.lca(u, v) != u || s.depth(u) > s.depth(v))) {
        return "is_ancestor disagrees with lca/depth";
      }
      return {};
    case kLca: {
      const Vertex w = s.lca(u, v);
      if (w == kNullVertex) {
        return s.same_component(u, v) ? "lca missing in one component" : "";
      }
      if (!s.is_ancestor(w, u) || !s.is_ancestor(w, v)) {
        return "lca is not a common ancestor";
      }
      return {};
    }
    case kSameComponent: {
      const bool same = s.contains(u) && s.contains(v) && s.root_of(u) == s.root_of(v);
      return s.same_component(u, v) == same ? "" : "same_component disagrees with root_of";
    }
    case kRootOf: {
      if (!s.contains(u)) return s.root_of(u) == kNullVertex ? "" : "root of a dead id";
      const Vertex r = s.root_of(u);
      return s.parent_of(r) == kNullVertex && s.is_ancestor(r, u) ? ""
                                                                  : "root_of is not the root";
    }
    case kDepth: {
      if (!s.contains(u)) return {};
      const Vertex p = s.parent_of(u);
      const std::int32_t d = s.depth(u);
      const bool ok = p == kNullVertex ? d == 0 : d == s.depth(p) + 1;
      return ok ? "" : "depth disagrees with parent";
    }
    case kPathToRoot: {
      const std::vector<Vertex> path = s.path_to_root(u);
      if (!s.contains(u)) return path.empty() ? "" : "path of a dead id";
      if (path.size() != static_cast<std::size_t>(s.depth(u)) + 1 ||
          path.front() != u || path.back() != s.root_of(u)) {
        return "path_to_root disagrees with depth/root_of";
      }
      return {};
    }
    case kNumQueryKinds: break;
  }
  return {};
}

// Per-client state, merged into the LoadResult after the threads join.
struct Client {
  Client(bool traced, std::uint32_t tid) : log(traced, tid) {}
  SpanLog log;
  std::vector<double> ack_us, merge_ack_us;
  std::uint64_t attempted = 0, applied = 0, failed = 0;
  std::uint64_t reads = 0, reads_checked = 0, batches = 0, sink = 0;
  std::size_t qpos = 0;
  std::size_t consumed = 0;
  std::uint64_t sessions = 0;  // sharded_sessions: sessions run so far
  std::vector<std::string> violations;

  bool tracing() const {
    return log.enabled() && log.spans().size() < kMaxSpansPerThread;
  }
  void span(SpanKind k, std::uint64_t t0, std::uint64_t t1, std::uint64_t id = 0,
            std::uint16_t arg = 0) {
    if (tracing()) log.add(k, t0, t1, id, arg);
  }

  // Times one RouterView::snapshot_of call. Only traced runs make it, so
  // router.resolve_ns exists on workloads whose reads never route.
  void time_resolve(const pardfs::service::RouterView& view, Vertex u) {
    if (!tracing()) return;
    const std::uint64_t t0 = now_ns();
    sink += view.snapshot_of(u) != nullptr;
    log.add(SpanKind::kResolve, t0, now_ns());
  }

  // Answers `count` queries of `qs` (cyclically) against one snapshot.
  void read_batch(const DfsSnapshot& s, const std::vector<Query>& qs,
                  std::size_t count, bool time_queries) {
    const bool check = batches % kCheckEvery == 0;
    for (std::size_t j = 0; j < count; ++j) {
      const Query& q = qs[qpos++ % qs.size()];
      if (time_queries && tracing()) {
        const std::uint64_t t0 = now_ns();
        sink += answer(s, q);
        log.add(SpanKind::kQuery, t0, now_ns(), 0, q.kind);
      } else {
        sink += answer(s, q);
      }
      if (check) {
        ++reads_checked;
        std::string why = check_query(s, q);
        if (!why.empty()) violations.push_back(std::move(why));
      }
    }
    reads += count;
    ++batches;
  }

  // Answers `count` queries of `qs` (cyclically), each through the router:
  // resolve the owning shard's snapshot, then query it. With `timed`, each
  // resolve and query is a span.
  void routed_batch(const pardfs::service::RouterView& view, const std::vector<Query>& qs,
                    std::size_t count, bool timed) {
    const bool check = batches % kCheckEvery == 0;
    timed = timed && tracing();
    for (std::size_t j = 0; j < count; ++j) {
      const Query& q = qs[qpos++ % qs.size()];
      const std::uint64_t t0 = timed ? now_ns() : 0;
      const SnapshotPtr snap = view.snapshot_of(q.u);
      const std::uint64_t t1 = timed ? now_ns() : 0;
      if (snap == nullptr) {
        violations.push_back("no snapshot owns an initial vertex");
        continue;
      }
      sink += answer(*snap, q);
      if (timed) {
        log.add(SpanKind::kResolve, t0, t1);
        log.add(SpanKind::kQuery, t1, now_ns(), 0, q.kind);
      }
      if (check) {
        ++reads_checked;
        std::string why = check_query(*snap, q);
        if (!why.empty()) violations.push_back(std::move(why));
      }
    }
    reads += count;
    ++batches;
  }

  // Waits for one ticket and books its outcome. `from_ns` is when the
  // update was submitted.
  std::uint64_t await(const UpdateTicket& t, std::uint64_t from_ns,
                      std::uint64_t wait_from_ns, std::uint64_t id, bool cross) {
    std::uint64_t r = t.wait_for(kAckTimeout);
    bool late = false;
    if (r == UpdateTicket::kTimeout) {
      late = true;
      r = t.wait();
    }
    const std::uint64_t t1 = now_ns();
    span(SpanKind::kAckWait, wait_from_ns, t1, id);
    ++attempted;
    if (late || UpdateTicket::is_status(r)) {
      ++failed;
      return 0;
    }
    ++applied;
    const double us = static_cast<double>(t1 - from_ns) * 1e-3;
    ack_us.push_back(us);
    if (cross) merge_ack_us.push_back(us);
    return r;
  }
};

std::uint64_t update_id(std::size_t client, std::size_t index) {
  return (static_cast<std::uint64_t>(client) << 32) | index;
}

// update_storm: one closed-loop client keeps a window of updates in flight
// (submit the window, wait for every ack), then reads its writes back.
void update_storm_client(ShardRouter& router, const Inputs& in,
                         std::uint64_t deadline, Client& c) {
  const UpdateStream& st = in.writers[0];
  const std::size_t w = in.params.window;
  std::vector<UpdateTicket> tickets(w);
  std::vector<std::uint64_t> sub0(w), sub1(w);
  const auto view = router.view();
  while (now_ns() < deadline && c.consumed + w <= st.updates.size()) {
    for (std::size_t k = 0; k < w; ++k) {
      sub0[k] = now_ns();
      tickets[k] = router.submit(st.updates[c.consumed + k]);
      sub1[k] = now_ns();
      c.span(SpanKind::kSubmit, sub0[k], sub1[k], update_id(0, c.consumed + k));
    }
    std::uint64_t max_version = 0;
    for (std::size_t k = 0; k < w; ++k) {
      max_version = std::max(
          max_version, c.await(tickets[k], sub0[k], sub1[k],
                               update_id(0, c.consumed + k), false));
    }
    c.consumed += w;
    const std::uint64_t t0 = now_ns();
    const SnapshotPtr snap = router.shard_snapshot(0);
    c.span(SpanKind::kSnapshotLoad, t0, now_ns());
    if (snap->version() < max_version) {
      c.violations.push_back("snapshot older than an acked version");
    }
    const std::vector<Query>& qs = in.queries[0];
    c.time_resolve(view, qs[c.qpos % qs.size()].u);
    c.read_batch(*snap, qs, in.params.queries_per_batch, true);
  }
}

// sharded_sessions client: each session is a few routed reads (resolve the
// owning shard's snapshot, then query it) plus, for a quarter of the
// sessions, one update waited on before the next session.
void session_client(ShardRouter& router, const Inputs& in, std::size_t client,
                    std::uint64_t deadline, Client& c) {
  const UpdateStream& st = in.writers[client];
  const std::vector<Query>& qs = in.queries[client];
  const std::vector<std::uint8_t>& flags = in.session_updates[client];
  const auto view = router.view();
  for (; now_ns() < deadline && c.consumed < st.updates.size(); ++c.sessions) {
    const std::uint64_t s = c.sessions;
    c.routed_batch(view, qs, in.params.queries_per_batch, true);
    if (c.tracing()) {
      // A direct shard load, so snapshot.load_ns exists here too.
      const int shard = router.shard_of(qs[c.qpos % qs.size()].u);
      const std::uint64_t t0 = now_ns();
      c.sink += router.shard_snapshot(static_cast<std::size_t>(shard)) != nullptr;
      c.log.add(SpanKind::kSnapshotLoad, t0, now_ns());
    }
    if (flags[s % flags.size()] == 0) continue;
    const std::size_t i = c.consumed++;
    const std::uint64_t id = update_id(client, i);
    const std::uint64_t t0 = now_ns();
    const UpdateTicket t = router.submit(st.updates[i]);
    const std::uint64_t t1 = now_ns();
    c.span(SpanKind::kSubmit, t0, t1, id);
    c.await(t, t0, t1, id, st.tags[i] == UpdateTag::kCrossInsert);
  }
}

// sharded_sessions reader: closed-loop routed reads that never wait on an
// update, so read_qps measures the read path (directory, snapshot, tree
// index) rather than the update rate. Each batch stays in one block. In
// traced runs only every kTimeEvery-th batch is timed: the batches are
// short, and timing every query would swamp the run's memory.
void reader_client(const ShardRouter& router, const Inputs& in, std::size_t stream,
                   std::uint64_t deadline, Client& c) {
  constexpr std::uint64_t kTimeEvery = 64;
  const auto view = router.view();
  const std::vector<Query>& qs = in.queries[stream];
  while (now_ns() < deadline) {
    c.routed_batch(view, qs, in.params.reader_batch, c.batches % kTimeEvery == 1);
  }
}

}  // namespace

LoadResult run_load(ShardRouter& router, const Inputs& in, double seconds,
                    bool traced) {
  const WorkloadParams& p = in.params;
  const std::size_t threads = p.writers + p.readers;
  std::vector<Client> clients;
  clients.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    clients.emplace_back(traced, static_cast<std::uint32_t>(t + 1));
  }
  const std::uint64_t cycles =
      p.readers > 0 ? std::max<std::uint64_t>(1, std::llround(seconds / kCycleS)) : 1;
  const double cycle_s = seconds / static_cast<double>(cycles);
  const auto read_ns = static_cast<std::uint64_t>(p.readers > 0 ? cycle_s * kReadShare * 1e9 : 0);
  const auto update_ns = static_cast<std::uint64_t>(cycle_s * 1e9) - read_ns;
  LoadResult out;
  const std::uint64_t start = now_ns();
  std::uint64_t update_total = 0, read_total = 0;
  for (std::uint64_t cycle = 0; cycle < cycles; ++cycle) {
    const std::uint64_t begin = now_ns();
    const std::uint64_t deadline = begin + update_ns;
    {
      std::vector<std::jthread> pool;
      for (std::size_t t = 0; t < p.writers; ++t) {
        Client& c = clients[t];
        pool.emplace_back([&, t] {
          if (in.workload == Workload::kUpdateStorm) {
            update_storm_client(router, in, deadline, c);
          } else {
            session_client(router, in, t, deadline, c);
          }
        });
      }
      if (cycle == cycles / 2) {
        // Halfway through the writers' time.
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(cycles % 2 == 1 ? update_ns / 2 : 0));
        out.mid_stats = router.stats();
      }
    }
    const std::uint64_t read_begin = now_ns();
    update_total += read_begin - begin;
    if (read_ns == 0) continue;
    {
      std::vector<std::jthread> pool;
      for (std::size_t t = p.writers; t < threads; ++t) {
        Client& c = clients[t];
        pool.emplace_back(
            [&, t] { reader_client(router, in, t, read_begin + read_ns, c); });
      }
    }
    read_total += now_ns() - read_begin;
  }
  out.seconds = static_cast<double>(now_ns() - start) * 1e-9;
  out.update_seconds = static_cast<double>(update_total) * 1e-9;
  out.read_seconds = p.readers > 0 ? static_cast<double>(read_total) * 1e-9 : out.seconds;
  for (std::size_t t = 0; t < threads; ++t) {
    Client& c = clients[t];
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(out.ack_us, c.ack_us);
    append(out.merge_ack_us, c.merge_ack_us);
    out.attempted += c.attempted;
    out.applied += c.applied;
    out.failed += c.failed;
    out.reads += c.reads;
    if (p.readers == 0 || t >= p.writers) out.rated_reads += c.reads;
    out.reads_checked += c.reads_checked;
    out.violations.insert(out.violations.end(), c.violations.begin(), c.violations.end());
    out.spans.insert(out.spans.end(), c.log.spans().begin(), c.log.spans().end());
    g_sink.fetch_add(c.sink, std::memory_order_relaxed);
  }
  // The writers are the first clients.
  for (std::size_t w = 0; w < in.writers.size(); ++w) {
    out.consumed.push_back(clients[w].consumed);
  }
  return out;
}

}  // namespace perfbench
