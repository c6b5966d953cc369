#include "inputs.hpp"

#include <algorithm>
#include <deque>
#include <optional>

#include "graph/generators.hpp"
#include "service/workload.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace perfbench {

using pardfs::Graph;
using pardfs::Rng;

namespace {

// The initial graph of every workload comes from this fixed seed; --seed
// drives the update and query streams. In back-to-back runs of five seeds,
// update_storm's ack p99 spread 0.04 of its median with one graph against
// about 0.2 with a graph per seed.
constexpr std::uint64_t kGraphSeed = 1;
// Distinct, fixed salts so the streams of one seed are independent.
constexpr std::uint64_t kStreamSalt = 0x2545F4914F6CDD1DULL;
constexpr std::uint64_t kQuerySalt = 0x51ED27F1A3C0B5D9ULL;
constexpr std::uint64_t kSessionSalt = 0x2F6C4A8E1B3D5079ULL;
constexpr std::uint64_t kShardGraphSalt = 0x6A09E667F3BCC909ULL;

// Records the mirror's counts after an update was applied to it.
void push_counts(UpdateStream& s, const Graph& mirror, const Graph& initial) {
  s.vertex_delta.push_back(static_cast<std::int64_t>(mirror.num_vertices()) -
                           initial.num_vertices());
  s.edge_delta.push_back(mirror.num_edges() - initial.num_edges());
}

// Read batches over ids [0, id_space): batch - 1 point queries cycling the
// five kinds, then one path_to_root. Two-vertex queries pick v with
// `pair_of(u)` so they can land in the same component.
template <typename PairOf>
std::vector<Query> make_queries(std::size_t count, std::size_t batch,
                                Vertex id_space, Rng& rng, PairOf pair_of) {
  std::vector<Query> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t pos = i % batch;
    Query q;
    q.kind = pos + 1 == batch ? kPathToRoot
                              : static_cast<QueryKind>(pos % kPathToRoot);
    q.u = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(id_space)));
    q.v = pair_of(q.u, rng);
    out.push_back(q);
  }
  return out;
}

// update_storm: the update mix of the service's scenario driver
// (service::WorkloadDriver's social_mix weights), drawn against a mirror of
// `initial` so every update is feasible.
UpdateStream scenario_stream(const Graph& initial, const double (&mix)[4],
                             std::size_t length, Rng& rng) {
  Graph mirror = initial;
  UpdateStream s;
  s.updates.reserve(length);
  s.tags.assign(length, UpdateTag::kLocal);
  push_counts(s, mirror, initial);
  for (std::size_t i = 0; i < length; ++i) {
    pardfs::gen::Update u;
    PARDFS_CHECK(pardfs::gen::random_update(mirror, rng, mix[0], mix[1], mix[2], mix[3], u));
    pardfs::gen::apply_update(mirror, u);
    switch (u.kind) {
      case pardfs::gen::UpdateKind::kInsertEdge:
        s.updates.push_back(GraphUpdate::insert_edge(u.u, u.v));
        break;
      case pardfs::gen::UpdateKind::kDeleteEdge:
        s.updates.push_back(GraphUpdate::delete_edge(u.u, u.v));
        break;
      case pardfs::gen::UpdateKind::kInsertVertex:
        s.updates.push_back(GraphUpdate::insert_vertex(std::move(u.neighbors)));
        break;
      case pardfs::gen::UpdateKind::kDeleteVertex:
        s.updates.push_back(GraphUpdate::delete_vertex(u.u));
        break;
    }
    push_counts(s, mirror, initial);
  }
  return s;
}

// sharded_sessions graph: n / block components, each a ring plus block / 8
// random chords. The router spreads components round-robin in ascending root
// id, so block b starts on shard b % shards.
Graph block_graph(Vertex n, Vertex block, Rng& rng) {
  Graph g(n);
  for (Vertex base = 0; base + block <= n; base += block) {
    for (Vertex i = 0; i < block; ++i) g.add_edge(base + i, base + (i + 1) % block);
    for (Vertex c = 0; c < block / 8; ++c) {
      const Vertex u = base + static_cast<Vertex>(rng.below(block));
      const Vertex v = base + static_cast<Vertex>(rng.below(block));
      if (u != v) g.add_edge(u, v);  // duplicates are refused by Graph
    }
  }
  return g;
}

bool ring_adjacent(Vertex a, Vertex b, Vertex block) {
  const Vertex d = (a - b + block) % block;
  return d == 1 || d == block - 1;
}

// Where the router keeps one client's blocks, by ShardRouter's placement
// rule: block b starts on shard b % shards; a cross-shard insert moves the
// smaller of the two components onto the larger one's shard (ties go to the
// lower shard id); deleting a cross edge moves nothing back. Components are
// the client's blocks joined by its live cross edges.
class Placement {
 public:
  Placement(Vertex first_block, Vertex blocks, Vertex shards)
      : shard_(static_cast<std::size_t>(blocks)),
        comp_(static_cast<std::size_t>(blocks)),
        load_(static_cast<std::size_t>(shards), 0) {
    for (Vertex b = 0; b < blocks; ++b) {
      shard_[b] = (first_block + b) % shards;
      ++load_[shard_[b]];
    }
    relabel({});
  }

  Vertex shard(Vertex b) const { return shard_[b]; }

  // The winning shard of a cross insert between blocks a and b (on
  // different shards) and the number of blocks that move.
  std::pair<Vertex, Vertex> merge_outcome(Vertex a, Vertex b) const {
    const Vertex sa = size_of(a), sb = size_of(b);
    if (sa > sb || (sa == sb && shard_[a] < shard_[b])) return {shard_[a], sb};
    return {shard_[b], sa};
  }

  // Blocks-per-shard spread (max - min) if blocks a and b were merged.
  Vertex imbalance_after(Vertex a, Vertex b) const {
    std::vector<Vertex> load = load_;
    const auto [winner, moved] = merge_outcome(a, b);
    load[winner] += moved;
    load[winner == shard_[a] ? shard_[b] : shard_[a]] -= moved;
    return spread(load);
  }
  Vertex imbalance() const { return spread(load_); }
  Vertex least_loaded() const {
    return static_cast<Vertex>(std::min_element(load_.begin(), load_.end()) - load_.begin());
  }
  bool same_component(Vertex a, Vertex b) const { return comp_[a] == comp_[b]; }

  // Applies a cross insert between blocks a and b on different shards;
  // `live` is the client's set of live cross edges afterwards, as block pairs.
  void merge(Vertex a, Vertex b, const std::vector<std::pair<Vertex, Vertex>>& live) {
    const Vertex winner = merge_outcome(a, b).first;
    const Vertex loser_comp = winner == shard_[a] ? comp_[b] : comp_[a];
    for (std::size_t x = 0; x < comp_.size(); ++x) {
      if (comp_[x] != loser_comp) continue;
      --load_[shard_[x]];
      shard_[x] = winner;
      ++load_[winner];
    }
    relabel(live);
  }
  // Applies a cross delete or a same-shard join: components change, shards
  // do not.
  void split(const std::vector<std::pair<Vertex, Vertex>>& live) { relabel(live); }

 private:
  static Vertex spread(const std::vector<Vertex>& load) {
    const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
    return *hi - *lo;
  }
  Vertex size_of(Vertex b) const {
    return static_cast<Vertex>(std::count(comp_.begin(), comp_.end(), comp_[b]));
  }
  // Component label of every block: the smallest block of its component.
  void relabel(const std::vector<std::pair<Vertex, Vertex>>& live) {
    for (std::size_t x = 0; x < comp_.size(); ++x) comp_[x] = static_cast<Vertex>(x);
    for (bool changed = true; changed;) {
      changed = false;
      for (const auto& [a, b] : live) {
        const Vertex ca = comp_[a], cb = comp_[b];
        if (ca == cb) continue;
        changed = true;
        for (Vertex& c : comp_) {
          if (c == ca || c == cb) c = std::min(ca, cb);
        }
      }
    }
    for (const auto& [a, b] : live) PARDFS_CHECK(shard_[a] == shard_[b]);
  }

  std::vector<Vertex> shard_;
  std::vector<Vertex> comp_;
  std::vector<Vertex> load_;
};

// One sharded_sessions client, owning blocks [first, first + count). 90% of
// its updates flip an intra-block chord (ring edges are never touched, so
// every block stays connected, and each block keeps about block / 8 chords);
// 10% insert an edge between two of its
// blocks that the router keeps on different shards at that point of the
// stream (Placement), so every such insert migrates a component. Pairs whose
// merge would spread the client's blocks over the shards by more than
// kSlack blocks are skipped, which stops blocks from drifting onto low
// shard ids; when no pair qualifies, the insert joins two blocks of the
// least-loaded shard instead (kBlockJoin). At most kLiveCross cross-block
// edges are live per client: past that, the oldest is deleted first.
// Component sizes, shard loads and so the migration cost stay stationary
// however far a run gets.
UpdateStream session_stream(Graph& mirror, const WorkloadParams& p,
                            Vertex first_block, Vertex blocks, Rng& rng) {
  constexpr std::size_t kLiveCross = 8;
  constexpr Vertex kSlack = 8;
  constexpr int kPairTries = 256;
  const Vertex block = p.block;
  Placement place(first_block, blocks, static_cast<Vertex>(p.shards));
  UpdateStream s;
  std::int64_t de = 0;  // chord and cross-edge flips never add or drop vertices
  s.vertex_delta.push_back(0);
  s.edge_delta.push_back(0);
  auto emit = [&](GraphUpdate u, UpdateTag tag) {
    if (u.kind == GraphUpdate::Kind::kInsertEdge) {
      PARDFS_CHECK(mirror.add_edge(u.u, u.v));
      ++de;
    } else {
      PARDFS_CHECK(mirror.remove_edge(u.u, u.v));
      --de;
    }
    s.updates.push_back(std::move(u));
    s.tags.push_back(tag);
    s.vertex_delta.push_back(0);
    s.edge_delta.push_back(de);
  };
  // Live cross edges, oldest first, as vertices and as local block pairs.
  std::deque<std::pair<Vertex, Vertex>> live_cross;
  std::vector<std::pair<Vertex, Vertex>> live_blocks;
  auto local = [&](Vertex v) { return v / block - first_block; };
  // Each block's chords: its edges other than the ring's.
  const std::size_t target = block / 8;
  std::vector<std::vector<std::pair<Vertex, Vertex>>> chords(static_cast<std::size_t>(blocks));
  for (Vertex b = 0; b < blocks; ++b) {
    const Vertex base = (first_block + b) * block;
    for (Vertex u = base; u < base + block; ++u) {
      for (Vertex v : mirror.neighbors(u)) {
        if (u < v && v < base + block && !ring_adjacent(u, v, block)) {
          chords[b].emplace_back(u, v);
        }
      }
    }
  }
  auto rebuild_live_blocks = [&] {
    live_blocks.clear();
    for (const auto& [a, b] : live_cross) live_blocks.emplace_back(local(a), local(b));
  };
  while (s.updates.size() < p.stream_length) {
    if (rng.coin(0.1) && blocks > 1) {
      if (live_cross.size() >= kLiveCross) {
        const auto [a, b] = live_cross.front();
        live_cross.pop_front();
        emit(GraphUpdate::delete_edge(a, b), UpdateTag::kCrossDelete);
        rebuild_live_blocks();
        place.split(live_blocks);
        if (s.updates.size() == p.stream_length) break;
      }
      const Vertex limit = std::max(place.imbalance(), kSlack);
      std::optional<std::pair<Vertex, Vertex>> pair;
      for (int t = 0; t < kPairTries && !pair; ++t) {
        const auto b1 = static_cast<Vertex>(rng.below(blocks));
        const auto b2 = static_cast<Vertex>(rng.below(blocks));
        if (place.shard(b1) != place.shard(b2) && place.imbalance_after(b1, b2) <= limit) {
          pair.emplace(b1, b2);
        }
      }
      // No merge keeps the shards balanced (ties always favour the lower
      // shard id): join two blocks of the least-loaded shard instead, so
      // that shard holds a larger component that later merges move onto.
      for (int t = 0; t < kPairTries && !pair; ++t) {
        const auto b1 = static_cast<Vertex>(rng.below(blocks));
        const auto b2 = static_cast<Vertex>(rng.below(blocks));
        if (place.shard(b1) == place.least_loaded() && place.shard(b2) == place.shard(b1) &&
            !place.same_component(b1, b2)) {
          pair.emplace(b1, b2);
        }
      }
      if (!pair) continue;
      const auto [b1, b2] = *pair;
      const bool crosses = place.shard(b1) != place.shard(b2);
      const Vertex u = (first_block + b1) * block + static_cast<Vertex>(rng.below(block));
      const Vertex v = (first_block + b2) * block + static_cast<Vertex>(rng.below(block));
      emit(GraphUpdate::insert_edge(u, v),
           crosses ? UpdateTag::kCrossInsert : UpdateTag::kBlockJoin);
      live_cross.emplace_back(u, v);
      rebuild_live_blocks();
      if (crosses) {
        place.merge(b1, b2, live_blocks);
      } else {
        place.split(live_blocks);
      }
      continue;
    }
    // Chord flip: delete one of the block's chords with probability
    // chords / (2 * target), else insert a new one, so every block keeps
    // about `target` chords and the graph does not grow with the stream.
    const auto b = static_cast<Vertex>(rng.below(blocks));
    std::vector<std::pair<Vertex, Vertex>>& mine = chords[b];
    if (rng.coin(std::min(1.0, static_cast<double>(mine.size()) / (2.0 * target)))) {
      const std::size_t k = rng.below(mine.size());
      const auto [u, v] = mine[k];
      mine[k] = mine.back();
      mine.pop_back();
      emit(GraphUpdate::delete_edge(u, v), UpdateTag::kLocal);
      continue;
    }
    const Vertex base = (first_block + b) * block;
    const Vertex u = base + static_cast<Vertex>(rng.below(block));
    const Vertex v = base + static_cast<Vertex>(rng.below(block));
    if (u == v || ring_adjacent(u, v, block) || mirror.has_edge(u, v)) continue;
    emit(GraphUpdate::insert_edge(u, v), UpdateTag::kLocal);
    mine.emplace_back(u, v);
  }
  return s;
}

void fnv(std::uint64_t& h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kUpdateStorm: return "update_storm";
    case Workload::kShardedSessions: return "sharded_sessions";
  }
  return "unknown";
}

bool parse_workload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kUpdateStorm, Workload::kShardedSessions}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* query_kind_name(QueryKind k) {
  switch (k) {
    case kIsAncestor: return "is_ancestor";
    case kLca: return "lca";
    case kSameComponent: return "same_component";
    case kRootOf: return "root_of";
    case kDepth: return "depth";
    case kPathToRoot: return "path_to_root";
    case kNumQueryKinds: break;
  }
  return "unknown";
}

WorkloadParams workload_params(Workload w, bool tiny) {
  WorkloadParams p;
  switch (w) {
    case Workload::kUpdateStorm:
      p.n = tiny ? 1 << 10 : 1 << 15;
      p.stream_length = tiny ? 2048 : 40000;
      p.window = 16;
      p.queries_per_batch = 16;
      break;
    case Workload::kShardedSessions:
      p.n = tiny ? 1 << 12 : 1 << 16;
      p.shards = 4;
      p.writers = 2;
      p.readers = 1;
      p.reader_batch = 64;
      // About 4x what the fastest observed host consumed in a 45 s run, so
      // a faster change still runs the full time.
      p.stream_length = tiny ? 2048 : 1 << 17;
      p.queries_per_batch = 8;
      p.block = 256;
      p.update_probability = 0.25;
      p.load_cpus = 1;
      break;
  }
  return p;
}

Inputs make_inputs(Workload w, std::uint64_t seed, bool tiny) {
  Inputs in;
  in.workload = w;
  in.params = workload_params(w, tiny);
  const WorkloadParams& p = in.params;
  constexpr std::size_t kQueryStream = 1 << 16;
  Rng qrng(seed ^ kQuerySalt);
  if (w == Workload::kShardedSessions) {
    Rng grng(kGraphSeed ^ kShardGraphSalt);
    in.initial = block_graph(p.n, p.block, grng);
    Graph mirror = in.initial;
    const Vertex blocks = p.n / p.block;
    const auto per_client = blocks / static_cast<Vertex>(p.writers);
    Rng srng(seed ^ kSessionSalt);
    // Reads ask about a vertex and a partner in its own block.
    const Vertex block = p.block;
    auto block_partner = [block](Vertex u, Rng& r) {
      return (u / block) * block + static_cast<Vertex>(r.below(block));
    };
    for (std::size_t c = 0; c < p.writers; ++c) {
      Rng urng = srng.split();
      in.writers.push_back(session_stream(
          mirror, p, static_cast<Vertex>(c) * per_client, per_client, urng));
      in.queries.push_back(
          make_queries(kQueryStream, p.queries_per_batch, p.n, qrng, block_partner));
      std::vector<std::uint8_t> flags(1 << 13);
      for (auto& f : flags) f = urng.coin(p.update_probability) ? 1 : 0;
      in.session_updates.push_back(std::move(flags));
    }
    // Reader batches stay in one block: with every query in a random block,
    // read_qps ranged from 3.5 to 6.5 million per second between runs of
    // the same code (ten-seed spread 0.14, against 0.05-0.09 this way).
    for (std::size_t r = 0; r < p.readers; ++r) {
      std::vector<Query> qs =
          make_queries(kQueryStream, p.reader_batch, p.n, qrng, block_partner);
      for (std::size_t i = 0; i < qs.size(); i += p.reader_batch) {
        const Vertex base = qs[i].u / block * block;
        for (std::size_t j = i; j < i + p.reader_batch && j < qs.size(); ++j) {
          qs[j].u = base + qs[j].u % block;
          qs[j].v = base + qs[j].v % block;
        }
      }
      in.queries.push_back(std::move(qs));
    }
    return in;
  }
  pardfs::service::WorkloadSpec spec;
  spec.scenario = pardfs::service::Scenario::kSocialMix;
  spec.n = p.n;
  spec.seed = kGraphSeed;
  in.initial = pardfs::service::make_initial_graph(spec);
  static constexpr double kSocialMix[4] = {1.5, 1.0, 0.5, 0.3};
  Rng urng(seed ^ kStreamSalt);
  in.writers.push_back(scenario_stream(in.initial, kSocialMix, p.stream_length, urng));
  const Vertex n = p.n;
  in.queries.push_back(make_queries(
      kQueryStream, p.queries_per_batch, n, qrng, [n](Vertex, Rng& rr) {
        return static_cast<Vertex>(rr.below(static_cast<std::uint64_t>(n)));
      }));
  return in;
}

std::uint64_t hash_inputs(const Inputs& in) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  fnv(h, static_cast<std::uint64_t>(in.initial.capacity()));
  for (const pardfs::Edge& e : in.initial.edges()) {
    fnv(h, static_cast<std::uint64_t>(e.u));
    fnv(h, static_cast<std::uint64_t>(e.v));
  }
  for (const UpdateStream& s : in.writers) {
    for (std::size_t i = 0; i < s.updates.size(); ++i) {
      const GraphUpdate& u = s.updates[i];
      fnv(h, static_cast<std::uint64_t>(u.kind));
      fnv(h, static_cast<std::uint64_t>(u.u));
      fnv(h, static_cast<std::uint64_t>(u.v));
      for (Vertex x : u.neighbors) fnv(h, static_cast<std::uint64_t>(x));
      fnv(h, static_cast<std::uint64_t>(s.tags[i]));
    }
  }
  for (const auto& qs : in.queries) {
    for (const Query& q : qs) {
      fnv(h, q.kind);
      fnv(h, static_cast<std::uint64_t>(q.u));
      fnv(h, static_cast<std::uint64_t>(q.v));
    }
  }
  for (const auto& flags : in.session_updates) {
    for (std::uint8_t f : flags) fnv(h, f);
  }
  return h;
}

}  // namespace perfbench
