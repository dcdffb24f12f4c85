#include "primitives/bfs.hpp"

#include <cstdint>
#include <vector>

#include "core/advance.hpp"
#include "core/compute.hpp"
#include "core/direction.hpp"
#include "core/filter.hpp"
#include "core/frontier.hpp"
#include "graph/stats.hpp"
#include "parallel/atomics.hpp"
#include "parallel/bitmap.hpp"
#include "parallel/compact.hpp"
#include "parallel/reduce.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace gunrock {

namespace {

/// Per-vertex BFS label, ordered so that a fetch-min settles the parent
/// rule of BfsResult::pred. Without predecessors the label is the depth
/// alone (32-bit, kept in place in result.depth). With predecessors it
/// packs the depth into the high word and the parent into the low word
/// (64-bit), so a rediscovery finds the parent in the same load as the
/// depth. Both layouts read as unsigned: depth -1 and kInvalidVid are all
/// ones, so an unvisited vertex holds the largest key and loses to any
/// offer, while a shallower label beats every offer of this iteration.
template <typename Key>
struct BfsLabel {
  static constexpr Key kUnvisited = ~Key{0};
  static constexpr bool kPacked = sizeof(Key) == 8;

  static Key Make(std::int32_t depth, vid_t parent) {
    if constexpr (kPacked) {
      return Key{static_cast<std::uint32_t>(depth)} << 32 |
             static_cast<std::uint32_t>(parent);
    } else {
      return static_cast<Key>(depth);
    }
  }
};

/// Problem data slice (the paper's Problem component): SoA per-vertex
/// state shared by the functors.
template <typename Key>
struct BfsProblem {
  Key* label = nullptr;
  par::EpochBitmap* visited = nullptr;  // idempotent-mode claim set
  std::int32_t iteration = 0;           // depth to assign this iteration

  Key Offer(vid_t parent) const {
    return BfsLabel<Key>::Make(iteration, parent);
  }
};

/// Non-idempotent advance: atomic CAS on the label claims each vertex
/// exactly once, so the output frontier is duplicate-free. With a packed
/// label the CAS loser then min-writes its offer, which changes the label
/// only when it holds this iteration's depth with a larger parent — so the
/// parent is the smallest-id discoverer whichever thread won the claim.
struct BfsAtomicFunctor {
  template <typename Key>
  static bool CondEdge(vid_t s, vid_t d, eid_t, BfsProblem<Key>& p) {
    const Key offer = p.Offer(s);
    if (par::AtomicCas(&p.label[d], BfsLabel<Key>::kUnvisited, offer)) {
      return true;
    }
    if constexpr (BfsLabel<Key>::kPacked) par::AtomicMin(&p.label[d], offer);
    return false;
  }
  template <typename Key>
  static void ApplyEdge(vid_t, vid_t, eid_t, BfsProblem<Key>&) {}
};

/// Idempotent advance: no claim, so concurrent discoverers may all emit
/// a vertex and the filter dedups. Rewriting the depth is benign (every
/// writer of this iteration writes the same depth) and is a plain store;
/// the parent differs per writer, so a packed label is min-written
/// instead — by every same-level discoverer, including one that finds
/// the vertex already labelled this iteration.
struct BfsIdempotentFunctor {
  template <typename Key>
  static bool CondEdge(vid_t s, vid_t d, eid_t, BfsProblem<Key>& p) {
    const Key offer = p.Offer(s);
    const Key seen = par::AtomicLoad(&p.label[d]);
    if (seen <= offer) return false;  // shallower, or a smaller parent
    if constexpr (BfsLabel<Key>::kPacked) {
      par::AtomicMin(&p.label[d], offer);
    } else {
      par::AtomicStore(&p.label[d], offer);
    }
    return seen == BfsLabel<Key>::kUnvisited;
  }
  template <typename Key>
  static void ApplyEdge(vid_t, vid_t, eid_t, BfsProblem<Key>&) {}
};

/// Idempotent-mode filter: the visited bitmap's test-and-set is the exact
/// dedup claim ("Gunrock's fastest BFS ... uses heuristics within its
/// filter that reduce the concurrent discovery of child nodes").
struct BfsFilterFunctor {
  template <typename Key>
  static bool CondVertex(vid_t v, BfsProblem<Key>& p) {
    return p.visited->TestAndSet(static_cast<std::size_t>(v));
  }
  template <typename Key>
  static void ApplyVertex(vid_t, BfsProblem<Key>&) {}
};

/// Pull advance: the operator already verified the parent is in the
/// current frontier; the candidate is unvisited by construction. The
/// operator stops at the first frontier vertex of the sorted reverse row,
/// which is the smallest-id in-neighbour at depth - 1 — the same parent
/// the push functors' fetch-min settles on.
struct BfsPullFunctor {
  template <typename Key>
  static bool CondEdge(vid_t s, vid_t d, eid_t, BfsProblem<Key>& p) {
    p.label[d] = p.Offer(s);
    return true;
  }
  template <typename Key>
  static void ApplyEdge(vid_t, vid_t, eid_t, BfsProblem<Key>&) {}
};

template <typename Key>
BfsResult RunBfs(const graph::Csr& g, vid_t source, const BfsOptions& opts,
                 const RunControl& ctl) {
  using Label = BfsLabel<Key>;
  GR_CHECK(source >= 0 && source < g.num_vertices(),
           "BFS source out of range");
  par::ThreadPool& pool = opts.Pool();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  const graph::Csr& rg = opts.reverse ? *opts.reverse : g;

  // Enactor-owned scratch arena: every operator call below reuses its
  // buffers through this, so iterations are allocation-free after warm-up.
  // An engine-leased arena (ctl.workspace) extends the reuse across
  // queries — with a warm lease only the result buffers allocate.
  core::Workspace private_ws;
  core::Workspace& ws = ctl.workspace ? *ctl.workspace : private_ws;

  BfsResult result;
  result.depth.assign(n, -1);
  Key* label = nullptr;
  if constexpr (Label::kPacked) {
    result.pred.assign(n, kInvalidVid);
    auto& packed = ws.Get<std::vector<Key>>(pslot::kBfsFirst + 5);
    packed.assign(n, Label::kUnvisited);
    label = packed.data();
  } else {
    // Depth-only labels live in result.depth itself (-1 reads as all ones).
    label = reinterpret_cast<Key*>(result.depth.data());
  }

  // Both per-vertex sets are epoch-stamped and arena-resident: a fresh
  // query (visited) or a direction switch (frontier_bits) invalidates
  // them with one counter bump instead of an O(|V|) clear, and a warm
  // lease reuses their storage outright.
  auto& visited = ws.Get<par::EpochBitmap>(pslot::kBfsFirst + 3);
  visited.Resize(n);
  visited.NewEpoch();
  auto& frontier_bits = ws.Get<par::EpochBitmap>(pslot::kBfsFirst + 4);
  frontier_bits.Resize(n);

  BfsProblem<Key> prob;
  prob.label = label;
  prob.visited = &visited;

  core::AdvanceConfig adv_cfg;
  adv_cfg.lb = opts.load_balance;
  adv_cfg.scale_free_hint = ctl.scale_free_hint >= 0
                                ? ctl.scale_free_hint > 0
                                : graph::ComputeScaleFreeHint(g, pool);
  adv_cfg.workspace = &ws;
  core::FilterConfig filter_cfg;
  filter_cfg.history_hash = true;
  filter_cfg.workspace = &ws;

  core::DirectionOptimizer optimizer(g.num_vertices(), opts.do_alpha,
                                     opts.do_beta);

  auto& frontier = ws.Get<core::VertexFrontier>(pslot::kBfsFirst);
  frontier.Assign({source});
  label[source] = Label::Make(0, kInvalidVid);
  result.depth[source] = 0;
  visited.Set(static_cast<std::size_t>(source));

  // Edge counts for the direction controller: edges reachable from
  // unvisited vertices shrink as the traversal claims them.
  eid_t m_unvisited = g.num_edges() - g.degree(source);

  core::EfficiencyAccumulator efficiency;
  // Pull-mode unvisited list and idempotent-mode advance output, both
  // reused across iterations and (via the lease) across queries.
  auto& candidates = ws.Get<std::vector<vid_t>>(pslot::kBfsFirst + 1);
  auto& raw = ws.Get<std::vector<vid_t>>(pslot::kBfsFirst + 2);
  WallTimer timer;

  const bool optimizing = opts.direction == core::Direction::kOptimizing;
  while (!frontier.empty()) {
    ctl.Checkpoint();
    prob.iteration = result.stats.iterations + 1;
    const std::size_t n_f = frontier.size();

    bool pull = opts.direction == core::Direction::kPull;
    if (optimizing) {
      // The controller's inputs (frontier out-edges, unexplored edges)
      // are only worth computing when the direction can actually switch.
      const eid_t m_f = par::TransformReduce(
          pool, n_f, eid_t{0}, [](eid_t a, eid_t b) { return a + b; },
          [&](std::size_t i) { return g.degree(frontier.current()[i]); },
          &ws);
      pull = optimizer.ShouldPull(m_f, m_unvisited,
                                  static_cast<vid_t>(n_f));
    }

    core::AdvanceResult adv;
    if (pull) {
      frontier_bits.NewEpoch();  // O(1) invalidation of the previous set
      core::ForEach(pool, std::span<const vid_t>(frontier.current()),
                    [&](vid_t v) {
                      frontier_bits.Set(static_cast<std::size_t>(v));
                    });
      candidates.resize(n);
      const std::size_t nc = par::GenerateIf(
          pool, n, std::span<vid_t>(candidates),
          [&](std::size_t v) { return label[v] == Label::kUnvisited; },
          [](std::size_t v) { return static_cast<vid_t>(v); }, &ws);
      candidates.resize(nc);
      adv = core::AdvancePull<BfsPullFunctor>(pool, rg, frontier_bits,
                                              candidates, &frontier.next(),
                                              prob, adv_cfg);
      // Pull discovers uniquely (one thread owns each candidate); mark
      // visited so a later push iteration stays consistent.
      core::ForEach(pool, std::span<const vid_t>(frontier.next()),
                    [&](vid_t v) {
                      visited.Set(static_cast<std::size_t>(v));
                    });
    } else if (opts.idempotent) {
      raw.clear();
      adv = core::AdvancePush<BfsIdempotentFunctor>(
          pool, g, frontier.current(), &raw, prob, adv_cfg);
      core::FilterVertex<BfsFilterFunctor>(pool, raw, &frontier.next(),
                                           prob, filter_cfg);
    } else {
      adv = core::AdvancePush<BfsAtomicFunctor>(
          pool, g, frontier.current(), &frontier.next(), prob, adv_cfg);
    }

    result.stats.edges_visited += adv.edges_visited;
    efficiency.Add(adv.lane_efficiency, adv.edges_visited);
    if (opts.collect_records) {
      result.stats.records.push_back(
          {pull ? "advance-pull" : "advance-push", prob.iteration, n_f,
           frontier.next().size(), adv.edges_visited,
           adv.lane_efficiency});
    }

    if (optimizing) {
      const eid_t m_new = par::TransformReduce(
          pool, frontier.next().size(), eid_t{0},
          [](eid_t a, eid_t b) { return a + b; },
          [&](std::size_t i) { return g.degree(frontier.next()[i]); },
          &ws);
      m_unvisited -= m_new;
    }

    if constexpr (Label::kPacked) {
      // Each vertex enters exactly one frontier, and its label is final
      // once the level's advance has run: publishing depth and parent
      // here keeps the unpacking O(reached) rather than O(|V|).
      core::ForEach(pool, std::span<const vid_t>(frontier.next()),
                    [&](vid_t v) {
                      result.depth[v] = prob.iteration;
                      result.pred[v] = static_cast<vid_t>(
                          static_cast<std::uint32_t>(label[v]));
                    });
    }

    frontier.Flip();
    ++result.stats.iterations;
  }

  result.stats.elapsed_ms = timer.ElapsedMs();
  result.stats.lane_efficiency = efficiency.Value();
  return result;
}

}  // namespace

BfsResult Bfs(const graph::Csr& g, vid_t source, const BfsOptions& opts) {
  return Bfs(g, source, opts, RunControl{});
}

BfsResult Bfs(const graph::Csr& g, vid_t source, const BfsOptions& opts,
              const RunControl& ctl) {
  static_assert(sizeof(vid_t) == 4, "packed BFS labels hold a 32-bit id");
  return opts.compute_preds ? RunBfs<std::uint64_t>(g, source, opts, ctl)
                            : RunBfs<std::uint32_t>(g, source, opts, ctl);
}

}  // namespace gunrock
