// QueryEngine: concurrent-submission determinism against direct calls,
// workspace-lease recycling, cancellation (explicit and deadline),
// admission-control backpressure, and failure paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/env.hpp"
#include "common/oracle.hpp"
#include "common/topologies.hpp"
#include "gunrock.hpp"

namespace gunrock {
namespace {

using engine::BfsQuery;
using engine::CcQuery;
using engine::CompletionStream;
using engine::GraphOptions;
using engine::HitsQuery;
using engine::LabelPropagationQuery;
using engine::MstQuery;
using engine::PagerankQuery;
using engine::PprQuery;
using engine::QueryEngine;
using engine::QueryEngineOptions;
using engine::QueryHandle;
using engine::QueryStatus;
using engine::SalsaQuery;
using engine::SsspQuery;
using engine::TrianglesQuery;

/// Scale-free fixture derived from GUNROCK_TEST_SEED, so the seed sweep
/// exercises the engine on different topologies.
graph::Csr MakeGraph(int scale = 10, int edge_factor = 8) {
  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = edge_factor;
  p.seed = 1000 + test::TestSeed();
  auto coo = GenerateRmat(p, par::ThreadPool::Global());
  graph::AttachRandomWeights(coo, 1, 64, /*seed=*/test::TestSeed());
  graph::BuildOptions opts;
  opts.symmetrize = true;
  return graph::BuildCsr(coo, opts);
}

using test::SpreadSources;

/// A query that cannot finish within the test's patience: a negative
/// tolerance keeps every vertex in PageRank's frontier forever (the
/// residual is never > -1), so only cancellation or a deadline stops the
/// huge iteration budget.
PagerankQuery EndlessPagerank() {
  PagerankQuery q;
  q.opts.tolerance = -1.0;
  q.opts.max_iterations = 1 << 28;
  return q;
}

void SpinUntilRunning(const QueryHandle& h) {
  while (h.status() == QueryStatus::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Endless HITS: a negative tolerance means the L1 movement test never
/// passes, so only cancellation or a deadline stops the huge iteration
/// budget — the ranking-family analog of EndlessPagerank().
HitsQuery EndlessHits() {
  HitsQuery q;
  q.opts.tolerance = -1.0;
  q.opts.max_iterations = 1 << 28;
  return q;
}

/// Two vertices, one edge: synchronous label propagation oscillates
/// between (0,1) and (1,0) forever, so an uncapped run only stops via
/// its RunControl token.
graph::Csr OscillatingLpGraph() {
  graph::Coo coo;
  coo.num_vertices = 2;
  coo.PushEdge(0, 1);
  return test::Undirected(std::move(coo));
}

using test::ExpectScoresMatch;

// --- determinism ------------------------------------------------------------

TEST(QueryEngineTest, ConcurrentResultsBitIdenticalToDirectCalls) {
  const graph::Csr g = MakeGraph();
  const auto sources = SpreadSources(g, 6);

  QueryEngineOptions eopts;
  eopts.max_in_flight = 4;
  QueryEngine engine(eopts);
  engine.RegisterGraph("g", g);

  // Direct reference runs on the same pool the engine serves from — the
  // chunk grains (and so every reduction order) match by construction.
  BfsQuery bfs;
  bfs.opts.direction = core::Direction::kOptimizing;
  SsspQuery sssp;
  PagerankQuery pr;
  pr.opts.pull = true;  // gather-reduce: deterministic rank accumulation
  pr.opts.max_iterations = 30;
  CcQuery cc;

  // Saturate the engine with a mixed workload: every source submits a
  // BFS and an SSSP, plus one PageRank and one CC — all in flight
  // together before any result is consumed.
  std::vector<QueryHandle> bfs_handles;
  std::vector<QueryHandle> sssp_handles;
  for (const vid_t s : sources) {
    bfs_handles.push_back(engine.Submit("g", engine::WithSource(bfs, s)));
    sssp_handles.push_back(engine.Submit("g", engine::WithSource(sssp, s)));
  }
  QueryHandle pr_handle = engine.Submit("g", pr);
  QueryHandle cc_handle = engine.Submit("g", cc);

  for (std::size_t i = 0; i < sources.size(); ++i) {
    const auto& bfs_resp = bfs_handles[i].Wait();
    ASSERT_EQ(bfs_resp.status, QueryStatus::kDone) << bfs_resp.error;
    const auto& got_bfs = std::get<BfsResult>(bfs_resp.result);
    const auto want_bfs = Bfs(g, sources[i], bfs.opts);
    EXPECT_EQ(got_bfs.depth, want_bfs.depth) << "source " << sources[i];
    // The parent rule (smallest-id in-neighbour at depth - 1) makes the
    // tree itself reproducible, so it is pinned exactly, not just checked
    // for validity.
    EXPECT_EQ(got_bfs.pred, want_bfs.pred) << "source " << sources[i];
    test::ExpectValidBfsTree(g, sources[i], got_bfs);

    const auto& sssp_resp = sssp_handles[i].Wait();
    ASSERT_EQ(sssp_resp.status, QueryStatus::kDone) << sssp_resp.error;
    const auto& got_sssp = std::get<SsspResult>(sssp_resp.result);
    const auto want_sssp = Sssp(g, sources[i], sssp.opts);
    EXPECT_EQ(got_sssp.dist, want_sssp.dist) << "source " << sources[i];
    EXPECT_EQ(got_sssp.pred, want_sssp.pred) << "source " << sources[i];
  }

  const auto& pr_resp = pr_handle.Wait();
  ASSERT_EQ(pr_resp.status, QueryStatus::kDone) << pr_resp.error;
  EXPECT_EQ(std::get<PagerankResult>(pr_resp.result).rank,
            Pagerank(g, pr.opts).rank);

  const auto& cc_resp = cc_handle.Wait();
  ASSERT_EQ(cc_resp.status, QueryStatus::kDone) << cc_resp.error;
  EXPECT_EQ(std::get<CcResult>(cc_resp.result).component,
            Cc(g, cc.opts).component);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, 2 * sources.size() + 2);
  EXPECT_EQ(stats.done, 2 * sources.size() + 2);
}

TEST(QueryEngineTest, SubmitAllMatchesPerSourceDirectCalls) {
  const graph::Csr g = MakeGraph(9, 6);
  const auto sources = SpreadSources(g, 8);

  QueryEngineOptions eopts;
  eopts.max_in_flight = 4;
  QueryEngine engine(eopts);
  engine.RegisterGraph("g", g);

  BfsQuery proto;
  proto.opts.direction = core::Direction::kPush;
  auto handles = engine.SubmitAll("g", sources, proto);
  ASSERT_EQ(handles.size(), sources.size());
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const auto& resp = handles[i].Wait();
    ASSERT_EQ(resp.status, QueryStatus::kDone) << resp.error;
    EXPECT_EQ(std::get<BfsResult>(resp.result).depth,
              Bfs(g, sources[i], proto.opts).depth);
    // Latency accounting: the pieces exist and add up.
    EXPECT_GE(resp.queue_ms, 0.0);
    EXPECT_GE(resp.run_ms, 0.0);
    EXPECT_GE(resp.total_ms + 1e-6, resp.run_ms);
  }
}

// --- workspace leasing ------------------------------------------------------

TEST(QueryEngineTest, LeaseRecyclingStopsWorkspaceAllocation) {
  const graph::Csr g = MakeGraph(9, 6);
  const auto sources = SpreadSources(g, 4);

  QueryEngineOptions eopts;
  eopts.max_in_flight = 1;  // one arena => deterministic warm-up coverage
  QueryEngine engine(eopts);
  engine.RegisterGraph("g", g);

  BfsQuery bfs;
  SsspQuery sssp;
  PagerankQuery pr;
  pr.opts.pull = true;
  pr.opts.max_iterations = 5;

  // Warm-up: every query kind the steady workload will see.
  for (const vid_t s : sources) {
    engine.Submit("g", engine::WithSource(bfs, s)).Wait();
    engine.Submit("g", engine::WithSource(sssp, s)).Wait();
  }
  engine.Submit("g", pr).Wait();

  const auto warm = engine.workspace_stats();
  EXPECT_EQ(warm.created, 1u);
  EXPECT_GT(warm.workspace_creations, 0u);

  // Steady state: the same workload again. The one arena is recycled
  // through every lease and creates no new containers.
  for (const vid_t s : sources) {
    engine.Submit("g", engine::WithSource(bfs, s)).Wait();
    engine.Submit("g", engine::WithSource(sssp, s)).Wait();
  }
  engine.Submit("g", pr).Wait();

  const auto steady = engine.workspace_stats();
  EXPECT_EQ(steady.created, 1u);
  EXPECT_EQ(steady.workspace_creations, warm.workspace_creations)
      << "steady-state serving must not allocate workspace containers";
  EXPECT_EQ(steady.recycled, steady.acquired - 1);
  EXPECT_EQ(steady.outstanding, 0u);
}

TEST(QueryEngineTest, LeaseCountBoundedByInFlightLimit) {
  const graph::Csr g = MakeGraph(8, 6);
  QueryEngineOptions eopts;
  eopts.max_in_flight = 3;
  QueryEngine engine(eopts);
  engine.RegisterGraph("g", g);

  BfsQuery proto;
  const auto sources = SpreadSources(g, 24);
  for (auto& h : engine.SubmitAll("g", sources, proto)) {
    ASSERT_EQ(h.Wait().status, QueryStatus::kDone);
  }
  const auto stats = engine.workspace_stats();
  EXPECT_LE(stats.created, 3u);
  EXPECT_EQ(stats.acquired, sources.size());
}

// --- cancellation -----------------------------------------------------------

TEST(QueryEngineTest, CancelMidRunReleasesTheEngine) {
  const graph::Csr g = MakeGraph(10, 8);
  QueryEngineOptions eopts;
  eopts.max_in_flight = 1;
  QueryEngine engine(eopts);
  engine.RegisterGraph("g", g);

  auto endless = engine.Submit("g", EndlessPagerank());
  SpinUntilRunning(endless);
  endless.Cancel();
  const auto& resp = endless.Wait();
  EXPECT_EQ(resp.status, QueryStatus::kCancelled);
  EXPECT_TRUE(
      std::holds_alternative<std::monostate>(resp.result));

  // The runner and its workspace lease are free again.
  BfsQuery bfs;
  const auto& after = engine.Submit("g", bfs).Wait();
  EXPECT_EQ(after.status, QueryStatus::kDone) << after.error;
  EXPECT_EQ(engine.workspace_stats().outstanding, 0u);
}

TEST(QueryEngineTest, CancelWhileQueuedNeverRuns) {
  const graph::Csr g = MakeGraph(9, 6);
  QueryEngineOptions eopts;
  eopts.max_in_flight = 1;
  QueryEngine engine(eopts);
  engine.RegisterGraph("g", g);

  auto endless = engine.Submit("g", EndlessPagerank());
  SpinUntilRunning(endless);
  auto queued = engine.Submit("g", EndlessPagerank());
  queued.Cancel();  // still waiting for the single runner
  endless.Cancel();
  EXPECT_EQ(queued.Wait().status, QueryStatus::kCancelled);
  EXPECT_EQ(endless.Wait().status, QueryStatus::kCancelled);
}

TEST(QueryEngineTest, DeadlineStopsARunningQuery) {
  const graph::Csr g = MakeGraph(9, 6);
  QueryEngine engine;
  engine.RegisterGraph("g", g);

  engine::SubmitOptions sopts;
  sopts.deadline_ms = 25.0;
  const auto& resp = engine.Submit("g", EndlessPagerank(), sopts).Wait();
  EXPECT_EQ(resp.status, QueryStatus::kDeadlineExceeded);
}

// --- admission control ------------------------------------------------------

TEST(QueryEngineTest, RejectPolicyFailsFastWhenQueueIsFull) {
  const graph::Csr g = MakeGraph(9, 6);
  QueryEngineOptions eopts;
  eopts.max_in_flight = 1;
  eopts.queue_capacity = 1;
  eopts.backpressure = QueryEngineOptions::Backpressure::kReject;
  QueryEngine engine(eopts);
  engine.RegisterGraph("g", g);

  auto running = engine.Submit("g", EndlessPagerank());
  SpinUntilRunning(running);
  auto queued = engine.Submit("g", EndlessPagerank());
  auto rejected = engine.Submit("g", EndlessPagerank());

  const auto& resp = rejected.Wait();  // already terminal: returns at once
  EXPECT_EQ(resp.status, QueryStatus::kRejected);
  EXPECT_FALSE(resp.error.empty());
  EXPECT_EQ(engine.stats().rejected, 1u);

  queued.Cancel();
  running.Cancel();
  queued.Wait();
  running.Wait();
}

TEST(QueryEngineTest, BlockPolicyThrottlesButCompletesEverything) {
  const graph::Csr g = MakeGraph(8, 6);
  QueryEngineOptions eopts;
  eopts.max_in_flight = 2;
  eopts.queue_capacity = 1;  // submitters block almost immediately
  QueryEngine engine(eopts);
  engine.RegisterGraph("g", g);

  BfsQuery proto;
  const auto sources = SpreadSources(g, 12);
  auto handles = engine.SubmitAll("g", sources, proto);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const auto& resp = handles[i].Wait();
    ASSERT_EQ(resp.status, QueryStatus::kDone) << resp.error;
    EXPECT_EQ(std::get<BfsResult>(resp.result).depth,
              Bfs(g, sources[i], proto.opts).depth);
  }
  EXPECT_EQ(engine.stats().done, sources.size());
}

// --- failure paths ----------------------------------------------------------

TEST(QueryEngineTest, UnknownGraphThrowsAtSubmit) {
  QueryEngine engine;
  EXPECT_THROW(engine.Submit("nope", BfsQuery{}), Error);
}

TEST(QueryEngineTest, PrimitiveErrorsSurfaceAsFailedQueries) {
  // Unweighted graph: SSSP's precondition check throws inside the runner.
  graph::RmatParams p;
  p.scale = 8;
  p.edge_factor = 6;
  p.seed = 7;
  auto coo = GenerateRmat(p, par::ThreadPool::Global());
  graph::BuildOptions bopts;
  bopts.symmetrize = true;
  QueryEngine engine;
  engine.RegisterGraph("unweighted", graph::BuildCsr(coo, bopts));

  const auto& resp = engine.Submit("unweighted", SsspQuery{}).Wait();
  EXPECT_EQ(resp.status, QueryStatus::kFailed);
  EXPECT_NE(resp.error.find("weight"), std::string::npos) << resp.error;
  EXPECT_EQ(engine.stats().failed, 1u);
}

TEST(QueryEngineTest, ShutdownCancelsQueuedAndRefusesNewWork) {
  const graph::Csr g = MakeGraph(8, 6);
  QueryEngineOptions eopts;
  eopts.max_in_flight = 1;
  QueryEngine engine(eopts);
  engine.RegisterGraph("g", g);

  auto running = engine.Submit("g", EndlessPagerank());
  SpinUntilRunning(running);
  auto queued = engine.Submit("g", BfsQuery{});
  running.Cancel();  // let Shutdown's join finish promptly
  engine.Shutdown();
  EXPECT_EQ(queued.Wait().status, QueryStatus::kCancelled);
  EXPECT_TRUE(running.Done());
  EXPECT_THROW(engine.Submit("g", BfsQuery{}), Error);
}

// --- new primitive families (mst / triangles / lp / ranking) ----------------

TEST(QueryEngineTest, NewFamiliesServeBitIdenticalResults) {
  const graph::Csr g = MakeGraph(9, 6);
  const graph::Csr rg = graph::ReverseCsr(g, par::ThreadPool::Global());
  const vid_t seed_vertex = SpreadSources(g, 1)[0];

  QueryEngineOptions eopts;
  eopts.max_in_flight = 4;
  QueryEngine engine(eopts);
  engine.RegisterGraph("g", g);

  MstQuery mst_filtered;
  MstQuery mst_scan;
  mst_scan.opts.variant = MstVariant::kScanAll;
  TrianglesQuery tri_merge;
  TrianglesQuery tri_hash;
  tri_hash.opts.variant = TriangleVariant::kHash;
  LabelPropagationQuery lp_frontier;
  lp_frontier.opts.max_iterations = 20;
  LabelPropagationQuery lp_sweep = lp_frontier;
  lp_sweep.opts.variant = LpVariant::kFullSweep;
  HitsQuery hits_l1;
  hits_l1.opts.max_iterations = 15;
  HitsQuery hits_l2 = hits_l1;
  hits_l2.opts.norm = HitsNorm::kL2;
  SalsaQuery salsa;
  salsa.opts.max_iterations = 15;
  PprQuery ppr;
  ppr.seeds = {seed_vertex};
  ppr.opts.max_iterations = 40;

  // Everything in flight together before any result is consumed.
  auto h_mst_f = engine.Submit("g", mst_filtered);
  auto h_mst_s = engine.Submit("g", mst_scan);
  auto h_tri_m = engine.Submit("g", tri_merge);
  auto h_tri_h = engine.Submit("g", tri_hash);
  auto h_lp_f = engine.Submit("g", lp_frontier);
  auto h_lp_s = engine.Submit("g", lp_sweep);
  auto h_hits1 = engine.Submit("g", hits_l1);
  auto h_hits2 = engine.Submit("g", hits_l2);
  auto h_salsa = engine.Submit("g", salsa);
  auto h_ppr = engine.Submit("g", ppr);

  // MST: identical forests per variant, and across variants (the packed
  // (weight, id) winner order is variant-invariant).
  const auto& mst_f_resp = h_mst_f.Wait();
  ASSERT_EQ(mst_f_resp.status, QueryStatus::kDone) << mst_f_resp.error;
  const auto& got_mst_f = std::get<MstResult>(mst_f_resp.result);
  const auto want_mst_f = Mst(g, mst_filtered.opts);
  EXPECT_EQ(got_mst_f.tree_edges, want_mst_f.tree_edges);
  EXPECT_DOUBLE_EQ(got_mst_f.total_weight, want_mst_f.total_weight);
  EXPECT_EQ(got_mst_f.num_components, want_mst_f.num_components);

  const auto& mst_s_resp = h_mst_s.Wait();
  ASSERT_EQ(mst_s_resp.status, QueryStatus::kDone) << mst_s_resp.error;
  const auto& got_mst_s = std::get<MstResult>(mst_s_resp.result);
  EXPECT_EQ(got_mst_s.tree_edges, Mst(g, mst_scan.opts).tree_edges);
  EXPECT_EQ(got_mst_s.tree_edges, got_mst_f.tree_edges)
      << "scan-all and filtered Boruvka must pick the same forest";

  // Triangles: exact tallies per variant and across variants.
  const auto& tri_m_resp = h_tri_m.Wait();
  ASSERT_EQ(tri_m_resp.status, QueryStatus::kDone) << tri_m_resp.error;
  const auto& got_tri_m = std::get<TriangleResult>(tri_m_resp.result);
  const auto want_tri = CountTriangles(g, tri_merge.opts);
  EXPECT_EQ(got_tri_m.num_triangles, want_tri.num_triangles);
  EXPECT_EQ(got_tri_m.per_vertex, want_tri.per_vertex);
  EXPECT_EQ(got_tri_m.clustering, want_tri.clustering);
  EXPECT_DOUBLE_EQ(got_tri_m.global_clustering,
                   want_tri.global_clustering);

  const auto& tri_h_resp = h_tri_h.Wait();
  ASSERT_EQ(tri_h_resp.status, QueryStatus::kDone) << tri_h_resp.error;
  const auto& got_tri_h = std::get<TriangleResult>(tri_h_resp.result);
  EXPECT_EQ(got_tri_h.num_triangles, want_tri.num_triangles);
  EXPECT_EQ(got_tri_h.per_vertex, want_tri.per_vertex);
  EXPECT_EQ(got_tri_h.stats.edges_visited, want_tri.stats.edges_visited);

  // Label propagation: identical labels per variant and across variants
  // (a non-frontier vertex would recompute the label it already holds).
  const auto& lp_f_resp = h_lp_f.Wait();
  ASSERT_EQ(lp_f_resp.status, QueryStatus::kDone) << lp_f_resp.error;
  const auto& got_lp_f =
      std::get<LabelPropagationResult>(lp_f_resp.result);
  const auto want_lp = LabelPropagation(g, lp_frontier.opts);
  EXPECT_EQ(got_lp_f.label, want_lp.label);
  EXPECT_EQ(got_lp_f.num_communities, want_lp.num_communities);
  EXPECT_EQ(got_lp_f.iterations, want_lp.iterations);

  const auto& lp_s_resp = h_lp_s.Wait();
  ASSERT_EQ(lp_s_resp.status, QueryStatus::kDone) << lp_s_resp.error;
  EXPECT_EQ(std::get<LabelPropagationResult>(lp_s_resp.result).label,
            want_lp.label)
      << "full-sweep and frontier LP must converge identically";

  // Ranking: exact on a single-lane pool, tight elsewhere (atomic double
  // accumulation order).
  const auto& hits1_resp = h_hits1.Wait();
  ASSERT_EQ(hits1_resp.status, QueryStatus::kDone) << hits1_resp.error;
  const auto want_hits1 = Hits(g, rg, hits_l1.opts);
  ExpectScoresMatch(want_hits1.hub,
                    std::get<HitsResult>(hits1_resp.result).hub);
  ExpectScoresMatch(want_hits1.authority,
                    std::get<HitsResult>(hits1_resp.result).authority);

  const auto& hits2_resp = h_hits2.Wait();
  ASSERT_EQ(hits2_resp.status, QueryStatus::kDone) << hits2_resp.error;
  const auto want_hits2 = Hits(g, rg, hits_l2.opts);
  ExpectScoresMatch(want_hits2.hub,
                    std::get<HitsResult>(hits2_resp.result).hub);

  const auto& salsa_resp = h_salsa.Wait();
  ASSERT_EQ(salsa_resp.status, QueryStatus::kDone) << salsa_resp.error;
  const auto want_salsa = Salsa(g, rg, salsa.opts);
  ExpectScoresMatch(want_salsa.authority,
                    std::get<SalsaResult>(salsa_resp.result).authority);

  const auto& ppr_resp = h_ppr.Wait();
  ASSERT_EQ(ppr_resp.status, QueryStatus::kDone) << ppr_resp.error;
  const auto want_ppr =
      PersonalizedPagerank(g, std::span<const vid_t>(ppr.seeds), ppr.opts);
  ExpectScoresMatch(want_ppr.rank,
                    std::get<PprResult>(ppr_resp.result).rank);

  EXPECT_EQ(engine.stats().done, 10u);
}

TEST(QueryEngineTest, RankingRunnerCancelsMidRun) {
  const graph::Csr g = MakeGraph(9, 6);
  QueryEngineOptions eopts;
  eopts.max_in_flight = 1;
  QueryEngine engine(eopts);
  engine.RegisterGraph("g", g);

  auto endless = engine.Submit("g", EndlessHits());
  SpinUntilRunning(endless);
  endless.Cancel();
  const auto& resp = endless.Wait();
  EXPECT_EQ(resp.status, QueryStatus::kCancelled);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(resp.result));

  // Runner and lease are free again; the reverse-graph cache survives.
  const auto& after = engine.Submit("g", TrianglesQuery{}).Wait();
  EXPECT_EQ(after.status, QueryStatus::kDone) << after.error;
  EXPECT_EQ(engine.workspace_stats().outstanding, 0u);
}

TEST(QueryEngineTest, LabelPropagationCancelsMidRun) {
  QueryEngineOptions eopts;
  eopts.max_in_flight = 1;
  QueryEngine engine(eopts);
  engine.RegisterGraph("osc", OscillatingLpGraph());

  LabelPropagationQuery endless_lp;
  endless_lp.opts.max_iterations = 1 << 28;
  auto h = engine.Submit("osc", endless_lp);
  SpinUntilRunning(h);
  h.Cancel();
  EXPECT_EQ(h.Wait().status, QueryStatus::kCancelled);
}

TEST(QueryEngineTest, NewFamiliesCancelWhileQueued) {
  const graph::Csr g = MakeGraph(9, 6);
  QueryEngineOptions eopts;
  eopts.max_in_flight = 1;
  QueryEngine engine(eopts);
  engine.RegisterGraph("g", g);

  auto endless = engine.Submit("g", EndlessPagerank());
  SpinUntilRunning(endless);
  auto q_mst = engine.Submit("g", MstQuery{});
  auto q_tri = engine.Submit("g", TrianglesQuery{});
  auto q_lp = engine.Submit("g", LabelPropagationQuery{});
  auto q_hits = engine.Submit("g", HitsQuery{});
  q_mst.Cancel();
  q_tri.Cancel();
  q_lp.Cancel();
  q_hits.Cancel();
  endless.Cancel();
  EXPECT_EQ(q_mst.Wait().status, QueryStatus::kCancelled);
  EXPECT_EQ(q_tri.Wait().status, QueryStatus::kCancelled);
  EXPECT_EQ(q_lp.Wait().status, QueryStatus::kCancelled);
  EXPECT_EQ(q_hits.Wait().status, QueryStatus::kCancelled);
  EXPECT_EQ(endless.Wait().status, QueryStatus::kCancelled);
}

TEST(QueryEngineTest, DeadlineStopsRunningRankingQuery) {
  const graph::Csr g = MakeGraph(9, 6);
  QueryEngine engine;
  engine.RegisterGraph("g", g);

  engine::SubmitOptions sopts;
  sopts.deadline_ms = 25.0;
  const auto& resp = engine.Submit("g", EndlessHits(), sopts).Wait();
  EXPECT_EQ(resp.status, QueryStatus::kDeadlineExceeded);
}

TEST(QueryEngineTest, DeadlineExpiresWhileNewFamiliesQueued) {
  const graph::Csr g = MakeGraph(9, 6);
  QueryEngineOptions eopts;
  eopts.max_in_flight = 1;
  QueryEngine engine(eopts);
  engine.RegisterGraph("g", g);

  auto endless = engine.Submit("g", EndlessPagerank());
  SpinUntilRunning(endless);
  engine::SubmitOptions sopts;
  sopts.deadline_ms = 10.0;
  auto q_mst = engine.Submit("g", MstQuery{}, sopts);
  auto q_tri = engine.Submit("g", TrianglesQuery{}, sopts);
  // Let both deadlines lapse while the single runner is still occupied,
  // then release it: the queued queries must expire at pickup, never run.
  EXPECT_FALSE(q_mst.WaitForMs(30.0));
  endless.Cancel();
  EXPECT_EQ(q_mst.Wait().status, QueryStatus::kDeadlineExceeded);
  EXPECT_EQ(q_tri.Wait().status, QueryStatus::kDeadlineExceeded);
  EXPECT_EQ(endless.Wait().status, QueryStatus::kCancelled);
}

TEST(QueryEngineTest, LeaseRecyclingStableAcrossAllNineFamilies) {
  const graph::Csr g = MakeGraph(9, 6);
  QueryEngineOptions eopts;
  eopts.max_in_flight = 1;  // one arena serves every family in turn
  QueryEngine engine(eopts);
  engine.RegisterGraph("g", g);

  const vid_t s = SpreadSources(g, 1)[0];
  const auto run_all_families = [&] {
    BfsQuery bfs;
    bfs.source = s;
    ASSERT_EQ(engine.Submit("g", bfs).Wait().status, QueryStatus::kDone);
    SsspQuery sssp;
    sssp.source = s;
    ASSERT_EQ(engine.Submit("g", sssp).Wait().status, QueryStatus::kDone);
    engine::BcQuery bc;
    bc.source = s;
    ASSERT_EQ(engine.Submit("g", bc).Wait().status, QueryStatus::kDone);
    ASSERT_EQ(engine.Submit("g", CcQuery{}).Wait().status,
              QueryStatus::kDone);
    PagerankQuery pr;
    pr.opts.pull = true;
    pr.opts.max_iterations = 5;
    ASSERT_EQ(engine.Submit("g", pr).Wait().status, QueryStatus::kDone);
    MstQuery mst_scan;
    mst_scan.opts.variant = MstVariant::kScanAll;
    ASSERT_EQ(engine.Submit("g", MstQuery{}).Wait().status,
              QueryStatus::kDone);
    ASSERT_EQ(engine.Submit("g", mst_scan).Wait().status,
              QueryStatus::kDone);
    TrianglesQuery tri_hash;
    tri_hash.opts.variant = TriangleVariant::kHash;
    ASSERT_EQ(engine.Submit("g", TrianglesQuery{}).Wait().status,
              QueryStatus::kDone);
    ASSERT_EQ(engine.Submit("g", tri_hash).Wait().status,
              QueryStatus::kDone);
    LabelPropagationQuery lp;
    lp.opts.max_iterations = 10;
    ASSERT_EQ(engine.Submit("g", lp).Wait().status, QueryStatus::kDone);
    HitsQuery hits;
    hits.opts.max_iterations = 5;
    ASSERT_EQ(engine.Submit("g", hits).Wait().status, QueryStatus::kDone);
    SalsaQuery salsa;
    salsa.opts.max_iterations = 5;
    ASSERT_EQ(engine.Submit("g", salsa).Wait().status, QueryStatus::kDone);
    PprQuery ppr;
    ppr.seeds = {s};
    ppr.opts.max_iterations = 10;
    ASSERT_EQ(engine.Submit("g", ppr).Wait().status, QueryStatus::kDone);
  };

  // Warm-up: one query of every family (and every variant with its own
  // slots) through the single arena.
  run_all_families();
  const auto warm = engine.workspace_stats();
  EXPECT_EQ(warm.created, 1u);
  EXPECT_GT(warm.workspace_creations, 0u);

  // Steady state: the identical mixed workload recycles the arena with
  // zero container creations — every primitive's slots hold their types
  // no matter which family ran before (the pslot:: disjointness rule).
  run_all_families();
  const auto steady = engine.workspace_stats();
  EXPECT_EQ(steady.created, 1u);
  EXPECT_EQ(steady.workspace_creations, warm.workspace_creations)
      << "recycled leases must never re-type a slot across families";
  EXPECT_EQ(steady.outstanding, 0u);
}

// --- completion streaming ---------------------------------------------------

TEST(QueryEngineTest, StreamDeliversInFinishOrder) {
  // A heavy component plus isolated vertices: SSSP from an isolated
  // source finishes orders of magnitude before SSSP from inside the
  // component, so finish order must differ from submit order.
  graph::RmatParams p;
  p.scale = 14;
  p.edge_factor = 16;
  p.seed = 1000 + test::TestSeed();
  auto coo = GenerateRmat(p, par::ThreadPool::Global());
  const vid_t base = coo.num_vertices;
  coo.num_vertices += 3;  // three isolated vertices
  graph::AttachRandomWeights(coo, 1, 64, /*seed=*/test::TestSeed());
  graph::BuildOptions bopts;
  bopts.symmetrize = true;
  const graph::Csr g = graph::BuildCsr(coo, bopts);

  QueryEngineOptions eopts;
  eopts.max_in_flight = 2;
  QueryEngine engine(eopts);
  engine.RegisterGraph("g", g);

  vid_t hub = 0;
  for (vid_t v = 1; v < base; ++v) {
    if (g.degree(v) > g.degree(hub)) hub = v;
  }
  const std::vector<vid_t> sources = {hub, base, base + 1, base + 2};

  SsspQuery proto;
  auto stream = engine.SubmitAll("g", sources, proto, engine::kStream);
  ASSERT_EQ(stream.size(), sources.size());
  ASSERT_EQ(stream.handles().size(), sources.size());

  std::vector<std::size_t> finish_order;
  while (auto c = stream.Next()) {
    EXPECT_TRUE(c->handle.Done()) << "streamed completion not terminal";
    const auto& resp = c->handle.Wait();
    ASSERT_EQ(resp.status, QueryStatus::kDone) << resp.error;
    const auto want = Sssp(g, sources[c->index], proto.opts);
    EXPECT_EQ(std::get<SsspResult>(resp.result).dist, want.dist)
        << "source " << sources[c->index];
    finish_order.push_back(c->index);
  }
  ASSERT_EQ(finish_order.size(), sources.size());
  EXPECT_EQ(stream.delivered(), sources.size());
  EXPECT_NE(finish_order.front(), 0u)
      << "an isolated-source SSSP must finish before the hub SSSP";
  // Exactly-once delivery.
  std::vector<std::size_t> sorted = finish_order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(QueryEngineTest, StreamDrainsAfterShutdown) {
  const graph::Csr g = MakeGraph(8, 6);
  QueryEngineOptions eopts;
  eopts.max_in_flight = 1;
  QueryEngine engine(eopts);
  engine.RegisterGraph("g", g);

  const std::vector<vid_t> sources = {0, 1, 2};
  auto stream =
      engine.SubmitAll("g", sources, EndlessPagerank(), engine::kStream);
  SpinUntilRunning(stream.handles()[0]);

  // Shutdown on the side: it immediately fails the two queued queries
  // over to kCancelled (feeding the stream) and then blocks on the
  // running one until we cancel it.
  std::thread shutdown([&] { engine.Shutdown(); });
  auto first = stream.Next();
  auto second = stream.Next();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->handle.Wait().status, QueryStatus::kCancelled);
  EXPECT_EQ(second->handle.Wait().status, QueryStatus::kCancelled);
  EXPECT_NE(first->index, 0u) << "the running query cannot finish first";

  stream.handles()[0].Cancel();
  auto third = stream.Next();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->index, 0u);
  EXPECT_EQ(third->handle.Wait().status, QueryStatus::kCancelled);
  shutdown.join();

  EXPECT_FALSE(stream.Next().has_value()) << "batch already fully drained";
}

TEST(QueryEngineTest, AbandonedStreamIsReclaimed) {
  // Dropping a CompletionStream with undrained completions must not pin
  // the batch: Complete() severs each state's back-reference when it
  // feeds the stream, so the ASan leak check (CI) fails here if the
  // States and Shared ever form a cycle again.
  const graph::Csr g = MakeGraph(8, 6);
  QueryEngine engine;
  engine.RegisterGraph("g", g);
  const std::vector<vid_t> sources = {0, 1, 2};
  {
    auto stream =
        engine.SubmitAll("g", sources, BfsQuery{}, engine::kStream);
    auto first = stream.Next();
    ASSERT_TRUE(first.has_value());
  }  // two completions never drained
  engine.Shutdown();  // remaining queries reach terminal states first
}

TEST(QueryEngineTest, StreamEmptyBatchDrainsImmediately) {
  const graph::Csr g = MakeGraph(8, 6);
  QueryEngine engine;
  engine.RegisterGraph("g", g);
  auto stream = engine.SubmitAll("g", std::span<const vid_t>{},
                                 BfsQuery{}, engine::kStream);
  EXPECT_EQ(stream.size(), 0u);
  EXPECT_FALSE(stream.Next().has_value());
}

// --- per-graph admission quotas ---------------------------------------------

TEST(QueryEngineTest, GraphQuotaBlocksSubmitterUntilRelease) {
  const graph::Csr hot = MakeGraph(9, 6);
  const graph::Csr cold = MakeGraph(8, 6);
  QueryEngineOptions eopts;
  eopts.max_in_flight = 4;
  QueryEngine engine(eopts);
  GraphOptions quota_one;
  quota_one.quota = 1;
  engine.RegisterGraph("hot", hot, quota_one);
  engine.RegisterGraph("cold", cold);

  auto occupant = engine.Submit("hot", EndlessPagerank());
  SpinUntilRunning(occupant);
  EXPECT_EQ(engine.GraphInFlight("hot"), 1u);

  // The quota gates only its own graph: another graph admits freely.
  EXPECT_EQ(engine.Submit("cold", BfsQuery{}).Wait().status,
            QueryStatus::kDone);

  std::atomic<bool> admitted{false};
  QueryHandle blocked;
  std::thread submitter([&] {
    blocked = engine.Submit("hot", BfsQuery{});
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load())
      << "second hot-graph query must block on the quota";

  occupant.Cancel();  // terminal transition releases the quota slot
  submitter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(blocked.Wait().status, QueryStatus::kDone);
  EXPECT_EQ(engine.GraphInFlight("hot"), 0u);
}

TEST(QueryEngineTest, GraphQuotaRejectsAndReleasesOnCancelAndFailure) {
  const graph::Csr g = MakeGraph(9, 6);
  QueryEngineOptions eopts;
  eopts.max_in_flight = 2;
  eopts.backpressure = QueryEngineOptions::Backpressure::kReject;
  QueryEngine engine(eopts);
  GraphOptions quota_one;
  quota_one.quota = 1;
  engine.RegisterGraph("g", g, quota_one);

  auto occupant = engine.Submit("g", EndlessPagerank());
  SpinUntilRunning(occupant);
  const auto& rejected = engine.Submit("g", BfsQuery{}).Wait();
  EXPECT_EQ(rejected.status, QueryStatus::kRejected);
  EXPECT_NE(rejected.error.find("quota"), std::string::npos)
      << rejected.error;
  EXPECT_EQ(engine.stats().rejected, 1u);

  // Released on cancellation...
  occupant.Cancel();
  occupant.Wait();
  EXPECT_EQ(engine.GraphInFlight("g"), 0u);
  EXPECT_EQ(engine.Submit("g", BfsQuery{}).Wait().status,
            QueryStatus::kDone);

  // ...and on failure (SSSP on an unweighted graph throws in the runner).
  graph::RmatParams p;
  p.scale = 8;
  p.edge_factor = 6;
  p.seed = 7;
  auto coo = GenerateRmat(p, par::ThreadPool::Global());
  graph::BuildOptions bopts;
  bopts.symmetrize = true;
  engine.RegisterGraph("unweighted", graph::BuildCsr(coo, bopts),
                       quota_one);
  EXPECT_EQ(engine.Submit("unweighted", SsspQuery{}).Wait().status,
            QueryStatus::kFailed);
  EXPECT_EQ(engine.GraphInFlight("unweighted"), 0u);
  EXPECT_EQ(engine.Submit("unweighted", BfsQuery{}).Wait().status,
            QueryStatus::kDone);
}

}  // namespace
}  // namespace gunrock
