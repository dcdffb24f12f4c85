// BFS vs the serial oracle across topologies × strategies × modes ×
// directions, plus structural properties of the BFS tree.
#include <gtest/gtest.h>

#include "common/oracle.hpp"
#include "common/topologies.hpp"
#include "gunrock.hpp"

namespace gunrock {
namespace {

using test::TopologyCase;

const std::vector<TopologyCase>& Cases() {
  static const auto* cases = new std::vector<TopologyCase>(
      test::CorpusBuilder()
          .Karate()
          .Path(257)
          .Star(100, /*source=*/3)
          .Grid(37, 23, /*source=*/11)
          .BinaryTree(10)
          .Rmat(12, 8, /*source=*/5)
          .Rgg(12, /*source=*/17)
          .Disconnected(4, 64, /*source=*/1)
          .Build());
  return *cases;
}

struct Config {
  core::LoadBalance lb;
  bool idempotent;
  core::Direction direction;
};

std::string ConfigName(const ::testing::TestParamInfo<
                       std::tuple<std::size_t, Config>>& info) {
  const auto& [case_idx, cfg] = info.param;
  std::string name = Cases()[case_idx].name;
  name += "_";
  name += ToString(cfg.lb);
  name += cfg.idempotent ? "_idem" : "_atomic";
  name += "_";
  name += ToString(cfg.direction);
  return test::SafeTestName(std::move(name));
}

class BfsParamTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, Config>> {};

TEST_P(BfsParamTest, MatchesSerialDepths) {
  const auto& [case_idx, cfg] = GetParam();
  const auto& c = Cases()[case_idx];
  const auto expected = serial::Bfs(c.graph, c.source);

  BfsOptions opts;
  opts.load_balance = cfg.lb;
  opts.idempotent = cfg.idempotent;
  opts.direction = cfg.direction;
  const auto got = Bfs(c.graph, c.source, opts);

  test::ExpectSameLabels(expected.depth, got.depth);
}

TEST_P(BfsParamTest, PredecessorsFormValidBfsTree) {
  const auto& [case_idx, cfg] = GetParam();
  const auto& c = Cases()[case_idx];
  BfsOptions opts;
  opts.load_balance = cfg.lb;
  opts.idempotent = cfg.idempotent;
  opts.direction = cfg.direction;
  const auto got = Bfs(c.graph, c.source, opts);

  test::ExpectValidBfsTree(c.graph, c.source, got);
}

std::vector<std::tuple<std::size_t, Config>> AllParams() {
  const Config configs[] = {
      {core::LoadBalance::kThreadMapped, false, core::Direction::kPush},
      {core::LoadBalance::kThreadMapped, true, core::Direction::kPush},
      {core::LoadBalance::kTwc, false, core::Direction::kPush},
      {core::LoadBalance::kTwc, true, core::Direction::kPush},
      {core::LoadBalance::kEqualWork, false, core::Direction::kPush},
      {core::LoadBalance::kEqualWork, true, core::Direction::kPush},
      {core::LoadBalance::kAuto, true, core::Direction::kPush},
      {core::LoadBalance::kAuto, true, core::Direction::kPull},
      {core::LoadBalance::kAuto, false, core::Direction::kPull},
      {core::LoadBalance::kAuto, true, core::Direction::kOptimizing},
      {core::LoadBalance::kAuto, false, core::Direction::kOptimizing},
      {core::LoadBalance::kEqualWork, true, core::Direction::kOptimizing},
  };
  std::vector<std::tuple<std::size_t, Config>> params;
  for (std::size_t i = 0; i < Cases().size(); ++i) {
    for (const auto& cfg : configs) params.emplace_back(i, cfg);
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllGraphs, BfsParamTest,
                         ::testing::ValuesIn(AllParams()), ConfigName);

// --- the parent rule -------------------------------------------------------

// pred[v] is the smallest-id in-neighbour u with depth[u] == depth[v] - 1,
// derived serially from the returned depths: scanning u in ascending
// order, the first qualifying u claims v. Out-edge scanning finds
// in-neighbours on directed graphs too.
std::vector<vid_t> SmallestParentRule(const graph::Csr& g,
                                      const std::vector<std::int32_t>& depth) {
  std::vector<vid_t> pred(depth.size(), kInvalidVid);
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    if (depth[u] < 0) continue;
    for (const vid_t v : g.neighbors(u)) {
      if (depth[v] == depth[u] + 1 && pred[v] == kInvalidVid) pred[v] = u;
    }
  }
  return pred;
}

struct PredConfig {
  const char* name;
  bool idempotent;
  core::Direction direction;
};

constexpr PredConfig kPredConfigs[] = {
    {"push_atomic", false, core::Direction::kPush},
    {"push_idem", true, core::Direction::kPush},
    {"pull", true, core::Direction::kPull},
    {"optimizing_idem", true, core::Direction::kOptimizing},
    {"optimizing_atomic", false, core::Direction::kOptimizing},
};

// Runs BFS at pool widths 1, 2 and 4 (pools shared by every case). The
// rule is checked exactly, so a racy parent fails even on a single-core
// machine rather than only when the interleaving happens to expose it.
void ExpectParentRule(const graph::Csr& g, vid_t source, BfsOptions opts) {
  static par::ThreadPool* const pools[] = {new par::ThreadPool(1),
                                           new par::ThreadPool(2),
                                           new par::ThreadPool(4)};
  for (par::ThreadPool* pool : pools) {
    SCOPED_TRACE("pool width " + std::to_string(pool->num_threads()));
    opts.pool = pool;
    const auto got = Bfs(g, source, opts);
    EXPECT_EQ(got.pred, SmallestParentRule(g, got.depth));
    test::ExpectValidBfsTree(g, source, got);
  }
}

class BfsPredRuleTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, PredConfig>> {};

TEST_P(BfsPredRuleTest, PredIsSmallestInNeighbourAtEveryPoolWidth) {
  const auto& [case_idx, cfg] = GetParam();
  const auto& c = Cases()[case_idx];
  BfsOptions opts;
  opts.idempotent = cfg.idempotent;
  opts.direction = cfg.direction;
  ExpectParentRule(c.graph, c.source, opts);
}

std::string PredConfigName(
    const ::testing::TestParamInfo<std::tuple<std::size_t, PredConfig>>&
        info) {
  const auto& [case_idx, cfg] = info.param;
  return test::SafeTestName(Cases()[case_idx].name + "_" + cfg.name);
}

INSTANTIATE_TEST_SUITE_P(
    AllGraphs, BfsPredRuleTest,
    ::testing::Combine(::testing::Range(std::size_t{0}, Cases().size()),
                       ::testing::ValuesIn(kPredConfigs)),
    PredConfigName);

// Directed graphs: push needs no reverse to reach the rule; pull and
// direction-optimizing read in-neighbours from the supplied reverse.
TEST(BfsTest, PredRuleHoldsOnDirectedGraphs) {
  const auto cases =
      test::CorpusBuilder().Directed(true).Rmat(11, 8, /*source=*/5).Build();
  for (const auto& c : cases) {
    const graph::Csr reverse =
        graph::ReverseCsr(c.graph, par::ThreadPool::Global());
    for (const PredConfig& cfg : kPredConfigs) {
      SCOPED_TRACE(c.name + "_" + cfg.name);
      BfsOptions opts;
      opts.idempotent = cfg.idempotent;
      opts.direction = cfg.direction;
      if (cfg.direction != core::Direction::kPush) opts.reverse = &reverse;
      ExpectParentRule(c.graph, c.source, opts);
    }
  }
}

TEST(BfsTest, RejectsBadSource) {
  const auto g = test::Undirected(graph::MakePath(4));
  EXPECT_THROW(Bfs(g, -1), Error);
  EXPECT_THROW(Bfs(g, 4), Error);
}

TEST(BfsTest, SingleVertexGraph) {
  graph::Coo coo;
  coo.num_vertices = 1;
  const auto g = graph::BuildCsr(coo);
  const auto r = Bfs(g, 0);
  EXPECT_EQ(r.depth[0], 0);
  // One advance runs on the singleton frontier and produces nothing.
  EXPECT_EQ(r.stats.iterations, 1);
  EXPECT_EQ(r.stats.edges_visited, 0);
}

TEST(BfsTest, CountsEdgesAndTime) {
  graph::RmatParams p;
  p.scale = 10;
  const auto g =
      test::Undirected(GenerateRmat(p, par::ThreadPool::Global()));
  BfsOptions opts;
  opts.direction = core::Direction::kPush;
  const auto r = Bfs(g, 0, opts);
  EXPECT_GT(r.stats.edges_visited, 0);
  EXPECT_GT(r.stats.iterations, 0);
  EXPECT_GE(r.stats.lane_efficiency, 0.0);
  EXPECT_LE(r.stats.lane_efficiency, 1.0);
}

TEST(BfsTest, RecordsPerIterationWhenAsked) {
  const auto g = test::Undirected(graph::MakeBinaryTree(8));
  BfsOptions opts;
  opts.collect_records = true;
  opts.direction = core::Direction::kPush;
  const auto r = Bfs(g, 0, opts);
  EXPECT_EQ(static_cast<int>(r.stats.records.size()),
            r.stats.iterations);
}

}  // namespace
}  // namespace gunrock
