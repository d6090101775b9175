#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>
#include <sstream>
#include <utility>

#include "algorithms/bfs.h"
#include "common/rng.h"
#include "graph/csr_graph.h"
#include "graph/dynamic_graph.h"
#include "graph/datasets.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"

namespace deltav::graph {
namespace {

// ---------------------------------------------------------- GraphBuilder

TEST(GraphBuilder, DirectedBasics) {
  GraphBuilder b(4, /*directed=*/true);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(2, 3);
  const CsrGraph g = b.build();
  EXPECT_TRUE(g.directed());
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_arcs(), 3u);
  EXPECT_EQ(g.num_logical_edges(), 3u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(0), 0u);
  EXPECT_EQ(g.in_degree(3), 1u);
  EXPECT_EQ(g.out_neighbors(0)[0], 1u);
  EXPECT_EQ(g.out_neighbors(0)[1], 2u);
  EXPECT_EQ(g.in_neighbors(3)[0], 2u);
}

TEST(GraphBuilder, UndirectedMirrorsArcs) {
  GraphBuilder b(3, /*directed=*/false);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const CsrGraph g = b.build();
  EXPECT_FALSE(g.directed());
  EXPECT_EQ(g.num_arcs(), 4u);
  EXPECT_EQ(g.num_logical_edges(), 2u);
  EXPECT_EQ(g.out_degree(1), 2u);
  // in == out for undirected.
  EXPECT_EQ(g.in_neighbors(1).size(), g.out_neighbors(1).size());
}

TEST(GraphBuilder, SelfLoopsDroppedByDefault) {
  GraphBuilder b(2, true);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  EXPECT_EQ(b.build().num_arcs(), 1u);
}

TEST(GraphBuilder, DeduplicateRemovesParallelEdges) {
  GraphBuilder b(2, true);
  b.deduplicate(true);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  EXPECT_EQ(b.build().num_arcs(), 1u);
}

TEST(GraphBuilder, UndirectedDedupCollapsesBothOrientations) {
  GraphBuilder b(2, false);
  b.deduplicate(true);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  EXPECT_EQ(b.build().num_logical_edges(), 1u);
}

TEST(GraphBuilder, WeightsAlignedWithTargets) {
  GraphBuilder b(3, true);
  b.keep_weights(true);
  b.add_edge(0, 2, 2.5);
  b.add_edge(0, 1, 1.5);
  const CsrGraph g = b.build();
  ASSERT_TRUE(g.weighted());
  // Adjacency is sorted by target: (0→1, 1.5), (0→2, 2.5).
  EXPECT_EQ(g.out_neighbors(0)[0], 1u);
  EXPECT_DOUBLE_EQ(g.out_weights(0)[0], 1.5);
  EXPECT_DOUBLE_EQ(g.out_weights(0)[1], 2.5);
  // In-weights mirror.
  EXPECT_DOUBLE_EQ(g.in_weights(2)[0], 2.5);
}

TEST(GraphBuilder, OutOfRangeEdgeThrows) {
  GraphBuilder b(2, true);
  EXPECT_THROW(b.add_edge(0, 5), CheckError);
}

TEST(GraphBuilder, AdjacencySorted) {
  GraphBuilder b(5, true);
  b.add_edge(0, 4);
  b.add_edge(0, 1);
  b.add_edge(0, 3);
  const CsrGraph g = b.build();
  const auto nbrs = g.out_neighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

// -------------------------------------------------------------- invariants

void check_csr_invariants(const CsrGraph& g) {
  // Every arc's reverse appears in the opposite adjacency.
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.out_neighbors(static_cast<VertexId>(v))) {
      const auto in = g.in_neighbors(u);
      EXPECT_TRUE(std::find(in.begin(), in.end(), v) != in.end())
          << "arc " << v << "->" << u << " missing from in-adjacency";
    }
  }
  // Degree sums match arc count.
  std::size_t out_sum = 0, in_sum = 0;
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    out_sum += g.out_degree(static_cast<VertexId>(v));
    in_sum += g.in_degree(static_cast<VertexId>(v));
  }
  EXPECT_EQ(out_sum, g.num_arcs());
  EXPECT_EQ(in_sum, g.num_arcs());
}

TEST(CsrGraph, InvariantsHoldOnRandomDirected) {
  check_csr_invariants(rmat(128, 512, 3));
}

TEST(CsrGraph, InvariantsHoldOnRandomUndirected) {
  RmatOptions o;
  o.directed = false;
  check_csr_invariants(rmat(128, 400, 4, o));
}

TEST(CsrGraph, SummaryMentionsShape) {
  const auto g = path(5, true);
  const std::string s = g.summary();
  EXPECT_NE(s.find("directed"), std::string::npos);
  EXPECT_NE(s.find("|V|=5"), std::string::npos);
  EXPECT_NE(s.find("|E|=4"), std::string::npos);
}

// -------------------------------------------------------------- generators

TEST(Generators, RmatProducesRequestedSize) {
  const auto g = rmat(256, 1024, 5, {.deduplicate = false});
  EXPECT_EQ(g.num_vertices(), 256u);
  // Self-loops are dropped, so slightly fewer arcs than requested.
  EXPECT_GT(g.num_arcs(), 900u);
  EXPECT_LE(g.num_arcs(), 1024u);
}

TEST(Generators, RmatDeterministicPerSeed) {
  const auto a = rmat(128, 512, 42);
  const auto b = rmat(128, 512, 42);
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  for (std::size_t v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.out_neighbors(static_cast<VertexId>(v));
    const auto nb = b.out_neighbors(static_cast<VertexId>(v));
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) EXPECT_EQ(na[i], nb[i]);
  }
}

TEST(Generators, RmatSkewProducesHubs) {
  // With Graph500 skew the max degree should far exceed the average.
  const auto g = rmat(1024, 8192, 6, {.deduplicate = false});
  const double avg = static_cast<double>(g.num_arcs()) /
                     static_cast<double>(g.num_vertices());
  EXPECT_GT(static_cast<double>(g.max_out_degree()), 4 * avg);
}

TEST(Generators, RmatNonPowerOfTwoVertices) {
  const auto g = rmat(100, 300, 7);
  EXPECT_EQ(g.num_vertices(), 100u);
  check_csr_invariants(g);
}

TEST(Generators, RmatWeighted) {
  RmatOptions o;
  o.weighted = true;
  o.min_weight = 2.0;
  o.max_weight = 3.0;
  const auto g = rmat(64, 256, 8, o);
  ASSERT_TRUE(g.weighted());
  for (std::size_t v = 0; v < g.num_vertices(); ++v)
    for (double w : g.out_weights(static_cast<VertexId>(v))) {
      EXPECT_GE(w, 2.0);
      EXPECT_LT(w, 3.0);
    }
}

TEST(Generators, ErdosRenyiShape) {
  const auto g = erdos_renyi(100, 400, 9);
  EXPECT_EQ(g.num_vertices(), 100u);
  EXPECT_GT(g.num_arcs(), 300u);  // dedup may remove a few
  check_csr_invariants(g);
}

TEST(Generators, BarabasiAlbertConnectedAndUndirected) {
  const auto g = barabasi_albert(200, 2, 10);
  EXPECT_FALSE(g.directed());
  // Preferential attachment from a clique keeps the graph connected:
  // every vertex has degree >= 1.
  for (std::size_t v = 0; v < g.num_vertices(); ++v)
    EXPECT_GE(g.out_degree(static_cast<VertexId>(v)), 1u) << v;
}

TEST(Generators, PathCycleStarGridComplete) {
  EXPECT_EQ(path(5).num_logical_edges(), 4u);
  EXPECT_EQ(cycle(5).num_logical_edges(), 5u);
  EXPECT_EQ(star(6).num_vertices(), 7u);
  EXPECT_EQ(star(6).out_degree(0), 6u);
  EXPECT_EQ(grid(3, 4).num_vertices(), 12u);
  EXPECT_EQ(grid(3, 4).num_logical_edges(), 3u * 3 + 2u * 4);
  EXPECT_EQ(complete(5).num_logical_edges(), 10u);
  EXPECT_EQ(complete(4, true).num_arcs(), 12u);
}


TEST(Generators, WebCrawlHasCoreAndPeriphery) {
  graph::WebCrawlOptions o;
  o.periphery_fraction = 0.4;
  o.chain_length = 3;
  const auto g = web_crawl(1000, 6000, 13, o);
  EXPECT_EQ(g.num_vertices(), 1000u);
  EXPECT_TRUE(g.directed());
  // Periphery vertices (ids >= core) are pendant: out-degree exactly 1,
  // in-degree <= 1.
  const std::size_t core = 600;
  for (std::size_t v = core; v < 1000; ++v) {
    EXPECT_EQ(g.out_degree(static_cast<VertexId>(v)), 1u) << v;
    EXPECT_LE(g.in_degree(static_cast<VertexId>(v)), 1u) << v;
  }
  // Chain tails land in the core.
  for (std::size_t v = core; v < 1000; ++v)
    for (VertexId u : g.out_neighbors(static_cast<VertexId>(v)))
      EXPECT_TRUE(u < core || u == static_cast<VertexId>(v) + 1);
  check_csr_invariants(g);
}

TEST(Generators, WebCrawlValidation) {
  graph::WebCrawlOptions o;
  o.periphery_fraction = 1.5;
  EXPECT_THROW(web_crawl(100, 500, 1, o), CheckError);
  o.periphery_fraction = 0.99;  // core of 1 vertex
  EXPECT_THROW(web_crawl(100, 500, 1, o), CheckError);
}

TEST(Generators, WebCrawlDeterministic) {
  const auto a = web_crawl(512, 3000, 77);
  const auto b = web_crawl(512, 3000, 77);
  EXPECT_EQ(a.num_arcs(), b.num_arcs());
  for (std::size_t v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.out_neighbors(static_cast<VertexId>(v));
    const auto nb = b.out_neighbors(static_cast<VertexId>(v));
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) EXPECT_EQ(na[i], nb[i]);
  }
}

// ------------------------------------------------------------ edge_list_io

TEST(EdgeListIo, ParsesWithCommentsAndSparseIds) {
  std::istringstream in(
      "# a comment\n"
      "% another\n"
      "10 20\n"
      "20 30\n"
      "\n"
      "10 30\n");
  const auto g = read_edge_list(in, {.directed = true});
  EXPECT_EQ(g.num_vertices(), 31u);  // file ids kept: |V| = max id + 1
  EXPECT_EQ(g.num_arcs(), 3u);
  EXPECT_TRUE(g.out_neighbors(0).empty());
  ASSERT_EQ(g.out_neighbors(20).size(), 1u);
  EXPECT_EQ(g.out_neighbors(20)[0], 30u);
}

TEST(EdgeListIo, BfsFromFileVertexZeroUsesFileIds) {
  // First appearance order is 3, 1, 0, 2, 4, 5; renumbering by it would
  // put file vertex 3 at id 0 and start the search there.
  std::istringstream in("3 1\n1 0\n0 2\n2 4\n4 5\n");
  const auto g = read_edge_list(in, {.directed = true});
  ASSERT_EQ(g.num_vertices(), 6u);
  const std::vector<double> depth = algorithms::bfs_oracle(g, 0);
  EXPECT_EQ(depth[0], 0.0);
  EXPECT_EQ(depth[2], 1.0);
  EXPECT_EQ(depth[5], 3.0);
  EXPECT_TRUE(std::isinf(depth[3]));
  EXPECT_TRUE(std::isinf(depth[1]));
}

TEST(EdgeListIo, IdBeyondVertexIdRangeNamesItsLine) {
  std::istringstream in("0 1\n# ok\n1 4294967295\n");
  try {
    read_edge_list(in, {});
    FAIL();
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("4294967295"), std::string::npos) << what;
  }
  std::istringstream negative("0 -1\n");
  EXPECT_THROW(read_edge_list(negative, {}), CheckError);
}

TEST(EdgeListIo, WeightedParse) {
  std::istringstream in("0 1 2.5\n1 2 0.5\n");
  const auto g = read_edge_list(in, {.directed = true, .weighted = true});
  ASSERT_TRUE(g.weighted());
  EXPECT_DOUBLE_EQ(g.out_weights(0)[0], 2.5);
}

TEST(EdgeListIo, MalformedLineReportsLineNumber) {
  std::istringstream in("0 1\nbroken\n");
  try {
    read_edge_list(in, {});
    FAIL();
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(EdgeListIo, RoundTripPreservesStructure) {
  // R-MAT leaves some vertices isolated; the edge-list format only records
  // endpoints, so compare arc counts for it and exact structure on a graph
  // where every vertex appears.
  const auto g = rmat(64, 200, 11);
  std::ostringstream out;
  write_edge_list(g, out);
  std::istringstream in(out.str());
  const auto g2 = read_edge_list(in, {.directed = true});
  EXPECT_LE(g2.num_vertices(), g.num_vertices());
  EXPECT_EQ(g2.num_arcs(), g.num_arcs());

  const auto c = cycle(17, /*directed=*/true);
  std::ostringstream out2;
  write_edge_list(c, out2);
  std::istringstream in2(out2.str());
  const auto c2 = read_edge_list(in2, {.directed = true});
  EXPECT_EQ(c2.num_vertices(), c.num_vertices());
  EXPECT_EQ(c2.num_arcs(), c.num_arcs());
}

TEST(EdgeListIo, UndirectedRoundTripWritesEachEdgeOnce) {
  const auto g = cycle(6);
  std::ostringstream out;
  write_edge_list(g, out);
  std::istringstream in(out.str());
  const auto g2 = read_edge_list(in, {.directed = false});
  EXPECT_EQ(g2.num_logical_edges(), 6u);
}

TEST(EdgeListIo, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_file("/nonexistent/file.el", {}), CheckError);
}

// ---------------------------------------------------------------- datasets

TEST(Datasets, FourPaperStandIns) {
  const auto& specs = paper_datasets();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].name, "wikipedia-s");
  EXPECT_TRUE(specs[0].directed);
  EXPECT_FALSE(specs[2].directed);  // facebook-s
}

TEST(Datasets, ScaledMaterialization) {
  const auto g = make_dataset("livejournal-ug-s", 0.01);
  EXPECT_FALSE(g.directed());
  EXPECT_NEAR(static_cast<double>(g.num_vertices()), 131072 * 0.01, 64);
}

TEST(Datasets, WeightedOverride) {
  const auto g = make_dataset("wikipedia-s", 0.005, /*weighted=*/true);
  EXPECT_TRUE(g.weighted());
  EXPECT_TRUE(g.directed());
}

TEST(Datasets, UnknownNameThrows) {
  EXPECT_THROW(dataset_spec("not-a-dataset"), CheckError);
}

// ----------------------------------------------- builder mutation policy

TEST(GraphBuilder, DedupKeepsLastWeightForDuplicateEdges) {
  GraphBuilder b(3, /*directed=*/true);
  b.deduplicate(true).keep_weights(true);
  b.add_edge(0, 1, 1.0);
  b.add_edge(0, 2, 9.0);
  b.add_edge(0, 1, 5.0);  // re-add: the later weight must win
  const CsrGraph g = b.build();
  ASSERT_EQ(g.out_degree(0), 2u);
  EXPECT_DOUBLE_EQ(g.out_weights(0)[0], 5.0);
  EXPECT_DOUBLE_EQ(g.out_weights(0)[1], 9.0);
}

TEST(GraphBuilder, UndirectedDedupLastWriteWinsAcrossOrientations) {
  GraphBuilder b(2, /*directed=*/false);
  b.deduplicate(true).keep_weights(true);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 0, 7.0);  // same undirected edge, later weight
  const CsrGraph g = b.build();
  ASSERT_EQ(g.num_logical_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.out_weights(0)[0], 7.0);
  EXPECT_DOUBLE_EQ(g.out_weights(1)[0], 7.0);
}

// ------------------------------------------------------------ DynamicGraph

CsrGraph dyn_base(bool directed = true) {
  GraphBuilder b(5, directed);
  b.keep_weights(true);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 2.0);
  b.add_edge(1, 3, 3.0);
  b.add_edge(3, 4, 4.0);
  return b.build();
}

/// The dynamic view and a from-scratch CSR of the same topology must agree
/// arc for arc, weight for weight.
void expect_same_topology(const DynamicGraph& dyn, const CsrGraph& want) {
  ASSERT_EQ(dyn.num_vertices(), want.num_vertices());
  EXPECT_EQ(dyn.num_arcs(), want.num_arcs());
  for (std::size_t vv = 0; vv < want.num_vertices(); ++vv) {
    const auto v = static_cast<VertexId>(vv);
    const auto dn = dyn.out_neighbors(v);
    const auto wn = want.out_neighbors(v);
    ASSERT_EQ(dn.size(), wn.size()) << "out-degree of " << v;
    for (std::size_t i = 0; i < dn.size(); ++i) EXPECT_EQ(dn[i], wn[i]);
    const auto di = dyn.in_neighbors(v);
    const auto wi = want.in_neighbors(v);
    ASSERT_EQ(di.size(), wi.size()) << "in-degree of " << v;
    for (std::size_t i = 0; i < di.size(); ++i) EXPECT_EQ(di[i], wi[i]);
    if (want.weighted()) {
      const auto dw = dyn.out_weights(v);
      const auto ww = want.out_weights(v);
      for (std::size_t i = 0; i < dw.size(); ++i)
        EXPECT_DOUBLE_EQ(dw[i], ww[i]);
    }
  }
}

TEST(DynamicGraph, UntouchedVerticesReadTheBase) {
  const DynamicGraph dyn(dyn_base());
  EXPECT_EQ(dyn.overlay_vertices(), 0u);
  expect_same_topology(dyn, dyn_base());
  EXPECT_TRUE(dyn.has_arc(1, 2));
  EXPECT_DOUBLE_EQ(dyn.arc_weight(1, 2), 2.0);
  EXPECT_FALSE(dyn.has_arc(2, 1));
}

TEST(DynamicGraph, PlanResolvesNetEffect) {
  const DynamicGraph dyn(dyn_base());
  MutationBatch b;
  b.insert_edge(0, 2, 5.0);   // new
  b.insert_edge(1, 2, 9.0);   // weight 2 → 9
  b.remove_edge(3, 4);        // removal
  b.remove_edge(2, 0);        // absent → redundant
  b.insert_edge(2, 2);        // self-loop → dropped
  b.insert_edge(4, 0, 1.0);   // insert…
  b.remove_edge(4, 0);        // …then delete in the same batch: net no-op
  const GraphDelta d = dyn.plan(b);
  EXPECT_EQ(d.edges_inserted, 1u);
  EXPECT_EQ(d.edges_removed, 1u);
  EXPECT_EQ(d.weights_changed, 1u);
  EXPECT_EQ(d.self_loops_dropped, 1u);
  EXPECT_GE(d.redundant_ops, 1u);
  EXPECT_TRUE(d.has_removals);
  EXPECT_TRUE(d.has_weight_changes);
  // Net-cancelled 4→0 must not appear as an arc change.
  for (const ArcChange& c : d.arcs) EXPECT_FALSE(c.src == 4 && c.dst == 0);
  // touched: endpoints of real changes only, sorted unique.
  EXPECT_TRUE(std::is_sorted(d.touched.begin(), d.touched.end()));
}

TEST(DynamicGraph, CommitMatchesFromScratchBuild) {
  DynamicGraph dyn(dyn_base());
  MutationBatch b;
  b.insert_edge(0, 2, 5.0);
  b.insert_edge(1, 2, 9.0);
  b.remove_edge(3, 4);
  dyn.commit(dyn.plan(b));

  GraphBuilder want(5, true);
  want.keep_weights(true);
  want.add_edge(0, 1, 1.0);
  want.add_edge(0, 2, 5.0);
  want.add_edge(1, 2, 9.0);
  want.add_edge(1, 3, 3.0);
  expect_same_topology(dyn, want.build());
  EXPECT_GT(dyn.overlay_vertices(), 0u);
}

TEST(DynamicGraph, VertexAddAndDetach) {
  DynamicGraph dyn(dyn_base());
  MutationBatch b;
  b.add_vertices = 2;  // ids 5, 6
  b.insert_edge(5, 6, 1.5);
  b.detach_vertices.push_back(1);  // drops 0→1, 1→2, 1→3
  const GraphDelta d = dyn.plan(b);
  EXPECT_EQ(d.new_num_vertices, 7u);
  ASSERT_EQ(d.detached.size(), 1u);
  dyn.commit(d);
  EXPECT_EQ(dyn.num_vertices(), 7u);
  EXPECT_EQ(dyn.out_degree(1), 0u);
  EXPECT_EQ(dyn.in_degree(1), 0u);
  EXPECT_EQ(dyn.out_degree(0), 0u);  // its only arc went to 1
  EXPECT_TRUE(dyn.has_arc(5, 6));
  EXPECT_DOUBLE_EQ(dyn.arc_weight(5, 6), 1.5);
  EXPECT_EQ(dyn.num_arcs(), 2u);  // 3→4 and 5→6
  // Detached ids stay valid and may reconnect later.
  MutationBatch re;
  re.insert_edge(1, 5, 2.0);
  dyn.commit(dyn.plan(re));
  EXPECT_TRUE(dyn.has_arc(1, 5));
}

TEST(DynamicGraph, UndirectedMutationsMirrorBothDirections) {
  DynamicGraph dyn(dyn_base(/*directed=*/false));
  MutationBatch b;
  b.insert_edge(0, 4, 2.5);
  b.remove_edge(2, 1);  // stored as 1↔2; removable via either orientation
  const GraphDelta d = dyn.plan(b);
  // Each logical edge contributes two stored-arc changes.
  EXPECT_EQ(d.arcs.size(), 4u);
  dyn.commit(d);
  EXPECT_TRUE(dyn.has_arc(0, 4));
  EXPECT_TRUE(dyn.has_arc(4, 0));
  EXPECT_FALSE(dyn.has_arc(1, 2));
  EXPECT_FALSE(dyn.has_arc(2, 1));
  EXPECT_DOUBLE_EQ(dyn.arc_weight(4, 0), 2.5);
}

TEST(DynamicGraph, MaterializeAndCompactAgree) {
  DynamicGraph dyn(dyn_base());
  MutationBatch b;
  b.insert_edge(2, 0, 6.0);
  b.remove_edge(1, 3);
  b.add_vertices = 1;
  b.insert_edge(5, 0, 7.0);
  dyn.commit(dyn.plan(b));
  const CsrGraph snap = dyn.materialize();
  EXPECT_GT(dyn.overlay_fraction(), 0.0);
  dyn.compact();
  EXPECT_EQ(dyn.overlay_vertices(), 0u);
  expect_same_topology(dyn, snap);
  // Mutating after compaction keeps working.
  MutationBatch b2;
  b2.insert_edge(4, 5, 1.0);
  dyn.commit(dyn.plan(b2));
  EXPECT_TRUE(dyn.has_arc(4, 5));
}

TEST(DynamicGraph, PlanOnStaleSnapshotRejectedByCommit) {
  DynamicGraph dyn(dyn_base());
  MutationBatch grow;
  grow.add_vertices = 1;
  const GraphDelta d = dyn.plan(grow);
  dyn.commit(d);
  EXPECT_THROW(dyn.commit(d), CheckError);  // |V| no longer matches
}

TEST(DynamicGraph, RandomizedCommitsMatchRebuild) {
  // Apply random batches; after each, materialize() must equal a CSR
  // rebuilt from the tracked edge set.
  const std::uint64_t seed = 0x5eedu;
  std::uint64_t state = seed;
  auto next = [&] { return state = splitmix64(state); };
  DynamicGraph dyn(rmat(32, 96, 5));
  std::map<std::pair<VertexId, VertexId>, double> edges;
  for (std::size_t v = 0; v < 32; ++v)
    for (const VertexId u :
         dyn.out_neighbors(static_cast<VertexId>(v)))
      edges[{static_cast<VertexId>(v), u}] = 1.0;

  std::size_t n = dyn.num_vertices();
  for (int round = 0; round < 10; ++round) {
    MutationBatch b;
    for (int k = 0; k < 8; ++k) {
      const auto u = static_cast<VertexId>(next() % n);
      const auto v = static_cast<VertexId>(next() % n);
      if (u == v) continue;
      if (next() % 2) {
        b.insert_edge(u, v);
        edges[{u, v}] = 1.0;
      } else {
        b.remove_edge(u, v);
        edges.erase({u, v});
      }
    }
    dyn.commit(dyn.plan(b));
    GraphBuilder want(n, /*directed=*/true);
    for (const auto& [e, w] : edges) want.add_edge(e.first, e.second, w);
    expect_same_topology(dyn, want.build());
    if (round == 5) dyn.compact();
  }
}

}  // namespace
}  // namespace deltav::graph
