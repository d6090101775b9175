// dv_serve: session hosts, the registry, epoch coalescing, recovery and
// the line protocol.
//
// The load-bearing claims under test:
//   - group commit is value-neutral: any concurrent interleaving of
//     writer enqueues converges to exactly the state of applying one
//     merged batch (the stream fuzz tier's partition-invariance, made
//     load-bearing by the serving layer);
//   - reads come from the last committed epoch and never wait on the
//     epoch in flight (a paused engine cannot block a reader);
//   - backpressure, not unbounded queueing: enqueue blocks at
//     queue_limit until the engine drains;
//   - recovery: epoch-boundary checkpoints restore to a value-identical
//     serving host after kill(), which then keeps serving epochs;
//   - the protocol state machine maps every failure to a one-line ERR
//     without taking the connection or other tenants down.
//
// Tier coverage: vm and tree run here (the equivalence tests iterate
// both). The native tier's AOT pipeline shells out to the host compiler
// and is exercised by dv_native_test (codegen label) — the serve label
// runs under TSan, where generated code cannot link instrumented.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "dv/persist/snapshot.h"
#include "dv/programs/programs.h"
#include "dv/serve/protocol.h"
#include "dv/serve/read_view.h"
#include "dv/serve/registry.h"
#include "dv/serve/session_host.h"
#include "dv/streaming/mutation_io.h"
#include "dv/streaming/stream_session.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "test_util.h"

namespace deltav {
namespace {

using dv::serve::CreateSpec;
using dv::serve::HostOptions;
using dv::serve::HostStats;
using dv::serve::merge_batches;
using dv::serve::Registry;
using dv::serve::ServeCore;
using dv::serve::SessionHost;
using dv::streaming::BatchLineParser;
using graph::MutationBatch;
using test::compile_dv;
using test::small_engine;

HostOptions host_opts(dv::ExecTier tier = dv::ExecTier::kVm) {
  HostOptions o;
  o.session.run.engine = small_engine();
  o.session.run.tier = tier;
  return o;
}

/// 8-vertex undirected double-triangle + isolated pair: two components
/// {0,1,2,3} and {4,5}, vertices 6 and 7 isolated. cc converges to the
/// component-minimum id.
graph::CsrGraph two_components() {
  graph::GraphBuilder b(8, /*directed=*/false);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  b.add_edge(4, 5);
  return b.build();
}

/// Cold oracle for a host: run cc from scratch over `base` + the merged
/// mutations through a plain single-threaded session.
dv::DvRunResult offline_cc(const dv::CompiledProgram& cp,
                           const graph::CsrGraph& base,
                           const std::vector<MutationBatch>& batches,
                           dv::ExecTier tier = dv::ExecTier::kVm) {
  dv::streaming::SessionOptions so;
  so.run.engine = small_engine();
  so.run.tier = tier;
  auto s = dv::streaming::make_stream_session(cp, base, so);
  s->converge();
  if (!batches.empty()) s->apply(merge_batches(batches));
  return s->result();
}

void expect_comp_matches(const SessionHost& host,
                         const dv::DvRunResult& want) {
  const auto snap = host.view();
  const int slot = want.field_slot("comp");
  ASSERT_EQ(snap->result.num_vertices, want.num_vertices);
  for (graph::VertexId v = 0;
       v < static_cast<graph::VertexId>(want.num_vertices); ++v) {
    EXPECT_EQ(snap->result.at(v, slot).as_i(), want.at(v, slot).as_i())
        << "vertex " << v;
  }
}

// ------------------------------------------------------------ merging

TEST(MergeBatches, ConcatenatesInOrder) {
  MutationBatch a;
  a.insert_edge(0, 1, 2.0);
  a.add_vertices = 2;
  MutationBatch b;
  b.remove_edge(0, 1);
  b.detach_vertices.push_back(3);
  b.add_vertices = 1;
  const MutationBatch m = merge_batches({a, b});
  ASSERT_EQ(m.edges.size(), 2u);
  // Order is the correctness property: MutationBatch is last-write-wins,
  // so the delete admitted after the insert must stay after it.
  EXPECT_TRUE(m.edges[0].insert);
  EXPECT_FALSE(m.edges[1].insert);
  EXPECT_EQ(m.add_vertices, 3u);
  ASSERT_EQ(m.detach_vertices.size(), 1u);
  EXPECT_EQ(m.detach_vertices[0], 3);
}

TEST(MergeBatches, OpsCountsLineItems) {
  MutationBatch b;
  b.insert_edge(0, 1);
  b.remove_edge(1, 2);
  b.add_vertices = 4;  // one `addv 4` line item, not four
  b.detach_vertices.push_back(0);
  EXPECT_EQ(dv::serve::batch_ops(b), 4u);
}

// ----------------------------------------------------------- host core

TEST(SessionHost, ServesInitialConvergence) {
  const auto cp = compile_dv(dv::programs::kConnectedComponents);
  SessionHost host("t", compile_dv(dv::programs::kConnectedComponents),
                   two_components(), host_opts());
  host.wait_ready();
  expect_comp_matches(host, offline_cc(cp, two_components(), {}));
  EXPECT_EQ(host.get(3, "comp").as_i(), 0);
  EXPECT_EQ(host.get(5, "comp").as_i(), 4);
  const HostStats s = host.stats();
  EXPECT_TRUE(s.ready);
  EXPECT_EQ(s.epochs_committed, 0u);
  EXPECT_EQ(s.vertices, 8u);
  EXPECT_EQ(s.reads, 2u);
}

TEST(SessionHost, PauseMakesCoalescingDeterministic) {
  const auto cp = compile_dv(dv::programs::kConnectedComponents);
  SessionHost host("t", compile_dv(dv::programs::kConnectedComponents),
                   two_components(), host_opts());
  host.wait_ready();
  host.pause();
  std::vector<MutationBatch> batches;
  for (int k = 0; k < 5; ++k) {
    MutationBatch b;
    b.insert_edge(static_cast<graph::VertexId>(k),
                  static_cast<graph::VertexId>(k) + 3);
    batches.push_back(b);
    host.enqueue(b);
  }
  host.resume();
  host.flush();
  // All five batches were queued against a paused engine, so they commit
  // as exactly one group-commit epoch...
  const HostStats s = host.stats();
  EXPECT_EQ(s.epochs_committed, 1u);
  EXPECT_EQ(s.batches_admitted, 5u);
  EXPECT_EQ(s.max_coalesced, 5u);
  EXPECT_EQ(s.batches_coalesced, 4u);
  EXPECT_EQ(s.mutations_admitted, 5u);
  // ...whose state equals the one-batch cold oracle (chained inserts
  // merge everything into one component).
  expect_comp_matches(host, offline_cc(cp, two_components(), batches));
  EXPECT_EQ(host.get(7, "comp").as_i(), 0);
}

TEST(SessionHost, ConcurrentWritersMatchOneBatchOracle) {
  for (const auto tier : {dv::ExecTier::kVm, dv::ExecTier::kTree}) {
    SCOPED_TRACE(dv::exec_tier_name(tier));
    const auto cp = compile_dv(dv::programs::kConnectedComponents);
    const graph::CsrGraph base =
        graph::rmat(128, 256, test::effective_seed(11),
                    [] { graph::RmatOptions o; o.directed = false; return o; }());
    SessionHost host("t", compile_dv(dv::programs::kConnectedComponents),
                     base, host_opts(tier));
    host.wait_ready();

    // Four writers, disjoint insert-only edge sets (insert-only keeps the
    // merged result independent of the interleaving order, so a single
    // oracle covers every admissible schedule).
    constexpr int kWriters = 4, kBatchesPerWriter = 8;
    std::vector<std::vector<MutationBatch>> streams(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      Rng rng(test::effective_seed(100 + static_cast<std::uint64_t>(w)));
      for (int k = 0; k < kBatchesPerWriter; ++k) {
        MutationBatch b;
        const auto u = static_cast<graph::VertexId>(
            w * 32 + static_cast<int>(rng.next_below(32)));
        const auto v =
            static_cast<graph::VertexId>(rng.next_below(128));
        if (u != v) b.insert_edge(u, v);
        if (!b.empty()) streams[static_cast<std::size_t>(w)].push_back(b);
      }
    }
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&host, &streams, w] {
        for (const MutationBatch& b :
             streams[static_cast<std::size_t>(w)]) {
          host.enqueue(b);
        }
      });
    }
    for (std::thread& t : writers) t.join();
    host.flush();

    std::vector<MutationBatch> all;
    for (const auto& s : streams) all.insert(all.end(), s.begin(), s.end());
    expect_comp_matches(host, offline_cc(cp, base, all, tier));
    const HostStats s = host.stats();
    EXPECT_EQ(s.batches_admitted, all.size());
    EXPECT_GE(s.epochs_committed, 1u);
    EXPECT_LE(s.epochs_committed, all.size());
  }
}

TEST(SessionHost, ReadsServeCommittedStateWhileEngineIsBusy) {
  SessionHost host("t", compile_dv(dv::programs::kConnectedComponents),
                   two_components(), host_opts());
  host.wait_ready();
  host.pause();
  MutationBatch b;
  b.insert_edge(3, 4);
  host.enqueue(b);
  // The batch is admitted but cannot commit (engine paused): reads must
  // return the previous epoch instantly instead of waiting for it.
  EXPECT_EQ(host.view()->epoch, 0u);
  EXPECT_EQ(host.get(4, "comp").as_i(), 4);
  const auto top = host.topk("comp", 3);
  ASSERT_EQ(top.size(), 3u);
  // Descending by value, ties broken toward the lower id.
  EXPECT_EQ(top[0].first, 7);
  EXPECT_EQ(top[0].second, 7.0);
  EXPECT_EQ(top[1].first, 6);
  EXPECT_EQ(top[2].first, 4);
  host.resume();
  host.flush();
  EXPECT_EQ(host.view()->epoch, 1u);
  EXPECT_EQ(host.get(4, "comp").as_i(), 0);
}

TEST(SessionHost, EnqueueBlocksAtQueueLimit) {
  HostOptions o = host_opts();
  o.queue_limit = 2;
  SessionHost host("t", compile_dv(dv::programs::kConnectedComponents),
                   two_components(), o);
  host.wait_ready();
  host.pause();
  MutationBatch b;
  b.insert_edge(3, 4);
  host.enqueue(b);
  host.enqueue(b);  // queue now at limit; the engine is paused
  std::atomic<bool> admitted{false};
  std::thread writer([&] {
    host.enqueue(b);  // must block until resume() lets the engine drain
    admitted.store(true);
  });
  // Deterministic, not a race: a paused engine never drains, so the only
  // way `admitted` could flip here is backpressure failing to engage.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load());
  host.resume();
  writer.join();
  EXPECT_TRUE(admitted.load());
  host.flush();
  EXPECT_EQ(host.stats().batches_admitted, 3u);
}

TEST(SessionHost, EngineFailureSurfacesEverywhere) {
  // A checkpoint into a missing directory throws on the engine thread
  // after the first epoch applies.
  HostOptions opts = host_opts();
  opts.checkpoint_every = 1;
  opts.checkpoint_path = "dv_serve_test_no_such_dir/ckpt.snap";
  SessionHost host("t", compile_dv(dv::programs::kConnectedComponents),
                   two_components(), opts);
  host.wait_ready();
  MutationBatch first;
  first.insert_edge(3, 4);
  host.enqueue(first);
  EXPECT_THROW(host.flush(), CheckError);
  const HostStats s = host.stats();
  EXPECT_TRUE(s.failed);
  EXPECT_FALSE(s.error.empty());
  MutationBatch ok;
  ok.insert_edge(0, 1);
  EXPECT_THROW(host.enqueue(ok), CheckError);
}

TEST(SessionHost, OutOfRangeBatchIsRefusedAtAdmission) {
  const auto cp = compile_dv(dv::programs::kConnectedComponents);
  SessionHost host("t", compile_dv(dv::programs::kConnectedComponents),
                   two_components(), host_opts());
  host.wait_ready();
  MutationBatch bad;
  bad.insert_edge(0, 1);
  bad.insert_edge(0, 9999);
  EXPECT_THROW(host.enqueue(bad), CheckError);
  MutationBatch bad_detach;
  bad_detach.detach_vertices.push_back(8);
  EXPECT_THROW(host.enqueue(bad_detach), CheckError);
  EXPECT_FALSE(host.stats().failed);
  EXPECT_EQ(host.stats().batches_admitted, 0u);

  // New ids count from every batch admitted before, queued or not: the
  // engine is paused, so the first addv is still in the queue when the
  // second batch names vertex 9.
  host.pause();
  MutationBatch grow;
  grow.add_vertices = 1;
  grow.insert_edge(5, 8);  // vertex 8 is added by this same batch
  host.enqueue(grow);
  MutationBatch join;
  join.add_vertices = 1;
  join.insert_edge(8, 9);
  join.insert_edge(3, 4);
  host.enqueue(join);
  MutationBatch past_tail;
  past_tail.insert_edge(0, 10);
  EXPECT_THROW(host.enqueue(past_tail), CheckError);
  host.resume();
  host.flush();
  EXPECT_FALSE(host.stats().failed);
  EXPECT_EQ(host.stats().batches_admitted, 2u);
  expect_comp_matches(host, offline_cc(cp, two_components(), {grow, join}));
  EXPECT_EQ(host.get(9, "comp").as_i(), 0);
}

TEST(SessionHost, SnapshotBytesRestoresEquivalentHost) {
  const auto cp = compile_dv(dv::programs::kConnectedComponents);
  SessionHost host("t", compile_dv(dv::programs::kConnectedComponents),
                   two_components(), host_opts());
  MutationBatch b;
  b.insert_edge(3, 4);
  host.enqueue(b);
  host.flush();
  std::vector<std::uint8_t> bytes = host.snapshot_bytes();
  ASSERT_FALSE(bytes.empty());
  SessionHost restored("t2",
                       compile_dv(dv::programs::kConnectedComponents),
                       std::move(bytes), host_opts());
  restored.wait_ready();
  expect_comp_matches(restored, offline_cc(cp, two_components(), {b}));
  EXPECT_EQ(restored.view()->epoch, host.view()->epoch);
}

TEST(SessionHost, RecoveryAfterKillContinuesServing) {
  const std::string ckpt = "dv_serve_test_recovery.snap";
  const auto cp = compile_dv(dv::programs::kConnectedComponents);
  MutationBatch b1, b2;
  b1.insert_edge(3, 4);
  b2.insert_edge(5, 6);
  {
    HostOptions o = host_opts();
    o.checkpoint_every = 1;
    o.checkpoint_path = ckpt;
    SessionHost host("t", compile_dv(dv::programs::kConnectedComponents),
                     two_components(), o);
    host.enqueue(b1);
    host.flush();
    EXPECT_EQ(host.stats().checkpoints, 1u);
    host.kill();
    // A killed host refuses work instead of serving stale state silently.
    EXPECT_THROW(host.enqueue(b2), CheckError);
  }
  SessionHost restored("t", compile_dv(dv::programs::kConnectedComponents),
                       dv::persist::read_file_bytes(ckpt), host_opts());
  restored.wait_ready();
  expect_comp_matches(restored, offline_cc(cp, two_components(), {b1}));
  // The restored host is a full serving host, not a read-only replica:
  // it keeps committing warm epochs.
  restored.enqueue(b2);
  restored.flush();
  expect_comp_matches(restored, offline_cc(cp, two_components(), {b1, b2}));
  std::remove(ckpt.c_str());
}

// ------------------------------------------------------------ registry

TEST(Registry, CreateFindClose) {
  Registry reg;
  CreateSpec spec;
  spec.name = "pr";
  spec.program = "cc";
  spec.graph = "rmat:5x2";
  spec.undirected = true;
  spec.host = host_opts();
  auto host = reg.create(spec);
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(reg.find("pr"), host);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_THROW(reg.create(spec), CheckError);  // name taken
  host->wait_ready();
  EXPECT_EQ(host->stats().vertices, 32u);
  EXPECT_TRUE(reg.close("pr"));
  EXPECT_EQ(reg.find("pr"), nullptr);
  EXPECT_FALSE(reg.close("pr"));
  // Our reference keeps the closed host alive and serving until dropped.
  EXPECT_EQ(host->stats().vertices, 32u);
}

TEST(Registry, UnknownProgramAndGraphSpecErrors) {
  Registry reg;
  CreateSpec spec;
  spec.name = "x";
  spec.program = "no-such-program";
  spec.graph = "rmat:4x2";
  EXPECT_THROW(reg.create(spec), CheckError);
  spec.program = "cc";
  spec.graph = "rmat:nope";
  EXPECT_THROW(reg.create(spec), CheckError);
}

TEST(Registry, RestoreFallsBackToColdBuild) {
  Registry reg;
  CreateSpec spec;
  spec.name = "x";
  spec.program = "cc";
  spec.graph = "rmat:4x2";
  spec.undirected = true;
  spec.host = host_opts();
  spec.restore_from = "dv_serve_test_damaged.snap";
  std::ofstream(spec.restore_from) << "not a snapshot";
  auto host = reg.create(spec);  // damaged restore degrades, not refuses
  host->wait_ready();
  EXPECT_EQ(host->stats().vertices, 16u);
  std::remove(spec.restore_from.c_str());
}

// ------------------------------------------------------------ protocol

/// Drives one line, expecting the response to start with `prefix`.
std::string expect_line(ServeCore& core, dv::serve::Conn& conn,
                        const std::string& line,
                        const std::string& prefix) {
  const std::string resp = core.handle_line(conn, line);
  EXPECT_EQ(resp.rfind(prefix, 0), 0u)
      << "request '" << line << "' answered '" << resp << "'";
  return resp;
}

TEST(Protocol, CreateMutateReadClose) {
  ServeCore core(host_opts());
  dv::serve::Conn conn;
  expect_line(core, conn, "PING", "OK pong");
  // Protocol graphs come from specs; give CREATE a real edge list too.
  const std::string edges = "dv_serve_test_edges.txt";
  std::ofstream(edges) << "0 1\n1 2\n3 4\n";
  expect_line(core, conn,
              "CREATE cc1 cc " + edges + " undirected queue_limit=4",
              "OK created cc1");
  expect_line(core, conn, "CREATE cc1 cc " + edges, "ERR ");
  expect_line(core, conn, "MUT cc1", "");
  EXPECT_TRUE(conn.in_mut);
  // Satellite: comments and blank lines inside a MUT body are skipped.
  EXPECT_EQ(core.handle_line(conn, "# join the two components"), "");
  EXPECT_EQ(core.handle_line(conn, ""), "");
  EXPECT_EQ(core.handle_line(conn, "+ 2 3"), "");
  expect_line(core, conn, "commit", "OK queued ops=1");
  EXPECT_FALSE(conn.in_mut);
  expect_line(core, conn, "FLUSH cc1", "OK epoch=1");
  expect_line(core, conn, "GET cc1 4 comp", "OK 0");
  expect_line(core, conn, "TOPK cc1 comp 2", "OK 2 0:0 1:0");
  const std::string stats = expect_line(core, conn, "STATS", "OK {");
  EXPECT_NE(stats.find("\"sessions\""), std::string::npos);
  EXPECT_NE(stats.find("\"cc1\""), std::string::npos);
  expect_line(core, conn, "SNAPSHOT cc1 dv_serve_test_proto.snap",
              "OK bytes=");
  expect_line(core, conn, "CLOSE cc1", "OK closed cc1");
  expect_line(core, conn, "GET cc1 0 comp", "ERR ");
  std::remove(edges.c_str());
  std::remove("dv_serve_test_proto.snap");
}

TEST(Protocol, ErrorsAreOneLineAndIsolated) {
  ServeCore core(host_opts());
  dv::serve::Conn conn;
  bool quit = false;
  expect_line(core, conn, "BOGUS", "ERR ");
  expect_line(core, conn, "GET nope 0 comp", "ERR ");
  expect_line(core, conn, "MUT nope", "ERR ");
  expect_line(core, conn, "CREATE a cc rmat:4x2 undirected", "OK created a");
  expect_line(core, conn, "MUT a", "");
  // A malformed op aborts the whole batch and resets MUT state: the next
  // line is parsed as a fresh request, and nothing was admitted.
  expect_line(core, conn, "+ 1", "ERR ");
  EXPECT_FALSE(conn.in_mut);
  expect_line(core, conn, "FLUSH a", "OK epoch=0");
  EXPECT_EQ(core.handle_line(conn, "QUIT", &quit), "OK bye");
  EXPECT_TRUE(quit);
  // An out-of-range insert is refused at its commit line and session a
  // keeps serving; a second tenant is created and served beside it.
  dv::serve::Conn c2;
  expect_line(core, c2, "MUT a", "");
  core.handle_line(c2, "+ 0 99999");
  const std::string refused = expect_line(core, c2, "commit", "ERR ");
  EXPECT_NE(refused.find("out of range for |V|=16"), std::string::npos)
      << refused;
  expect_line(core, c2, "FLUSH a", "OK epoch=0");
  expect_line(core, c2, "CREATE b cc rmat:4x2 undirected", "OK created b");
  expect_line(core, c2, "FLUSH b", "OK epoch=0");
}

TEST(Protocol, RefusedBatchLeavesTenantServing) {
  ServeCore core(host_opts());
  dv::serve::Conn conn;
  expect_line(core, conn, "CREATE a cc rmat:4x2 undirected", "OK created a");
  // The whole batch is refused, its in-range edge too.
  for (const char* line : {"MUT a", "+ 0 1", "+ 0 99999"})
    EXPECT_EQ(core.handle_line(conn, line), "");
  expect_line(core, conn, "commit", "ERR ");
  // addv makes the new ids valid for the edges behind it.
  for (const char* line : {"MUT a", "addv 2", "+ 0 16", "+ 16 17"})
    EXPECT_EQ(core.handle_line(conn, line), "");
  expect_line(core, conn, "commit", "OK queued ops=3");
  expect_line(core, conn, "FLUSH a", "OK epoch=1");
  expect_line(core, conn, "GET a 17 comp", "OK 0");
}

TEST(Protocol, EdgeListTenantKeepsFileIds) {
  // Vertex 3 only has an out-edge, so BFS from file vertex 0 never
  // reaches it; a reader that renumbered ids by first appearance would
  // have started from file vertex 3 instead.
  ServeCore core(host_opts());
  dv::serve::Conn conn;
  const std::string edges = "dv_serve_test_file_ids.txt";
  std::ofstream(edges) << "3 1\n1 0\n0 2\n2 4\n4 5\n";
  expect_line(core, conn, "CREATE t bfs " + edges + " params=source=0",
              "OK created t");
  const char* want[] = {"OK 0", "OK inf", "OK 1", "OK inf", "OK 2", "OK 3"};
  for (int v = 0; v < 6; ++v)
    EXPECT_EQ(core.handle_line(conn, "GET t " + std::to_string(v) + " dist"),
              want[v])
        << "vertex " << v;
  expect_line(core, conn, "GET t 6 dist", "ERR ");
  std::remove(edges.c_str());
}

// ----------------------------------------------------- mutation parsing

TEST(BatchLineParser, SkipsCommentsAndBlankLines) {
  BatchLineParser p;
  EXPECT_FALSE(p.feed("# header comment"));
  EXPECT_FALSE(p.feed(""));
  EXPECT_FALSE(p.feed("% alternate comment style"));
  EXPECT_FALSE(p.feed("+ 1 2 2.5"));
  EXPECT_FALSE(p.feed("   "));  // whitespace-only is blank
  EXPECT_FALSE(p.feed("- 3 4"));
  EXPECT_FALSE(p.feed("addv 2"));
  EXPECT_FALSE(p.feed("delv 0"));
  EXPECT_TRUE(p.feed("commit"));
  const MutationBatch b = p.take();
  ASSERT_EQ(b.edges.size(), 2u);
  EXPECT_TRUE(b.edges[0].insert);
  EXPECT_EQ(b.edges[0].weight, 2.5);
  EXPECT_EQ(b.add_vertices, 2u);
  ASSERT_EQ(b.detach_vertices.size(), 1u);
  EXPECT_EQ(p.lines_fed(), 9u);
  // take() reset the parser for the connection's next MUT.
  EXPECT_TRUE(p.batch().empty());
}

TEST(BatchLineParser, MalformedLineNamesItsNumber) {
  BatchLineParser p;
  EXPECT_FALSE(p.feed("# comment"));
  try {
    p.feed("+ 1");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(MutationStreamFile, BlankLineStillSeparatesBatches) {
  // The file format is unchanged by the protocol parser's skip rule: in
  // files a blank line ends the current batch (two here), while comments
  // are skipped in both surfaces.
  std::istringstream in("# stream\n+ 0 1\n\n+ 2 3\n+ 4 5\ncommit\n");
  const auto batches = dv::streaming::read_mutation_stream(in);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].edges.size(), 1u);
  EXPECT_EQ(batches[1].edges.size(), 2u);
}

// ------------------------------------------------------------- topk

TEST(ReadView, TopkOrdersAndClamps) {
  SessionHost host("t", compile_dv(dv::programs::kConnectedComponents),
                   two_components(), host_opts());
  host.wait_ready();
  const auto all = host.topk("comp", 100);  // k beyond n clamps to n
  ASSERT_EQ(all.size(), 8u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    const bool ordered =
        all[i - 1].second > all[i].second ||
        (all[i - 1].second == all[i].second &&
         all[i - 1].first < all[i].first);
    EXPECT_TRUE(ordered) << "rank " << i;
  }
  // Component minima: {0,1,2,3}→0, {4,5}→4, isolated 6,7 stay themselves.
  EXPECT_EQ(all[0].first, 7);
  EXPECT_EQ(all[1].first, 6);
  EXPECT_EQ(all[2].first, 4);
  EXPECT_EQ(all[3].first, 5);
}

}  // namespace
}  // namespace deltav
