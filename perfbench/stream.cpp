// stream and retract: DvStreamSessions kept converged through long,
// stationary mutation streams. Each set-up's converge() is a one-shot ΔV
// run, and the engine's breakdown of it gives the pregel.* layer figures.
//
//   stream   ε-PageRank (ε = 1e-10) on a directed R-MAT graph; every edit
//            moves ranks. Loads apply_epoch Δ synthesis for float +, the
//            buffered Δ exchange, overlay growth and compaction.
//   retract  sssp_retract on four positively weighted forward-window DAGs,
//            one session each, taking turns; deletions of shortest-path
//            arcs need the k-best retraction memos, targeted refolds and
//            the atomic fold path.
//
// Stationarity: the generator draws one edge population up front and
// splits it into the base graph and a held-out pool. Each batch deletes
// `pairs` random present edges and inserts as many random pool edges, so
// the graph is always a random same-size subset of one population and
// per-epoch cost does not drift with run length.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/sssp.h"
#include "bench.h"
#include "common/rng.h"
#include "dv/compiler.h"
#include "dv/programs/programs.h"
#include "dv/streaming/stream_session.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"

namespace perfbench {
namespace {

using namespace deltav;

constexpr double kSliceSeconds = 1.0;         // timed stream per round
constexpr std::size_t kCheckEveryRounds = 5;  // rounds between oracle checks

/// The streaming ε-PageRank of bench/bench_stream.cpp: ranks are not
/// divided by out-degree, so the fixpoint is r = 0.15 + 0.85·Σ_in r / |V|.
constexpr const char* kPageRankEps = R"(
init { local rank : float = 1.0 };
iter i {
  let s : float = + [ u.rank | u <- #in ] in
  rank = 0.15 + 0.85 * (s / graphSize)
} until { stable }
)";

struct Edge {
  graph::VertexId u;
  graph::VertexId v;
  double w;
};

struct Inputs {
  std::size_t n = 0;
  bool weighted = false;
  std::vector<Edge> fixed;    // always present, never mutated
  std::vector<Edge> present;  // mutable edges in the base graph
  std::vector<Edge> pool;     // held out; the stream swaps them in and out
};

graph::CsrGraph build_base(const Inputs& in) {
  graph::GraphBuilder b(in.n, /*directed=*/true);
  b.keep_weights(in.weighted);
  for (const Edge& e : in.fixed) b.add_edge(e.u, e.v, e.w);
  for (const Edge& e : in.present) b.add_edge(e.u, e.v, e.w);
  return b.build();
}

/// Splits `edges` at random: `pool_share` of them are held out. The
/// present share keeps `edges`' buffer, so no second full copy is made.
void split(std::vector<Edge> edges, double pool_share, Rng& rng, Inputs& in) {
  std::shuffle(edges.begin(), edges.end(), rng);
  const auto held = static_cast<long>(
      static_cast<double>(edges.size()) * pool_share);
  in.pool.assign(edges.begin(), edges.begin() + held);
  edges.erase(edges.begin(), edges.begin() + held);
  in.present = std::move(edges);
}

class StationaryStream {
 public:
  StationaryStream(const Inputs& in, std::uint64_t seed)
      : present_(in.present), pool_(in.pool), rng_(seed) {}

  graph::MutationBatch next(std::size_t pairs) {
    graph::MutationBatch b;
    std::vector<Edge> out, in;
    for (std::size_t i = 0; i < pairs; ++i) {
      out.push_back(take(present_));
      in.push_back(take(pool_));
    }
    for (const Edge& e : out) b.remove_edge(e.u, e.v);
    for (const Edge& e : in) b.insert_edge(e.u, e.v, e.w);
    present_.insert(present_.end(), in.begin(), in.end());
    pool_.insert(pool_.end(), out.begin(), out.end());
    return b;
  }

 private:
  Edge take(std::vector<Edge>& from) {
    const std::size_t i = rng_.next_below(from.size());
    const Edge e = from[i];
    from[i] = from.back();
    from.pop_back();
    return e;
  }

  std::vector<Edge> present_;
  std::vector<Edge> pool_;
  Rng rng_;
};

/// Everything that differs between the two session workloads.
struct SessionWorkload {
  const char* name;
  std::string source;
  dv::CompileOptions copts;
  std::map<std::string, dv::Value> params;
  // One session per entry, each over its own generated graph. The timed
  // stream feeds them in turn, so every metric pools all of them.
  std::vector<Inputs> sessions;
  std::size_t pairs = 1;       // deletions (= insertions) per batch
  std::size_t prefix = 0;      // epochs per session before its snapshot
  std::size_t warmup = 0;      // further untimed epochs per session
  int restores_per_round = 2;  // untimed recovery samples between slices
  bool require_warm = false;
  // Checks the session's converged state; returns a failure description
  // or "" when the state is correct.
  std::function<std::string(const dv::streaming::DvStreamSession&)> check;
};

bool same_bits(const dv::Value& a, const dv::Value& b) {
  std::uint64_t x = 0, y = 0;
  std::memcpy(&x, &a.i, sizeof(x));
  std::memcpy(&y, &b.i, sizeof(y));
  return a.type == b.type && x == y;
}

struct EpochSample {
  double latency = 0;
  dv::streaming::SessionEpoch ep;
};

/// A compiled program and a converged session over one base graph. The
/// session points into the program, so it is declared (and destroyed)
/// second.
struct Built {
  std::unique_ptr<dv::CompiledProgram> cp;
  std::unique_ptr<dv::streaming::DvStreamSession> session;
};

/// Set-up samples, with the engine's own breakdown of each converge().
struct SetupSamples {
  std::vector<double> setup_s, converge_s, graph_s, compile_s;
  std::vector<double> compute_s, exchange_s, other_s;
  pregel::RunStats last;  // the most recent converge()'s engine stats
};

Built set_up(const SessionWorkload& w, const Inputs& in,
             const dv::streaming::SessionOptions& so, SetupSamples& out) {
  Built b;
  Span span("setup");
  const double t0 = now_s();
  graph::CsrGraph base;
  {
    Span s("graph.build");
    base = build_base(in);
  }
  const double t1 = now_s();
  {
    Span s("dv.compile");
    b.cp = std::make_unique<dv::CompiledProgram>(dv::compile(w.source, w.copts));
  }
  const double t2 = now_s();
  b.session = dv::streaming::make_stream_session(*b.cp, std::move(base), so);
  dv::DvRunResult r;
  {
    Span s("stream.converge");
    r = b.session->converge();
  }
  const double t3 = now_s();
  out.setup_s.push_back(t3 - t0);
  out.graph_s.push_back(t1 - t0);
  out.compile_s.push_back(t2 - t1);
  out.converge_s.push_back(t3 - t2);
  out.compute_s.push_back(r.stats.total_compute_seconds());
  out.exchange_s.push_back(r.stats.total_exchange_seconds());
  out.other_s.push_back(out.converge_s.back() - out.compute_s.back() -
                        out.exchange_s.back());
  out.last = std::move(r.stats);
  return b;
}

/// A session's saved state: the snapshot bytes and what it must restore to.
struct Saved {
  std::vector<std::uint8_t> bytes;
  dv::DvRunResult result;
  std::size_t epoch = 0;
};

Saved save(const dv::streaming::DvStreamSession& s) {
  Saved out;
  {
    Span span("persist.save");
    out.bytes = s.save_bytes();
  }
  out.result = s.result();
  out.epoch = s.epoch();
  return out;
}

void run_session_workload(const RunConfig& cfg, SessionWorkload& w,
                          Report& report) {
  dv::streaming::SessionOptions so;
  so.run.engine.num_workers = kWorkers;
  so.run.params = w.params;
  const std::size_t count = w.sessions.size();

  // peak_rss_mb is the program's share: the peak once set up, less what
  // the process held before (the binary and the inputs).
  std::vector<StationaryStream> gens;
  for (std::size_t k = 0; k < count; ++k)
    gens.emplace_back(w.sessions[k], sub_seed(cfg.seed, 100 + k));
  const double base_rss = current_rss_mb();
  const double base_peak = peak_rss_mb();
  SetupSamples setups;
  std::vector<Built> live;
  for (std::size_t k = 0; k < count; ++k)
    live.push_back(set_up(w, w.sessions[k], so, setups));
  const double ready_rss = peak_rss_mb() - base_rss;
  std::cerr << w.name << ": " << count << " session(s); RSS " << base_rss
            << " MB (peak " << base_peak << " MB) before set-up, peak "
            << ready_rss + base_rss << " MB once set up\n";
  const auto check = [&](std::size_t k, const std::string& when) {
    Span span("oracle");
    const std::string err = w.check(*live[k].session);
    report.check(err.empty(), std::string(w.name) + " session " +
                                  std::to_string(k) + " " + when + ": " + err);
  };
  for (std::size_t k = 0; k < count; ++k) {
    std::cerr << w.name << ": session " << k << " converged in "
              << live[k].session->result().supersteps << " supersteps\n";
    check(k, "initial state");
  }

  std::size_t cold = 0;
  const auto untimed = [&](std::size_t epochs) {
    for (std::size_t k = 0; k < count; ++k)
      for (std::size_t i = 0; i < epochs; ++i)
        cold += live[k].session->apply(gens[k].next(w.pairs)).warm ? 0 : 1;
  };
  untimed(w.prefix);

  // Recovery: restore a snapshot and read the result, which must be
  // bit-identical to the state that was saved. Timed on the snapshots
  // taken after the fixed prefix, whose size does not depend on run length.
  const auto restore = [&](std::size_t k, const Saved& saved) {
    const double t0 = now_s();
    std::unique_ptr<dv::streaming::DvStreamSession> back;
    {
      Span span("persist.restore");
      back = dv::streaming::DvStreamSession::restore_bytes(*live[k].cp,
                                                           saved.bytes, so);
    }
    const dv::DvRunResult r = back->result();
    const double took = now_s() - t0;
    bool same = r.state.size() == saved.result.state.size() &&
                back->epoch() == saved.epoch;
    for (std::size_t i = 0; same && i < r.state.size(); ++i)
      same = same_bits(r.state[i], saved.result.state[i]);
    report.check(same, std::string(w.name) + ": restored session " +
                           std::to_string(k) + " at epoch " +
                           std::to_string(saved.epoch) +
                           " differs from the saved one");
    return took;
  };
  std::vector<Saved> snaps;
  std::vector<double> restore_s;
  for (std::size_t k = 0; k < count; ++k) {
    snaps.push_back(save(*live[k].session));
    restore_s.push_back(restore(k, snaps[k]));
    std::cerr << w.name << ": recovery snapshot of session " << k << ": "
              << snaps[k].bytes.size() << " bytes at epoch " << snaps[k].epoch
              << "\n";
  }
  untimed(w.warmup);
  const double timed_rss = current_rss_mb();

  // Rounds, until --seconds have passed: a timed slice of one session's
  // stream (the sessions take turns), then (untimed) one more set-up and a
  // few restores, so every metric samples the whole run.
  std::vector<EpochSample> samples;
  std::vector<std::size_t> slice_ends;
  std::vector<double> slice_rates;  // line items per second of apply()
  double timed = 0;
  double applying = 0;
  std::size_t items = 0;
  std::size_t restores = 0;
  const double start = now_s();
  for (std::size_t round = 1; samples.empty() || now_s() - start < cfg.seconds;
       ++round) {
    const double t0 = now_s();
    const double applying0 = applying;
    const std::size_t items0 = items;
    const std::size_t k = (round - 1) % count;
    {
      Span span("timed");
      while (now_s() - t0 < kSliceSeconds) {
        const graph::MutationBatch b = gens[k].next(w.pairs);
        EpochSample s;
        const double a0 = now_s();
        {
          Span apply("stream.apply", static_cast<std::int64_t>(samples.size()));
          s.ep = live[k].session->apply(b);
        }
        s.latency = now_s() - a0;
        applying += s.latency;
        items += b.edges.size();
        samples.push_back(s);
      }
    }
    timed += now_s() - t0;
    slice_ends.push_back(samples.size());
    slice_rates.push_back(static_cast<double>(items - items0) / (applying - applying0));
    set_up(w, w.sessions[round % count], so, setups);
    for (int i = 0; i < w.restores_per_round; ++i, ++restores)
      restore_s.push_back(restore(restores % count, snaps[restores % count]));
    if (round % kCheckEveryRounds == 0)
      for (std::size_t k = 0; k < count; ++k)
        check(k, "after epoch " + std::to_string(live[k].session->epoch()));
  }
  const double end_rss = current_rss_mb();
  for (const EpochSample& s : samples) cold += s.ep.warm ? 0 : 1;
  if (w.require_warm)
    report.check(cold == 0, std::string(w.name) + ": " + std::to_string(cold) +
                                " epochs rebuilt cold");

  for (std::size_t k = 0; k < count; ++k) check(k, "final state");
  // The state at the end of a long stream restores like any other.
  const Saved end = save(*live[0].session);
  restore(0, end);

  // Median latency over the last turn of the sessions against the first.
  const std::size_t turn = std::min(count, slice_ends.size());
  const auto p50_of = [&](std::size_t from, std::size_t to) {
    std::vector<double> v;
    for (std::size_t i = from; i < to; ++i) v.push_back(samples[i].latency);
    return median(v);
  };
  const std::size_t last_from =
      slice_ends.size() > turn ? slice_ends[slice_ends.size() - turn - 1] : 0;
  const double drift =
      p50_of(last_from, samples.size()) / p50_of(0, slice_ends[turn - 1]);

  std::vector<double> lat_ms;
  double supersteps = 0, deltas = 0, woken = 0, atomic = 0, retractions = 0,
         refolds = 0, underflows = 0, compactions = 0;
  for (const EpochSample& s : samples) {
    lat_ms.push_back(s.latency * 1e3);
    supersteps += static_cast<double>(s.ep.stats.supersteps);
    deltas += static_cast<double>(s.ep.stats.deltas_applied);
    woken += static_cast<double>(s.ep.stats.woken);
    atomic += static_cast<double>(s.ep.stats.atomic_folds);
    retractions += static_cast<double>(s.ep.stats.minmax_retractions);
    refolds += static_cast<double>(s.ep.stats.minmax_refolds);
    underflows += static_cast<double>(s.ep.stats.minmax_underflows);
    compactions += s.ep.compacted ? 1 : 0;
  }
  const double epochs = static_cast<double>(samples.size());
  report.attempted = samples.size();
  std::cerr << w.name << ": " << samples.size() << " timed epochs in "
            << timed << " s, " << items << " line items, " << cold
            << " cold; epoch ms deciles";
  for (int q = 1; q <= 9; ++q) std::cerr << " " << quantile(lat_ms, q / 10.0);
  std::cerr << "\n";

  report.e2e("setup_s", median(setups.setup_s), "s");
  report.e2e("converge_s", median(setups.converge_s), "s");
  report.e2e("throughput_per_s", median(slice_rates), "1/s");
  report.e2e("latency_p50_ms", median(lat_ms), "ms");
  report.e2e("recovery_s", median(restore_s), "s");
  report.e2e("peak_rss_mb", ready_rss, "MB");

  // The engine's breakdown of one converge(), a one-shot ΔV run.
  const pregel::RunStats& st = setups.last;
  double active = 0;
  for (const auto& ss : st.supersteps) active += ss.active_vertices;
  report.layer("dv.compile_ms", median(setups.compile_s) * 1e3, "ms");
  report.layer("graph.build_s", median(setups.graph_s), "s");
  report.layer("pregel.supersteps", static_cast<double>(st.num_supersteps()), "count");
  report.layer("pregel.active_vertices", active, "count");
  report.layer("pregel.compute_s", median(setups.compute_s), "s");
  report.layer("pregel.exchange_s", median(setups.exchange_s), "s");
  report.layer("pregel.other_s", median(setups.other_s), "s");
  report.layer("pregel.messages_sent", static_cast<double>(st.total_messages_sent()),
               "count");
  report.layer("pregel.messages_delivered",
               static_cast<double>(st.total_messages_delivered()), "count");
  report.layer("stream.converge_s", median(setups.converge_s), "s");
  report.layer("stream.supersteps_per_epoch", supersteps / epochs, "count");
  report.layer("stream.us_per_superstep", applying / std::max(1.0, supersteps) * 1e6,
               "us");
  report.layer("stream.deltas_applied_per_epoch", deltas / epochs, "count");
  report.layer("stream.woken_per_epoch", woken / epochs, "count");
  report.layer("stream.compactions_per_1k_epochs", compactions / epochs * 1e3,
               "count");
  report.layer("stream.epoch_p99_ms", quantile(lat_ms, 0.99), "ms");
  report.layer("stream.epoch_mean_ms", mean(lat_ms), "ms");
  report.layer("retract.retractions_per_epoch", retractions / epochs, "count");
  report.layer("retract.refolds_per_epoch", refolds / epochs, "count");
  report.layer("retract.underflows_per_epoch", underflows / epochs, "count");
  report.layer("runtime.atomic_folds_per_epoch", atomic / epochs, "count");
  report.layer("rss.growth_kb_per_epoch",
               (end_rss - timed_rss) * 1024 / epochs, "KB");
  report.layer("drift.latency_p50_ratio", drift, "ratio");
  report.layer("persist.restore_ms", median(restore_s) * 1e3, "ms");
  report.layer("persist.snapshot_bytes", static_cast<double>(end.bytes.size()),
               "bytes");
}

// ---------------------------------------------------------------------------
// stream: ε-PageRank on R-MAT
// ---------------------------------------------------------------------------

constexpr std::size_t kRmatVertices = std::size_t{1} << 16;
constexpr std::size_t kRmatDegree = 8;
constexpr double kRankBudget = 1e-9;  // max relative error vs dense fixpoint

/// Dense fixpoint of r = 0.15 + 0.85·Σ_in r / |V| over the materialized
/// graph, iterated from r = 1 until no rank moves by more than 1e-15.
std::vector<double> dense_rank_fixpoint(const graph::CsrGraph& g) {
  const std::size_t n = g.num_vertices();
  std::vector<double> r(n, 1.0), next(n);
  for (int it = 0; it < 1000; ++it) {
    double moved = 0;
    for (std::size_t v = 0; v < n; ++v) {
      double s = 0;
      for (const graph::VertexId u : g.in_neighbors(static_cast<graph::VertexId>(v)))
        s += r[u];
      next[v] = 0.15 + 0.85 * (s / static_cast<double>(n));
      moved = std::max(moved, std::abs(next[v] - r[v]));
    }
    r.swap(next);
    if (moved <= 1e-15) break;
  }
  return r;
}

std::string check_ranks(const dv::streaming::DvStreamSession& s) {
  const std::vector<double> want = dense_rank_fixpoint(s.graph().materialize());
  const std::vector<double> got = s.result().field_as_double("rank");
  if (got.size() != want.size()) return "rank vector size differs";
  double worst = 0;
  for (std::size_t v = 0; v < got.size(); ++v)
    worst = std::max(worst, std::abs(got[v] - want[v]) / std::abs(want[v]));
  std::cerr << "stream: max relative rank error " << worst << "\n";
  if (!(worst <= kRankBudget))
    return "max relative rank error " + std::to_string(worst) +
           " exceeds budget";
  return "";
}

// ---------------------------------------------------------------------------
// retract: sssp_retract on a forward-window DAG
// ---------------------------------------------------------------------------

constexpr std::size_t kDagVertices = 4096;
constexpr std::size_t kDagDegree = 4;
constexpr std::size_t kDagWindow = 8;
// Sessions per run, each on its own DAG: a single DAG's repair cones make
// a run's figures depend on its seed by about ±12%.
constexpr std::size_t kDagSessions = 4;

std::string check_distances(const dv::streaming::DvStreamSession& s) {
  const std::vector<double> want =
      algorithms::sssp_oracle(s.graph().materialize(), 0);
  const std::vector<double> got = s.result().field_as_double("dist");
  if (got != want) return "distances differ from Dijkstra";
  return "";
}

/// The bench_stream forward_dag shape: a chain u → u+1 (fixed, so every
/// vertex stays reachable) plus window-local forward edges, all with
/// strictly positive weights; 20% of the window edges form the pool.
Inputs forward_dag(std::uint64_t seed) {
  Inputs in;
  Rng rng(seed);
  const std::size_t n = kDagVertices;
  in.n = n;
  in.weighted = true;
  for (std::size_t u = 0; u + 1 < n; ++u)
    in.fixed.push_back({static_cast<graph::VertexId>(u),
                        static_cast<graph::VertexId>(u + 1),
                        0.5 + rng.next_double()});
  std::vector<Edge> window;
  for (std::size_t e = 0; e < n * (kDagDegree - 1); ++e) {
    const std::size_t u = rng.next_below(n - 2);
    const std::size_t v = u + 2 + rng.next_below(kDagWindow - 1);
    if (v >= n) continue;
    window.push_back({static_cast<graph::VertexId>(u),
                      static_cast<graph::VertexId>(v),
                      0.5 + rng.next_double() * 2.0});
  }
  // Deduplicate (u, v): the population must be a set of distinct arcs.
  std::sort(window.begin(), window.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  window.erase(std::unique(window.begin(), window.end(),
                           [](const Edge& a, const Edge& b) {
                             return a.u == b.u && a.v == b.v;
                           }),
               window.end());
  split(std::move(window), 0.2, rng, in);
  return in;
}

}  // namespace

void run_stream(const RunConfig& cfg, Report& report) {
  SessionWorkload w;
  w.name = "stream";
  w.source = kPageRankEps;
  w.copts.epsilon = 1e-10;
  w.pairs = 8;
  w.prefix = 100;
  w.warmup = 200;
  w.restores_per_round = 2;
  w.check = check_ranks;
  // One R-MAT population; 10% of it is held out as the insertion pool.
  Rng rng(sub_seed(cfg.seed, 1));
  graph::RmatOptions ro;
  ro.directed = true;
  const std::size_t n = kRmatVertices;
  std::vector<Edge> edges;
  {
    const graph::CsrGraph all =
        graph::rmat(n, n * kRmatDegree, sub_seed(cfg.seed, 2), ro);
    edges.reserve(all.num_arcs());
    for (std::size_t u = 0; u < n; ++u)
      for (const graph::VertexId v : all.out_neighbors(static_cast<graph::VertexId>(u)))
        if (v != u) edges.push_back({static_cast<graph::VertexId>(u), v, 1.0});
  }
  w.sessions.resize(1);
  w.sessions[0].n = n;
  split(std::move(edges), 0.1, rng, w.sessions[0]);
  run_session_workload(cfg, w, report);
}

void run_retract(const RunConfig& cfg, Report& report) {
  SessionWorkload w;
  w.name = "retract";
  w.source = dv::programs::kSsspRetract;
  w.params = {{"source", dv::Value::of_int(0)}};
  w.pairs = 1;
  // Snapshot right after set-up: a prefix's repair cones would add a
  // seed-dependent share of superstep history to the snapshot.
  w.prefix = 0;
  w.warmup = 200;
  w.restores_per_round = 8;
  w.require_warm = true;
  w.check = check_distances;
  w.sessions.resize(kDagSessions);
  for (std::size_t k = 0; k < kDagSessions; ++k)
    w.sessions[k] = forward_dag(sub_seed(cfg.seed, 1 + 10 * k));
  run_session_workload(cfg, w, report);
}

}  // namespace perfbench
