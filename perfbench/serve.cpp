// serve: one `cc` tenant on an undirected R-MAT graph, driven in-process
// through ServeCore::handle_line — the code dv_serve runs per connection.
//
// Two clients share the tenant. A closed-loop writer sends fixed-size
// insert batches and reads its own writes (MUT … commit, then FLUSH); an
// open-loop reader sends point GETs at a fixed rate, each timed from when
// it was due. After a fixed warm-up the tenant is snapshotted once. The
// writer then works in rounds; between rounds, untimed, that snapshot is
// restored into a second tenant, a fresh tenant is set up and closed, and
// the two input-fault probes run. Every round attempts the same
// operations, so the share of failed operations does not depend on the
// run's length.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "dv/serve/protocol.h"
#include "dv/serve/registry.h"

namespace perfbench {
namespace {

using namespace deltav;

constexpr int kRmatScale = 16;
constexpr int kRmatDegree = 8;
constexpr std::size_t kBatchItems = 8;       // insert line items per MUT
constexpr std::size_t kWarmupBatches = 1500;
constexpr std::size_t kBatchesPerRound = 1000;
constexpr double kReadsPerSecond = 2000;
constexpr std::size_t kRestoreSample = 256;  // vertices compared per restore

bool ok(const std::string& response) { return response.rfind("OK", 0) == 0; }

/// Number after `key=` in an "OK key=value" response, or -1.
long long response_number(const std::string& response, const std::string& key) {
  const auto at = response.find(key + "=");
  if (at == std::string::npos) return -1;
  return std::atoll(response.c_str() + at + key.size() + 1);
}

/// A numeric field of one session's object in the STATS JSON (the
/// protocol's schema-validated one-line document), or NaN.
double stats_field(const std::string& stats, const std::string& session,
                   const std::string& key) {
  const auto at = stats.find("{\"name\": \"" + session + "\"");
  if (at == std::string::npos) return NAN;
  const auto k = stats.find("\"" + key + "\": ", at);
  if (k == std::string::npos) return NAN;
  return std::strtod(stats.c_str() + k + key.size() + 4, nullptr);
}

/// A merged counter from the STATS JSON's "counters" object (0 if absent:
/// STATS lists only counters that moved).
double stats_counter(const std::string& stats, const std::string& name) {
  const auto c = stats.find("\"counters\": {");
  if (c == std::string::npos) return 0;
  const auto k = stats.find("\"" + name + "\": ", c);
  if (k == std::string::npos) return 0;
  return std::strtod(stats.c_str() + k + name.size() + 4, nullptr);
}

/// Sends `line` and returns the response, throwing when a line the
/// benchmark relies on is refused.
std::string must(dv::serve::ServeCore& core, dv::serve::Conn& conn,
                 const std::string& line) {
  const std::string r = core.handle_line(conn, line);
  if (!r.empty() && !ok(r))
    throw std::runtime_error("'" + line + "' answered '" + r + "'");
  return r;
}

std::int64_t get_label(dv::serve::ServeCore& core, dv::serve::Conn& conn,
                       const std::string& tenant, std::size_t v) {
  const std::string r =
      must(core, conn, "GET " + tenant + " " + std::to_string(v) + " comp");
  return std::atoll(r.c_str() + 3);
}

struct UnionFind {
  std::vector<std::uint32_t> parent;
  explicit UnionFind(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  // The smaller id stays the root, so find() is the component's min id.
  void unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
};

/// The open-loop point-read client.
struct Reader {
  dv::serve::ServeCore* core = nullptr;
  std::size_t n = 0;
  std::uint64_t seed = 0;
  std::atomic<bool> stop{false};
  std::vector<double> service_us;  // GET round trip
  std::vector<double> late_ms;     // how late the GET was sent
  std::vector<double> due_ms;      // due → response
  std::vector<std::string> errors;

  void run() {
    Span root("reader");
    dv::serve::Conn conn;
    Rng rng(seed);
    std::vector<std::int64_t> last(n, INT64_MAX);
    const double start = now_s();
    for (std::uint64_t i = 0; !stop.load(); ++i) {
      const double due = start + static_cast<double>(i) / kReadsPerSecond;
      double t = now_s();
      if (t < due) {
        std::this_thread::sleep_for(std::chrono::duration<double>(due - t));
        t = now_s();
      }
      const std::size_t v = rng.next_below(n);
      std::string r;
      {
        Span span("serve.GET");
        r = core->handle_line(conn, "GET t " + std::to_string(v) + " comp");
      }
      const double done = now_s();
      service_us.push_back((done - t) * 1e6);
      late_ms.push_back((t - due) * 1e3);
      due_ms.push_back((done - due) * 1e3);
      if (!ok(r)) {
        errors.push_back("GET " + std::to_string(v) + ": " + r);
        continue;
      }
      const std::int64_t label = std::atoll(r.c_str() + 3);
      if (label > static_cast<std::int64_t>(v) || label > last[v])
        errors.push_back("vertex " + std::to_string(v) + " read label " +
                         std::to_string(label) + " after " +
                         std::to_string(last[v]));
      last[v] = label;
    }
  }
};

/// Probe (a): an edge-list tenant whose file ids do not first appear in
/// the order 0..n-1 runs bfs from file vertex 0; every GET must agree with
/// BFS over file ids. Returns true when the probe passes.
bool probe_file_ids(dv::serve::ServeCore& core, const std::string& dir) {
  const std::vector<std::pair<int, int>> edges = {
      {3, 1}, {1, 0}, {0, 2}, {2, 4}, {4, 5}};
  const std::string path = dir + "/probe-ids.el";
  {
    std::ofstream out(path, std::ios::trunc);
    for (const auto& [u, v] : edges) out << u << " " << v << "\n";
  }
  const int n = 6;
  std::vector<double> want(n, INFINITY);
  want[0] = 0;
  std::queue<int> q;
  q.push(0);
  while (!q.empty()) {
    const int u = q.front();
    q.pop();
    for (const auto& [a, b] : edges)
      if (a == u && std::isinf(want[b])) {
        want[b] = want[u] + 1;
        q.push(b);
      }
  }
  dv::serve::Conn conn;
  if (!ok(core.handle_line(conn, "CREATE probe_ids bfs " + path +
                                     " params=source=0 workers=" +
                                     std::to_string(kWorkers))))
    return false;
  bool pass = true;
  for (int v = 0; v < n; ++v) {
    const std::string r =
        core.handle_line(conn, "GET probe_ids " + std::to_string(v) + " dist");
    pass = pass && ok(r) && std::strtod(r.c_str() + 3, nullptr) == want[v];
  }
  core.handle_line(conn, "CLOSE probe_ids");
  std::remove(path.c_str());
  return pass;
}

/// Probe (b): a MUT naming a vertex ≥ |V| must be refused while the
/// tenant keeps serving reads. Returns true when the probe passes.
bool probe_out_of_range(dv::serve::ServeCore& core) {
  dv::serve::Conn conn;
  if (!ok(core.handle_line(conn,
                           "CREATE probe_range cc rmat:4x2:1 undirected workers=" +
                               std::to_string(kWorkers))))
    return false;
  core.handle_line(conn, "GET probe_range 0 comp");
  core.handle_line(conn, "MUT probe_range");
  core.handle_line(conn, "+ 0 99999");
  const std::string commit = core.handle_line(conn, "commit");
  const std::string flush = core.handle_line(conn, "FLUSH probe_range");
  const std::string read = core.handle_line(conn, "GET probe_range 0 comp");
  core.handle_line(conn, "CLOSE probe_range");
  return (!ok(commit) || !ok(flush)) && ok(read);
}

}  // namespace

void run_serve(const RunConfig& cfg, Report& report) {
  const std::string dir = cfg.out_dir.empty() ? "." : cfg.out_dir;
  const std::uint64_t graph_seed = sub_seed(cfg.seed, 1) % 1000000007ULL;
  const std::string spec = "rmat:" + std::to_string(kRmatScale) + "x" +
                           std::to_string(kRmatDegree) + ":" +
                           std::to_string(graph_seed);
  const std::string create_args = " cc " + spec + " undirected workers=" +
                                  std::to_string(kWorkers);

  dv::serve::ServeCore core;
  dv::serve::Conn conn;
  // peak_rss_mb is the program's share: the peak once ready, less what the
  // process held before the first set-up.
  const double base_rss = current_rss_mb();

  // Set-up: CREATE → first OK GET. Tenant t serves the run; between
  // rounds a fresh tenant is set up and closed again, so the set-up
  // samples spread over the whole run.
  std::vector<double> setup_s, converge_s;
  const auto set_up = [&](const std::string& name) {
    Span span("setup");
    const double t0 = now_s();
    {
      Span s("serve.CREATE");
      must(core, conn, "CREATE " + name + create_args);
    }
    const double t1 = now_s();
    {
      Span s("serve.GET");
      must(core, conn, "GET " + name + " 0 comp");
    }
    const double t2 = now_s();
    setup_s.push_back(t2 - t0);
    converge_s.push_back(t2 - t1);
  };
  set_up("t");
  const double ready_rss = peak_rss_mb() - base_rss;

  // Oracle input: the same graph, materialized apart from the tenant.
  double graph_s = 0;
  graph::CsrGraph base;
  {
    Span span("oracle");
    const double t0 = now_s();
    base = dv::serve::load_graph_spec(spec, /*undirected=*/true, false);
    graph_s = now_s() - t0;
  }
  const std::size_t n = base.num_vertices();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> admitted;

  // One closed-loop writer batch: MUT, kBatchItems inserts, commit, FLUSH.
  Rng rng(sub_seed(cfg.seed, 2));
  std::vector<double> visible_ms, admit_ms, apply_wait_ms;
  long long epoch = -1;
  const auto write_batch = [&](std::int64_t id, bool timed_batch) {
    std::vector<std::string> lines;
    for (std::size_t k = 0; k < kBatchItems; ++k) {
      const auto u = static_cast<std::uint32_t>(rng.next_below(n));
      auto v = static_cast<std::uint32_t>(rng.next_below(n - 1));
      if (v >= u) ++v;
      admitted.emplace_back(u, v);
      lines.push_back("+ " + std::to_string(u) + " " + std::to_string(v));
    }
    const double a0 = now_s();
    std::string queued;
    {
      Span s("serve.MUT", id);
      must(core, conn, "MUT t");
      for (const std::string& l : lines) must(core, conn, l);
      queued = must(core, conn, "commit");
    }
    const double a1 = now_s();
    std::string flushed;
    {
      Span s("serve.FLUSH", id);
      flushed = must(core, conn, "FLUSH t");
    }
    const double a2 = now_s();
    report.check(response_number(queued, "ops") ==
                     static_cast<long long>(kBatchItems),
                 "serve: commit answered '" + queued + "'");
    epoch = response_number(flushed, "epoch");
    if (!timed_batch) return;
    visible_ms.push_back((a2 - a0) * 1e3);
    admit_ms.push_back((a1 - a0) * 1e3);
    apply_wait_ms.push_back((a2 - a1) * 1e3);
  };

  for (std::size_t b = 0; b < kWarmupBatches; ++b) write_batch(-1, false);

  // The recovery snapshot, taken once after the fixed warm-up so that its
  // size does not depend on how many epochs the run reaches. Every label
  // is read back to compare restored tenants against.
  const std::string snap = dir + "/serve-" + std::to_string(cfg.seed) + ".snap";
  long long snapshot_bytes = 0;
  {
    Span s("serve.SNAPSHOT");
    snapshot_bytes = response_number(must(core, conn, "SNAPSHOT t " + snap), "bytes");
  }
  const long long snap_epoch = epoch;
  std::vector<std::int64_t> snap_labels(n);
  for (std::size_t v = 0; v < n; ++v) snap_labels[v] = get_label(core, conn, "t", v);
  const double timed_rss = current_rss_mb();
  const double epochs_before = stats_field(core.stats_json(), "t", "epochs_committed");

  Reader reader;
  reader.core = &core;
  reader.n = n;
  reader.seed = sub_seed(cfg.seed, 3);
  std::thread reader_thread([&reader] { reader.run(); });

  Rng sample_rng(sub_seed(cfg.seed, 4));
  std::vector<double> recovery_s, restore_ms;
  std::size_t rounds = 0;
  std::vector<double> round_p50_ms;  // median visible latency per round
  std::vector<double> round_rates;   // line items per second per round
  const double start = now_s();
  try {
    while (rounds == 0 || now_s() - start < cfg.seconds) {
      const double r0 = now_s();
      {
        Span span("timed");
        for (std::size_t b = 0; b < kBatchesPerRound; ++b)
          write_batch(static_cast<std::int64_t>(rounds * kBatchesPerRound + b), true);
      }
      const double wall = now_s() - r0;
      round_rates.push_back(static_cast<double>(kBatchesPerRound * kBatchItems) / wall);
      ++rounds;
      round_p50_ms.push_back(median(std::vector<double>(
          visible_ms.end() - static_cast<long>(kBatchesPerRound), visible_ms.end())));

      // Round end, untimed: restore the snapshot into a second tenant.
      const double c0 = now_s();
      bool restored;
      {
        Span s("serve.CREATE");
        restored = ok(core.handle_line(
            conn, "CREATE r" + create_args + " restore=" + snap));
      }
      const double c1 = now_s();
      if (restored) {
        {
          Span s("serve.GET");
          must(core, conn, "GET r 0 comp");
        }
        recovery_s.push_back(now_s() - c0);
        restore_ms.push_back((c1 - c0) * 1e3);
        // A cold rebuild fallback would report epoch 0, not the snapshot's.
        restored = stats_field(core.stats_json(), "r", "epoch") ==
                   static_cast<double>(snap_epoch);
        for (std::size_t k = 0; k < kRestoreSample; ++k) {
          const std::size_t v = sample_rng.next_below(n);
          report.check(get_label(core, conn, "r", v) == snap_labels[v],
                       "serve: restored tenant differs at vertex " +
                           std::to_string(v));
        }
        must(core, conn, "CLOSE r");
      }
      set_up("c");
      must(core, conn, "CLOSE c");
      report.attempted += kBatchesPerRound + 3;
      report.failed += restored ? 0 : 1;
      // The input-fault probes: each counts as one operation per round.
      {
        Span s("probe");
        report.failed += probe_file_ids(core, dir) ? 0 : 1;
        report.failed += probe_out_of_range(core) ? 0 : 1;
      }
    }
  } catch (...) {
    reader.stop = true;
    reader_thread.join();
    std::remove(snap.c_str());
    throw;
  }
  reader.stop = true;
  reader_thread.join();
  std::remove(snap.c_str());
  for (const std::string& e : reader.errors) report.check(false, "serve reader: " + e);
  report.check(!reader.service_us.empty(), "serve: the reader made no reads");

  // Final state: every vertex's GET against union-find over the base graph
  // plus every admitted edge.
  {
    Span span("oracle");
    UnionFind uf(n);
    for (std::size_t u = 0; u < n; ++u)
      for (const graph::VertexId v : base.out_neighbors(static_cast<graph::VertexId>(u)))
        uf.unite(static_cast<std::uint32_t>(u), v);
    for (const auto& [u, v] : admitted) uf.unite(u, v);
    std::size_t wrong = 0;
    for (std::size_t v = 0; v < n; ++v)
      wrong += get_label(core, conn, "t", v) ==
                       static_cast<std::int64_t>(uf.find(static_cast<std::uint32_t>(v)))
                   ? 0
                   : 1;
    report.check(wrong == 0, "serve: " + std::to_string(wrong) +
                                 " final labels differ from union-find");
  }

  const std::string stats = core.stats_json();
  const double epochs = stats_field(stats, "t", "epochs_committed");
  const double end_rss = current_rss_mb();
  std::cerr << "serve: " << rounds << " rounds, " << visible_ms.size()
            << " batches, " << reader.service_us.size() << " reads, "
            << report.failed << " failed of " << report.attempted
            << "; visible ms deciles";
  for (int q = 1; q <= 9; ++q) std::cerr << " " << quantile(visible_ms, q / 10.0);
  std::cerr << "\n";

  report.e2e("setup_s", median(setup_s), "s");
  report.e2e("converge_s", median(converge_s), "s");
  report.e2e("throughput_per_s", median(round_rates), "1/s");
  report.e2e("latency_p50_ms", median(visible_ms), "ms");
  report.e2e("recovery_s", median(recovery_s), "s");
  report.e2e("peak_rss_mb", ready_rss, "MB");

  report.layer("graph.build_s", graph_s, "s");
  report.layer("serve.admit_ms", median(admit_ms), "ms");
  report.layer("serve.apply_wait_ms", median(apply_wait_ms), "ms");
  report.layer("serve.epoch_ms",
               stats_field(stats, "t", "epoch_seconds_sum") / epochs * 1e3, "ms");
  report.layer("serve.supersteps_per_epoch",
               stats_field(stats, "t", "supersteps") / epochs, "count");
  report.layer("serve.get_us_p50", median(reader.service_us), "us");
  report.layer("serve.read_due_ms_p99", quantile(reader.due_ms, 0.99), "ms");
  report.layer("serve.reader_late_ms_p99", quantile(reader.late_ms, 0.99), "ms");
  report.layer("serve.visible_p99_ms", quantile(visible_ms, 0.99), "ms");
  report.layer("rss.growth_kb_per_epoch",
               (end_rss - timed_rss) * 1024 / (epochs - epochs_before), "KB");
  report.layer("drift.latency_p50_ratio", round_p50_ms.back() / round_p50_ms.front(),
               "ratio");
  report.layer("persist.restore_ms", median(restore_ms), "ms");
  report.layer("persist.snapshot_bytes", static_cast<double>(snapshot_bytes),
               "bytes");
  report.layer("obs.vm_ops_dispatched_per_epoch",
               stats_counter(stats, "vm.ops_dispatched") / epochs, "count");
  report.layer("obs.sends_suppressed_per_epoch",
               stats_counter(stats, "dv.sends_suppressed") / epochs, "count");
}

}  // namespace perfbench
