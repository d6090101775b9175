#include "dv/serve/registry.h"

#include <utility>

#include "common/check.h"
#include "dv/persist/snapshot.h"
#include "dv/programs/builtins.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"

namespace deltav::dv::serve {

graph::CsrGraph load_graph_spec(const std::string& spec, bool undirected,
                                bool weighted) {
  DV_CHECK_MSG(!spec.empty(), "empty graph spec");
  if (spec.rfind("rmat:", 0) == 0) {
    // rmat:<scale>x<degree>[:seed] — 2^scale vertices, degree·2^scale
    // edges. Deterministic in the seed, so a bench or test naming the
    // same spec twice serves the same graph.
    const std::string body = spec.substr(5);
    const auto x = body.find('x');
    DV_CHECK_MSG(x != std::string::npos,
                 "graph spec '" << spec
                                << "' is not rmat:<scale>x<degree>[:seed]");
    const auto colon = body.find(':', x);
    try {
      const int scale = std::stoi(body.substr(0, x));
      const int degree = std::stoi(
          body.substr(x + 1, colon == std::string::npos ? std::string::npos
                                                        : colon - x - 1));
      const std::uint64_t seed =
          colon == std::string::npos
              ? 42
              : static_cast<std::uint64_t>(std::stoull(body.substr(colon + 1)));
      DV_CHECK_MSG(scale > 0 && scale < 31 && degree > 0,
                   "graph spec '" << spec << "' out of range");
      const std::size_t n = std::size_t{1} << scale;
      graph::RmatOptions ropts;
      ropts.directed = !undirected;
      ropts.weighted = weighted;
      return graph::rmat(n, n * static_cast<std::size_t>(degree), seed,
                         ropts);
    } catch (const std::invalid_argument&) {
      DV_FAIL("graph spec '" << spec
                             << "' is not rmat:<scale>x<degree>[:seed]");
    } catch (const std::out_of_range&) {
      DV_FAIL("graph spec '" << spec << "' out of range");
    }
  }
  graph::EdgeListOptions gopts;
  gopts.directed = !undirected;
  gopts.weighted = weighted;
  return graph::read_edge_list_file(spec, gopts);
}

std::shared_ptr<SessionHost> Registry::create(const CreateSpec& spec) {
  DV_CHECK_MSG(!spec.name.empty(), "session name must be non-empty");
  {
    std::lock_guard<std::mutex> lock(mu_);
    DV_CHECK_MSG(sessions_.find(spec.name) == sessions_.end(),
                 "session '" << spec.name << "' already exists");
  }

  // CompiledProgram is move-only (the AST owns its expression trees), so
  // each construction attempt compiles its own copy — compilation is
  // cheap next to the convergence the host is about to run.
  const std::string source = programs::load_program_source(spec.program);
  CompileOptions copts;
  copts.epsilon = spec.epsilon;
  const auto make_options = [&] {
    HostOptions hopts = spec.host;
    hopts.session.run.params = programs::parse_params(spec.params);
    hopts.program_label = spec.program;
    hopts.graph_label = spec.graph;
    return hopts;
  };

  std::shared_ptr<SessionHost> host;
  if (!spec.restore_from.empty()) {
    try {
      host = std::make_shared<SessionHost>(
          spec.name, compile(source, copts),
          persist::read_file_bytes(spec.restore_from), make_options());
    } catch (const persist::SnapshotError& e) {
      // Detected, never decoded: with a graph spec the daemon degrades to
      // a cold reconvergence instead of refusing to serve.
      DV_CHECK_MSG(!spec.graph.empty(),
                   "restore of '" << spec.restore_from
                                  << "' rejected (" << e.what()
                                  << ") and no graph spec to rebuild from");
    }
  }
  if (!host) {
    host = std::make_shared<SessionHost>(
        spec.name, compile(source, copts),
        load_graph_spec(spec.graph, spec.undirected, spec.weighted),
        make_options());
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    // Re-check under the lock: a racing CREATE of the same name loses.
    const bool inserted = sessions_.emplace(spec.name, host).second;
    DV_CHECK_MSG(inserted, "session '" << spec.name << "' already exists");
  }
  return host;
}

std::shared_ptr<SessionHost> Registry::find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second;
}

bool Registry::close(const std::string& name) {
  std::shared_ptr<SessionHost> victim;  // destroyed outside the lock
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(name);
  if (it == sessions_.end()) return false;
  victim = std::move(it->second);
  sessions_.erase(it);
  return true;
}

std::vector<std::string> Registry::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(sessions_.size());
  for (const auto& [name, host] : sessions_) out.push_back(name);
  return out;
}

std::vector<std::shared_ptr<SessionHost>> Registry::hosts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<SessionHost>> out;
  out.reserve(sessions_.size());
  for (const auto& [name, host] : sessions_) out.push_back(host);
  return out;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

obs::MetricsRegistry::Snapshot merged_metrics(const Registry& registry) {
  obs::MetricsRegistry::Snapshot merged;
  for (const auto& host : registry.hosts()) {
    const obs::Collector* col = host->collector();
    if (col == nullptr) continue;
    const obs::MetricsRegistry::Snapshot snap = col->metrics.snapshot();
    for (const auto& [name, n] : snap.counters) merged.counters[name] += n;
    for (const auto& [name, v] : snap.gauges) merged.gauges[name] = v;
    for (const auto& [name, h] : snap.histograms) {
      auto& m = merged.histograms[name];
      if (m.count == 0) {
        m = h;
      } else if (h.count > 0) {
        m.count += h.count;
        m.sum += h.sum;
        if (h.min < m.min) m.min = h.min;
        if (h.max > m.max) m.max = h.max;
      }
    }
  }
  return merged;
}

}  // namespace deltav::dv::serve
