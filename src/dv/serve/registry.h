// Session registry: the daemon's name → SessionHost map, plus the graph
// spec parsing shared by the daemon, the bench harnesses and the tests
// (program specs and params parse in dv/programs/builtins.h).
//
// A CreateSpec is everything the CREATE protocol verb carries: which
// program (a built-in name or a ΔV source file), which graph (an
// edge-list file or a `rmat:<scale>x<degree>[:seed]` generator spec),
// and the host/session knobs (tier, fold path, ε, params, commit window,
// checkpointing). create() compiles the program, materializes the graph,
// and — when restore_from names a snapshot — restores the warm session
// from it instead of reconverging cold, falling back to the cold build
// when the snapshot is rejected (torn file, different program/config)
// and a graph spec is available. That fallback is the daemon's restart
// story: a damaged checkpoint degrades to a reconvergence, never to a
// refusal to serve or to silently wrong state.
//
// Hosts are handed out as shared_ptr so a CLOSE (or registry teardown)
// cannot pull the session out from under a request thread mid-read: the
// map drops its reference, the host drains and joins when the last
// in-flight request lets go.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dv/serve/session_host.h"

namespace deltav::dv::serve {

/// Everything CREATE specifies. Defaults mirror the dv_stream CLI.
struct CreateSpec {
  std::string name;
  std::string program;  // built-in name ("cc", "pagerank", ...) or a path
                        // to a ΔV source file (programs::program_is_path)
  std::string graph;    // edge-list path or "rmat:<scale>x<degree>[:seed]"
  bool undirected = false;
  bool weighted = false;
  std::string params;   // "name=value,...", floats by decimal point
  double epsilon = 0;   // CompileOptions::epsilon (§6.3 ε-change checks)
  HostOptions host;     // tier / fold path / workers / windows / checkpoints
  std::string restore_from;  // optional snapshot file to warm-start from
};

/// Materializes CreateSpec::graph: `rmat:<scale>x<degree>[:seed]` (2^scale
/// vertices, degree·2^scale edges, default seed 42) or an edge-list file.
graph::CsrGraph load_graph_spec(const std::string& spec, bool undirected,
                                bool weighted);

class Registry {
 public:
  /// Compiles, materializes, restores-or-cold-builds, and registers a
  /// host under spec.name. Throws CheckError when the name is taken or
  /// the spec is unusable (including: restore rejected and no graph to
  /// fall back to). The returned host may still be running its initial
  /// convergence — wait_ready()/first read blocks until published.
  std::shared_ptr<SessionHost> create(const CreateSpec& spec);

  /// The host registered under `name`, or null.
  std::shared_ptr<SessionHost> find(const std::string& name) const;

  /// Unregisters `name`; the host tears down (graceful drain) once the
  /// last outstanding reference drops. Returns false when unknown.
  bool close(const std::string& name);

  /// Registered names, sorted (map order).
  std::vector<std::string> names() const;
  std::vector<std::shared_ptr<SessionHost>> hosts() const;

  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<SessionHost>> sessions_;
};

/// Merges every registered host's collector into one snapshot: counters
/// and histogram count/sum add, histogram min/max widen, gauges last-win.
/// This is the daemon's --metrics document and the STATS counter block —
/// per-host collectors keep the hot shards single-writer (see
/// HostOptions::collect_metrics); merging happens only here, at report
/// rate.
obs::MetricsRegistry::Snapshot merged_metrics(const Registry& registry);

}  // namespace deltav::dv::serve
