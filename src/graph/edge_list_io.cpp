#include "graph/edge_list_io.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "graph/graph_builder.h"

namespace deltav::graph {

CsrGraph read_edge_list(std::istream& in, const EdgeListOptions& options) {
  struct RawEdge {
    VertexId src, dst;
    double weight;
  };
  // The largest id keeps |V| = max id + 1 representable as a VertexId.
  constexpr std::uint64_t kMaxId = std::numeric_limits<VertexId>::max() - 1;
  std::vector<RawEdge> raw;
  std::size_t num_vertices = 0;

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    std::uint64_t s, d;
    if (!(ls >> s >> d))
      DV_FAIL("edge list line " << lineno << ": expected 'src dst'");
    if (s > kMaxId || d > kMaxId)
      DV_FAIL("edge list line " << lineno << ": vertex id "
                                << std::max(s, d) << " exceeds " << kMaxId);
    double w = 1.0;
    if (options.weighted && !(ls >> w))
      DV_FAIL("edge list line " << lineno << ": expected weight");
    raw.push_back(RawEdge{static_cast<VertexId>(s), static_cast<VertexId>(d),
                          w});
    num_vertices = std::max<std::size_t>(num_vertices, std::max(s, d) + 1);
  }

  GraphBuilder b(num_vertices, options.directed);
  b.deduplicate(options.deduplicate).keep_weights(options.weighted);
  for (const auto& e : raw) b.add_edge(e.src, e.dst, e.weight);
  return b.build();
}

CsrGraph read_edge_list_file(const std::string& path,
                             const EdgeListOptions& options) {
  std::ifstream in(path);
  DV_CHECK_MSG(in.good(), "cannot open edge list: " << path);
  return read_edge_list(in, options);
}

void write_edge_list(const CsrGraph& g, std::ostream& out) {
  out << "# deltav edge list: " << g.summary() << "\n";
  for (std::size_t u = 0; u < g.num_vertices(); ++u) {
    const auto vid = static_cast<VertexId>(u);
    const auto nbrs = g.out_neighbors(vid);
    const auto wts = g.out_weights(vid);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (!g.directed() && nbrs[i] < vid) continue;  // emit each edge once
      out << u << ' ' << nbrs[i];
      if (g.weighted()) out << ' ' << wts[i];
      out << '\n';
    }
  }
}

}  // namespace deltav::graph
