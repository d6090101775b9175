// Plain-text edge-list reading and writing.
//
// Format: one edge per line, "src dst [weight]". Lines beginning with '#'
// or '%' are comments (the conventions of SNAP and KONECT dumps, so real
// datasets drop in unchanged when available). Vertex ids are kept as they
// appear in the file, so mutation streams, program params (source=...) and
// query answers all speak the file's ids: |V| is the largest id + 1, and an
// id that never appears is an isolated vertex. An id too large for a
// VertexId is rejected with its line number.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/csr_graph.h"

namespace deltav::graph {

struct EdgeListOptions {
  bool directed = true;
  bool weighted = false;
  bool deduplicate = true;
};

/// Reads an edge list from a stream. Throws CheckError with a line number
/// on malformed input.
CsrGraph read_edge_list(std::istream& in, const EdgeListOptions& options);

/// Reads an edge list from a file path.
CsrGraph read_edge_list_file(const std::string& path,
                             const EdgeListOptions& options);

/// Writes the graph back out (one arc per line; undirected edges once).
void write_edge_list(const CsrGraph& g, std::ostream& out);

}  // namespace deltav::graph
