// The built-in program table and the program/parameter parsing every
// front end shares (dvc, dv_stream, dv_serve's CREATE verb).
//
// kBuiltinPrograms is the one list of names a user may pass as a program:
// lookups, the "unknown built-in program" error and the tests that compile
// every built-in all read it, so a new program in programs.h becomes
// visible everywhere by adding one row here.
#pragma once

#include <array>
#include <map>
#include <string>

#include "dv/programs/programs.h"
#include "dv/runtime/value.h"

namespace deltav::dv::programs {

struct BuiltinProgram {
  const char* name;
  const char* source;
};

inline constexpr std::array<BuiltinProgram, 12> kBuiltinPrograms{{
    {"pagerank", kPageRank},
    {"pagerank-ug", kPageRankUndirected},
    {"sssp", kSssp},
    {"sssp_retract", kSsspRetract},
    {"cc", kConnectedComponents},
    {"hits", kHits},
    {"reachability", kReachability},
    {"maxgossip", kMaxGossip},
    {"bfs", kBfs},
    {"kcore", kKCore},
    {"mis", kMis},
    {"pointerjump", kPointerJump},
}};

/// True when `program` names a ΔV source file rather than a table entry:
/// it contains '/' or ends in ".dv".
bool program_is_path(const std::string& program);

/// Source of the built-in `name`; throws CheckError listing every name in
/// kBuiltinPrograms when unknown.
const char* builtin_program_source(const std::string& name);

/// Resolves a program spec to ΔV source text: reads the file when
/// program_is_path, else looks the name up in the table.
std::string load_program_source(const std::string& program);

/// Parses "a=1,b=2.5" into param bindings. A value with a decimal point is
/// a float, any other an int; the whole value must parse, so "x", "3x" and
/// "1e5" fail with "param '<item>' has a malformed value". Empty items are
/// skipped.
std::map<std::string, Value> parse_params(const std::string& spec);

}  // namespace deltav::dv::programs
