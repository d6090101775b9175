// Core enumerations of the ΔV language (paper Figure 3) and the algebraic
// helpers the incrementalization passes rely on: identity and absorbing
// elements per aggregation operator, and the operator classification
// (invertible / idempotent / "multiplicative" in the paper's §6.4.1 sense).
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "common/check.h"

namespace deltav::dv {

/// Value types of ΔV (Fig. 3: τ ::= int | bool | float). kUnit is internal:
/// the type of statements-as-expressions (assignments, sequencing, sends).
enum class Type : std::uint8_t { kInt, kBool, kFloat, kUnit, kUnknown };

inline const char* type_name(Type t) {
  switch (t) {
    case Type::kInt: return "int";
    case Type::kBool: return "bool";
    case Type::kFloat: return "float";
    case Type::kUnit: return "unit";
    case Type::kUnknown: return "?";
  }
  return "?";
}

/// Bytes a field of this type occupies in the compiled vertex state
/// (Table 2 accounting). Numeric fields are 8-byte machine words; bools
/// pack as single bytes.
inline std::size_t type_state_bytes(Type t) {
  switch (t) {
    case Type::kInt: return 8;
    case Type::kFloat: return 8;
    case Type::kBool: return 1;
    default: DV_FAIL("type " << type_name(t) << " has no state size");
  }
}

/// Bytes of the wire representation of a message payload of this type.
inline std::size_t type_wire_bytes(Type t) {
  return t == Type::kBool ? 1 : 8;
}

/// Binary operators (Fig. 3 `op`).
enum class BinOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv,
  kAnd, kOr,
  kLt, kGt, kGe, kLe, kEq, kNe,
};

/// Unary operators (Fig. 3 `uop`).
enum class UnOp : std::uint8_t { kNeg, kNot };

/// Binary min/max builtins (Fig. 3 `pop`).
enum class PairOp : std::uint8_t { kMin, kMax };

/// Aggregation operators (Fig. 3 ⊞ ::= + | * | min | max | || | &&).
enum class AggOp : std::uint8_t { kSum, kProd, kMin, kMax, kOr, kAnd };

inline const char* agg_op_name(AggOp op) {
  switch (op) {
    case AggOp::kSum: return "+";
    case AggOp::kProd: return "*";
    case AggOp::kMin: return "min";
    case AggOp::kMax: return "max";
    case AggOp::kOr: return "||";
    case AggOp::kAnd: return "&&";
  }
  return "?";
}

/// Graph expressions (Fig. 3 д ::= #in | #out | #neighbors).
enum class GraphDir : std::uint8_t { kIn, kOut, kNeighbors };

inline const char* graph_dir_name(GraphDir d) {
  switch (d) {
    case GraphDir::kIn: return "#in";
    case GraphDir::kOut: return "#out";
    case GraphDir::kNeighbors: return "#neighbors";
  }
  return "?";
}

/// The push direction for a pull over `d` (§6.1): a vertex that pulls from
/// its in-neighbors is fed by pushes along those neighbors' out-edges, and
/// vice versa.
inline GraphDir push_direction(GraphDir pull) {
  switch (pull) {
    case GraphDir::kIn: return GraphDir::kOut;
    case GraphDir::kOut: return GraphDir::kIn;
    case GraphDir::kNeighbors: return GraphDir::kNeighbors;
  }
  return GraphDir::kNeighbors;
}

/// §6.4.1: operators with an absorbing ("nullary") element that permanently
/// nulls a memoized accumulator — these need the triple-field treatment.
inline bool is_multiplicative(AggOp op) {
  return op == AggOp::kProd || op == AggOp::kAnd || op == AggOp::kOr;
}

/// Operators whose Δ-message is `new ⊖ old` (group structure).
inline bool is_invertible(AggOp op) {
  return op == AggOp::kSum || op == AggOp::kProd;
}

/// Idempotent semilattice operators: re-folding a full value is harmless,
/// so the Δ-message is simply the new value. Incrementalized accumulators
/// for these are exact only under monotone updates (SSSP/CC are; the
/// compiler emits a warning otherwise — see DESIGN.md).
inline bool is_idempotent(AggOp op) {
  return op == AggOp::kMin || op == AggOp::kMax;
}

/// default_init(⊞, τ) from §6.1: the identity element of the operator.
double agg_identity_double(AggOp op);
std::int64_t agg_identity_int(AggOp op);
bool agg_identity_bool(AggOp op);

/// Whether this operator/type combination is legal (e.g. && only on bool).
bool agg_supports_type(AggOp op, Type t);

}  // namespace deltav::dv
