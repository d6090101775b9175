#include "dv/types.h"

namespace deltav::dv {

double agg_identity_double(AggOp op) {
  switch (op) {
    case AggOp::kSum: return 0.0;
    case AggOp::kProd: return 1.0;
    case AggOp::kMin: return std::numeric_limits<double>::infinity();
    case AggOp::kMax: return -std::numeric_limits<double>::infinity();
    default: DV_FAIL("no double identity for " << agg_op_name(op));
  }
}

std::int64_t agg_identity_int(AggOp op) {
  switch (op) {
    case AggOp::kSum: return 0;
    case AggOp::kProd: return 1;
    case AggOp::kMin: return std::numeric_limits<std::int64_t>::max();
    case AggOp::kMax: return std::numeric_limits<std::int64_t>::min();
    default: DV_FAIL("no int identity for " << agg_op_name(op));
  }
}

bool agg_identity_bool(AggOp op) {
  switch (op) {
    case AggOp::kAnd: return true;
    case AggOp::kOr: return false;
    default: DV_FAIL("no bool identity for " << agg_op_name(op));
  }
}

bool agg_supports_type(AggOp op, Type t) {
  switch (op) {
    case AggOp::kSum:
    case AggOp::kProd:
    case AggOp::kMin:
    case AggOp::kMax:
      return t == Type::kInt || t == Type::kFloat;
    case AggOp::kAnd:
    case AggOp::kOr:
      return t == Type::kBool;
  }
  return false;
}

}  // namespace deltav::dv
