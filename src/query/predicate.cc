#include "query/predicate.h"

#include <algorithm>

namespace mesa {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kIn:
      return "IN";
  }
  return "?";
}

namespace {

std::string QuoteLiteral(const Value& v) {
  if (!v.is_string()) return v.ToString();
  // SQL-style escaping: embedded single quotes double up, so the rendered
  // condition re-parses ("O'Neil" -> 'O''Neil').
  std::string out = "'";
  for (char c : v.string_value()) {
    if (c == '\'') out += "''";
    else out += c;
  }
  out += "'";
  return out;
}

// Comparison helper; fails on string-vs-number mismatches so type bugs
// surface instead of silently filtering everything out.
Result<int> CompareValues(const Value& a, const Value& b) {
  if (a.is_numeric() && b.is_numeric()) {
    double x = a.AsDouble(), y = b.AsDouble();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a.is_string() && b.is_string()) {
    int c = a.string_value().compare(b.string_value());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (a.is_bool() && b.is_bool()) {
    int x = a.bool_value() ? 1 : 0, y = b.bool_value() ? 1 : 0;
    return x - y;
  }
  return Status::InvalidArgument("incomparable types: " +
                                 std::string(DataTypeName(a.type())) + " vs " +
                                 DataTypeName(b.type()));
}

// Accepted signs of a three-way comparison result c in {-1, 0, 1}, as
// bit (c + 1) of the returned mask.
uint8_t AcceptedSigns(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return 0b010;
    case CompareOp::kNe:
      return 0b101;
    case CompareOp::kLt:
      return 0b001;
    case CompareOp::kLe:
      return 0b011;
    case CompareOp::kGt:
      return 0b100;
    case CompareOp::kGe:
      return 0b110;
    case CompareOp::kIn:
      break;
  }
  return 0;
}

// Three-way comparison with CompareValues' semantics (unordered -> 0).
template <typename T>
int Sign(T x, T y) {
  return (x > y) - (x < y);
}

// Clears mask[r] unless row r is valid and ok(r) holds. One pass, no
// branches on the data.
template <typename Ok>
void ScanMask(size_t n, const uint8_t* valid, uint8_t* mask, Ok ok) {
  for (size_t r = 0; r < n; ++r) {
    mask[r] &= static_cast<uint8_t>((valid[r] != 0) & ok(r));
  }
}

// Applies one condition to `mask` over the column's typed payload (or its
// dictionary, for strings). Same result as EvalCondition on every row
// still set, including the error: a type mismatch fails exactly when a
// set, non-null row reaches it.
Status ApplyCondition(const Condition& cond, const Column& col,
                      std::vector<uint8_t>* mask_out) {
  const size_t n = col.size();
  const uint8_t* valid = col.validity_data();
  uint8_t* mask = mask_out->data();
  const DataType type = col.type();
  const bool numeric = type == DataType::kInt64 || type == DataType::kDouble;
  auto as_double = [&](size_t r) {
    return type == DataType::kDouble ? col.double_data()[r]
                                     : static_cast<double>(col.int_data()[r]);
  };

  if (cond.op == CompareOp::kIn) {
    // Value equality: numbers compare by value across int/double, other
    // types only within their own type; mismatched members never match.
    if (type == DataType::kString) {
      const StringDictionary& dict = col.dictionary();
      std::vector<uint8_t> hit(dict.size(), 0);
      for (const Value& v : cond.in_values) {
        if (!v.is_string()) continue;
        const uint32_t code = dict.Find(v.string_value());
        if (code != StringDictionary::kNotFound) hit[code] = 1;
      }
      const uint32_t* codes = col.string_codes();
      ScanMask(n, valid, mask, [&](size_t r) { return hit[codes[r]]; });
    } else if (numeric) {
      std::vector<double> targets;
      for (const Value& v : cond.in_values) {
        if (v.is_numeric()) targets.push_back(v.AsDouble());
      }
      ScanMask(n, valid, mask, [&](size_t r) {
        const double x = as_double(r);
        uint8_t any = 0;
        for (double t : targets) any |= static_cast<uint8_t>(x == t);
        return any;
      });
    } else {
      uint8_t hit[2] = {0, 0};
      for (const Value& v : cond.in_values) {
        if (v.is_bool()) hit[v.bool_value() ? 1 : 0] = 1;
      }
      const uint8_t* bits = col.bool_data();
      ScanMask(n, valid, mask, [&](size_t r) { return hit[bits[r] != 0]; });
    }
    return Status::OK();
  }

  const Value& lit = cond.value;
  const uint8_t accept = AcceptedSigns(cond.op);
  auto accepted = [accept](int c) {
    return static_cast<uint8_t>((accept >> (c + 1)) & 1);
  };
  if (numeric && lit.is_numeric()) {
    const double y = lit.AsDouble();
    if (type == DataType::kDouble) {
      const double* xs = col.double_data();
      ScanMask(n, valid, mask,
               [&](size_t r) { return accepted(Sign(xs[r], y)); });
    } else {
      const int64_t* xs = col.int_data();
      ScanMask(n, valid, mask, [&](size_t r) {
        return accepted(Sign(static_cast<double>(xs[r]), y));
      });
    }
  } else if (type == DataType::kString && lit.is_string()) {
    const StringDictionary& dict = col.dictionary();
    std::vector<uint8_t> ok(dict.size());
    for (uint32_t c = 0; c < dict.size(); ++c) {
      ok[c] = accepted(Sign(dict[c].compare(lit.string_value()), 0));
    }
    const uint32_t* codes = col.string_codes();
    ScanMask(n, valid, mask, [&](size_t r) { return ok[codes[r]]; });
  } else if (type == DataType::kBool && lit.is_bool()) {
    const int y = lit.bool_value() ? 1 : 0;
    const uint8_t* bits = col.bool_data();
    ScanMask(n, valid, mask, [&](size_t r) {
      return accepted((bits[r] != 0 ? 1 : 0) - y);
    });
  } else {
    ScanMask(n, valid, mask, [](size_t) { return uint8_t{1}; });
    if (std::find(mask, mask + n, uint8_t{1}) != mask + n) {
      return Status::InvalidArgument("incomparable types: " +
                                     std::string(DataTypeName(type)) + " vs " +
                                     DataTypeName(lit.type()));
    }
  }
  return Status::OK();
}

}  // namespace

std::string Condition::ToString() const {
  if (op == CompareOp::kIn) {
    std::string out = column + " IN (";
    for (size_t i = 0; i < in_values.size(); ++i) {
      if (i > 0) out += ", ";
      out += QuoteLiteral(in_values[i]);
    }
    out += ")";
    return out;
  }
  return column + " " + CompareOpName(op) + " " + QuoteLiteral(value);
}

bool operator==(const Condition& a, const Condition& b) {
  return a.column == b.column && a.op == b.op && a.value == b.value &&
         a.in_values == b.in_values;
}

Result<bool> EvalCondition(const Condition& cond, const Table& table,
                           size_t row) {
  MESA_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(cond.column));
  if (row >= col->size()) return Status::OutOfRange("row out of range");
  if (col->IsNull(row)) return false;
  Value cell = col->GetValue(row);
  if (cond.op == CompareOp::kIn) {
    for (const auto& v : cond.in_values) {
      if (cell == v) return true;
    }
    return false;
  }
  MESA_ASSIGN_OR_RETURN(int c, CompareValues(cell, cond.value));
  switch (cond.op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
    case CompareOp::kIn:
      break;
  }
  return Status::Internal("bad op");
}

Conjunction Conjunction::Refine(Condition extra) const {
  Conjunction out = *this;
  out.Add(std::move(extra));
  return out;
}

bool Conjunction::Contains(const Conjunction& other) const {
  for (const auto& c : other.conditions_) {
    if (std::find(conditions_.begin(), conditions_.end(), c) ==
        conditions_.end()) {
      return false;
    }
  }
  return true;
}

Result<std::vector<uint8_t>> Conjunction::EvaluateMask(
    const Table& table) const {
  std::vector<uint8_t> mask(table.num_rows(), 1);
  for (const auto& cond : conditions_) {
    MESA_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(cond.column));
    MESA_RETURN_IF_ERROR(ApplyCondition(cond, *col, &mask));
  }
  return mask;
}

Result<std::vector<size_t>> Conjunction::MatchingRows(
    const Table& table) const {
  MESA_ASSIGN_OR_RETURN(std::vector<uint8_t> mask, EvaluateMask(table));
  std::vector<size_t> rows;
  for (size_t r = 0; r < mask.size(); ++r) {
    if (mask[r]) rows.push_back(r);
  }
  return rows;
}

std::string Conjunction::ToString() const {
  if (conditions_.empty()) return "TRUE";
  std::string out;
  for (size_t i = 0; i < conditions_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += conditions_[i].ToString();
  }
  return out;
}

}  // namespace mesa
