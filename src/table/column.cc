#include "table/column.h"

#include <algorithm>

#include "common/cancel.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/retry.h"
#include "common/rng.h"

namespace mesa {

namespace {

// The dictionary every new string column starts from. It is never
// mutated: this reference keeps its use count above one, so a column's
// first intern copies it.
const std::shared_ptr<StringDictionary>& EmptyDictionary() {
  static const auto* dict = new std::shared_ptr<StringDictionary>(
      std::make_shared<StringDictionary>());
  return *dict;
}

}  // namespace

Column::Column(DataType type) : type_(type) {
  MESA_CHECK(type != DataType::kNull);
  if (type == DataType::kString) dict_ = EmptyDictionary();
}

Column::Column(const Column& other)
    : type_(other.type_),
      size_(other.size_),
      null_count_(other.null_count_),
      valid_ptr_(other.valid_ptr_),
      double_ptr_(other.double_ptr_),
      int_ptr_(other.int_ptr_),
      bool_ptr_(other.bool_ptr_),
      codes_ptr_(other.codes_ptr_),
      dict_(other.dict_),
      owner_(other.owner_),
      valid_(other.valid_),
      doubles_(other.doubles_),
      ints_(other.ints_),
      codes_(other.codes_),
      bools_(other.bools_) {
  // A borrowed copy shares the owner and keeps the borrowed pointers; an
  // owned copy must re-point at its *own* vectors, not the source's.
  if (owner_ == nullptr) SyncPointers();
}

Column& Column::operator=(const Column& other) {
  if (this == &other) return *this;
  Column copy(other);
  *this = std::move(copy);
  return *this;
}

Column::Column(Column&& other) noexcept
    : type_(other.type_),
      size_(other.size_),
      null_count_(other.null_count_),
      valid_ptr_(other.valid_ptr_),
      double_ptr_(other.double_ptr_),
      int_ptr_(other.int_ptr_),
      bool_ptr_(other.bool_ptr_),
      codes_ptr_(other.codes_ptr_),
      dict_(std::move(other.dict_)),
      owner_(std::move(other.owner_)),
      valid_(std::move(other.valid_)),
      doubles_(std::move(other.doubles_)),
      ints_(std::move(other.ints_)),
      codes_(std::move(other.codes_)),
      bools_(std::move(other.bools_)) {
  // Vector moves transfer the heap buffer, so owned pointers stay valid;
  // re-sync anyway to keep the invariant obvious and the moved-from
  // column consistent (empty).
  if (owner_ == nullptr) SyncPointers();
  other.ResetMovedFrom();
}

Column& Column::operator=(Column&& other) noexcept {
  if (this == &other) return *this;
  type_ = other.type_;
  size_ = other.size_;
  null_count_ = other.null_count_;
  valid_ptr_ = other.valid_ptr_;
  double_ptr_ = other.double_ptr_;
  int_ptr_ = other.int_ptr_;
  bool_ptr_ = other.bool_ptr_;
  codes_ptr_ = other.codes_ptr_;
  dict_ = std::move(other.dict_);
  owner_ = std::move(other.owner_);
  valid_ = std::move(other.valid_);
  doubles_ = std::move(other.doubles_);
  ints_ = std::move(other.ints_);
  codes_ = std::move(other.codes_);
  bools_ = std::move(other.bools_);
  if (owner_ == nullptr) SyncPointers();
  other.ResetMovedFrom();
  return *this;
}

void Column::ResetMovedFrom() {
  size_ = 0;
  null_count_ = 0;
  if (type_ == DataType::kString) dict_ = EmptyDictionary();
  SyncPointers();
}

void Column::SyncPointers() {
  valid_ptr_ = valid_.data();
  double_ptr_ = doubles_.data();
  int_ptr_ = ints_.data();
  bool_ptr_ = bools_.data();
  codes_ptr_ = codes_.data();
}

void Column::EnsureOwned() {
  if (owner_ == nullptr) return;
  valid_.assign(valid_ptr_, valid_ptr_ + size_);
  switch (type_) {
    case DataType::kDouble:
      doubles_.assign(double_ptr_, double_ptr_ + size_);
      break;
    case DataType::kInt64:
      ints_.assign(int_ptr_, int_ptr_ + size_);
      break;
    case DataType::kString:
      codes_.assign(codes_ptr_, codes_ptr_ + size_);
      break;
    case DataType::kBool:
      bools_.assign(bool_ptr_, bool_ptr_ + size_);
      break;
    case DataType::kNull:
      break;
  }
  owner_.reset();
  SyncPointers();
}

uint32_t Column::InternCode(std::string_view s) {
  const uint32_t code = dict_->Find(s);
  if (code != StringDictionary::kNotFound) return code;
  if (dict_.use_count() != 1) {
    dict_ = std::make_shared<StringDictionary>(*dict_);
  }
  return dict_->Intern(s);
}

Column Column::FromDoubles(std::vector<double> values) {
  const size_t n = values.size();
  return FromDoubles(std::move(values), std::vector<uint8_t>(n, 1));
}

Column Column::FromInts(std::vector<int64_t> values) {
  const size_t n = values.size();
  return FromInts(std::move(values), std::vector<uint8_t>(n, 1));
}

Column Column::FromStrings(std::vector<std::string> values) {
  Column c(DataType::kString);
  c.codes_.reserve(values.size());
  for (const std::string& v : values) c.codes_.push_back(c.InternCode(v));
  c.valid_.assign(values.size(), 1);
  c.size_ = values.size();
  c.SyncPointers();
  return c;
}

Column Column::FromBools(std::vector<uint8_t> values) {
  const size_t n = values.size();
  return FromBools(std::move(values), std::vector<uint8_t>(n, 1));
}

void Column::AdoptValidity(std::vector<uint8_t> valid) {
  MESA_CHECK(valid.size() == size_);
  valid_ = std::move(valid);
  null_count_ = static_cast<size_t>(
      std::count(valid_.begin(), valid_.end(), uint8_t{0}));
  SyncPointers();
}

Column Column::FromDoubles(std::vector<double> values,
                           std::vector<uint8_t> valid) {
  Column c(DataType::kDouble);
  c.doubles_ = std::move(values);
  c.size_ = c.doubles_.size();
  c.AdoptValidity(std::move(valid));
  return c;
}

Column Column::FromInts(std::vector<int64_t> values,
                        std::vector<uint8_t> valid) {
  Column c(DataType::kInt64);
  c.ints_ = std::move(values);
  c.size_ = c.ints_.size();
  c.AdoptValidity(std::move(valid));
  return c;
}

Column Column::FromBools(std::vector<uint8_t> values,
                         std::vector<uint8_t> valid) {
  Column c(DataType::kBool);
  c.bools_ = std::move(values);
  c.size_ = c.bools_.size();
  c.AdoptValidity(std::move(valid));
  return c;
}

Column Column::FromCodes(std::shared_ptr<StringDictionary> dict,
                         std::vector<uint32_t> codes,
                         std::vector<uint8_t> valid) {
  MESA_CHECK(dict != nullptr);
  Column c(DataType::kString);
  c.dict_ = std::move(dict);
  c.codes_ = std::move(codes);
  c.size_ = c.codes_.size();
  c.AdoptValidity(std::move(valid));
  return c;
}

Column Column::BorrowDoubles(const double* payload, const uint8_t* valid,
                             size_t n, size_t null_count,
                             std::shared_ptr<const void> owner) {
  MESA_CHECK(owner != nullptr);
  Column c(DataType::kDouble);
  c.size_ = n;
  c.null_count_ = null_count;
  c.valid_ptr_ = valid;
  c.double_ptr_ = payload;
  c.owner_ = std::move(owner);
  return c;
}

Column Column::BorrowInts(const int64_t* payload, const uint8_t* valid,
                          size_t n, size_t null_count,
                          std::shared_ptr<const void> owner) {
  MESA_CHECK(owner != nullptr);
  Column c(DataType::kInt64);
  c.size_ = n;
  c.null_count_ = null_count;
  c.valid_ptr_ = valid;
  c.int_ptr_ = payload;
  c.owner_ = std::move(owner);
  return c;
}

Column Column::BorrowBools(const uint8_t* payload, const uint8_t* valid,
                           size_t n, size_t null_count,
                           std::shared_ptr<const void> owner) {
  MESA_CHECK(owner != nullptr);
  Column c(DataType::kBool);
  c.size_ = n;
  c.null_count_ = null_count;
  c.valid_ptr_ = valid;
  c.bool_ptr_ = payload;
  c.owner_ = std::move(owner);
  return c;
}

Column Column::BorrowStringDict(std::shared_ptr<StringDictionary> dict,
                                const uint32_t* codes, const uint8_t* valid,
                                size_t n, size_t null_count,
                                std::shared_ptr<const void> owner) {
  MESA_CHECK(owner != nullptr);
  Column c(DataType::kString);
  c.size_ = n;
  c.null_count_ = null_count;
  c.valid_ptr_ = valid;
  c.codes_ptr_ = codes;
  c.dict_ = std::move(dict);
  MESA_CHECK(c.dict_ != nullptr);
  c.owner_ = std::move(owner);
  return c;
}

Status Column::Append(const Value& value) {
  if (value.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case DataType::kDouble:
      if (!value.is_numeric()) {
        return Status::InvalidArgument("expected numeric value for double column");
      }
      AppendDouble(value.AsDouble());
      return Status::OK();
    case DataType::kInt64:
      if (!value.is_int()) {
        return Status::InvalidArgument("expected int value for int64 column");
      }
      AppendInt(value.int_value());
      return Status::OK();
    case DataType::kString:
      if (!value.is_string()) {
        return Status::InvalidArgument("expected string value for string column");
      }
      AppendString(value.string_value());
      return Status::OK();
    case DataType::kBool:
      if (!value.is_bool()) {
        return Status::InvalidArgument("expected bool value for bool column");
      }
      AppendBool(value.bool_value());
      return Status::OK();
    case DataType::kNull:
      break;
  }
  return Status::Internal("corrupt column type");
}

void Column::AppendNull() {
  EnsureOwned();
  valid_.push_back(0);
  ++null_count_;
  switch (type_) {
    case DataType::kDouble:
      doubles_.push_back(0.0);
      break;
    case DataType::kInt64:
      ints_.push_back(0);
      break;
    case DataType::kString:
      codes_.push_back(InternCode(""));
      break;
    case DataType::kBool:
      bools_.push_back(0);
      break;
    case DataType::kNull:
      break;
  }
  ++size_;
  SyncPointers();
}

void Column::AppendDouble(double v) {
  MESA_DCHECK(type_ == DataType::kDouble);
  EnsureOwned();
  doubles_.push_back(v);
  valid_.push_back(1);
  ++size_;
  SyncPointers();
}

void Column::AppendInt(int64_t v) {
  MESA_DCHECK(type_ == DataType::kInt64);
  EnsureOwned();
  ints_.push_back(v);
  valid_.push_back(1);
  ++size_;
  SyncPointers();
}

void Column::AppendString(std::string v) {
  MESA_DCHECK(type_ == DataType::kString);
  EnsureOwned();
  codes_.push_back(InternCode(v));
  valid_.push_back(1);
  ++size_;
  SyncPointers();
}

void Column::AppendBool(bool v) {
  MESA_DCHECK(type_ == DataType::kBool);
  EnsureOwned();
  bools_.push_back(v ? 1 : 0);
  valid_.push_back(1);
  ++size_;
  SyncPointers();
}

Value Column::GetValue(size_t row) const {
  MESA_DCHECK(row < size());
  if (IsNull(row)) return Value::Null();
  switch (type_) {
    case DataType::kDouble:
      return Value::Double(double_ptr_[row]);
    case DataType::kInt64:
      return Value::Int(int_ptr_[row]);
    case DataType::kString:
      return Value::String(StringAt(row));
    case DataType::kBool:
      return Value::Bool(bool_ptr_[row] != 0);
    case DataType::kNull:
      break;
  }
  return Value::Null();
}

double Column::NumericAt(size_t row) const {
  MESA_DCHECK(IsValid(row));
  switch (type_) {
    case DataType::kDouble:
      return double_ptr_[row];
    case DataType::kInt64:
      return static_cast<double>(int_ptr_[row]);
    case DataType::kBool:
      return bool_ptr_[row] ? 1.0 : 0.0;
    default:
      MESA_CHECK(false && "NumericAt on string column");
  }
  return 0.0;
}

Status Column::Set(size_t row, const Value& value) {
  if (row >= size()) return Status::OutOfRange("row out of range");
  if (value.is_null()) {
    SetNull(row);
    return Status::OK();
  }
  EnsureOwned();
  switch (type_) {
    case DataType::kDouble:
      if (!value.is_numeric()) {
        return Status::InvalidArgument("expected numeric value");
      }
      doubles_[row] = value.AsDouble();
      break;
    case DataType::kInt64:
      if (!value.is_int()) return Status::InvalidArgument("expected int value");
      ints_[row] = value.int_value();
      break;
    case DataType::kString:
      if (!value.is_string()) {
        return Status::InvalidArgument("expected string value");
      }
      codes_[row] = InternCode(value.string_value());
      break;
    case DataType::kBool:
      if (!value.is_bool()) return Status::InvalidArgument("expected bool value");
      bools_[row] = value.bool_value() ? 1 : 0;
      break;
    case DataType::kNull:
      return Status::Internal("corrupt column type");
  }
  if (valid_[row] == 0) {
    valid_[row] = 1;
    --null_count_;
  }
  return Status::OK();
}

void Column::SetNull(size_t row) {
  MESA_DCHECK(row < size());
  EnsureOwned();
  if (valid_[row] != 0) {
    valid_[row] = 0;
    ++null_count_;
    if (type_ == DataType::kString) codes_[row] = InternCode("");
  }
}

uint64_t Column::ContentFingerprint() const {
  uint64_t h = MixSeed(static_cast<uint64_t>(type_), size());
  h = MixSeed(h, StableHash64Bytes(valid_ptr_, size_));
  switch (type_) {
    case DataType::kDouble:
      h = MixSeed(h, StableHash64Bytes(double_ptr_, size_ * sizeof(double)));
      break;
    case DataType::kInt64:
      h = MixSeed(h, StableHash64Bytes(int_ptr_, size_ * sizeof(int64_t)));
      break;
    case DataType::kString: {
      // Hash row strings in row order, so the fingerprint is a function of
      // content alone, not of the dictionary's code assignment. Each
      // entry's hash is computed once.
      const StringDictionary& dict = *dict_;
      std::vector<uint64_t> entry_hash(dict.size());
      std::vector<uint8_t> hashed(dict.size(), 0);
      for (size_t row = 0; row < size_; ++row) {
        const uint32_t code = codes_ptr_[row];
        if (!hashed[code]) {
          const std::string& s = dict[code];
          entry_hash[code] = StableHash64Bytes(s.data(), s.size());
          hashed[code] = 1;
        }
        h = MixSeed(h, entry_hash[code]);
      }
      break;
    }
    case DataType::kBool:
      h = MixSeed(h, StableHash64Bytes(bool_ptr_, size_));
      break;
    case DataType::kNull:
      break;
  }
  return h;
}

namespace {

// Fixed morsel for parallel gathers: a constant (never a function of the
// thread count). Each chunk writes its own slice of the output, so the
// result is the same bytes however the chunks are scheduled; a gather
// below one morsel runs on the calling thread.
constexpr size_t kTakeChunkRows = 4096;

// Runs body(lo, hi) over [0, n) in morsels of kTakeChunkRows, in parallel.
template <typename Body>
void ForEachTakeChunk(size_t n, const Body& body) {
  const size_t num_chunks = (n + kTakeChunkRows - 1) / kTakeChunkRows;
  ParallelFor(0, num_chunks, [&](size_t c) {
    CancelCheckpoint();
    const size_t lo = c * kTakeChunkRows;
    body(lo, std::min(n, lo + kTakeChunkRows));
  });
}

// Bools read as 0/1 whatever byte the source holds; other payloads as is.
uint8_t LoadPayload(uint8_t v) { return static_cast<uint8_t>(v != 0); }
template <typename T>
T LoadPayload(T v) {
  return v;
}

// The gather loops take their pointers as parameters so they stay in
// registers: the uint8_t validity stores may alias any memory a lambda
// capture lives in.
template <typename T>
void GatherRows(const size_t* index, [[maybe_unused]] size_t src_rows,
                const uint8_t* src_valid, const T* src, T null_value, T* dst,
                uint8_t* valid, size_t lo, size_t hi) {
  for (size_t i = lo; i < hi; ++i) {
    const size_t idx = index[i];
    MESA_DCHECK(idx < src_rows);
    const bool live = src_valid[idx] != 0;
    valid[i] = live ? 1 : 0;
    dst[i] = live ? LoadPayload(src[idx]) : null_value;
  }
}

// Output row i copies cell slot[i]: one lookup, no branch.
template <typename T>
void ExpandCells(const uint32_t* slot, [[maybe_unused]] size_t num_cells,
                 const T* cell, const uint8_t* cell_live, T* dst,
                 uint8_t* valid, size_t lo, size_t hi) {
  for (size_t i = lo; i < hi; ++i) {
    MESA_DCHECK(slot[i] < num_cells);
    dst[i] = cell[slot[i]];
    valid[i] = cell_live[slot[i]];
  }
}

}  // namespace

template <typename Fill>
Column Column::GatherWith(size_t n, uint32_t empty_code,
                          const Fill& fill) const {
  Column out(type_);
  out.size_ = n;
  out.valid_.resize(n);
  if (type_ == DataType::kString) out.dict_ = dict_;
  uint8_t* valid = out.valid_.data();
  switch (type_) {
    case DataType::kDouble:
      out.doubles_.resize(n);
      fill(out.doubles_.data(), double_ptr_, 0.0, valid);
      break;
    case DataType::kInt64:
      out.ints_.resize(n);
      fill(out.ints_.data(), int_ptr_, int64_t{0}, valid);
      break;
    case DataType::kString:
      out.codes_.resize(n);
      fill(out.codes_.data(), codes_ptr_, empty_code, valid);
      break;
    case DataType::kBool:
      out.bools_.resize(n);
      fill(out.bools_.data(), bool_ptr_, uint8_t{0}, valid);
      break;
    case DataType::kNull:
      break;
  }
  out.null_count_ = static_cast<size_t>(
      std::count(out.valid_.begin(), out.valid_.end(), uint8_t{0}));
  out.SyncPointers();
  return out;
}

Column Column::Take(const std::vector<size_t>& rows) const {
  // A null row keeps the empty string's code, which the source's own null
  // rows already hold.
  const uint32_t empty_code =
      type_ == DataType::kString && null_count_ > 0 ? dict_->Find("") : 0;
  return GatherWith(rows.size(), empty_code, [&](auto* dst, const auto* src,
                                                 auto null_value,
                                                 uint8_t* valid) {
    ForEachTakeChunk(rows.size(), [&](size_t lo, size_t hi) {
      GatherRows(rows.data(), size_, valid_ptr_, src, null_value, dst, valid,
                 lo, hi);
    });
  });
}

Column Column::TakeOrNull(const std::vector<int64_t>& rows,
                          const std::vector<uint32_t>& slots) const {
  // The cell table: entry s holds row rows[s], or a null cell.
  std::vector<uint8_t> live(rows.size());
  for (size_t s = 0; s < rows.size(); ++s) {
    live[s] = rows[s] >= 0 && valid_ptr_[static_cast<size_t>(rows[s])] != 0;
  }
  // A null cell codes "". A dictionary without "" has no null rows, and
  // "" gets the next code if an output row turns out null (below).
  uint32_t empty_code = 0;
  if (type_ == DataType::kString) {
    empty_code = dict_->Find("");
    if (empty_code == StringDictionary::kNotFound) {
      empty_code = static_cast<uint32_t>(dict_->size());
    }
  }
  Column out = GatherWith(slots.size(), empty_code, [&](auto* dst,
                                                        const auto* src,
                                                        auto null_value,
                                                        uint8_t* valid) {
    std::vector<decltype(null_value)> cells(rows.size());
    for (size_t s = 0; s < rows.size(); ++s) {
      cells[s] = live[s] ? LoadPayload(src[static_cast<size_t>(rows[s])])
                         : null_value;
    }
    ForEachTakeChunk(slots.size(), [&](size_t lo, size_t hi) {
      ExpandCells(slots.data(), cells.size(), cells.data(), live.data(), dst,
                  valid, lo, hi);
    });
  });
  if (type_ == DataType::kString && out.null_count_ > 0 &&
      empty_code == dict_->size()) {
    const uint32_t code = out.InternCode("");
    MESA_DCHECK(code == empty_code);
    (void)code;
  }
  return out;
}

}  // namespace mesa
