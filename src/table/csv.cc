#include "table/csv.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>

#include "common/file_io.h"
#include "common/parallel.h"
#include "common/string_util.h"

namespace mesa {

namespace {

constexpr size_t kNone = SIZE_MAX;

bool ParseBoolToken(std::string_view cell, bool* out) {
  if (EqualsIgnoreCase(cell, "true")) {
    *out = true;
    return true;
  }
  if (EqualsIgnoreCase(cell, "false")) {
    *out = false;
    return true;
  }
  return false;
}

bool CellParsesAs(DataType type, std::string_view s) {
  int64_t iv;
  double dv;
  bool bv;
  switch (type) {
    case DataType::kInt64:
      return ParseInt64(s, &iv);
    case DataType::kDouble:
      return ParseDouble(s, &dv);
    case DataType::kBool:
      return ParseBoolToken(s, &bv);
    default:
      return true;
  }
}

// The null-token test. Only a cell whose length matches some token's is
// compared at all.
class NullTokens {
 public:
  explicit NullTokens(const std::vector<std::string>& tokens)
      : tokens_(tokens) {
    for (const std::string& t : tokens) {
      if (t.size() < 64) {
        short_lengths_ |= uint64_t{1} << t.size();
      } else {
        any_long_ = true;
      }
    }
  }

  bool Matches(std::string_view cell) const {
    const bool length_hit = cell.size() < 64
                                ? (short_lengths_ >> cell.size()) & 1
                                : any_long_;
    if (!length_hit) return false;
    for (const std::string& t : tokens_) {
      if (EqualsIgnoreCase(cell, t)) return true;
    }
    return false;
  }

 private:
  const std::vector<std::string>& tokens_;
  uint64_t short_lengths_ = 0;
  bool any_long_ = false;
};

// ---------------------------------------------------------------------------
// Structure.

// Record boundaries from one serial quote-parity scan: a '\n' ends a record
// exactly when the record holds an even number of '"' before it, which is
// where the splitter's quote state is closed. Returns the byte offset of
// every record start (the header is record 0), then text.size(). Sets
// *open_quote when the last record ends inside a quoted field.
std::vector<size_t> RecordStarts(std::string_view text, char delim,
                                 bool* open_quote) {
  std::vector<size_t> starts = {0};
  if (delim == '\n') {
    // Every newline separates cells: the input is one record.
    *open_quote = std::count(text.begin(), text.end(), '"') % 2 != 0;
    starts.push_back(text.size());
    return starts;
  }
  const char* const base = text.data();
  const char* const end = base + text.size();
  auto find = [end](const char* from, char c) {
    return static_cast<const char*>(std::memchr(from, c, end - from));
  };
  *open_quote = false;
  const char* p = base;
  const char* quote = find(p, '"');
  while (true) {
    const char* nl = find(p, '\n');
    // Step over every quoted span that opens before the newline.
    while (quote != nullptr && (nl == nullptr || quote < nl)) {
      const char* close = find(quote + 1, '"');
      if (close == nullptr) {
        *open_quote = true;
        starts.push_back(text.size());
        return starts;
      }
      p = close + 1;
      quote = find(p, '"');
      if (nl != nullptr && nl < p) nl = find(p, '\n');
    }
    if (nl == nullptr || nl + 1 == end) break;
    p = nl + 1;
    starts.push_back(static_cast<size_t>(p - base));
  }
  starts.push_back(text.size());
  return starts;
}

// Bytes of record `r`, without its terminating '\n' (when '\n' is the
// delimiter, the one record keeps every byte).
std::string_view RecordBytes(std::string_view text,
                             const std::vector<size_t>& starts, size_t r,
                             char delim) {
  size_t end = starts[r + 1];
  if (delim != '\n' && end > starts[r] && text[end - 1] == '\n') --end;
  return text.substr(starts[r], end - starts[r]);
}

// Splits one record into cells: a '"' toggles quoting, "" inside quotes is
// a literal quote, and outside quotes the delimiter ends a cell and '\r' is
// dropped. A cell with no '"' and no '\r' (other than the record's final
// byte) is a view of the record; any other is unescaped into *arena, which
// is advanced past it and must have room for the record's bytes. Calls
// emit(index, cell) for every cell and returns the cell count.
template <typename Emit>
size_t SplitRecord(std::string_view record, const bool* stop, char delim,
                   char** arena, Emit&& emit) {
  const char* p = record.data();
  const char* const end = p + record.size();
  size_t index = 0;
  while (true) {
    const char* start = p;
    while (p < end && !stop[static_cast<unsigned char>(*p)]) ++p;
    // A '"' always toggles quoting, even when it is the delimiter; a '\r'
    // that is not the delimiter is dropped, which for the record's last
    // byte (a CRLF line ending) just ends the cell.
    const bool quote = p < end && *p == '"';
    const bool cr = p < end && *p == '\r' && delim != '\r';
    if (!quote && !(cr && p + 1 < end)) {
      emit(index++, std::string_view(start, p - start));
      if (p == end || cr) return index;
    } else {
      char* const out = *arena;
      char* w = std::copy(start, p, out);
      bool quoted = false;
      for (; p < end; ++p) {
        const char c = *p;
        if (quoted) {
          if (c != '"') {
            *w++ = c;
          } else if (p + 1 < end && p[1] == '"') {
            *w++ = '"';
            ++p;
          } else {
            quoted = false;
          }
        } else if (c == '"') {
          quoted = true;
        } else if (c == delim) {
          break;
        } else if (c != '\r') {
          *w++ = c;
        }
      }
      *arena = w;
      emit(index++, std::string_view(out, w - out));
    }
    if (p == end) return index;
    ++p;  // past the delimiter
  }
}

// ---------------------------------------------------------------------------
// Morsels.

// A cell of a morsel: a view of the input or of the morsel's arena, with
// data == nullptr once the cell is known to be null. Plain data so a
// morsel's cell array is allocated without being written.
struct Cell {
  const char* data;
  size_t size;
  std::string_view view() const { return {data, size}; }
};

// What one morsel says about one column's type.
struct Evidence {
  bool any_value = false;
  bool all_int = true, all_num = true, all_bool = true;
  // Declared columns: the first local row that does not parse as the
  // declared type.
  size_t first_bad = kNone;
};

// A string column's distinct cells of one morsel, coded in first-appearance
// order. Entries are views; the global dictionary copies them.
class LocalDictionary {
 public:
  uint32_t Intern(std::string_view s) {
    if (2 * (entries_.size() + 1) > slots_.size()) Rehash();
    const size_t mask = slots_.size() - 1;
    for (size_t i = std::hash<std::string_view>{}(s) & mask;;
         i = (i + 1) & mask) {
      const uint32_t code = slots_[i];
      if (code == StringDictionary::kNotFound) {
        slots_[i] = static_cast<uint32_t>(entries_.size());
        entries_.push_back(s);
        return slots_[i];
      }
      if (entries_[code] == s) return code;
    }
  }

  const std::vector<std::string_view>& entries() const { return entries_; }

 private:
  void Rehash() {
    slots_.assign(slots_.empty() ? 64 : 2 * slots_.size(),
                  StringDictionary::kNotFound);
    const size_t mask = slots_.size() - 1;
    for (uint32_t code = 0; code < entries_.size(); ++code) {
      size_t i = std::hash<std::string_view>{}(entries_[code]) & mask;
      while (slots_[i] != StringDictionary::kNotFound) i = (i + 1) & mask;
      slots_[i] = code;
    }
  }

  std::vector<std::string_view> entries_;
  std::vector<uint32_t> slots_;
};

// A run of kCsvMorselRecords consecutive data records (fewer in the last
// morsel), split, classified and converted on its own.
struct Morsel {
  size_t first_record = 0;  // index into the record starts
  size_t num_records = 0;
  size_t rows = 0;       // its non-blank records
  size_t first_row = 0;  // table row of its first non-blank record
  // Column-major, stride num_records: cells[c * num_records + row].
  std::unique_ptr<Cell[]> cells;
  std::unique_ptr<char[]> arena;  // unescaped cells, when any need it
  std::vector<Evidence> evidence;
  // The first record with the wrong field count, if any (the morsel stops
  // there: an earlier error always wins).
  size_t bad_record = kNone;
  size_t bad_fields = 0;
  // String columns: the morsel's dictionary, then its codes' remapping
  // into the column's dictionary (empty when that is the identity).
  std::vector<LocalDictionary> dicts;
  std::vector<std::vector<uint32_t>> remap;

  Cell* column(size_t c) { return cells.get() + c * num_records; }
};

// Splits a morsel's records and gathers its type evidence, marking null
// cells on the way. `declared[c]` is the declared type of column c, or
// kNull for an inferred column.
void SplitAndClassify(std::string_view text, const std::vector<size_t>& starts,
                      const bool* stop, char delim, const NullTokens& nulls,
                      const std::vector<DataType>& declared, Morsel* m) {
  const size_t ncols = declared.size();
  const size_t begin = starts[m->first_record];
  const size_t end = starts[m->first_record + m->num_records];
  const std::string_view span = text.substr(begin, end - begin);
  char* arena = nullptr;
  if (span.find('"') != std::string_view::npos ||
      span.find('\r') != std::string_view::npos) {
    m->arena.reset(new char[span.size()]);
    arena = m->arena.get();
  }
  m->cells.reset(new Cell[ncols * m->num_records]);
  Cell* const cells = m->cells.get();
  const size_t stride = m->num_records;
  size_t row = 0;
  for (size_t i = 0; i < m->num_records; ++i) {
    const size_t record = m->first_record + i;
    const size_t fields = SplitRecord(
        RecordBytes(text, starts, record, delim), stop, delim, &arena,
        [&](size_t c, std::string_view cell) {
          if (c < ncols) cells[c * stride + row] = {cell.data(), cell.size()};
        });
    if (fields == 1 && cells[row].size == 0) continue;  // a blank line
    if (fields != ncols) {
      m->bad_record = record;
      m->bad_fields = fields;
      return;
    }
    ++row;
  }
  m->rows = row;

  m->evidence.resize(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    Evidence& ev = m->evidence[c];
    Cell* col = m->column(c);
    for (size_t r = 0; r < m->rows; ++r) {
      const std::string_view s = col[r].view();
      if (nulls.Matches(s)) {
        col[r].data = nullptr;
        continue;
      }
      ev.any_value = true;
      if (declared[c] != DataType::kNull) {
        if (ev.first_bad == kNone && !CellParsesAs(declared[c], s)) {
          ev.first_bad = r;
        }
        continue;
      }
      int64_t iv;
      double dv;
      bool bv;
      if (ev.all_int) {
        // An integer is also a number, and never a bool.
        if (ParseInt64(s, &iv)) {
          ev.all_bool = false;
          continue;
        }
        ev.all_int = false;
      }
      if (ev.all_num && !ParseDouble(s, &dv)) ev.all_num = false;
      if (ev.all_bool && !ParseBoolToken(s, &bv)) ev.all_bool = false;
    }
  }
}

// One column's runs, each morsel writing its own row slice.
struct ColumnRuns {
  ColumnRuns(DataType type, size_t rows) : type(type), valid(rows) {
    switch (type) {
      case DataType::kInt64:
        ints.resize(rows);
        break;
      case DataType::kDouble:
        doubles.resize(rows);
        break;
      case DataType::kBool:
        bools.resize(rows);
        break;
      default:
        codes.resize(rows);
        break;
    }
  }

  // The owned column over the runs; a string column's `dict` is set.
  Column Finish() && {
    switch (type) {
      case DataType::kInt64:
        return Column::FromInts(std::move(ints), std::move(valid));
      case DataType::kDouble:
        return Column::FromDoubles(std::move(doubles), std::move(valid));
      case DataType::kBool:
        return Column::FromBools(std::move(bools), std::move(valid));
      default:
        return Column::FromCodes(std::move(dict), std::move(codes),
                                 std::move(valid));
    }
  }

  DataType type;
  std::vector<uint8_t> valid;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<uint8_t> bools;
  std::vector<uint32_t> codes;
  std::shared_ptr<StringDictionary> dict;
};

// Converts a morsel's cells of every column into its row slice of the
// column runs. String cells get codes into the morsel's own dictionaries,
// and a null cell interns "" where it occurs, as AppendNull does.
void Convert(Morsel* m, std::vector<ColumnRuns>* runs) {
  m->dicts.resize(runs->size());
  for (size_t c = 0; c < runs->size(); ++c) {
    const Cell* col = m->column(c);
    ColumnRuns& out = (*runs)[c];
    uint8_t* valid = out.valid.data() + m->first_row;
    for (size_t r = 0; r < m->rows; ++r) valid[r] = col[r].data != nullptr;
    switch (out.type) {
      case DataType::kInt64: {
        int64_t* dst = out.ints.data() + m->first_row;
        for (size_t r = 0; r < m->rows; ++r) {
          if (valid[r]) ParseInt64(col[r].view(), &dst[r]);
        }
        break;
      }
      case DataType::kDouble: {
        double* dst = out.doubles.data() + m->first_row;
        for (size_t r = 0; r < m->rows; ++r) {
          if (valid[r]) ParseDouble(col[r].view(), &dst[r]);
        }
        break;
      }
      case DataType::kBool: {
        uint8_t* dst = out.bools.data() + m->first_row;
        for (size_t r = 0; r < m->rows; ++r) {
          bool v = false;
          if (valid[r]) ParseBoolToken(col[r].view(), &v);
          dst[r] = v;
        }
        break;
      }
      case DataType::kString: {
        uint32_t* dst = out.codes.data() + m->first_row;
        LocalDictionary& dict = m->dicts[c];
        for (size_t r = 0; r < m->rows; ++r) {
          dst[r] = dict.Intern(valid[r] ? col[r].view() : std::string_view());
        }
        break;
      }
      case DataType::kNull:
        break;
    }
  }
}

// Column-level checks on the header and the declared types. Reported only
// after every structural error, as the row-major reader did.
Status CheckDeclaredTypes(const std::vector<std::string>& header,
                          const CsvReadOptions& options) {
  for (const auto& [name, type] : options.declared_types) {
    if (std::find(header.begin(), header.end(), name) == header.end()) {
      return Status::InvalidArgument("declared type for unknown CSV column '" +
                                     name + "'");
    }
    if (type != DataType::kInt64 && type != DataType::kDouble &&
        type != DataType::kBool && type != DataType::kString) {
      return Status::InvalidArgument("column '" + name +
                                     "' declared with unsupported type " +
                                     DataTypeName(type));
    }
  }
  return Status::OK();
}

}  // namespace

Result<Table> ReadCsvString(const std::string& text,
                            const CsvReadOptions& options) {
  if (!options.has_header) {
    return Status::NotImplemented("CSV without header is not supported");
  }
  if (text.empty()) return Status::InvalidArgument("empty CSV input");

  // 1. Record boundaries (serial), then the header.
  bool open_quote = false;
  const std::vector<size_t> starts =
      RecordStarts(text, options.delimiter, &open_quote);
  const size_t num_records = starts.size() - 1;
  if (open_quote && num_records == 1) {
    return Status::InvalidArgument("unterminated quoted field in CSV header");
  }
  bool stop[256] = {};
  stop[static_cast<unsigned char>(options.delimiter)] = true;
  stop[static_cast<unsigned char>('"')] = true;
  stop[static_cast<unsigned char>('\r')] = true;
  std::vector<std::string> header;
  {
    const std::string_view record =
        RecordBytes(text, starts, 0, options.delimiter);
    std::string scratch(record.size(), '\0');
    char* arena = scratch.data();
    SplitRecord(record, stop, options.delimiter, &arena,
                [&](size_t, std::string_view cell) {
                  header.emplace_back(cell);
                });
  }
  const size_t ncols = header.size();
  std::vector<DataType> declared(ncols, DataType::kNull);
  const Status declared_ok = CheckDeclaredTypes(header, options);
  if (declared_ok.ok()) {
    for (size_t c = 0; c < ncols; ++c) {
      auto it = options.declared_types.find(header[c]);
      if (it != options.declared_types.end()) declared[c] = it->second;
    }
  }

  // 2. Morsel-parallel split and type evidence. An unterminated final
  // record is not split: it is an error unless an earlier record is.
  const size_t first_data = 1;  // record 0 is the header
  const size_t end_data = num_records - (open_quote ? 1 : 0);
  const size_t num_data = end_data - first_data;
  std::vector<Morsel> morsels((num_data + kCsvMorselRecords - 1) /
                              kCsvMorselRecords);
  for (size_t i = 0; i < morsels.size(); ++i) {
    morsels[i].first_record = first_data + i * kCsvMorselRecords;
    morsels[i].num_records =
        std::min(kCsvMorselRecords, end_data - morsels[i].first_record);
  }
  const NullTokens nulls(options.null_tokens);
  ParallelFor(0, morsels.size(), [&](size_t i) {
    SplitAndClassify(text, starts, stop, options.delimiter, nulls, declared,
                     &morsels[i]);
  });

  // 3. Errors in file order, then the schema.
  for (const Morsel& m : morsels) {
    if (m.bad_record == kNone) continue;
    return Status::InvalidArgument(
        "CSV record at byte " + std::to_string(starts[m.bad_record]) +
        " has " + std::to_string(m.bad_fields) + " fields, expected " +
        std::to_string(ncols));
  }
  if (open_quote) {
    return Status::InvalidArgument(
        "unterminated quoted field in CSV record at byte " +
        std::to_string(starts[end_data]));
  }
  MESA_RETURN_IF_ERROR(declared_ok);
  size_t nrows = 0;
  for (Morsel& m : morsels) {
    m.first_row = nrows;
    nrows += m.rows;
  }
  Schema schema;
  std::vector<DataType> types(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    if (declared[c] != DataType::kNull) {
      for (Morsel& m : morsels) {
        const size_t r = m.evidence[c].first_bad;
        if (r == kNone) continue;
        return Status::InvalidArgument(
            "cell '" + std::string(m.column(c)[r].view()) + "' in column '" +
            header[c] + "' (data row " + std::to_string(m.first_row + r + 1) +
            ") does not parse as declared type " + DataTypeName(declared[c]));
      }
      types[c] = declared[c];
    } else {
      Evidence all;
      for (const Morsel& m : morsels) {
        const Evidence& ev = m.evidence[c];
        all.any_value = all.any_value || ev.any_value;
        all.all_int = all.all_int && ev.all_int;
        all.all_num = all.all_num && ev.all_num;
        all.all_bool = all.all_bool && ev.all_bool;
      }
      // An all-null column degrades to string.
      types[c] = !all.any_value ? DataType::kString
                 : all.all_int  ? DataType::kInt64
                 : all.all_num  ? DataType::kDouble
                 : all.all_bool ? DataType::kBool
                                : DataType::kString;
    }
    MESA_RETURN_IF_ERROR(schema.AddField({header[c], types[c]}));
  }

  // 4. Morsel-parallel conversion into each column's row slices.
  std::vector<ColumnRuns> runs;
  runs.reserve(ncols);
  for (size_t c = 0; c < ncols; ++c) runs.emplace_back(types[c], nrows);
  ParallelFor(0, morsels.size(),
              [&](size_t i) { Convert(&morsels[i], &runs); });

  // 5. Each string column's dictionary: the morsels' dictionaries merged
  // in morsel order, which is first-appearance order over the whole file.
  // Then the morsels' codes are remapped into it.
  std::vector<size_t> string_cols;
  for (size_t c = 0; c < ncols; ++c) {
    if (types[c] == DataType::kString) string_cols.push_back(c);
  }
  for (Morsel& m : morsels) m.remap.resize(ncols);
  ParallelFor(0, string_cols.size(), [&](size_t i) {
    const size_t c = string_cols[i];
    auto dict = std::make_shared<StringDictionary>();
    for (Morsel& m : morsels) {
      const std::vector<std::string_view>& entries = m.dicts[c].entries();
      std::vector<uint32_t>& remap = m.remap[c];
      remap.resize(entries.size());
      bool identity = true;
      for (uint32_t code = 0; code < entries.size(); ++code) {
        remap[code] = dict->Intern(entries[code]);
        identity = identity && remap[code] == code;
      }
      if (identity) remap.clear();
    }
    runs[c].dict = std::move(dict);
  });
  ParallelFor(0, morsels.size(), [&](size_t i) {
    const Morsel& m = morsels[i];
    for (size_t c : string_cols) {
      const std::vector<uint32_t>& remap = m.remap[c];
      if (remap.empty()) continue;
      uint32_t* codes = runs[c].codes.data() + m.first_row;
      for (size_t r = 0; r < m.rows; ++r) codes[r] = remap[codes[r]];
    }
  });

  std::vector<Column> columns;
  columns.reserve(ncols);
  for (ColumnRuns& run : runs) columns.push_back(std::move(run).Finish());
  return Table::Make(std::move(schema), std::move(columns));
}

Result<Table> ReadCsvFile(const std::string& path,
                          const CsvReadOptions& options) {
  MESA_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  return ReadCsvString(text, options);
}

namespace {

std::string EscapeCell(const std::string& cell, char delim) {
  bool needs_quotes = cell.find(delim) != std::string::npos ||
                      cell.find('"') != std::string::npos ||
                      cell.find('\n') != std::string::npos ||
                      cell.find('\r') != std::string::npos;
  if (!needs_quotes) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string WriteCsvString(const Table& table, char delimiter) {
  std::string out;
  const auto& schema = table.schema();
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    if (c > 0) out += delimiter;
    out += EscapeCell(schema.field(c).name, delimiter);
  }
  out += '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += delimiter;
      const Column& col = table.column(c);
      if (col.IsNull(r)) continue;  // empty cell
      out += EscapeCell(col.GetValue(r).ToString(), delimiter);
    }
    out += '\n';
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    char delimiter) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << WriteCsvString(table, delimiter);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace mesa
