// Reference oracle for the CSV reader. A naive row-major reader — split
// every record into std::strings, infer each column by parsing every cell
// with strtoll/strtod, then append the table cell by cell — is compared
// with ReadCsvString at 1, 2, 4 and 8 threads on seeded, generated inputs.
// Equal means equal types, null counts, fingerprints, dictionary entry
// order, validity bytes and payload bits; or, for a damaged input, the
// same Status code and message. ParseInt64 / ParseDouble, whose fast paths
// the reader leans on, are checked against strtoll / strtod directly.
//
// Built into the ASan target next to csv_hostile_test, and run under TSan
// at MESA_NUM_THREADS=8 in CI (docs/sanitizers.md).

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "table/csv.h"

namespace mesa {
namespace {

// ---------------------------------------------------------------------------
// The reference reader.

bool StrtollInt64(std::string_view s, int64_t* out) {
  s = StripWhitespace(s);
  if (s.empty()) return false;
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE || end != buf.c_str() + buf.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool StrtodDouble(std::string_view s, double* out) {
  s = StripWhitespace(s);
  if (s.empty()) return false;
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

std::vector<std::string> RefParseRecord(const std::string& text, size_t* pos,
                                        char delim, bool* unterminated) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  size_t i = *pos;
  for (; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delim) {
      fields.push_back(std::move(cur));
      cur.clear();
    } else if (c == '\n') {
      ++i;
      break;
    } else if (c != '\r') {
      cur += c;
    }
  }
  fields.push_back(std::move(cur));
  *pos = i;
  *unterminated = in_quotes;
  return fields;
}

bool RefIsNull(const std::string& cell, const CsvReadOptions& options) {
  for (const auto& t : options.null_tokens) {
    if (EqualsIgnoreCase(cell, t)) return true;
  }
  return false;
}

bool RefBool(const std::string& cell, bool* out) {
  if (EqualsIgnoreCase(cell, "true")) return *out = true, true;
  if (EqualsIgnoreCase(cell, "false")) return *out = false, true;
  return false;
}

Result<Table> ReferenceRead(const std::string& text,
                            const CsvReadOptions& options) {
  size_t pos = 0;
  if (text.empty()) return Status::InvalidArgument("empty CSV input");
  bool unterminated = false;
  std::vector<std::string> header =
      RefParseRecord(text, &pos, options.delimiter, &unterminated);
  if (unterminated) {
    return Status::InvalidArgument("unterminated quoted field in CSV header");
  }
  std::vector<std::vector<std::string>> cells;
  while (pos < text.size()) {
    size_t before = pos;
    std::vector<std::string> rec =
        RefParseRecord(text, &pos, options.delimiter, &unterminated);
    if (unterminated) {
      return Status::InvalidArgument(
          "unterminated quoted field in CSV record at byte " +
          std::to_string(before));
    }
    if (rec.size() == 1 && rec[0].empty()) continue;
    if (rec.size() != header.size()) {
      return Status::InvalidArgument(
          "CSV record at byte " + std::to_string(before) + " has " +
          std::to_string(rec.size()) + " fields, expected " +
          std::to_string(header.size()));
    }
    cells.push_back(std::move(rec));
  }
  const size_t ncols = header.size();
  const size_t nrows = cells.size();
  for (const auto& [name, type] : options.declared_types) {
    bool found = false;
    for (const auto& h : header) found = found || h == name;
    if (!found) {
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
  Schema schema;
  std::vector<DataType> types(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    int64_t iv;
    double dv;
    bool bv;
    auto declared = options.declared_types.find(header[c]);
    if (declared != options.declared_types.end()) {
      const DataType t = declared->second;
      for (size_t r = 0; r < nrows; ++r) {
        const std::string& cell = cells[r][c];
        if (RefIsNull(cell, options)) continue;
        const bool ok = t == DataType::kString ||
                        (t == DataType::kInt64 && StrtollInt64(cell, &iv)) ||
                        (t == DataType::kDouble && StrtodDouble(cell, &dv)) ||
                        (t == DataType::kBool && RefBool(cell, &bv));
        if (!ok) {
          return Status::InvalidArgument(
              "cell '" + cell + "' in column '" + header[c] + "' (data row " +
              std::to_string(r + 1) + ") does not parse as declared type " +
              DataTypeName(t));
        }
      }
      types[c] = t;
    } else {
      bool all_int = true, all_num = true, all_bool = true, any = false;
      for (size_t r = 0; r < nrows; ++r) {
        const std::string& cell = cells[r][c];
        if (RefIsNull(cell, options)) continue;
        any = true;
        all_int = all_int && StrtollInt64(cell, &iv);
        all_num = all_num && StrtodDouble(cell, &dv);
        all_bool = all_bool && RefBool(cell, &bv);
      }
      types[c] = !any       ? DataType::kString
                 : all_int  ? DataType::kInt64
                 : all_num  ? DataType::kDouble
                 : all_bool ? DataType::kBool
                            : DataType::kString;
    }
    MESA_RETURN_IF_ERROR(schema.AddField({header[c], types[c]}));
  }
  std::vector<Column> columns;
  for (size_t c = 0; c < ncols; ++c) columns.emplace_back(types[c]);
  for (size_t r = 0; r < nrows; ++r) {
    for (size_t c = 0; c < ncols; ++c) {
      const std::string& cell = cells[r][c];
      if (RefIsNull(cell, options)) {
        columns[c].AppendNull();
        continue;
      }
      int64_t iv = 0;
      double dv = 0;
      bool bv = false;
      switch (types[c]) {
        case DataType::kInt64:
          StrtollInt64(cell, &iv);
          columns[c].AppendInt(iv);
          break;
        case DataType::kDouble:
          StrtodDouble(cell, &dv);
          columns[c].AppendDouble(dv);
          break;
        case DataType::kBool:
          RefBool(cell, &bv);
          columns[c].AppendBool(bv);
          break;
        default:
          columns[c].AppendString(cell);
          break;
      }
    }
  }
  return Table::Make(std::move(schema), std::move(columns));
}

// ---------------------------------------------------------------------------
// Comparison.

void ExpectSameColumn(const Column& want, const Column& got) {
  ASSERT_EQ(want.type(), got.type());
  ASSERT_EQ(want.size(), got.size());
  EXPECT_EQ(want.null_count(), got.null_count());
  EXPECT_EQ(want.ContentFingerprint(), got.ContentFingerprint());
  const size_t n = want.size();
  if (n == 0) return;
  EXPECT_EQ(0, std::memcmp(want.validity_data(), got.validity_data(), n));
  switch (want.type()) {
    case DataType::kInt64:
      EXPECT_EQ(0, std::memcmp(want.int_data(), got.int_data(), 8 * n));
      break;
    case DataType::kDouble:  // bit for bit
      EXPECT_EQ(0, std::memcmp(want.double_data(), got.double_data(), 8 * n));
      break;
    case DataType::kBool:
      EXPECT_EQ(0, std::memcmp(want.bool_data(), got.bool_data(), n));
      break;
    case DataType::kString: {
      ASSERT_EQ(want.dictionary().size(), got.dictionary().size());
      for (uint32_t code = 0; code < want.dictionary().size(); ++code) {
        ASSERT_EQ(want.dictionary()[code], got.dictionary()[code]) << code;
      }
      EXPECT_EQ(0,
                std::memcmp(want.string_codes(), got.string_codes(), 4 * n));
      break;
    }
    case DataType::kNull:
      break;
  }
}

class CsvOracle : public testing::Test {
 protected:
  void SetUp() override { saved_threads_ = NumThreads(); }
  void TearDown() override { SetNumThreads(saved_threads_); }

  // Returns the reference result after checking the reader against it at
  // every thread count.
  Result<Table> ExpectMatchesReference(const std::string& text,
                                       const CsvReadOptions& options = {}) {
    Result<Table> want = ReferenceRead(text, options);
    for (size_t threads : {1, 2, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      SetNumThreads(threads);
      const Result<Table> got = ReadCsvString(text, options);
      if (!want.ok()) {
        EXPECT_FALSE(got.ok());
        if (got.ok()) continue;
        EXPECT_EQ(want.status().code(), got.status().code());
        EXPECT_EQ(want.status().message(), got.status().message());
        continue;
      }
      EXPECT_TRUE(got.ok()) << got.status().ToString();
      if (!got.ok()) continue;
      EXPECT_EQ(want->num_rows(), got->num_rows());
      EXPECT_EQ(want->num_columns(), got->num_columns());
      if (want->num_columns() != got->num_columns()) continue;
      for (size_t c = 0; c < want->num_columns(); ++c) {
        SCOPED_TRACE("column " + std::to_string(c));
        EXPECT_EQ(want->schema().field(c).name, got->schema().field(c).name);
        ExpectSameColumn(want->column(c), got->column(c));
      }
    }
    return want;
  }

 private:
  size_t saved_threads_ = 1;
};

// ---------------------------------------------------------------------------
// Generated inputs.

enum class Kind {
  kInt,
  kDouble,
  kBool,
  kString,
  kAllNull,
  kSlowInt,      // ints with spellings only strtoll accepts
  kSlowDouble,   // numbers with spellings only strtod accepts
  kLateString,   // numbers until one late cell turns the column to string
};

constexpr Kind kAllKinds[] = {Kind::kInt,     Kind::kDouble,     Kind::kBool,
                              Kind::kString,  Kind::kAllNull,    Kind::kSlowInt,
                              Kind::kSlowDouble, Kind::kLateString};

std::string Pick(Rng& rng, const std::vector<std::string>& options) {
  return options[rng.NextBelow(options.size())];
}

std::string Digits(Rng& rng, size_t n) {
  std::string s;
  for (size_t i = 0; i < n; ++i) {
    s += static_cast<char>('0' + rng.NextBelow(10));
  }
  return s;
}

std::string NullSpelling(Rng& rng) {
  return Pick(rng, {"", "NA", "na", "NULL", "Null", "nULl", "N/A", "n/a",
                    "nan", "NaN", "NAN"});
}

std::string IntSpelling(Rng& rng) {
  switch (rng.NextBelow(5)) {
    case 0:
      return std::to_string(rng.NextInt(-1000, 1000));
    case 1:
      return "-" + Digits(rng, 1 + rng.NextBelow(18));
    case 2:
      return Digits(rng, 1 + rng.NextBelow(19));  // may overflow: then double
    case 3:
      return "00" + Digits(rng, 1 + rng.NextBelow(5));
    default:
      return Pick(rng, {"0", "-0", "9223372036854775807",
                        "-9223372036854775808"});
  }
}

std::string DoubleSpelling(Rng& rng) {
  switch (rng.NextBelow(6)) {
    case 0:
      return IntSpelling(rng);
    case 1:
      return std::string(rng.NextBernoulli(0.3) ? "-" : "") +
             Digits(rng, 1 + rng.NextBelow(8)) + "." +
             Digits(rng, rng.NextBelow(9));
    case 2:  // long mantissas and fractions: past the exact fast path
      return Digits(rng, 1 + rng.NextBelow(12)) + "." +
             Digits(rng, 1 + rng.NextBelow(25));
    case 3:
      return "0.000" + Digits(rng, 1 + rng.NextBelow(20));
    case 4:
      return Pick(rng, {".5", "-.25", "5.", "-0.0", "0.1", "1.7976931348623157",
                        "123456789012345", "1234567890123456"});
    default: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", rng.NextGaussian(0, 1e3));
      return buf;
    }
  }
}

std::string SlowIntSpelling(Rng& rng) {
  return Pick(rng, {" 12", "+5", "7 ", "\t-3", "+0", " +42 "});
}

std::string SlowDoubleSpelling(Rng& rng) {
  return Pick(rng, {"1e5", "inf", "-INF", "Infinity", "0x1p3", "1E+02",
                    "2.5e-3", " 1.5", "+2.25", "9223372036854775808",
                    "1e308", "0X1.8P1"});
}

std::string StringSpelling(Rng& rng, char delim) {
  switch (rng.NextBelow(8)) {
    case 0:
      return std::string("has") + delim + "delim";
    case 1:
      return "say \"hi\"";
    case 2:
      return "two\nlines";
    case 3:
      return "cr\rinside";
    case 4:
      return Pick(rng, {"New York", "nano", "information", "-", ".", "+x",
                        "2021-01-04", "1e", "0x", "true1"});
    default:
      return Pick(rng, {"alpha", "beta", "gamma", "delta", "Paris", "Berlin"}) +
             std::to_string(rng.NextBelow(40));
  }
}

// One cell's CSV spelling: quoted when the value needs it, and sometimes
// quoted, half-quoted or carrying a stray '\r' when it does not.
std::string Spell(Rng& rng, const std::string& value, char delim) {
  const bool needs = value.find(delim) != std::string::npos ||
                     value.find('"') != std::string::npos ||
                     value.find('\n') != std::string::npos ||
                     value.find('\r') != std::string::npos;
  if (!needs && !rng.NextBernoulli(0.05)) {
    if (value.size() > 1 && rng.NextBernoulli(0.02)) {
      return value.substr(0, 1) + "\r" + value.substr(1);  // dropped
    }
    return value;
  }
  std::string quoted;
  for (char c : value) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  if (!value.empty() && rng.NextBernoulli(0.2)) {
    // Unquoted head, quoted tail: ab"c,d" spells abc,d.
    const std::string head = value.substr(0, 1);
    if (head != "\"" && head != "\r" && head != "\n" && head[0] != delim) {
      return head + "\"" + quoted.substr(1) + "\"";
    }
  }
  return "\"" + quoted + "\"";
}

std::string CellValue(Rng& rng, Kind kind, size_t row, size_t rows,
                      char delim) {
  if (kind == Kind::kAllNull || rng.NextBernoulli(0.08)) {
    return NullSpelling(rng);
  }
  switch (kind) {
    case Kind::kInt:
      return std::to_string(rng.NextInt(-100000, 100000));
    case Kind::kDouble:
      return DoubleSpelling(rng);
    case Kind::kBool:
      return Pick(rng, {"true", "false", "TRUE", "False"});
    case Kind::kString:
      return StringSpelling(rng, delim);
    case Kind::kSlowInt:
      return rng.NextBernoulli(0.1) ? SlowIntSpelling(rng)
                                    : std::to_string(rng.NextInt(-50, 50));
    case Kind::kSlowDouble:
      return rng.NextBernoulli(0.1) ? SlowDoubleSpelling(rng)
                                    : DoubleSpelling(rng);
    case Kind::kLateString:
      return row + 1 == rows ? "late" : IntSpelling(rng);
    case Kind::kAllNull:
      break;
  }
  return "";
}

struct GenOptions {
  size_t rows = 0;
  char delim = ',';
  double crlf = 0.3;         // share of records ending in \r\n
  double blank = 0.01;       // share of records followed by a blank line
  bool final_newline = true;
};

std::string GenerateCsv(Rng& rng, const std::vector<Kind>& kinds,
                        const GenOptions& g) {
  std::string out;
  for (size_t c = 0; c < kinds.size(); ++c) {
    if (c > 0) out += g.delim;
    if (c == 1) {
      out += "\"col 1\"";  // a quoted header name
    } else {
      out += 'c';
      out += std::to_string(c);
    }
  }
  out += "\n";
  for (size_t r = 0; r < g.rows; ++r) {
    for (size_t c = 0; c < kinds.size(); ++c) {
      if (c > 0) out += g.delim;
      out += Spell(rng, CellValue(rng, kinds[c], r, g.rows, g.delim), g.delim);
    }
    if (r + 1 < g.rows || g.final_newline) {
      out += rng.NextBernoulli(g.crlf) ? "\r\n" : "\n";
    }
    if (r + 1 < g.rows && rng.NextBernoulli(g.blank)) {
      out += Pick(rng, {"\n", "\r\n", "\"\"\n"});
    }
  }
  return out;
}

std::vector<Kind> RandomKinds(Rng& rng, size_t n) {
  std::vector<Kind> kinds;
  for (Kind k : kAllKinds) kinds.push_back(k);
  while (kinds.size() < n) {
    kinds.push_back(kAllKinds[rng.NextBelow(std::size(kAllKinds))]);
  }
  std::vector<Kind> shuffled;
  for (size_t i : rng.Permutation(kinds.size())) shuffled.push_back(kinds[i]);
  return shuffled;
}

// ---------------------------------------------------------------------------
// Tables.

TEST_F(CsvOracle, HandwrittenCorner) {
  const char* corpus[] = {
      "a\n",
      "a",
      "\n",
      "a\n\n\n",
      "a\n\"\"\n1\n",
      "a,b\r\n1,2\r\n",
      "a,b\n1,2",
      "a,b\n1,2\r",
      "a,b\n\r\n1,2\n",
      "a,b\n\"x\"\"y\",\"1\n2\"\n",
      "a,b\nab\"c,d\"e,f\n",
      "a,b\n\"q\"\"\",\"\r\"\n",
      "a,a\n1,2\n",
      "\"h,1\",h2\n1,2\n",
      "a\nNA\nnull\n\n",
      "x,y\n1,\n,2\n",
      "n\n9223372036854775807\n-9223372036854775808\n",
      "n\n9223372036854775808\n",
      "d\n1e-320\n",
      "d\n 12\n+5\n",
      "d\n1\n2.5\n",
      "b\nTrue\nFALSE\n",
      "b\ntrue\n1\n",
  };
  for (const char* text : corpus) {
    SCOPED_TRACE(testing::PrintToString(std::string(text)));
    ExpectMatchesReference(text);
  }
}

TEST_F(CsvOracle, GeneratedTablesOnBothSidesOfTheMorselSize) {
  const size_t k = kCsvMorselRecords;
  const size_t sizes[] = {0, 1, 9, k - 1, k, k + 1, 2 * k + 3, 5 * k + 11};
  uint64_t seed = 1;
  for (size_t rows : sizes) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    Rng rng(seed++);
    GenOptions g;
    g.rows = rows;
    g.final_newline = rows % 2 == 0;
    const std::string text = GenerateCsv(rng, RandomKinds(rng, 10), g);
    const Result<Table> want = ExpectMatchesReference(text);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
  }
}

TEST_F(CsvOracle, CustomDelimiterAndNullTokens) {
  Rng rng(77);
  GenOptions g;
  g.rows = 2 * kCsvMorselRecords + 5;
  g.delim = ';';
  const std::string text = GenerateCsv(rng, RandomKinds(rng, 9), g);
  CsvReadOptions options;
  options.delimiter = ';';
  ASSERT_TRUE(ExpectMatchesReference(text, options).ok());
  options.null_tokens = {"NA", "missing", "a-long-null-token-spelled-out-in-"
                         "full-to-pass-sixty-four-characters-of-length!"};
  ExpectMatchesReference(text, options);
  options.null_tokens = {};
  ExpectMatchesReference(text, options);

  // Delimiters that collide with the structural characters.
  for (char delim : {'\n', '\r', '"'}) {
    options = {};
    options.delimiter = delim;
    for (const char* text : {"a,b\n1,2\n", "a\"b\n\"1\r2\n", "a\rb\n1\r2\r\n",
                             "\"a\nb\"\nc\n", "\"open\n"}) {
      SCOPED_TRACE(testing::PrintToString(std::string(1, delim) + text));
      ExpectMatchesReference(text, options);
    }
  }

  g.delim = '\t';
  g.rows = 300;
  const std::string tabs = GenerateCsv(rng, RandomKinds(rng, 9), g);
  options = {};
  options.delimiter = '\t';
  ExpectMatchesReference(tabs, options);
}

TEST_F(CsvOracle, FallbackSpellingsDecideTypesInLateMorsels) {
  // Fast-path cells fill the first morsels; the one spelling only the
  // slow parser judges arrives late.
  const std::string late[] = {" 12",    "+5",     "1e5",
                              "inf",    "0x1p3",  "1e-320",
                              "9223372036854775808", "x"};
  for (const std::string& cell : late) {
    SCOPED_TRACE(cell);
    std::string text = "i,d\n";
    for (size_t r = 0; r < 3 * kCsvMorselRecords; ++r) {
      text += std::to_string(r) + "," + std::to_string(r) + ".5\n";
    }
    text += cell + "," + cell + "\n";
    ExpectMatchesReference(text);
  }
}

TEST_F(CsvOracle, DeclaredTypesParseStrictly) {
  Rng rng(5);
  GenOptions g;
  g.rows = kCsvMorselRecords + 9;
  const std::string text = GenerateCsv(
      rng, {Kind::kInt, Kind::kDouble, Kind::kBool, Kind::kSlowInt,
            Kind::kString},
      g);
  CsvReadOptions options;
  options.declared_types = {{"c0", DataType::kDouble},
                            {"col 1", DataType::kDouble},
                            {"c2", DataType::kBool},
                            {"c3", DataType::kInt64},
                            {"c4", DataType::kString}};
  const Result<Table> want = ExpectMatchesReference(text, options);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(DataType::kDouble, want->schema().field(0).type);
}

// ---------------------------------------------------------------------------
// Errors: the same code and message, the first error in file order.

// A header c0..c{cols-1} and `rows` records of distinct integers.
std::string IntRows(size_t rows, size_t cols) {
  std::string text;
  for (size_t c = 0; c < cols; ++c) {
    if (c > 0) text += ',';
    text += 'c';
    text += std::to_string(c);
  }
  text += '\n';
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) text += ',';
      text += std::to_string(r * cols + c);
    }
    text += '\n';
  }
  return text;
}

TEST_F(CsvOracle, RaggedRecordInALateMorsel) {
  // Ragged records in the fourth morsel and in the last one: the earlier
  // is reported, whichever morsel a thread finishes first.
  const size_t k = kCsvMorselRecords;
  std::string text = IntRows(3 * k + 10, 3) + "1,2\n";
  const size_t first_bad = text.size() - 4;
  text += IntRows(2 * k, 3).substr(9) + "3,4,5,6\n" + IntRows(5, 3).substr(9);
  const Result<Table> want = ExpectMatchesReference(text);
  ASSERT_FALSE(want.ok());
  EXPECT_NE(
      want.status().message().find("at byte " + std::to_string(first_bad)),
      std::string::npos);
}

TEST_F(CsvOracle, EarlierRaggedRecordBeatsUnterminatedQuote) {
  std::string text = IntRows(2 * kCsvMorselRecords, 2);
  text += "1,2,3\n";
  text += IntRows(kCsvMorselRecords, 2).substr(6);
  text += "\"open,quote\n4,5\n";
  const Result<Table> want = ExpectMatchesReference(text);
  ASSERT_FALSE(want.ok());
  EXPECT_NE(want.status().message().find("has 3 fields"), std::string::npos);

  // Without the ragged record the open quote is the error.
  std::string open = IntRows(kCsvMorselRecords + 3, 2) + "\"open,quote\n4,5\n";
  const Result<Table> unterminated = ExpectMatchesReference(open);
  ASSERT_FALSE(unterminated.ok());
  EXPECT_NE(unterminated.status().message().find("unterminated"),
            std::string::npos);
}

TEST_F(CsvOracle, LowerDeclaredColumnWinsOverEarlierRow) {
  // Column c2 fails in the first morsel, column c0 only in the last: the
  // lower column index is reported, as the column-at-a-time check did.
  std::string text = IntRows(3 * kCsvMorselRecords, 3);
  const size_t first_row_end = text.find('\n', text.find('\n') + 1);
  text.insert(first_row_end, 1, 'x');  // row 1, column c2
  text += "bad,1,2\n";
  CsvReadOptions options;
  options.declared_types = {{"c0", DataType::kInt64},
                            {"c2", DataType::kInt64}};
  const Result<Table> want = ExpectMatchesReference(text, options);
  ASSERT_FALSE(want.ok());
  EXPECT_NE(want.status().message().find("'bad' in column 'c0'"),
            std::string::npos);
}

TEST_F(CsvOracle, UnknownDeclaredColumn) {
  CsvReadOptions options;
  options.declared_types = {{"nope", DataType::kInt64}};
  const std::string text = IntRows(kCsvMorselRecords + 1, 2);
  ASSERT_FALSE(ExpectMatchesReference(text, options).ok());
  // A structural error anywhere in the file is reported first.
  ASSERT_FALSE(ExpectMatchesReference(text + "1\n", options).ok());
  options.declared_types = {{"c1", DataType::kNull}};
  ASSERT_FALSE(ExpectMatchesReference(text, options).ok());
}

// ---------------------------------------------------------------------------
// ParseInt64 / ParseDouble against strtoll / strtod.

std::string NumberLike(Rng& rng) {
  std::string s;
  switch (rng.NextBelow(10)) {
    case 0:
      s = SlowDoubleSpelling(rng);
      break;
    case 1:
      s = SlowIntSpelling(rng);
      break;
    case 2:
      s = IntSpelling(rng);
      break;
    case 3:
      s = Digits(rng, 1 + rng.NextBelow(30));
      break;
    case 4: {
      s = Digits(rng, rng.NextBelow(20)) + "." + Digits(rng, rng.NextBelow(30));
      break;
    }
    case 5:
      s = Digits(rng, 1 + rng.NextBelow(4)) + Pick(rng, {"e", "E"}) +
          Pick(rng, {"", "-", "+"}) + Digits(rng, 1 + rng.NextBelow(3));
      break;
    case 6:
      s = Pick(rng, {"nan", "NaN", "nan(1)", "inf", "infinity", "INFx",
                     "1e-320", "4.9e-324", "2.2250738585072014e-308",
                     "1e309", "-1e-400", "0x", "0x1p-1074", "", " ", "-",
                     "+", ".", "-.", "..1", "1..", "--1", "+-1", "1-"});
      break;
    default:
      s = DoubleSpelling(rng);
      break;
  }
  // Mutations: signs, whitespace, a stray character.
  if (rng.NextBernoulli(0.1)) s = Pick(rng, {"-", "+", " ", "\t"}) + s;
  if (rng.NextBernoulli(0.05)) s += Pick(rng, {" ", "\n", "x", "."});
  if (!s.empty() && rng.NextBernoulli(0.05)) {
    s[rng.NextBelow(s.size())] = Pick(rng, {"a", ".", "-", " ", "e"})[0];
  }
  return s;
}

TEST(ParseNumbers, FastPathsMatchStrtollAndStrtod) {
  Rng rng(2024);
  for (int i = 0; i < 200000; ++i) {
    const std::string s = NumberLike(rng);
    int64_t want_i = 0, got_i = 0;
    const bool want_int = StrtollInt64(s, &want_i);
    ASSERT_EQ(want_int, ParseInt64(s, &got_i)) << "'" << s << "'";
    if (want_int) {
      ASSERT_EQ(want_i, got_i) << "'" << s << "'";
    }
    double want_d = 0, got_d = 0;
    const bool want_num = StrtodDouble(s, &want_d);
    ASSERT_EQ(want_num, ParseDouble(s, &got_d)) << "'" << s << "'";
    if (want_num) {
      ASSERT_EQ(0, std::memcmp(&want_d, &got_d, sizeof(double)))
          << "'" << s << "': " << want_d << " vs " << got_d;
    }
  }
}

}  // namespace
}  // namespace mesa
