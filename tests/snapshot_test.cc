// Tests for the binary snapshot container (src/snapshot/,
// docs/snapshot_format.md):
//
//  - a seeded round-trip property suite: 20 random tables (every type,
//    null-heavy, all-null, empty) plus KGs must come back value- and
//    fingerprint-identical, and re-serializing must be byte-identical
//    (the writer is deterministic);
//  - hostile-input suites: truncation at every byte boundary, bad magic,
//    future version, flipped payload bytes, misaligned section offsets,
//    and out-of-bounds dictionary codes must all yield a clean error
//    Status — never a crash — with checksum verification on AND off;
//  - serving parity: a Router over a NAME=file.msnap dataset must reply
//    byte-identically to a Router over the CSV + KG the snapshot was
//    built from, at 1, 2, and 8 pool threads.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/retry.h"
#include "core/mesa.h"
#include "core/report_format.h"
#include "datagen/registry.h"
#include "kg/serialization.h"
#include "missing/imputation.h"
#include "serve/json.h"
#include "serve/router.h"
#include "snapshot/crc32c.h"
#include "snapshot/format.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "table/csv.h"

namespace mesa {
namespace snapshot {
namespace {

// std::string storage has no alignment guarantee; FromBuffer requires an
// 8-aligned base, so tests stage images in a u64-backed holder.
struct AlignedImage {
  explicit AlignedImage(const std::string& bytes)
      : words((bytes.size() + 7) / 8, 0), size(bytes.size()) {
    // An empty image has no buffer to copy (words.data() may be null).
    if (!bytes.empty()) std::memcpy(words.data(), bytes.data(), bytes.size());
  }
  const uint8_t* data() const {
    return reinterpret_cast<const uint8_t*>(words.data());
  }
  std::string ToString() const {
    return std::string(reinterpret_cast<const char*>(words.data()), size);
  }
  std::vector<uint64_t> words;
  size_t size;
};

Result<SnapshotReader> OpenImage(const std::shared_ptr<AlignedImage>& image,
                                 const SnapshotReadOptions& options = {}) {
  return SnapshotReader::FromBuffer(image->data(), image->size, image,
                                    options);
}

// A random table exercising every column type and null pattern. Seed 0
// is the empty table (columns, no rows); every seed gets one all-null
// column.
Table MakeRandomTable(uint64_t seed) {
  Rng rng(MixSeed(0xA11CE, seed));
  const size_t rows = seed == 0 ? 0 : rng.NextBelow(60) + 1;
  const char* words[] = {"", "alpha", "beta", "gamma", "delta", "épsilon"};

  Column doubles(DataType::kDouble);
  Column ints(DataType::kInt64);
  Column strings(DataType::kString);
  Column bools(DataType::kBool);
  Column all_null(DataType::kDouble);
  for (size_t row = 0; row < rows; ++row) {
    if (rng.NextBernoulli(0.2)) {
      doubles.AppendNull();
    } else {
      doubles.AppendDouble(rng.NextGaussian());
    }
    if (rng.NextBernoulli(0.2)) {
      ints.AppendNull();
    } else {
      ints.AppendInt(rng.NextInt(-1000, 1000));
    }
    if (rng.NextBernoulli(0.2)) {
      strings.AppendNull();
    } else {
      strings.AppendString(words[rng.NextBelow(6)]);
    }
    if (rng.NextBernoulli(0.2)) {
      bools.AppendNull();
    } else {
      bools.AppendBool(rng.NextBernoulli(0.5));
    }
    all_null.AppendNull();
  }

  auto table = Table::Make(
      Schema({{"d", DataType::kDouble},
              {"i", DataType::kInt64},
              {"s", DataType::kString},
              {"b", DataType::kBool},
              {"dead", DataType::kDouble}}),
      {std::move(doubles), std::move(ints), std::move(strings),
       std::move(bools), std::move(all_null)});
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return std::move(*table);
}

// A random KG exercising every literal type, edges, and (possibly
// ambiguous) aliases.
TripleStore MakeKg(uint64_t seed) {
  Rng rng(MixSeed(0xBEEF, seed));
  TripleStore kg;
  const size_t entities = rng.NextBelow(20) + 2;
  for (size_t i = 0; i < entities; ++i) {
    auto id = kg.AddEntity("entity-" + std::to_string(i),
                           i % 2 == 0 ? "Even" : "Odd");
    EXPECT_TRUE(id.ok());
    if (rng.NextBernoulli(0.5)) {
      // "shared" is deliberately ambiguous across entities.
      EXPECT_TRUE(kg.AddAlias(*id, "shared").ok());
    }
    if (rng.NextBernoulli(0.3)) {
      EXPECT_TRUE(kg.AddAlias(*id, "alias-" + std::to_string(i)).ok());
    }
  }
  const size_t triples = rng.NextBelow(60) + 5;
  for (size_t i = 0; i < triples; ++i) {
    EntityId subject = static_cast<EntityId>(rng.NextBelow(entities));
    switch (rng.NextBelow(6)) {
      case 0:
        EXPECT_TRUE(kg.AddLiteral(subject, "weight",
                                  Value::Double(rng.NextGaussian()))
                        .ok());
        break;
      case 1:
        EXPECT_TRUE(
            kg.AddLiteral(subject, "rank", Value::Int(rng.NextInt(0, 99)))
                .ok());
        break;
      case 2:
        EXPECT_TRUE(kg.AddLiteral(subject, "flag",
                                  Value::Bool(rng.NextBernoulli(0.5)))
                        .ok());
        break;
      case 3:
        EXPECT_TRUE(
            kg.AddLiteral(subject, "note",
                          Value::String("n" + std::to_string(rng.NextBelow(9))))
                .ok());
        break;
      case 4:
        EXPECT_TRUE(kg.AddLiteral(subject, "missing", Value::Null()).ok());
        break;
      default:
        EXPECT_TRUE(
            kg.AddEdge(subject, "linked_to",
                       static_cast<EntityId>(rng.NextBelow(entities)))
                .ok());
        break;
    }
  }
  return kg;
}

std::string MustSerialize(const Table& table, const TripleStore* kg,
                          std::vector<std::string> extraction = {}) {
  SnapshotWriter writer;
  writer.SetTable(&table);
  if (kg != nullptr) writer.SetKg(kg);
  writer.SetExtractionColumns(std::move(extraction));
  auto bytes = writer.Serialize();
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return std::move(*bytes);
}

void ExpectTablesEqual(const Table& expected, const Table& actual) {
  ASSERT_EQ(expected.num_rows(), actual.num_rows());
  ASSERT_EQ(expected.num_columns(), actual.num_columns());
  EXPECT_TRUE(expected.schema() == actual.schema())
      << expected.schema().ToString() << " vs " << actual.schema().ToString();
  for (size_t c = 0; c < expected.num_columns(); ++c) {
    const Column& want = expected.column(c);
    const Column& got = actual.column(c);
    EXPECT_EQ(want.null_count(), got.null_count());
    EXPECT_EQ(want.ContentFingerprint(), got.ContentFingerprint())
        << "column " << expected.schema().field(c).name;
    for (size_t row = 0; row < expected.num_rows(); ++row) {
      EXPECT_TRUE(want.GetValue(row) == got.GetValue(row))
          << "column " << c << " row " << row;
    }
  }
}

TEST(SnapshotRoundTrip, TwentySeededDatasets) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Table table = MakeRandomTable(seed);
    TripleStore kg = MakeKg(seed);
    const bool with_kg = seed % 3 != 2;  // every shape: with and without KG.
    std::string bytes =
        MustSerialize(table, with_kg ? &kg : nullptr,
                      with_kg ? std::vector<std::string>{"a", "b"}
                              : std::vector<std::string>{});
    auto image = std::make_shared<AlignedImage>(bytes);
    auto reader = OpenImage(image);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    ASSERT_EQ(with_kg, reader->has_kg());

    auto loaded = reader->ReadTable();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectTablesEqual(table, *loaded);

    if (with_kg) {
      auto loaded_kg = reader->ReadKg();
      ASSERT_TRUE(loaded_kg.ok()) << loaded_kg.status().ToString();
      // The text serialization is a canonical rendering (ids, aliases,
      // triples in insertion order), so string equality is KG equality.
      EXPECT_EQ(WriteKgString(kg), WriteKgString(**loaded_kg));
      EXPECT_EQ(reader->extraction_columns(),
                (std::vector<std::string>{"a", "b"}));
    }

    // Determinism: the same bundle re-serialized (from the borrowed
    // table!) is byte-identical.
    auto reloaded_kg =
        with_kg ? *reader->ReadKg() : std::shared_ptr<TripleStore>();
    EXPECT_EQ(bytes,
              MustSerialize(*loaded, reloaded_kg.get(),
                            with_kg ? std::vector<std::string>{"a", "b"}
                                    : std::vector<std::string>{}));
  }
}

TEST(SnapshotRoundTrip, BorrowedColumnsDetachOnWrite) {
  Table table = MakeRandomTable(7);
  std::string bytes = MustSerialize(table, nullptr);
  auto image = std::make_shared<AlignedImage>(bytes);
  auto reader = OpenImage(image);
  ASSERT_TRUE(reader.ok());
  auto loaded = reader->ReadTable();
  ASSERT_TRUE(loaded.ok());

  Column& column = loaded->mutable_column(0);
  ASSERT_TRUE(column.is_borrowed());
  const size_t rows = column.size();
  ASSERT_GT(rows, 0u);
  ASSERT_TRUE(column.Set(0, Value::Double(42.0)).ok());
  EXPECT_FALSE(column.is_borrowed());
  EXPECT_EQ(42.0, column.DoubleAt(0));
  // The mutation detached a private copy; the mapping (and a second read
  // of the same snapshot) is untouched.
  auto again = reader->ReadTable();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->column(0).is_borrowed());
  EXPECT_TRUE(table.column(0).GetValue(0) == again->column(0).GetValue(0));
}

TEST(SnapshotRoundTrip, TableOnlySnapshotHasNoKg) {
  Table table = MakeRandomTable(3);
  std::string bytes = MustSerialize(table, nullptr);
  auto image = std::make_shared<AlignedImage>(bytes);
  auto reader = OpenImage(image);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader->has_kg());
  auto kg = reader->ReadKg();
  EXPECT_FALSE(kg.ok());
  EXPECT_EQ(StatusCode::kNotFound, kg.status().code());
}

TEST(SnapshotRoundTrip, FileRoundTrip) {
  Table table = MakeRandomTable(11);
  TripleStore kg = MakeKg(11);
  SnapshotWriter writer;
  writer.SetTable(&table);
  writer.SetKg(&kg);
  writer.SetExtractionColumns({"x"});
  const std::string path = testing::TempDir() + "/snapshot_test." +
                           std::to_string(::getpid()) + ".msnap";
  ASSERT_TRUE(writer.WriteFile(path).ok());

  auto reader = SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto loaded = reader->ReadTable();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectTablesEqual(table, *loaded);
  auto loaded_kg = reader->ReadKg();
  ASSERT_TRUE(loaded_kg.ok());
  EXPECT_EQ(WriteKgString(kg), WriteKgString(**loaded_kg));

  // The zero-copy views must outlive the reader: drop it, then read.
  Table survives = std::move(*loaded);
  reader = Status::InvalidArgument("dropped");
  uint64_t fingerprint_sum = 0;
  for (size_t c = 0; c < survives.num_columns(); ++c) {
    fingerprint_sum += survives.column(c).ContentFingerprint();
  }
  EXPECT_NE(0u, fingerprint_sum);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// String-column representation contract: one dictionary-coded form, shared
// dictionaries, content-only fingerprints, unchanged snapshot bytes.

constexpr char kContractCsv[] =
    "name,city,score,count,flag\n"
    "ann,Berlin,1.5,3,true\n"
    "bob,,2.25,,false\n"
    "\"O'Neil\",Paris,-0.5,7,\n"
    "cat,Berlin,,2,true\n"
    "\"a, b\",Paris,3.0,-1,false\n"
    "ann,,0.0,3,true\n";

// The string-column fingerprint written out from its definition: type,
// length, validity bytes, then every row's string (nulls read as "") in
// row order.
uint64_t StringFingerprintByDefinition(const std::vector<const char*>& rows) {
  uint64_t h = MixSeed(static_cast<uint64_t>(DataType::kString), rows.size());
  std::vector<uint8_t> valid;
  for (const char* s : rows) valid.push_back(s != nullptr ? 1 : 0);
  h = MixSeed(h, StableHash64Bytes(valid.data(), valid.size()));
  for (const char* s : rows) {
    const std::string value = s != nullptr ? s : "";
    h = MixSeed(h, StableHash64Bytes(value.data(), value.size()));
  }
  return h;
}

Table BorrowedCopy(const Table& table, std::shared_ptr<AlignedImage>* image) {
  *image = std::make_shared<AlignedImage>(MustSerialize(table, nullptr));
  auto reader = OpenImage(*image);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  auto loaded = reader->ReadTable();
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::move(*loaded);
}

TEST(StringColumnContract, FingerprintIsContentOnlyAcrossStorageForms) {
  const Table csv = *ReadCsvString(kContractCsv);
  const uint64_t want = StringFingerprintByDefinition(
      {"Berlin", nullptr, "Paris", "Berlin", "Paris", nullptr});
  const Column& built = *csv.ColumnByName("city").value();
  EXPECT_EQ(want, built.ContentFingerprint());

  std::shared_ptr<AlignedImage> image;
  const Table borrowed_table = BorrowedCopy(csv, &image);
  const Column& borrowed = *borrowed_table.ColumnByName("city").value();
  ASSERT_TRUE(borrowed.is_borrowed());
  EXPECT_EQ(want, borrowed.ContentFingerprint());

  std::vector<size_t> all = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(want, built.Take(all).ContentFingerprint());
  EXPECT_EQ(want, borrowed.Take(all).ContentFingerprint());
  EXPECT_EQ(want, built.TakeOrNull({0, 1, 2, 3, 4, 5}, {0, 1, 2, 3, 4, 5})
                      .ContentFingerprint());

  // Per-row appends build yet another dictionary order.
  Column appended(DataType::kString);
  for (size_t r : {0, 1, 2, 3, 4, 5}) {
    ASSERT_TRUE(appended.Append(built.GetValue(r)).ok());
  }
  EXPECT_EQ(want, appended.ContentFingerprint());

  // Unmatched join rows gather as nulls that read as "".
  const uint64_t with_unmatched =
      StringFingerprintByDefinition({"Paris", nullptr, "Berlin"});
  const Column no_nulls = Column::FromStrings({"Berlin", "Paris"});
  EXPECT_EQ(with_unmatched,
            no_nulls.TakeOrNull({1, -1, 0}, {0, 1, 2}).ContentFingerprint());
}

TEST(StringColumnContract, CsvLoadedSnapshotBytesAreUnchanged) {
  // Size and CRC-32C of the snapshot this CSV serialized to before string
  // columns were dictionary-coded in memory.
  const Table csv = *ReadCsvString(kContractCsv);
  const std::string bytes = MustSerialize(csv, nullptr);
  EXPECT_EQ(1144u, bytes.size());
  EXPECT_EQ(0x97ac0c05u, Crc32c(bytes.data(), bytes.size()));
  // Re-serializing the borrowed load gives the same bytes.
  std::shared_ptr<AlignedImage> image;
  EXPECT_EQ(bytes, MustSerialize(BorrowedCopy(csv, &image), nullptr));
}

TEST(StringColumnContract, MutatingASharedDictionaryLeavesTheSourceAlone) {
  const Table csv = *ReadCsvString(kContractCsv);
  std::shared_ptr<AlignedImage> image;
  const Table borrowed_table = BorrowedCopy(csv, &image);
  for (const Table* source_table : {&csv, &borrowed_table}) {
    const Column& source = *source_table->ColumnByName("city").value();
    const uint64_t fingerprint = source.ContentFingerprint();
    const size_t dict_size = source.dictionary().size();

    Column taken = source.Take({0, 1, 2, 3, 4, 5});
    ASSERT_TRUE(taken.Set(0, Value::String("Rome")).ok());  // new entry
    ASSERT_TRUE(taken.Set(1, Value::String("Paris")).ok());
    taken.SetNull(2);
    EXPECT_EQ("Rome", taken.StringAt(0));
    EXPECT_EQ("Paris", taken.StringAt(1));
    EXPECT_TRUE(taken.IsNull(2));
    // A nulled row reads as "", like a freshly built null.
    EXPECT_EQ("", taken.StringAt(2));

    Column copy = source;
    copy.AppendString("Madrid");

    EXPECT_EQ(fingerprint, source.ContentFingerprint());
    EXPECT_EQ(dict_size, source.dictionary().size());
    EXPECT_EQ("Berlin", source.StringAt(0));
    EXPECT_TRUE(source.IsNull(1));
    EXPECT_EQ("Paris", source.StringAt(2));

    // Imputation edits a context copy in place; the source table keeps
    // its nulls.
    Table context = source_table->TakeRows({0, 1, 2, 3, 4, 5});
    auto imputed = ImputeColumn(&context, "city",
                                ImputationStrategy::kMeanOrMode);
    ASSERT_TRUE(imputed.ok()) << imputed.status().ToString();
    EXPECT_EQ(2u, *imputed);
    EXPECT_EQ(2u, source.null_count());
    EXPECT_EQ(fingerprint, source.ContentFingerprint());
  }
}

// ---------------------------------------------------------------------------
// Hostile inputs. Every mutation below must produce a clean error Status
// (run under ASan/UBSan in CI — see .github/workflows/ci.yml).

class SnapshotHostileTest : public testing::Test {
 protected:
  void SetUp() override {
    table_ = MakeRandomTable(5);
    kg_ = MakeKg(5);
    bytes_ = MustSerialize(table_, &kg_, {"a"});
  }

  // Opens a mutated image with checksums on or off; the table and KG are
  // also read so section-level validation runs, not just the envelope.
  static Status TryLoad(const std::string& bytes, bool verify) {
    auto image = std::make_shared<AlignedImage>(bytes);
    SnapshotReadOptions options;
    options.verify_checksums = verify;
    auto reader = OpenImage(image, options);
    if (!reader.ok()) return reader.status();
    auto table = reader->ReadTable();
    if (!table.ok()) return table.status();
    if (reader->has_kg()) {
      auto kg = reader->ReadKg();
      if (!kg.ok()) return kg.status();
    }
    return Status::OK();
  }

  Footer ReadFooter() const {
    Footer footer;
    std::memcpy(&footer, bytes_.data() + bytes_.size() - sizeof(Footer),
                sizeof(Footer));
    return footer;
  }

  std::vector<SectionEntry> ReadSections(const Footer& footer) const {
    std::vector<SectionEntry> sections(footer.section_count);
    std::memcpy(sections.data(), bytes_.data() + footer.section_table_offset,
                footer.section_count * sizeof(SectionEntry));
    return sections;
  }

  // Writes back a section entry and refreshes the table CRC in the
  // footer, so envelope checks pass and the mutation under test is the
  // first thing the reader can object to.
  void PatchSection(std::string* bytes, const Footer& footer, size_t index,
                    const SectionEntry& entry) const {
    std::memcpy(bytes->data() + footer.section_table_offset +
                    index * sizeof(SectionEntry),
                &entry, sizeof(entry));
    const uint32_t table_crc =
        Crc32c(bytes->data() + footer.section_table_offset,
               footer.section_count * sizeof(SectionEntry));
    const size_t crc_offset = bytes->size() - sizeof(Footer) +
                              offsetof(Footer, section_table_crc32c);
    std::memcpy(bytes->data() + crc_offset, &table_crc, sizeof(table_crc));
  }

  Table table_;
  TripleStore kg_;
  std::string bytes_;
};

TEST_F(SnapshotHostileTest, TruncationAtEveryLength) {
  // Every proper prefix must fail cleanly; only the full image loads.
  // Stride 1 over the whole file keeps the sweep honest (the file is a
  // few KB) without making the test slow.
  ASSERT_TRUE(TryLoad(bytes_, /*verify=*/true).ok());
  for (size_t len = 0; len < bytes_.size(); ++len) {
    Status status = TryLoad(bytes_.substr(0, len), /*verify=*/true);
    ASSERT_FALSE(status.ok()) << "truncation to " << len << " bytes loaded";
  }
}

TEST_F(SnapshotHostileTest, BadMagic) {
  std::string bytes = bytes_;
  bytes[0] ^= 0x5A;
  Status status = TryLoad(bytes, /*verify=*/true);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(std::string::npos, status.message().find("magic"))
      << status.ToString();
}

TEST_F(SnapshotHostileTest, FutureVersionIsRejected) {
  std::string bytes = bytes_;
  const uint32_t future = kVersion + 1;
  std::memcpy(bytes.data() + offsetof(Header, version), &future,
              sizeof(future));
  Status status = TryLoad(bytes, /*verify=*/true);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(std::string::npos, status.message().find("version"))
      << status.ToString();
}

TEST_F(SnapshotHostileTest, FlippedPayloadByteFailsChecksum) {
  const Footer footer = ReadFooter();
  const std::vector<SectionEntry> sections = ReadSections(footer);
  // Flip the first byte of every non-empty section payload in turn.
  for (const SectionEntry& entry : sections) {
    if (entry.size == 0) continue;
    std::string bytes = bytes_;
    bytes[entry.offset] ^= 0xFF;
    Status status = TryLoad(bytes, /*verify=*/true);
    ASSERT_FALSE(status.ok()) << "flip in section kind " << entry.kind;
    EXPECT_NE(std::string::npos, status.message().find("checksum"))
        << status.ToString();
  }
}

TEST_F(SnapshotHostileTest, MisalignedSectionOffset) {
  const Footer footer = ReadFooter();
  std::vector<SectionEntry> sections = ReadSections(footer);
  std::string bytes = bytes_;
  SectionEntry entry = sections[0];
  entry.offset += 4;  // breaks the 8-alignment invariant.
  PatchSection(&bytes, footer, 0, entry);
  for (bool verify : {true, false}) {
    Status status = TryLoad(bytes, verify);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(std::string::npos, status.message().find("aligned"))
        << status.ToString();
  }
}

TEST_F(SnapshotHostileTest, SectionBeyondFileBounds) {
  const Footer footer = ReadFooter();
  std::vector<SectionEntry> sections = ReadSections(footer);
  std::string bytes = bytes_;
  SectionEntry entry = sections[0];
  entry.size = bytes.size() * 2;
  PatchSection(&bytes, footer, 0, entry);
  for (bool verify : {true, false}) {
    Status status = TryLoad(bytes, verify);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(std::string::npos, status.message().find("bounds"))
        << status.ToString();
  }
}

TEST_F(SnapshotHostileTest, OutOfBoundsDictionaryCode) {
  const Footer footer = ReadFooter();
  const std::vector<SectionEntry> sections = ReadSections(footer);
  // Find the string column's code array and point its first code past
  // the dictionary. With verification off, the unconditional structural
  // gate must still catch it before any borrowed view is formed.
  bool found = false;
  for (const SectionEntry& entry : sections) {
    if (entry.kind != static_cast<uint32_t>(SectionKind::kColumnDictCodes) ||
        entry.size < sizeof(uint32_t)) {
      continue;
    }
    found = true;
    std::string bytes = bytes_;
    const uint32_t huge = 0x7FFFFFFF;
    std::memcpy(bytes.data() + entry.offset, &huge, sizeof(huge));
    Status status = TryLoad(bytes, /*verify=*/false);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(std::string::npos, status.message().find("code out of range"))
        << status.ToString();
    // With verification on, the checksum trips first — either way, a
    // clean error.
    EXPECT_FALSE(TryLoad(bytes, /*verify=*/true).ok());
  }
  ASSERT_TRUE(found) << "test table lost its string column";
}

// Column 1 ("city") of the contract CSV codes [0, 1, 2, 0, 2, 1] into
// {"Berlin", "", "Paris"}; row 1 is null.
TEST_F(SnapshotHostileTest, NullRowNotCodingTheEmptyString) {
  bytes_ = MustSerialize(*ReadCsvString(kContractCsv), nullptr);
  bool found = false;
  for (const SectionEntry& entry : ReadSections(ReadFooter())) {
    if (entry.kind != static_cast<uint32_t>(SectionKind::kColumnDictCodes) ||
        entry.arg != 1) {
      continue;
    }
    found = true;
    std::string bytes = bytes_;
    const uint32_t berlin = 0;
    std::memcpy(bytes.data() + entry.offset + sizeof(uint32_t), &berlin,
                sizeof(berlin));
    Status status = TryLoad(bytes, /*verify=*/false);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(std::string::npos,
              status.message().find("does not code the empty string"))
        << status.ToString();
  }
  ASSERT_TRUE(found);
}

// Column 0 ("name") has the dictionary {ann, bob, O'Neil, cat, "a, b"};
// spelling "bob" as "ann" makes two entries equal.
TEST_F(SnapshotHostileTest, DuplicateDictionaryEntries) {
  bytes_ = MustSerialize(*ReadCsvString(kContractCsv), nullptr);
  bool found = false;
  for (const SectionEntry& entry : ReadSections(ReadFooter())) {
    if (entry.kind != static_cast<uint32_t>(SectionKind::kColumnDict) ||
        entry.arg != 0) {
      continue;
    }
    std::string bytes = bytes_;
    const size_t at = bytes.find("bob", entry.offset);
    ASSERT_LT(at, entry.offset + entry.size);
    found = true;
    std::memcpy(bytes.data() + at, "ann", 3);
    Status status = TryLoad(bytes, /*verify=*/false);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(std::string::npos, status.message().find("duplicate entries"))
        << status.ToString();
  }
  ASSERT_TRUE(found);
}

TEST_F(SnapshotHostileTest, GarbageFiles) {
  Rng rng(99);
  for (size_t trial = 0; trial < 50; ++trial) {
    std::string garbage(rng.NextBelow(4096), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.NextBelow(256));
    EXPECT_FALSE(TryLoad(garbage, /*verify=*/true).ok());
  }
  EXPECT_FALSE(TryLoad(std::string(), /*verify=*/true).ok());
  EXPECT_FALSE(TryLoad(std::string(4096, '\0'), /*verify=*/true).ok());
}

TEST_F(SnapshotHostileTest, MissingFileIsCleanError) {
  auto reader = SnapshotReader::Open("/nonexistent/path/to.msnap");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(StatusCode::kIOError, reader.status().code());
}

// ---------------------------------------------------------------------------
// Zero copy through preprocessing: attaching the KG attributes to a
// snapshot-loaded base table leaves every base column borrowed from the
// mapping, and the report matches the CSV-loaded dataset's byte for byte.

TEST(SnapshotZeroCopy, PreprocessKeepsBaseColumnsBorrowed) {
  GenOptions gen;
  gen.rows = 1500;
  auto dataset = MakeDataset(DatasetKind::kCovid, gen);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  auto image = std::make_shared<AlignedImage>(MustSerialize(
      dataset->table, dataset->kg.get(), dataset->extraction_columns));
  auto reader = OpenImage(image);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto table = reader->ReadTable();
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  auto kg = reader->ReadKg();
  ASSERT_TRUE(kg.ok()) << kg.status().ToString();
  const size_t base_columns = table->num_columns();

  Mesa snap(std::move(*table), kg->get(), dataset->extraction_columns);
  ASSERT_TRUE(snap.Preprocess().ok());
  auto augmented = snap.augmented_table();
  ASSERT_TRUE(augmented.ok());
  ASSERT_GT((*augmented)->num_columns(), base_columns);
  for (size_t c = 0; c < base_columns; ++c) {
    EXPECT_TRUE((*augmented)->column(c).is_borrowed())
        << (*augmented)->schema().field(c).name;
  }

  auto csv_table = ReadCsvString(WriteCsvString(dataset->table));
  ASSERT_TRUE(csv_table.ok()) << csv_table.status().ToString();
  Mesa csv(std::move(*csv_table), dataset->kg.get(),
           dataset->extraction_columns);
  const std::string sql =
      "SELECT Country, avg(Deaths_per_100_cases) FROM covid GROUP BY Country";
  auto snap_report = snap.ExplainSql(sql);
  auto csv_report = csv.ExplainSql(sql);
  ASSERT_TRUE(snap_report.ok()) << snap_report.status().ToString();
  ASSERT_TRUE(csv_report.ok()) << csv_report.status().ToString();
  EXPECT_EQ(FormatReport(*csv_report), FormatReport(*snap_report));
}

// ---------------------------------------------------------------------------
// CRC-32C: the RFC 3720 §B.4 vectors on every path, and the hardware path
// against the table path (the one other CPUs run) byte for byte.

using CrcFn = uint32_t (*)(uint32_t, const void*, size_t);

std::vector<std::pair<std::string, CrcFn>> CrcPaths() {
  std::vector<std::pair<std::string, CrcFn>> paths = {
      {"table", &Crc32cExtendTable}, {"dispatched", &Crc32cExtend}};
#if defined(__x86_64__)
  if (Crc32cHardwareSupported()) {
    paths.emplace_back("hardware", &Crc32cExtendHardware);
  }
#endif
  return paths;
}

std::vector<uint8_t> SeededBytes(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextBelow(256));
  return bytes;
}

// The hardware path exists on x86-64 builds and runs where the CPU has
// SSE4.2; elsewhere these cases skip and say why.
#if defined(__x86_64__)
#define MESA_REQUIRE_HARDWARE_CRC()                                       \
  if (!Crc32cHardwareSupported()) {                                       \
    GTEST_SKIP() << "CPU lacks SSE4.2: hardware CRC-32C path not tested"; \
  }
#else
#define MESA_REQUIRE_HARDWARE_CRC() \
  GTEST_SKIP() << "not an x86-64 build: no hardware CRC-32C path"
#endif

TEST(Crc32cOracle, Rfc3720Vectors) {
  const std::vector<uint8_t> zeros(32, 0x00);
  const std::vector<uint8_t> ones(32, 0xFF);
  const std::string digits = "123456789";
  for (const auto& [name, crc] : CrcPaths()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(0x8A9136AAu, crc(0, zeros.data(), zeros.size()));
    EXPECT_EQ(0x62A8AB43u, crc(0, ones.data(), ones.size()));
    EXPECT_EQ(0xE3069283u, crc(0, digits.data(), digits.size()));
  }
  EXPECT_EQ(0xE3069283u, Crc32c(digits.data(), digits.size()));
}

TEST(Crc32cOracle, HardwareMatchesTableAtEveryLengthAndOffset) {
  MESA_REQUIRE_HARDWARE_CRC();
#if defined(__x86_64__)
  const std::vector<uint8_t> bytes = SeededBytes(0xC3C, 257 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 257; ++len) {
      const uint8_t* p = bytes.data() + offset;
      for (uint32_t seed : {0u, 0xDEADBEEFu}) {
        ASSERT_EQ(Crc32cExtendTable(seed, p, len),
                  Crc32cExtendHardware(seed, p, len))
            << "offset " << offset << " len " << len << " seed " << seed;
      }
    }
  }
#endif
}

TEST(Crc32cOracle, HardwareMatchesTableOnMultiMegabyteBuffer) {
  MESA_REQUIRE_HARDWARE_CRC();
#if defined(__x86_64__)
  const std::vector<uint8_t> bytes = SeededBytes(0x5EED, (3 << 20) + 5);
  EXPECT_EQ(Crc32cExtendTable(0, bytes.data(), bytes.size()),
            Crc32cExtendHardware(0, bytes.data(), bytes.size()));
  EXPECT_EQ(Crc32cExtendTable(0, bytes.data() + 3, bytes.size() - 3),
            Crc32c(bytes.data() + 3, bytes.size() - 3));
#endif
}

TEST(Crc32cOracle, ExtendChainsAcrossSplitPoints) {
  const std::vector<uint8_t> bytes = SeededBytes(0xA5A5, 4099);
  const uint32_t whole = Crc32cExtendTable(0, bytes.data(), bytes.size());
  const auto paths = CrcPaths();
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                       size_t{63}, size_t{64}, size_t{1001}, size_t{4096},
                       bytes.size()}) {
    // Every pair of paths: the state one path leaves is the state the
    // other continues from.
    for (const auto& [first_name, first] : paths) {
      for (const auto& [second_name, second] : paths) {
        const uint32_t head = first(0, bytes.data(), split);
        EXPECT_EQ(whole, second(head, bytes.data() + split,
                                bytes.size() - split))
            << "split " << split << ": " << first_name << " then "
            << second_name;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Serving parity: NAME=file.msnap must answer byte-identically to the
// CSV + KG it was built from, across the thread-count sweep.

TEST(SnapshotServeParity, RepliesMatchCsvAcrossThreadCounts) {
  GenOptions gen;
  gen.rows = 1500;
  auto dataset = MakeDataset(DatasetKind::kCovid, gen);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

  const std::string tag = std::to_string(::getpid());
  const std::string csv = testing::TempDir() + "/snap_parity." + tag + ".csv";
  const std::string kg = testing::TempDir() + "/snap_parity." + tag + ".kg";
  const std::string snap =
      testing::TempDir() + "/snap_parity." + tag + ".msnap";
  ASSERT_TRUE(WriteCsvFile(dataset->table, csv).ok());
  ASSERT_TRUE(WriteKgFile(*dataset->kg, kg).ok());
  SnapshotWriter writer;
  writer.SetTable(&dataset->table);
  writer.SetKg(dataset->kg.get());
  writer.SetExtractionColumns(dataset->extraction_columns);
  ASSERT_TRUE(writer.WriteFile(snap).ok());

  const std::vector<std::string> requests = {
      R"({"verb":"explain","dataset":"covid","sql":)"
      R"("SELECT Country, avg(Deaths_per_100_cases) FROM covid GROUP BY Country"})",
      R"({"verb":"explain","dataset":"covid","sql":)"
      R"("SELECT WHO_Region, avg(Confirmed_per_100k) FROM covid GROUP BY WHO_Region"})",
  };

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SetNumThreads(threads);

    serve::Router csv_router{serve::RouterOptions{}};
    serve::Router::DatasetSpec csv_spec;
    csv_spec.name = "covid";
    csv_spec.csv_path = csv;
    csv_spec.kg_path = kg;
    csv_spec.extraction_columns = dataset->extraction_columns;
    ASSERT_TRUE(csv_router.AddDataset(csv_spec).ok());

    serve::Router snap_router{serve::RouterOptions{}};
    serve::Router::DatasetSpec snap_spec;
    snap_spec.name = "covid";
    snap_spec.snapshot_path = snap;
    ASSERT_TRUE(snap_router.AddDataset(snap_spec).ok());

    for (const std::string& request : requests) {
      auto csv_reply =
          serve::JsonValue::Parse(csv_router.Handle(request).reply_line);
      auto snap_reply =
          serve::JsonValue::Parse(snap_router.Handle(request).reply_line);
      ASSERT_TRUE(csv_reply.ok() && snap_reply.ok());
      EXPECT_TRUE(csv_reply->GetBool("ok")) << csv_reply->GetString("error");
      EXPECT_EQ(csv_reply->GetBool("ok"), snap_reply->GetBool("ok"));
      // The report is the full formatted explanation; byte equality here
      // is the acceptance bar (trace ids legitimately differ).
      EXPECT_EQ(csv_reply->GetString("report"),
                snap_reply->GetString("report"));
      EXPECT_EQ(csv_reply->GetString("code"), snap_reply->GetString("code"));
    }
  }
  SetNumThreads(1);  // leave a predictable pool for other tests.

  std::remove(csv.c_str());
  std::remove(kg.c_str());
  std::remove(snap.c_str());
}

}  // namespace
}  // namespace snapshot
}  // namespace mesa
