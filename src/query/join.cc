#include "query/join.h"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace mesa {

namespace {

// Morsel size for the build/probe scans; thread-count independent so the
// decomposition (and with it the output row order) never changes.
constexpr size_t kJoinMorselRows = 2048;
// Below this row count a scan runs on one lane: the pool hand-off costs
// more than the scan.
constexpr size_t kJoinParallelThreshold = 4096;
constexpr size_t kPartitions = 64;  // power of two

// Lane cap for a scan over `rows` rows (0 = the whole pool).
size_t JoinLanes(size_t rows) {
  return rows < kJoinParallelThreshold ? 1 : 0;
}

// Radix partition of a key value. A pure function of the value, so a key
// lands in the same partition no matter which thread hashes it.
size_t KeyPartition(const Value& v) {
  return MixSeed(0x9E3779B97F4A7C15ULL,
                 static_cast<uint64_t>(ValueHash{}(v))) &
         (kPartitions - 1);
}

// The build side: right key -> first row holding it, radix-partitioned on
// the key hash so construction proceeds partition-parallel. The partition
// of a key is a pure function of its value, so the finished structure —
// and which duplicate row wins — is identical at any thread count.
struct JoinIndex {
  std::array<std::unordered_map<Value, size_t, ValueHash>, kPartitions> parts;
  size_t duplicate_keys = 0;

  // Row holding `key`, or -1 if absent.
  int64_t Find(const Value& key) const {
    const auto& part = parts[KeyPartition(key)];
    auto it = part.find(key);
    return it == part.end() ? -1 : static_cast<int64_t>(it->second);
  }
};

// Builds the index over `rkey`. Null keys are skipped; if a key occurs on
// several rows the first occurrence wins.
void BuildIndex(const Column& rkey, JoinIndex* index) {
  const size_t n = rkey.size();
  const size_t lanes = JoinLanes(n);
  // Phase 1 — morsel scan: bucket each non-null key row by partition,
  // preserving row order within a morsel.
  struct MorselBuckets {
    std::array<std::vector<uint32_t>, kPartitions> rows;
  };
  const size_t num_morsels = (n + kJoinMorselRows - 1) / kJoinMorselRows;
  std::vector<MorselBuckets> morsels(num_morsels);
  ParallelFor(
      0, num_morsels,
      [&](size_t m) {
        CancelCheckpoint();
        MorselBuckets& mb = morsels[m];
        const size_t lo = m * kJoinMorselRows;
        const size_t hi = std::min(n, lo + kJoinMorselRows);
        for (size_t r = lo; r < hi; ++r) {
          if (rkey.IsNull(r)) continue;
          mb.rows[KeyPartition(rkey.GetValue(r))].push_back(
              static_cast<uint32_t>(r));
        }
      },
      lanes);

  // Phase 2 — per-partition insert. Walking morsels in order feeds each
  // partition its rows in global row order, so "first occurrence wins"
  // resolves by row order.
  std::array<size_t, kPartitions> dup_counts{};
  ParallelFor(
      0, kPartitions,
      [&](size_t p) {
        CancelCheckpoint();
        auto& part = index->parts[p];
        for (const MorselBuckets& mb : morsels) {
          for (uint32_t r : mb.rows[p]) {
            if (!part.emplace(rkey.GetValue(r), r).second) ++dup_counts[p];
          }
        }
      },
      lanes);
  for (size_t d : dup_counts) index->duplicate_keys += d;
}

}  // namespace

Result<Table> HashJoin(const Table& left, const std::string& left_key,
                       const Table& right, const std::string& right_key,
                       const JoinOptions& options) {
  MESA_SPAN("query/join");
  MESA_COUNT("query/hash_joins");
  MESA_ASSIGN_OR_RETURN(const Column* rkey, right.ColumnByName(right_key));
  MESA_ASSIGN_OR_RETURN(const Column* lkey, left.ColumnByName(left_key));

  JoinIndex index;
  BuildIndex(*rkey, &index);
  if (index.duplicate_keys > 0) {
    MESA_LOG(Warning) << "HashJoin: " << index.duplicate_keys
                      << " duplicate right-side keys ignored";
  }

  // Probe: per-morsel match buffers, concatenated in morsel index order —
  // byte-for-byte the row order of a front-to-back probe.
  struct MorselMatches {
    std::vector<size_t> left_rows;
    std::vector<int64_t> right_rows;  // -1 = unmatched (left join)
  };
  const size_t n = left.num_rows();
  const size_t lanes = JoinLanes(n);
  const size_t num_morsels = (n + kJoinMorselRows - 1) / kJoinMorselRows;
  std::vector<MorselMatches> morsels(num_morsels);
  ParallelFor(
      0, num_morsels,
      [&](size_t m) {
        CancelCheckpoint();
        MorselMatches& mm = morsels[m];
        const size_t lo = m * kJoinMorselRows;
        const size_t hi = std::min(n, lo + kJoinMorselRows);
        for (size_t r = lo; r < hi; ++r) {
          int64_t match =
              lkey->IsNull(r) ? -1 : index.Find(lkey->GetValue(r));
          if (match < 0 && options.type == JoinType::kInner) continue;
          mm.left_rows.push_back(r);
          mm.right_rows.push_back(match);
        }
      },
      lanes);
  // Concatenate the per-morsel buffers in morsel order via prefix offsets:
  // every morsel knows its destination, so the copies run in parallel and
  // the row order is exactly the front-to-back probe's.
  std::vector<size_t> offsets(num_morsels + 1, 0);
  for (size_t m = 0; m < num_morsels; ++m) {
    offsets[m + 1] = offsets[m] + morsels[m].left_rows.size();
  }
  std::vector<size_t> left_rows(offsets.back());
  std::vector<int64_t> right_rows(offsets.back());
  ParallelFor(
      0, num_morsels,
      [&](size_t m) {
        const MorselMatches& mm = morsels[m];
        std::copy(mm.left_rows.begin(), mm.left_rows.end(),
                  left_rows.begin() + offsets[m]);
        std::copy(mm.right_rows.begin(), mm.right_rows.end(),
                  right_rows.begin() + offsets[m]);
      },
      lanes);

  // Assemble output: all left columns, then right columns minus its key.
  // Output names (collision handling included) are resolved serially first;
  // the per-column gathers are independent, so they run in parallel.
  Table out = left.TakeRows(left_rows);
  std::vector<std::pair<size_t, std::string>> kept;  // right col idx, name
  for (size_t c = 0; c < right.num_columns(); ++c) {
    const Field& f = right.schema().field(c);
    if (f.name == right_key) continue;
    std::string name = f.name;
    if (out.schema().Contains(name)) name = options.collision_prefix + name;
    if (out.schema().Contains(name)) {
      return Status::AlreadyExists("column collision even after prefix: " +
                                   name);
    }
    for (const auto& [idx, taken] : kept) {
      (void)idx;
      if (taken == name) {
        return Status::AlreadyExists("column collision even after prefix: " +
                                     name);
      }
    }
    kept.emplace_back(c, std::move(name));
  }

  // Unmatched rows (index -1) gather as nulls. The per-column gathers are
  // independent, and each is itself morsel-parallel for large outputs.
  std::vector<Column> gathered;
  gathered.reserve(kept.size());
  for (const auto& [c, name] : kept) {
    (void)name;
    gathered.emplace_back(right.schema().field(c).type);
  }
  auto gather = [&](size_t k) {
    CancelCheckpoint();
    gathered[k] = right.column(kept[k].first).TakeOrNull(right_rows);
  };
  ParallelFor(0, kept.size(), gather, JoinLanes(right_rows.size()));
  for (size_t k = 0; k < kept.size(); ++k) {
    const Field& f = right.schema().field(kept[k].first);
    MESA_RETURN_IF_ERROR(
        out.AddColumn({kept[k].second, f.type}, std::move(gathered[k])));
  }
  return out;
}

}  // namespace mesa
