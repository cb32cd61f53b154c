#include "query/join.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"

namespace mesa {

namespace {

// Morsel size for the per-row slot scan; thread-count independent.
constexpr size_t kJoinMorselRows = 2048;
// Below this row count a scan runs on one lane: the pool hand-off costs
// more than the scan.
constexpr size_t kJoinParallelThreshold = 4096;

// Lane cap for a scan over `rows` rows (0 = the whole pool).
size_t JoinLanes(size_t rows) {
  return rows < kJoinParallelThreshold ? 1 : 0;
}

}  // namespace

Result<Table> HashJoin(Table left, const std::string& left_key,
                       const Table& right, const std::string& right_key,
                       const JoinOptions& options) {
  MESA_SPAN("query/join");
  MESA_COUNT("query/hash_joins");
  MESA_ASSIGN_OR_RETURN(const Column* rkey, right.ColumnByName(right_key));
  MESA_ASSIGN_OR_RETURN(const Column* lkey, left.ColumnByName(left_key));
  if (lkey->type() != DataType::kString || rkey->type() != DataType::kString) {
    return Status::InvalidArgument("HashJoin: keys '" + left_key + "' and '" +
                                   right_key + "' must be string columns");
  }

  // Build: the first right row holding each right dictionary code. Null
  // rows code "" as well, so validity, not the code, rules them out.
  const StringDictionary& rdict = rkey->dictionary();
  const uint32_t* rcodes = rkey->string_codes();
  std::vector<int64_t> first_row(rdict.size(), -1);
  size_t duplicate_keys = 0;
  for (size_t r = 0; r < rkey->size(); ++r) {
    if (rkey->IsNull(r)) continue;
    int64_t& first = first_row[rcodes[r]];
    if (first < 0) {
      first = static_cast<int64_t>(r);
    } else {
      ++duplicate_keys;
    }
  }
  if (duplicate_keys > 0) {
    MESA_LOG(Warning) << "HashJoin: " << duplicate_keys
                      << " duplicate right-side keys ignored";
  }

  // Probe: each left dictionary entry is resolved once, to its right row
  // or -1. Slot `null_slot`, one past the last entry, stands for the null
  // left rows and never matches.
  const StringDictionary& ldict = lkey->dictionary();
  const uint32_t null_slot = static_cast<uint32_t>(ldict.size());
  std::vector<int64_t> match(ldict.size() + 1, -1);
  for (uint32_t code = 0; code < null_slot; ++code) {
    const uint32_t rcode = rdict.Find(ldict[code]);
    if (rcode != StringDictionary::kNotFound) match[code] = first_row[rcode];
  }

  // Every left row's slot: its key's code, or the null slot.
  const size_t n = left.num_rows();
  const uint32_t* lcodes = lkey->string_codes();
  const uint8_t* lvalid = lkey->validity_data();
  std::vector<uint32_t> slots(n);
  const size_t num_morsels = (n + kJoinMorselRows - 1) / kJoinMorselRows;
  ParallelFor(
      0, num_morsels,
      [&](size_t m) {
        CancelCheckpoint();
        const size_t lo = m * kJoinMorselRows;
        const size_t hi = std::min(n, lo + kJoinMorselRows);
        for (size_t r = lo; r < hi; ++r) {
          slots[r] = lvalid[r] != 0 ? lcodes[r] : null_slot;
        }
      },
      JoinLanes(n));
  if (options.type == JoinType::kInner) {
    std::vector<size_t> kept_rows;
    std::vector<uint32_t> kept_slots;
    for (size_t r = 0; r < n; ++r) {
      if (match[slots[r]] < 0) continue;
      kept_rows.push_back(r);
      kept_slots.push_back(slots[r]);
    }
    left = left.TakeRows(kept_rows);
    slots = std::move(kept_slots);
  }

  // Output: the left columns as they are, then the right columns minus its
  // key. Names (collision handling included) are resolved serially first.
  std::vector<std::pair<size_t, std::string>> kept;  // right col idx, name
  for (size_t c = 0; c < right.num_columns(); ++c) {
    const Field& f = right.schema().field(c);
    if (f.name == right_key) continue;
    std::string name = f.name;
    if (left.schema().Contains(name)) name = options.collision_prefix + name;
    if (left.schema().Contains(name)) {
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

  // Each right column is gathered once per slot, then expanded through the
  // slots: one lookup per output row, nulls included. The per-column
  // gathers are independent, and each is itself morsel-parallel.
  std::vector<Column> gathered;
  gathered.reserve(kept.size());
  for (const auto& [c, name] : kept) {
    (void)name;
    gathered.emplace_back(right.schema().field(c).type);
  }
  ParallelFor(
      0, kept.size(),
      [&](size_t k) {
        CancelCheckpoint();
        gathered[k] = right.column(kept[k].first).TakeOrNull(match, slots);
      },
      JoinLanes(slots.size()));
  for (size_t k = 0; k < kept.size(); ++k) {
    const Field& f = right.schema().field(kept[k].first);
    MESA_RETURN_IF_ERROR(
        left.AddColumn({kept[k].second, f.type}, std::move(gathered[k])));
  }
  return left;
}

}  // namespace mesa
