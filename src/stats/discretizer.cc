#include "stats/discretizer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common/logging.h"
#include "common/lru_cache.h"
#include "common/rng.h"
#include "info/info_cache.h"

namespace mesa {

namespace {

// Content-addressed memo for DiscretizeColumn: key = (column content
// fingerprint, strategy, num_bins, categorical_threshold). Discretisation
// is a pure function of exactly those inputs, so a hit returns the bytes a
// recompute would produce. Shares the info-cache on/off gate — both exist
// to make repeated queries over the same context cheap.
ShardedLruCache<std::shared_ptr<const Discretized>>* DiscretizerCache() {
  static auto* cache =
      new ShardedLruCache<std::shared_ptr<const Discretized>>(uint64_t{4}
                                                              << 20);
  return cache;
}

std::atomic<uint64_t> g_discretizer_hits{0};
std::atomic<uint64_t> g_discretizer_misses{0};

uint64_t DiscretizeKey(const Column& col, const DiscretizerOptions& options) {
  uint64_t h = col.ContentFingerprint();
  h = MixSeed(h, static_cast<uint64_t>(options.strategy) * 2 + 1);
  h = MixSeed(h, options.num_bins);
  h = MixSeed(h, options.categorical_threshold);
  return h;
}

std::string FormatRange(double lo, double hi) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "[%.4g, %.4g)", lo, hi);
  return buf;
}

std::string FormatValue(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// Codes a numeric sequence. Null cells (valid[i] == 0; `valid` may be
// null for "all valid") and NaN cells code -1. At most
// `categorical_threshold` distinct values get one code each in ascending
// order, labelled by each value's first occurrence (so -0.0 and 0.0 share
// a code and the earlier spelling); more are binned per `options`.
Discretized CodeNumeric(const double* values, const uint8_t* valid, size_t n,
                        const DiscretizerOptions& options) {
  // Non-short-circuit `&`: the scans below stay free of data branches.
  auto live = [&](size_t i) -> bool {
    return (valid == nullptr || valid[i] != 0) & !std::isnan(values[i]);
  };
  Discretized out;
  out.codes.resize(n);

  // Low-cardinality probe: a small sorted array, abandoned as soon as it
  // outgrows the threshold.
  std::vector<double> distinct;
  distinct.reserve(options.categorical_threshold + 1);
  for (size_t i = 0; i < n && distinct.size() <= options.categorical_threshold;
       ++i) {
    if (!live(i)) continue;
    const double v = values[i];
    auto it = std::lower_bound(distinct.begin(), distinct.end(), v);
    if (it == distinct.end() || *it != v) distinct.insert(it, v);
  }
  // `edges` holds the ascending split points: a value codes to the number
  // of edges it is not below — std::upper_bound's answer, counted without
  // branches.
  std::vector<double> edges;
  if (distinct.size() <= options.categorical_threshold) {
    for (double v : distinct) out.labels.push_back(FormatValue(v));
    out.cardinality = static_cast<int32_t>(distinct.size());
    edges.assign(distinct.begin() + (distinct.empty() ? 0 : 1),
                 distinct.end());
  } else {
    // Binned. -0.0 is read as 0.0 so every cut point and label is a
    // function of the values alone.
    std::vector<double> present(n);
    size_t m = 0;
    for (size_t i = 0; i < n; ++i) {
      present[m] = values[i] + 0.0;
      m += live(i);
    }
    present.resize(m);
    size_t k = std::max<size_t>(1, options.num_bins);
    auto [mn_it, mx_it] = std::minmax_element(present.begin(), present.end());
    const double mn = *mn_it, mx = *mx_it;
    if (options.strategy == BinningStrategy::kEqualWidth) {
      if (mn == mx) {
        k = 1;
      } else {
        double width = (mx - mn) / static_cast<double>(k);
        for (size_t i = 1; i < k; ++i) edges.push_back(mn + width * i);
      }
    } else {
      // Cut points are the order statistics present[i * m / k], selected
      // in ascending order; duplicates and cuts equal to the minimum (which
      // would open an empty first bin) are dropped.
      size_t done = 0;  // present[0, done) is final below the last pick.
      for (size_t i = 1; i < k; ++i) {
        const size_t idx = i * m / k;
        if (idx >= done) {
          std::nth_element(present.begin() + static_cast<ptrdiff_t>(done),
                           present.begin() + static_cast<ptrdiff_t>(idx),
                           present.end());
          done = idx + 1;
        }
        const double cut = present[idx];
        if (cut != mn && (edges.empty() || cut != edges.back())) {
          edges.push_back(cut);
        }
      }
      k = edges.size() + 1;
    }
    double lo = mn;
    for (size_t i = 0; i < k; ++i) {
      double hi = i + 1 < k ? edges[i] : mx;
      out.labels.push_back(FormatRange(lo, hi));
      lo = hi;
    }
    out.cardinality = static_cast<int32_t>(k);
  }

  for (double e : edges) {
    for (size_t i = 0; i < n; ++i) out.codes[i] += !(values[i] < e);
  }
  for (size_t i = 0; i < n; ++i) out.codes[i] = live(i) ? out.codes[i] : -1;
  return out;
}

// String column: the dictionary entries present in valid rows, sorted,
// give the codes; rows remap through them.
Discretized CodeStrings(const Column& col) {
  const size_t n = col.size();
  const uint8_t* valid = col.validity_data();
  const uint32_t* codes = col.string_codes();
  const StringDictionary& dict = col.dictionary();
  std::vector<int32_t> rank(dict.size(), -1);
  for (size_t r = 0; r < n; ++r) {
    if (valid[r]) rank[codes[r]] = 0;
  }
  std::vector<uint32_t> present;
  for (uint32_t c = 0; c < dict.size(); ++c) {
    if (rank[c] == 0) present.push_back(c);
  }
  std::sort(present.begin(), present.end(),
            [&](uint32_t a, uint32_t b) { return dict[a] < dict[b]; });
  Discretized out;
  for (uint32_t c : present) {
    rank[c] = static_cast<int32_t>(out.labels.size());
    out.labels.push_back(dict[c]);
  }
  out.cardinality = static_cast<int32_t>(present.size());
  out.codes.resize(n);
  for (size_t r = 0; r < n; ++r) out.codes[r] = valid[r] ? rank[codes[r]] : -1;
  return out;
}

// Bool column: false < true, each present value one code.
Discretized CodeBools(const Column& col) {
  const size_t n = col.size();
  const uint8_t* valid = col.validity_data();
  const uint8_t* bits = col.bool_data();
  bool seen[2] = {false, false};
  for (size_t r = 0; r < n; ++r) {
    if (valid[r]) seen[bits[r] != 0] = true;
  }
  Discretized out;
  int32_t code_of[2] = {-1, -1};
  for (int b = 0; b < 2; ++b) {
    if (!seen[b]) continue;
    code_of[b] = static_cast<int32_t>(out.labels.size());
    out.labels.push_back(b ? "true" : "false");
  }
  out.cardinality = static_cast<int32_t>(out.labels.size());
  out.codes.resize(n);
  for (size_t r = 0; r < n; ++r) {
    out.codes[r] = valid[r] ? code_of[bits[r] != 0] : -1;
  }
  return out;
}

Discretized DiscretizeColumnUncached(const Column& col,
                                     const DiscretizerOptions& options) {
  switch (col.type()) {
    case DataType::kString:
      return CodeStrings(col);
    case DataType::kBool:
      return CodeBools(col);
    case DataType::kDouble:
      return CodeNumeric(col.double_data(), col.validity_data(), col.size(),
                         options);
    case DataType::kInt64: {
      std::vector<double> values(col.size());
      const int64_t* ints = col.int_data();
      for (size_t r = 0; r < values.size(); ++r) {
        values[r] = static_cast<double>(ints[r]);
      }
      return CodeNumeric(values.data(), col.validity_data(), col.size(),
                         options);
    }
    case DataType::kNull:
      break;
  }
  return {};
}

}  // namespace

Result<Discretized> DiscretizeColumn(const Table& table,
                                     const std::string& column,
                                     const DiscretizerOptions& options) {
  MESA_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(column));
  const bool use_cache = info_cache::Enabled();
  uint64_t key = 0;
  if (use_cache) {
    key = DiscretizeKey(*col, options);
    std::shared_ptr<const Discretized> hit;
    if (DiscretizerCache()->Lookup(key, &hit)) {
      g_discretizer_hits.fetch_add(1, std::memory_order_relaxed);
      return *hit;
    }
    g_discretizer_misses.fetch_add(1, std::memory_order_relaxed);
  }
  Discretized out = DiscretizeColumnUncached(*col, options);
  if (use_cache) {
    DiscretizerCache()->Insert(key, std::make_shared<const Discretized>(out),
                               out.codes.size() + 1);
  }
  return out;
}

DiscretizerCacheStats GetDiscretizerCacheStats() {
  DiscretizerCacheStats s;
  s.hits = g_discretizer_hits.load(std::memory_order_relaxed);
  s.misses = g_discretizer_misses.load(std::memory_order_relaxed);
  return s;
}

void ClearDiscretizerCache() { DiscretizerCache()->Clear(); }

Discretized DiscretizeVector(const std::vector<double>& values,
                             const DiscretizerOptions& options) {
  return CodeNumeric(values.data(), nullptr, values.size(), options);
}

}  // namespace mesa
