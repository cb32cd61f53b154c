#ifndef MESA_STATS_DISCRETIZER_H_
#define MESA_STATS_DISCRETIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "table/table.h"

namespace mesa {

/// Binning strategies for numeric attributes. Information-theoretic
/// estimators need discrete variables, so every column is mapped to integer
/// codes before estimation (the paper bins numeric exposures and candidate
/// attributes the same way).
enum class BinningStrategy {
  /// Bins of equal width over [min, max].
  kEqualWidth,
  /// Bins holding (approximately) equal row counts (quantile binning).
  kEqualFrequency,
};

/// Options controlling discretisation.
struct DiscretizerOptions {
  BinningStrategy strategy = BinningStrategy::kEqualFrequency;
  /// Number of bins for numeric columns. Six keeps the conditional
  /// contingency tables dense enough for plug-in CMI at the entity counts
  /// the evaluation datasets carry (~100 countries / ~40 cities); finer
  /// binning inflates the structural MI between same-entity attributes.
  size_t num_bins = 6;
  /// Numeric columns with at most this many distinct values are treated as
  /// categorical (one code per distinct value) instead of binned. Kept
  /// below typical entity counts so per-entity numeric attributes (one
  /// equity value per airline) are binned rather than turned into entity
  /// identifiers.
  size_t categorical_threshold = 10;
};

/// A discretised column: per-row codes in [0, cardinality), -1 for null.
struct Discretized {
  std::vector<int32_t> codes;
  int32_t cardinality = 0;
  /// Human-readable label per code (bin range or category value).
  std::vector<std::string> labels;
};

/// Discretises one column of a table. String/bool/low-cardinality columns
/// get one code per distinct value (assigned in sorted order for
/// determinism); other numeric columns are binned per `options`. Ints are
/// read as doubles; NaN cells code -1, like nulls.
Result<Discretized> DiscretizeColumn(const Table& table,
                                     const std::string& column,
                                     const DiscretizerOptions& options = {});

/// Discretises a raw numeric vector by the same rules (no nulls
/// represented; NaN entries code -1).
Discretized DiscretizeVector(const std::vector<double>& values,
                             const DiscretizerOptions& options = {});

/// Hit/miss counters of the content-addressed DiscretizeColumn memo (see
/// discretizer.cc). The memo keys on (column content fingerprint, binning
/// spec), so two queries over identical context slices — even of different
/// Table objects — share one discretisation, which in turn makes their
/// CodedVariable fingerprints (and so their info-cache entries) collide.
struct DiscretizerCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
};
DiscretizerCacheStats GetDiscretizerCacheStats();

/// Drops every memoized discretisation (counters are kept). For tests.
void ClearDiscretizerCache();

}  // namespace mesa

#endif  // MESA_STATS_DISCRETIZER_H_
