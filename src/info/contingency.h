#ifndef MESA_INFO_CONTINGENCY_H_
#define MESA_INFO_CONTINGENCY_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/result.h"

namespace mesa {

/// Lazily computed, memoized 64-bit content fingerprint of a
/// CodedVariable (see CodedVariable::fingerprint()). Copying or moving a
/// variable resets the cached value — the fresh object recomputes on
/// first use — so a copy-then-mutate sequence (MaskTo and friends) can
/// never serve a stale fingerprint. In-place mutation of `codes` after
/// the fingerprint has been read must call
/// CodedVariable::InvalidateFingerprint() (the permutation CI test's
/// scratch variable is the one site that does this).
class CodedFingerprint {
 public:
  CodedFingerprint() = default;
  CodedFingerprint(const CodedFingerprint&) {}
  CodedFingerprint(CodedFingerprint&&) noexcept {}
  CodedFingerprint& operator=(const CodedFingerprint&) {
    value_.store(0, std::memory_order_relaxed);
    return *this;
  }
  CodedFingerprint& operator=(CodedFingerprint&&) noexcept {
    value_.store(0, std::memory_order_relaxed);
    return *this;
  }

  uint64_t Load() const { return value_.load(std::memory_order_relaxed); }
  void Store(uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  // 0 means "not computed yet". Relaxed atomics: racing threads compute
  // the same pure value, and either store wins.
  std::atomic<uint64_t> value_{0};
};

/// A discrete variable over n rows: per-row code in [0, cardinality) or -1
/// for missing. All information-theoretic estimators operate on coded
/// variables; the discretizer produces them from table columns.
struct CodedVariable {
  std::vector<int32_t> codes;
  int32_t cardinality = 0;
  /// Cached content hash; see fingerprint().
  mutable CodedFingerprint fp{};

  size_t size() const { return codes.size(); }

  /// 64-bit content fingerprint over (codes, cardinality), computed on
  /// first use and memoized. The sufficient-statistics cache
  /// (src/info/info_cache.h) keys every memoized entropy/MI/CMI result
  /// and joint count cube on these fingerprints, so repeated estimator
  /// calls over the same content cost one hash lookup instead of a row
  /// scan. Do not mutate `codes` in place after calling this without
  /// calling InvalidateFingerprint() (copies and moves reset themselves).
  uint64_t fingerprint() const;

  /// Forgets the memoized fingerprint. Required after in-place mutation
  /// of `codes` on an object whose fingerprint may have been read.
  void InvalidateFingerprint() const { fp.Reset(); }
};

/// Combines two coded variables into one whose codes identify the observed
/// (a, b) pairs. A row missing in either input is missing in the output.
/// Codes are assigned densely in order of first appearance, so cardinality
/// equals the number of distinct observed pairs (never the full product —
/// this keeps repeated combination overflow-free).
CodedVariable CombinePair(const CodedVariable& a, const CodedVariable& b);

/// Folds CombinePair over a list. An empty list yields the constant
/// variable (cardinality 1, all codes 0) over `n` rows — the neutral
/// conditioning set.
CodedVariable CombineAll(const std::vector<const CodedVariable*>& vars,
                         size_t n);

/// The constant (cardinality 1, all codes 0, nothing missing) variable
/// over `n` rows — the neutral conditioning set. Shared by every caller
/// that conditions "on nothing" (base CMI, online pruning, HypDB's
/// marginal tests) so the intent is greppable and the allocation pattern
/// uniform.
CodedVariable ConstantCode(size_t n);

/// Per-code total weight (count when `weights` is null). Rows with code -1
/// are skipped. Returns a vector of length `cardinality` plus the total in
/// `*total`.
std::vector<double> WeightedCounts(const CodedVariable& x,
                                   const std::vector<double>* weights,
                                   double* total);

}  // namespace mesa

#endif  // MESA_INFO_CONTINGENCY_H_
