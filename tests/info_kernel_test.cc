// Tests for the MI/CMI kernels (src/info/cmi_kernel.h). MI and CMI are
// checked against a deliberately naive reference estimator (std::map over
// raw rows, summed in long double) on every kernel the key width selects:
// dense, packed and the >64-bit chain-rule fallback, weighted and
// unweighted, cache on and off. The dense arena and the sort-packed
// kernel must also build *bit-identical* cubes (the canonical-cube
// contract), and the packed path must share joint cubes above the 20-bit
// dense limit. Own binary: it resizes the global pool and clears the
// process-wide cache.

#include "info/cmi_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "info/info_cache.h"
#include "info/key_packing.h"
#include "info/mutual_information.h"

namespace mesa {
namespace {

using info_cache::CubeEntry;

// Restores the pool and the cache when a test exits.
struct KernelGuard {
  ~KernelGuard() {
    SetNumThreads(1);
    info_cache::SetEnabled(true);
    info_cache::Clear();
  }
};

CodedVariable RandomCoded(Rng& rng, size_t n, int32_t card,
                          double missing_p) {
  CodedVariable v;
  v.codes.resize(n);
  for (auto& c : v.codes) {
    c = rng.NextBernoulli(missing_p)
            ? -1
            : static_cast<int32_t>(rng.NextBelow(card));
  }
  v.cardinality = card;
  return v;
}

// ------------------------------------------------ naive reference

// Plug-in entropy in bits of a table of weighted counts, with the
// Miller-Madow term (support - 1) / (2 N ln 2) when requested.
template <typename Key>
long double NaiveEntropy(const std::map<Key, long double>& counts,
                         long double total, bool miller_madow) {
  long double h = 0.0L;
  size_t support = 0;
  for (const auto& [key, c] : counts) {
    (void)key;
    if (c <= 0.0L) continue;
    ++support;
    const long double p = c / total;
    h -= p * std::log2(p);
  }
  if (miller_madow && support > 1) {
    h += static_cast<long double>(support - 1) /
         (2.0L * total * std::log(2.0L));
  }
  return h;
}

// I(X;Y|Z) = H(X,Z) + H(Y,Z) - H(X,Y,Z) - H(Z) over rows where all three
// codes are present (and the weight, if any, is positive). A constant `z`
// gives I(X;Y).
double NaiveCmi(const CodedVariable& x, const CodedVariable& y,
                const CodedVariable& z, const std::vector<double>* weights,
                bool miller_madow) {
  std::map<std::tuple<int32_t, int32_t, int32_t>, long double> xyz;
  std::map<std::pair<int32_t, int32_t>, long double> xz, yz;
  std::map<int32_t, long double> zs;
  long double total = 0.0L;
  for (size_t i = 0; i < x.codes.size(); ++i) {
    const int32_t cx = x.codes[i], cy = y.codes[i], cz = z.codes[i];
    if (cx < 0 || cy < 0 || cz < 0) continue;
    const long double w = weights != nullptr ? (*weights)[i] : 1.0L;
    if (w <= 0.0L) continue;
    xyz[{cx, cy, cz}] += w;
    xz[{cx, cz}] += w;
    yz[{cy, cz}] += w;
    zs[cz] += w;
    total += w;
  }
  if (total <= 0.0L) return 0.0;
  const long double cmi = NaiveEntropy(xz, total, miller_madow) +
                          NaiveEntropy(yz, total, miller_madow) -
                          NaiveEntropy(xyz, total, miller_madow) -
                          NaiveEntropy(zs, total, miller_madow);
  return static_cast<double>(std::max(0.0L, cmi));
}

CodedVariable ConstantFor(size_t n) {
  CodedVariable c;
  c.codes.assign(n, 0);
  c.cardinality = 1;
  return c;
}

void ExpectNearReference(double got, double want, const std::string& label) {
  const double tol = 1e-9 * std::max({1.0, std::fabs(got), std::fabs(want)});
  EXPECT_NEAR(got, want, tol) << label;
}

// One seeded case per kernel the key width selects. `declared_card`
// widens a variable's declared cardinality (and so its key bits) without
// changing its codes, which is how composite conditioning sets reach the
// >64-bit fallback.
struct OracleCase {
  const char* name;
  int32_t cx, cy, cz;        // code ranges
  int32_t declared_card;     // 0 = the code range
};

constexpr OracleCase kOracleCases[] = {
    {"dense", 5, 4, 3, 0},             // 3 + 2 + 2 bits
    {"packed", 300, 200, 50, 0},       // 9 + 8 + 6 bits
    {"fallback", 40, 30, 20, 1 << 22}, // 22 + 22 + 22 bits
};

TEST(CmiKernelOracle, MatchesNaiveReferenceOnEveryKernel) {
  KernelGuard guard;
  for (const OracleCase& oc : kOracleCases) {
    for (uint64_t seed = 0; seed < 6; ++seed) {
      Rng rng(seed * 131 + 7);
      const size_t n = 600 + 97 * seed;
      CodedVariable x = RandomCoded(rng, n, oc.cx, 0.1);
      CodedVariable y = RandomCoded(rng, n, oc.cy, 0.0);
      CodedVariable z = RandomCoded(rng, n, oc.cz, 0.05);
      // Make y depend on x half the time so MI is not ~0.
      for (size_t i = 0; i < n; ++i) {
        if (x.codes[i] >= 0 && rng.NextBernoulli(0.5)) {
          y.codes[i] = x.codes[i] % oc.cy;
        }
      }
      if (oc.declared_card > 0) {
        x.cardinality = y.cardinality = z.cardinality = oc.declared_card;
      }
      std::vector<double> weights(n);
      for (auto& w : weights) w = rng.NextUniform(0.5, 2.0);
      const CodedVariable one = ConstantFor(n);

      for (bool weighted : {false, true}) {
        const std::vector<double>* w = weighted ? &weights : nullptr;
        for (bool mm : {false, true}) {
          EntropyOptions opts;
          opts.miller_madow = mm;
          const double want_mi = NaiveCmi(x, y, one, w, mm);
          const double want_xyz = NaiveCmi(x, y, z, w, mm);
          const double want_xzy = NaiveCmi(x, z, y, w, mm);
          for (size_t threads : {1, 8}) {
            SetNumThreads(threads);
            for (bool cached : {false, true}) {
              info_cache::SetEnabled(cached);
              info_cache::Clear();
              const std::string label =
                  std::string(oc.name) + " seed=" + std::to_string(seed) +
                  " weighted=" + std::to_string(weighted) +
                  " mm=" + std::to_string(mm) +
                  " threads=" + std::to_string(threads) +
                  " cached=" + std::to_string(cached);
              // Twice each: the second call of a cached run is a memo hit;
              // the (x, z, y) partition repacks the (x, y, z) cube.
              for (int rep = 0; rep < 2; ++rep) {
                ExpectNearReference(MutualInformation(x, y, w, opts), want_mi,
                                    label + " MI");
                ExpectNearReference(
                    ConditionalMutualInformation(x, y, z, w, opts), want_xyz,
                    label + " CMI(x;y|z)");
                ExpectNearReference(
                    ConditionalMutualInformation(x, z, y, w, opts), want_xzy,
                    label + " CMI(x;z|y)");
              }
            }
          }
        }
      }
    }
  }
}

// ------------------------------------------- dense == packed, bitwise

struct Triple {
  CodedVariable x, y, z;
  std::vector<double> weights;  // empty = unweighted
  int bx, by, bz;
};

// Narrow triples (dense territory, <= 20 bits); odd seeds are weighted and
// every fourth seed crosses the packed kernel's 32k-row chunk so its
// multi-chunk paths run.
Triple NarrowTriple(uint64_t seed) {
  Rng rng(seed);
  const size_t n = seed % 4 == 0 ? 70000 : 500 + 41 * (seed % 5);
  Triple t;
  t.x = RandomCoded(rng, n, 2 + static_cast<int32_t>(seed % 40), 0.1);
  t.y = RandomCoded(rng, n, 3 + static_cast<int32_t>(seed % 30), 0.0);
  t.z = RandomCoded(rng, n, 2 + static_cast<int32_t>(seed % 20), 0.05);
  if (seed % 2 == 1) {
    t.weights.resize(n);
    for (auto& w : t.weights) w = rng.NextUniform(0.5, 2.0);
  }
  t.bx = info_internal::BitsFor(t.x.cardinality);
  t.by = info_internal::BitsFor(t.y.cardinality);
  t.bz = info_internal::BitsFor(t.z.cardinality);
  return t;
}

void ExpectEntriesEqual(const std::vector<CubeEntry>& a,
                        const std::vector<CubeEntry>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].key, b[i].key) << label << " entry " << i;
    ASSERT_EQ(a[i].count, b[i].count) << label << " entry " << i;
  }
}

// The canonical-cube contract: dense and packed build the *same* sparse
// cube (same entries, same per-cell addend order), so every estimate
// derived from it is bit-identical — across 20 seeded datasets, with and
// without IPW weights, at 1, 2 and 8 threads.
TEST(CmiKernelProperty, DensePackedBitIdenticalAcrossSeedsAndThreads) {
  KernelGuard guard;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const Triple t = NarrowTriple(seed);
    ASSERT_LE(t.bx + t.by + t.bz, info_internal::kDenseCmiBits);
    const std::vector<double>* w = t.weights.empty() ? nullptr : &t.weights;
    SetNumThreads(1);
    std::vector<CubeEntry> dense;
    info_internal::BuildDenseEntries(t.x, t.y, t.z, w, t.bx, t.by, t.bz,
                                     &dense);
    const double total = info_internal::SumEntriesAscending(dense);
    EntropyOptions mm;
    mm.miller_madow = true;
    const double cmi =
        info_internal::CmiFromEntries(dense, total, {}, t.bx, t.by, t.bz);
    const double cmi_mm =
        info_internal::CmiFromEntries(dense, total, mm, t.bx, t.by, t.bz);
    for (size_t threads : {1, 2, 8}) {
      SetNumThreads(threads);
      const std::string label =
          "seed=" + std::to_string(seed) + " threads=" + std::to_string(threads);
      std::vector<CubeEntry> packed;
      info_internal::BuildPackedEntries(t.x, t.y, t.z, w, t.bx, t.by, t.bz,
                                        &packed);
      ExpectEntriesEqual(dense, packed, label);
      const double packed_total = info_internal::SumEntriesAscending(packed);
      EXPECT_EQ(total, packed_total) << label;
      EXPECT_EQ(cmi, info_internal::CmiFromEntries(packed, packed_total, {},
                                                   t.bx, t.by, t.bz))
          << label;
      EXPECT_EQ(cmi_mm, info_internal::CmiFromEntries(packed, packed_total,
                                                      mm, t.bx, t.by, t.bz))
          << label;
    }
  }
}

// Permuting the input rows permutes only the order in which each cell's
// count accumulates. Unweighted counts are small integers, so the cube —
// and with it every estimate — must be *bitwise* invariant under row
// permutation, on both kernels.
TEST(CmiKernelProperty, UnweightedEstimatesInvariantUnderRowPermutation) {
  KernelGuard guard;
  SetNumThreads(8);
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed * 77 + 1);
    const size_t n = 3000;
    CodedVariable x = RandomCoded(rng, n, 40, 0.1);
    CodedVariable y = RandomCoded(rng, n, 30, 0.0);
    CodedVariable z = RandomCoded(rng, n, 20, 0.05);

    std::vector<size_t> perm(n);
    for (size_t i = 0; i < n; ++i) perm[i] = i;
    for (size_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.NextBelow(i)]);
    }
    auto permuted = [&](const CodedVariable& v) {
      CodedVariable p = v;
      for (size_t i = 0; i < n; ++i) p.codes[i] = v.codes[perm[i]];
      return p;
    };
    const CodedVariable px = permuted(x), py = permuted(y), pz = permuted(z);
    const int bx = info_internal::BitsFor(40);
    const int by = info_internal::BitsFor(30);
    const int bz = info_internal::BitsFor(20);

    for (bool dense : {true, false}) {
      auto build = dense ? info_internal::BuildDenseEntries
                         : info_internal::BuildPackedEntries;
      std::vector<CubeEntry> original, shuffled;
      build(x, y, z, nullptr, bx, by, bz, &original);
      build(px, py, pz, nullptr, bx, by, bz, &shuffled);
      const std::string label = "seed=" + std::to_string(seed) +
                                (dense ? " dense" : " packed");
      ExpectEntriesEqual(original, shuffled, label);
      EXPECT_EQ(info_internal::CmiFromEntries(
                    original, info_internal::SumEntriesAscending(original),
                    {}, bx, by, bz),
                info_internal::CmiFromEntries(
                    shuffled, info_internal::SumEntriesAscending(shuffled),
                    {}, bx, by, bz))
          << label;
    }
  }
}

// --------------------------------------- cube sharing above 20 bits

// Before the packed kernel, any triple wider than the 20-bit dense arena
// fell back to the chain-rule identity and recorded *zero* cube traffic.
// Now the packed kernel materializes a canonical cube, so a cross-
// partition call over the same wide triple must land a cube hit.
TEST(CmiKernelCache, JointCubeSharedAboveDenseBitLimit) {
  KernelGuard guard;
  SetNumThreads(1);
  info_cache::SetEnabled(true);
  info_cache::Clear();

  Rng rng(4242);
  const size_t n = 4000;
  // 11 + 11 + 6 = 28 key bits: comfortably past kDenseCmiBits = 20.
  CodedVariable x = RandomCoded(rng, n, 1500, 0.0);
  CodedVariable y = RandomCoded(rng, n, 1200, 0.0);
  CodedVariable z = RandomCoded(rng, n, 40, 0.0);
  ASSERT_GT(info_internal::BitsFor(x.cardinality) +
                info_internal::BitsFor(y.cardinality) +
                info_internal::BitsFor(z.cardinality),
            info_internal::kDenseCmiBits);

  info_cache::Stats before = info_cache::GetStats();
  double first = ConditionalMutualInformation(x, y, z);
  info_cache::Stats mid = info_cache::GetStats();
  EXPECT_GT(mid.cube_misses, before.cube_misses);

  // Different partition of the same triple: served by repacking the
  // cached cube, not by a rebuild.
  double repartitioned = ConditionalMutualInformation(x, z, y);
  info_cache::Stats after = info_cache::GetStats();
  EXPECT_GT(after.cube_hits, mid.cube_hits)
      << "wide triple did not share its joint cube";
  EXPECT_GE(first, 0.0);
  EXPECT_GE(repartitioned, 0.0);

  // And the repacked answer is bitwise what a cold computation gives.
  info_cache::SetEnabled(false);
  EXPECT_EQ(repartitioned, ConditionalMutualInformation(x, z, y));

  // Wide MI shares cubes now too (it is CMI with a trivial z axis).
  info_cache::SetEnabled(true);
  info_cache::Clear();
  info_cache::Stats m0 = info_cache::GetStats();
  MutualInformation(x, y);
  MutualInformation(y, x);  // commutes onto the same cube
  info_cache::Stats m1 = info_cache::GetStats();
  EXPECT_GT(m1.cube_hits, m0.cube_hits);
}

#if MESA_METRICS_ENABLED
// Key width alone picks the kernel: narrow triples go to the dense arena,
// wide ones to the packed kernel, >64-bit ones to the chain-rule fallback
// — observable in the selection counters.
TEST(CmiKernelCounters, AutoSelectsByKeyWidth) {
  KernelGuard guard;
  SetNumThreads(1);
  info_cache::SetEnabled(false);

  Rng rng(31);
  CodedVariable nx = RandomCoded(rng, 1000, 4, 0.0);
  CodedVariable ny = RandomCoded(rng, 1000, 3, 0.0);
  CodedVariable nz = RandomCoded(rng, 1000, 3, 0.0);
  CodedVariable wx = RandomCoded(rng, 1000, 1500, 0.0);
  CodedVariable wy = RandomCoded(rng, 1000, 1200, 0.0);
  CodedVariable wz = RandomCoded(rng, 1000, 40, 0.0);

  uint64_t dense0 = metrics::CounterValue("info/kernel_dense");
  uint64_t packed0 = metrics::CounterValue("info/kernel_packed");
  uint64_t fallback0 = metrics::CounterValue("info/kernel_fallback");
  ConditionalMutualInformation(nx, ny, nz);
  EXPECT_EQ(metrics::CounterValue("info/kernel_dense"), dense0 + 1);
  EXPECT_EQ(metrics::CounterValue("info/kernel_packed"), packed0);
  ConditionalMutualInformation(wx, wy, wz);
  EXPECT_EQ(metrics::CounterValue("info/kernel_packed"), packed0 + 1);

  // 22 + 22 + 22 declared bits: past every packed key.
  wx.cardinality = wy.cardinality = wz.cardinality = 1 << 22;
  ConditionalMutualInformation(wx, wy, wz);
  EXPECT_EQ(metrics::CounterValue("info/kernel_fallback"), fallback0 + 1);
  EXPECT_EQ(metrics::CounterValue("info/kernel_dense"), dense0 + 1);
  EXPECT_EQ(metrics::CounterValue("info/kernel_packed"), packed0 + 1);
}
#endif  // MESA_METRICS_ENABLED

}  // namespace
}  // namespace mesa
