#ifndef MESA_TABLE_STRING_DICTIONARY_H_
#define MESA_TABLE_STRING_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mesa {

/// The dictionary of a string column: distinct strings, coded densely
/// 0..size()-1 in insertion order. Rows of a string column are `uint32_t`
/// codes into one of these.
///
/// Columns hold their dictionary through a `shared_ptr` and share it
/// freely (`Take`, copies, a snapshot's borrowed columns).
/// A shared dictionary is never mutated: a column that must add an entry
/// to a dictionary it does not hold alone interns into a private copy
/// first (see `Column`). Because entries are distinct, two rows of one
/// column hold equal strings exactly when they hold equal codes.
class StringDictionary {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;

  StringDictionary() = default;

  /// Builds a dictionary over `values` in the given order. Returns false
  /// (leaving `*out` unspecified) if two entries are equal.
  static bool FromDistinct(std::vector<std::string> values,
                           StringDictionary* out);

  size_t size() const { return values_.size(); }
  const std::string& operator[](uint32_t code) const { return values_[code]; }

  /// Code of `s`, or kNotFound.
  uint32_t Find(std::string_view s) const;

  /// Code of `s`, appending it as a new entry if absent.
  uint32_t Intern(std::string_view s);

 private:
  /// Appends `s` (known to be absent) and indexes it.
  uint32_t Add(std::string s);
  /// Inserts code `code` (already in values_) into the probe table.
  void Place(uint32_t code);
  void Rehash(size_t slots);

  std::vector<std::string> values_;
  /// Open-addressing index over values_ (linear probing, power-of-two
  /// size, at most half full): each slot holds a code or kNotFound.
  std::vector<uint32_t> slots_;
};

}  // namespace mesa

#endif  // MESA_TABLE_STRING_DICTIONARY_H_
