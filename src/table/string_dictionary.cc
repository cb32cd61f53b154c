#include "table/string_dictionary.h"

#include <functional>
#include <utility>

namespace mesa {

namespace {

size_t HashOf(std::string_view s) { return std::hash<std::string_view>{}(s); }

}  // namespace

bool StringDictionary::FromDistinct(std::vector<std::string> values,
                                    StringDictionary* out) {
  out->values_.clear();
  out->slots_.clear();
  out->values_.reserve(values.size());
  for (std::string& v : values) {
    if (out->Find(v) != kNotFound) return false;
    out->Add(std::move(v));
  }
  return true;
}

uint32_t StringDictionary::Find(std::string_view s) const {
  if (slots_.empty()) return kNotFound;
  const size_t mask = slots_.size() - 1;
  for (size_t i = HashOf(s) & mask;; i = (i + 1) & mask) {
    const uint32_t code = slots_[i];
    if (code == kNotFound) return kNotFound;
    if (values_[code] == s) return code;
  }
}

uint32_t StringDictionary::Intern(std::string_view s) {
  const uint32_t code = Find(s);
  return code != kNotFound ? code : Add(std::string(s));
}

uint32_t StringDictionary::Add(std::string s) {
  const uint32_t code = static_cast<uint32_t>(values_.size());
  values_.push_back(std::move(s));
  if (2 * values_.size() > slots_.size()) {
    Rehash(slots_.empty() ? 16 : 2 * slots_.size());
  } else {
    Place(code);
  }
  return code;
}

void StringDictionary::Place(uint32_t code) {
  const size_t mask = slots_.size() - 1;
  size_t i = HashOf(values_[code]) & mask;
  while (slots_[i] != kNotFound) i = (i + 1) & mask;
  slots_[i] = code;
}

void StringDictionary::Rehash(size_t slots) {
  slots_.assign(slots, kNotFound);
  for (uint32_t code = 0; code < values_.size(); ++code) Place(code);
}

}  // namespace mesa
