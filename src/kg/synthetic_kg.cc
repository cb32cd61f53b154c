#include "kg/synthetic_kg.h"

#include "common/logging.h"

namespace mesa {

SyntheticKgBuilder::SyntheticKgBuilder(TripleStore* store, uint64_t seed)
    : store_(store), rng_(seed) {
  MESA_CHECK(store != nullptr);
}

EntityId SyntheticKgBuilder::EnsureEntity(const std::string& label,
                                          const std::string& type) {
  if (auto id = store_->FindByLabel(label); id.has_value()) return *id;
  Result<EntityId> r = store_->AddEntity(label, type);
  MESA_CHECK(r.ok());
  return *r;
}

void SyntheticKgBuilder::AddNumeric(EntityId entity,
                                    const std::string& predicate, double value,
                                    double missing_rate) {
  if (missing_rate > 0.0 && rng_.NextBernoulli(missing_rate)) return;
  Status st = store_->AddLiteral(entity, predicate, Value::Double(value));
  MESA_CHECK(st.ok());
}

void SyntheticKgBuilder::AddCategorical(EntityId entity,
                                        const std::string& predicate,
                                        const std::string& value,
                                        double missing_rate) {
  if (missing_rate > 0.0 && rng_.NextBernoulli(missing_rate)) return;
  Status st = store_->AddLiteral(entity, predicate, Value::String(value));
  MESA_CHECK(st.ok());
}

void SyntheticKgBuilder::AddNumericWithRank(EntityId entity,
                                            const std::string& predicate,
                                            double value, double rank,
                                            double missing_rate) {
  AddNumeric(entity, predicate, value, missing_rate);
  AddNumeric(entity, predicate + "_rank", rank, missing_rate);
}

void SyntheticKgBuilder::AddNoiseProperties(EntityId entity,
                                            const std::string& type_label,
                                            size_t noise_count,
                                            double missing_rate) {
  // Constant-valued property: dropped by Simple Filtering.
  AddCategorical(entity, "type", type_label);
  // Unique per-entity id: dropped by the High Entropy filter.
  std::string wiki_id = "Q";
  wiki_id += std::to_string(next_wiki_id_++);
  AddCategorical(entity, "wikiID", wiki_id);
  // Pure noise, independent of any outcome: survives offline pruning but
  // must lose to real confounders in MCIMR.
  for (size_t i = 0; i < noise_count; ++i) {
    AddNumeric(entity, "noise_attr_" + std::to_string(i),
               rng_.NextGaussian(0.0, 1.0), missing_rate);
  }
}

}  // namespace mesa
