#ifndef MESA_KG_TRIPLE_STORE_H_
#define MESA_KG_TRIPLE_STORE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "table/value.h"

namespace mesa {

/// Identifier of an entity node in the knowledge graph.
using EntityId = uint32_t;

/// Identifier of a predicate (property name) in the graph's dictionary.
using PredicateId = uint32_t;

/// The object of a triple: either a literal value or another entity
/// (entity-valued objects are what multi-hop extraction follows).
struct KgObject {
  enum class Kind { kLiteral, kEntity };
  Kind kind = Kind::kLiteral;
  Value literal;
  EntityId entity = 0;

  static KgObject Literal(Value v) {
    KgObject o;
    o.kind = Kind::kLiteral;
    o.literal = std::move(v);
    return o;
  }
  static KgObject Entity(EntityId e) {
    KgObject o;
    o.kind = Kind::kEntity;
    o.entity = e;
    return o;
  }
  bool is_entity() const { return kind == Kind::kEntity; }
};

/// One (subject, predicate, object) edge.
struct Triple {
  EntityId subject = 0;
  PredicateId predicate = 0;
  KgObject object;
};

/// Metadata of an entity node.
struct EntityInfo {
  std::string label;  ///< canonical human-readable label, unique.
  std::string type;   ///< class name, e.g. "Country", "City".
};

/// An in-memory RDF-style triple store with subject and label indexes —
/// the DBpedia stand-in. Predicates are interned strings; entities carry a
/// canonical label plus optional aliases (used by the NED linker to emulate
/// real-world surface-form variation such as "Russian Federation" vs
/// "Russia").
class TripleStore {
 public:
  TripleStore() = default;

  /// Creates an entity. Fails if the canonical label already exists.
  Result<EntityId> AddEntity(const std::string& label,
                             const std::string& type);

  /// Registers an extra surface form for an entity. Aliases may be
  /// ambiguous (shared by several entities); the linker handles that.
  Status AddAlias(EntityId entity, const std::string& alias);

  /// Interns a predicate name.
  PredicateId InternPredicate(const std::string& name);

  /// Adds a literal-valued triple.
  Status AddLiteral(EntityId subject, const std::string& predicate, Value v);

  /// Adds an entity-valued triple.
  Status AddEdge(EntityId subject, const std::string& predicate,
                 EntityId object);

  size_t num_entities() const { return entities_.size(); }
  size_t num_triples() const { return triples_.size(); }
  size_t num_predicates() const { return predicate_names_.size(); }

  const EntityInfo& entity(EntityId id) const { return entities_[id]; }
  const std::string& predicate_name(PredicateId id) const {
    return predicate_names_[id];
  }

  /// All triples whose subject is `entity`.
  std::vector<const Triple*> PropertiesOf(EntityId entity) const;

  /// Exact canonical-label lookup.
  std::optional<EntityId> FindByLabel(const std::string& label) const;

  /// All entities registered under `alias` (canonical labels are implicit
  /// aliases of themselves).
  std::vector<EntityId> FindByAlias(const std::string& alias) const;

  /// The aliases registered for one entity (not including its label).
  std::vector<std::string> AliasesOf(EntityId entity) const;

  /// All entities whose normalised label/alias equals the normalised query.
  std::vector<EntityId> FindByNormalized(const std::string& text) const;

  /// All entity ids of a given type.
  std::vector<EntityId> EntitiesOfType(const std::string& type) const;

  /// Distinct predicate names used on subjects of the given type.
  std::vector<std::string> PredicatesOfType(const std::string& type) const;

  /// Triple-pattern query (SPARQL-style basic graph pattern with a single
  /// triple): each unset field is a wildcard. Returns pointers into the
  /// store, valid until the next mutation.
  struct TriplePattern {
    std::optional<EntityId> subject = std::nullopt;
    std::optional<std::string> predicate = std::nullopt;
    /// Matches literal objects equal to this value.
    std::optional<Value> literal = std::nullopt;
    /// Matches entity-valued objects pointing at this entity.
    std::optional<EntityId> object_entity = std::nullopt;
  };
  std::vector<const Triple*> Match(const TriplePattern& pattern) const;

 private:
  std::vector<EntityInfo> entities_;
  std::vector<Triple> triples_;
  std::vector<std::string> predicate_names_;
  std::unordered_map<std::string, PredicateId> predicate_ids_;
  std::unordered_map<std::string, EntityId> by_label_;
  std::unordered_map<std::string, std::vector<EntityId>> by_alias_;
  std::unordered_map<EntityId, std::vector<std::string>> aliases_of_;
  std::unordered_map<std::string, std::vector<EntityId>> by_normalized_;
  std::unordered_map<EntityId, std::vector<size_t>> by_subject_;
};

}  // namespace mesa

#endif  // MESA_KG_TRIPLE_STORE_H_
