#include "kg/serialization.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/file_io.h"
#include "common/string_util.h"

namespace mesa {

namespace {

std::string EncodeLiteral(const Value& v) {
  switch (v.type()) {
    case DataType::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "d:%.17g", v.double_value());
      return buf;
    }
    case DataType::kInt64:
      return "i:" + std::to_string(v.int_value());
    case DataType::kBool:
      return v.bool_value() ? "b:1" : "b:0";
    case DataType::kString:
      return "s:" + v.string_value();
    case DataType::kNull:
      break;
  }
  return "s:";
}

Result<Value> DecodeLiteral(const std::string& text) {
  if (text.size() < 2 || text[1] != ':') {
    return Status::InvalidArgument("bad literal encoding: " + text);
  }
  std::string payload = text.substr(2);
  switch (text[0]) {
    case 'd': {
      double d = 0;
      if (!ParseDouble(payload, &d)) {
        return Status::InvalidArgument("bad double literal: " + payload);
      }
      return Value::Double(d);
    }
    case 'i': {
      int64_t i = 0;
      if (!ParseInt64(payload, &i)) {
        return Status::InvalidArgument("bad int literal: " + payload);
      }
      return Value::Int(i);
    }
    case 'b':
      return Value::Bool(payload == "1");
    case 's':
      return Value::String(payload);
    default:
      return Status::InvalidArgument("unknown literal tag: " + text);
  }
}

}  // namespace

std::string WriteKgString(const TripleStore& store) {
  std::ostringstream out;
  out << "# mesa-kg v1\n";
  for (EntityId id = 0; id < store.num_entities(); ++id) {
    const EntityInfo& e = store.entity(id);
    out << "E " << id << " " << e.type << "\t" << e.label << "\n";
  }
  // Aliases: FindByAlias indexes by alias string, which we cannot easily
  // enumerate; emit via normalised lookups would lose originals, so the
  // store exposes aliases through the per-entity listing below.
  for (EntityId id = 0; id < store.num_entities(); ++id) {
    for (const std::string& alias : store.AliasesOf(id)) {
      out << "A " << id << "\t" << alias << "\n";
    }
  }
  for (EntityId id = 0; id < store.num_entities(); ++id) {
    for (const Triple* t : store.PropertiesOf(id)) {
      const std::string& pred = store.predicate_name(t->predicate);
      if (t->object.is_entity()) {
        out << "G " << id << "\t" << pred << "\t" << t->object.entity
            << "\n";
      } else {
        out << "L " << id << "\t" << pred << "\t"
            << EncodeLiteral(t->object.literal) << "\n";
      }
    }
  }
  return out.str();
}

Result<TripleStore> ReadKgString(const std::string& text) {
  TripleStore store;
  size_t line_no = 0;
  std::istringstream in(text);
  std::string line;
  auto error = [&](const std::string& msg) {
    return Status::InvalidArgument(msg + " (line " + std::to_string(line_no) +
                                   ")");
  };
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view sv = StripWhitespace(line);
    if (sv.empty() || sv[0] == '#') continue;
    char kind = sv[0];
    std::string rest(sv.substr(2));
    switch (kind) {
      case 'E': {
        // "<id> <type>\t<label>"
        size_t tab = rest.find('\t');
        if (tab == std::string::npos) return error("E record missing tab");
        auto head = Split(rest.substr(0, tab), ' ');
        if (head.size() != 2) return error("bad E record head");
        int64_t id = 0;
        if (!ParseInt64(head[0], &id)) return error("bad entity id");
        if (static_cast<size_t>(id) != store.num_entities()) {
          return error("entity ids must be dense and in order");
        }
        MESA_RETURN_IF_ERROR(
            store.AddEntity(rest.substr(tab + 1), head[1]).status());
        break;
      }
      case 'A': {
        size_t tab = rest.find('\t');
        if (tab == std::string::npos) return error("A record missing tab");
        int64_t id = 0;
        if (!ParseInt64(rest.substr(0, tab), &id)) {
          return error("bad entity id");
        }
        MESA_RETURN_IF_ERROR(store.AddAlias(static_cast<EntityId>(id),
                                            rest.substr(tab + 1)));
        break;
      }
      case 'L': {
        auto parts = Split(rest, '\t');
        if (parts.size() != 3) return error("bad L record");
        int64_t id = 0;
        if (!ParseInt64(parts[0], &id)) return error("bad entity id");
        MESA_ASSIGN_OR_RETURN(Value v, DecodeLiteral(parts[2]));
        MESA_RETURN_IF_ERROR(store.AddLiteral(static_cast<EntityId>(id),
                                              parts[1], std::move(v)));
        break;
      }
      case 'G': {
        auto parts = Split(rest, '\t');
        if (parts.size() != 3) return error("bad G record");
        int64_t s = 0, o = 0;
        if (!ParseInt64(parts[0], &s) || !ParseInt64(parts[2], &o)) {
          return error("bad entity id in G record");
        }
        MESA_RETURN_IF_ERROR(store.AddEdge(static_cast<EntityId>(s), parts[1],
                                           static_cast<EntityId>(o)));
        break;
      }
      default:
        return error(std::string("unknown record kind '") + kind + "'");
    }
  }
  return store;
}

Status WriteKgFile(const TripleStore& store, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << WriteKgString(store);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<TripleStore> ReadKgFile(const std::string& path) {
  MESA_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  return ReadKgString(text);
}

}  // namespace mesa
