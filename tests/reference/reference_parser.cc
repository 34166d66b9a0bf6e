#include "reference/reference_parser.h"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

namespace idxsel::reference {
namespace {

using workload::AttributeId;
using workload::NamedWorkload;
using workload::QueryKind;
using workload::TableId;
using workload::Workload;

/// Splits a line into whitespace-separated tokens, dropping '#' comments.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char ch : line) {
    if (ch == '#') break;
    if (ch == ' ' || ch == '\t' || ch == '\r') {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else {
      current += ch;
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

/// Splits "key=value"; returns false if there is no '='.
bool SplitKeyValue(const std::string& token, std::string* key,
                   std::string* value) {
  const size_t eq = token.find('=');
  if (eq == std::string::npos) return false;
  *key = token.substr(0, eq);
  *value = token.substr(eq + 1);
  return true;
}

Status LineError(size_t line_no, const std::string& message) {
  return Status::InvalidArgument("line " + std::to_string(line_no) + ": " +
                                 message);
}

bool ParseU64(const std::string& text, uint64_t* out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseDouble(const std::string& text, double* out) {
  // Stream extraction: the number language the reference defines.
  std::istringstream stream(text);
  stream >> *out;
  return static_cast<bool>(stream) && stream.eof();
}

}  // namespace

Result<NamedWorkload> ReferenceParseWorkload(const std::string& text) {
  NamedWorkload named;
  Workload& w = named.workload;

  std::map<std::string, TableId> tables;
  // (table id, attr name) -> attribute id.
  std::map<std::pair<TableId, std::string>, AttributeId> attributes;
  bool have_table = false;
  TableId current_table = 0;
  std::string current_table_name;

  std::istringstream input(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(input, line)) {
    ++line_no;
    const std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) continue;
    const std::string& verb = tokens.front();

    if (verb == "table") {
      if (tokens.size() != 3) {
        return LineError(line_no, "expected: table <name> rows=<count>");
      }
      const std::string& name = tokens[1];
      if (tables.count(name)) {
        return LineError(line_no, "duplicate table '" + name + "'");
      }
      std::string key;
      std::string value;
      uint64_t rows = 0;
      if (!SplitKeyValue(tokens[2], &key, &value) || key != "rows" ||
          !ParseU64(value, &rows) || rows == 0) {
        return LineError(line_no, "expected rows=<positive count>");
      }
      current_table = w.AddTable(name, rows);
      current_table_name = name;
      tables[name] = current_table;
      have_table = true;
    } else if (verb == "attr") {
      if (!have_table) {
        return LineError(line_no, "attr before any table");
      }
      if (tokens.size() < 3) {
        return LineError(line_no,
                         "expected: attr <name> distinct=<count> "
                         "[size=<bytes>]");
      }
      const std::string& name = tokens[1];
      if (attributes.count({current_table, name})) {
        return LineError(line_no, "duplicate attribute '" + name + "'");
      }
      uint64_t distinct = 0;
      uint64_t size = 4;
      for (size_t t = 2; t < tokens.size(); ++t) {
        std::string key;
        std::string value;
        if (!SplitKeyValue(tokens[t], &key, &value)) {
          return LineError(line_no, "malformed option '" + tokens[t] + "'");
        }
        if (key == "distinct") {
          if (!ParseU64(value, &distinct) || distinct == 0) {
            return LineError(line_no, "distinct must be a positive count");
          }
        } else if (key == "size") {
          if (!ParseU64(value, &size) || size == 0) {
            return LineError(line_no, "size must be positive bytes");
          }
          if (size > std::numeric_limits<uint32_t>::max()) {
            return LineError(line_no, "size must be below 2^32 bytes");
          }
        } else {
          return LineError(line_no, "unknown attr option '" + key + "'");
        }
      }
      if (distinct == 0) {
        return LineError(line_no, "attr requires distinct=<count>");
      }
      const AttributeId id = w.AddAttribute(
          current_table, distinct, static_cast<uint32_t>(size));
      attributes[{current_table, name}] = id;
      named.attribute_names.push_back(current_table_name + "." + name);
    } else if (verb == "query") {
      if (tokens.size() < 4) {
        return LineError(line_no,
                         "expected: query <table> freq=<n> [write] "
                         "attrs=<a>,<b>,...");
      }
      auto table_it = tables.find(tokens[1]);
      if (table_it == tables.end()) {
        return LineError(line_no, "unknown table '" + tokens[1] + "'");
      }
      const TableId table = table_it->second;
      double freq = 0.0;
      QueryKind kind = QueryKind::kRead;
      std::vector<AttributeId> attrs;
      bool have_attrs = false;
      for (size_t t = 2; t < tokens.size(); ++t) {
        if (tokens[t] == "write") {
          kind = QueryKind::kWrite;
          continue;
        }
        std::string key;
        std::string value;
        if (!SplitKeyValue(tokens[t], &key, &value)) {
          return LineError(line_no, "malformed option '" + tokens[t] + "'");
        }
        if (key == "freq") {
          if (!ParseDouble(value, &freq) || freq <= 0.0) {
            return LineError(line_no, "freq must be positive");
          }
        } else if (key == "attrs") {
          have_attrs = true;
          std::string attr_name;
          std::istringstream attr_stream(value);
          while (std::getline(attr_stream, attr_name, ',')) {
            auto attr_it = attributes.find({table, attr_name});
            if (attr_it == attributes.end()) {
              return LineError(line_no,
                               "unknown attribute '" + attr_name + "'");
            }
            attrs.push_back(attr_it->second);
          }
        } else {
          return LineError(line_no, "unknown query option '" + key + "'");
        }
      }
      if (!(freq > 0.0)) return LineError(line_no, "query requires freq=");
      if (!have_attrs || attrs.empty()) {
        return LineError(line_no, "query requires non-empty attrs=");
      }
      auto added = w.AddQuery(table, std::move(attrs), freq, kind);
      if (!added.ok()) return LineError(line_no, added.status().message());
    } else {
      return LineError(line_no, "unknown directive '" + verb + "'");
    }
  }

  if (!have_table) {
    return Status::InvalidArgument(
        "workload defines no tables (empty or comment-only input)");
  }
  w.Finalize();
  const Status valid = w.Validate();
  if (!valid.ok()) return valid;
  return named;
}

namespace {

std::string Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

}  // namespace

std::string DiffParse(const Result<NamedWorkload>& got,
                      const Result<NamedWorkload>& want) {
  if (got.ok() != want.ok()) {
    return std::string("verdict: got ") +
           (got.ok() ? "accept" : got.status().ToString()) + ", want " +
           (want.ok() ? "accept" : want.status().ToString());
  }
  if (!want.ok()) {
    if (got.status().code() != want.status().code() ||
        got.status().message() != want.status().message()) {
      return "status: got '" + got.status().ToString() + "', want '" +
             want.status().ToString() + "'";
    }
    return "";
  }
  const Workload& a = got->workload;
  const Workload& b = want->workload;
  if (got->attribute_names != want->attribute_names) return "attribute names";
  if (a.num_tables() != b.num_tables()) return "table count";
  for (TableId t = 0; t < b.num_tables(); ++t) {
    if (a.table(t).name != b.table(t).name ||
        a.table(t).row_count != b.table(t).row_count ||
        a.table(t).attributes != b.table(t).attributes) {
      return "table " + std::to_string(t);
    }
  }
  if (a.num_attributes() != b.num_attributes()) return "attribute count";
  for (AttributeId i = 0; i < b.num_attributes(); ++i) {
    const workload::AttributeStats& x = a.attribute(i);
    const workload::AttributeStats& y = b.attribute(i);
    if (x.table != y.table || x.ordinal != y.ordinal ||
        x.distinct_values != y.distinct_values ||
        x.value_size != y.value_size) {
      return "attribute " + std::to_string(i);
    }
  }
  if (a.num_queries() != b.num_queries()) return "query count";
  for (workload::QueryId j = 0; j < b.num_queries(); ++j) {
    const workload::Query& x = a.query(j);
    const workload::Query& y = b.query(j);
    if (x.table != y.table || x.attributes != y.attributes ||
        x.kind != y.kind) {
      return "query " + std::to_string(j);
    }
    if (Bits(x.frequency) != Bits(y.frequency)) {
      return "query " + std::to_string(j) + " frequency: got " +
             Bits(x.frequency) + ", want " + Bits(y.frequency);
    }
  }
  return "";
}

}  // namespace idxsel::reference
