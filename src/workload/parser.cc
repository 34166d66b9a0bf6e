#include "workload/parser.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/check.h"

namespace idxsel::workload {
namespace {

/// Splits a line into whitespace-separated tokens, dropping '#' comments.
/// The tokens view `line`; `tokens` is reused across lines.
void Tokenize(std::string_view line, std::vector<std::string_view>* tokens) {
  constexpr std::string_view kSpace = " \t\r";
  tokens->clear();
  line = line.substr(0, line.find('#'));
  for (size_t pos = line.find_first_not_of(kSpace);
       pos != std::string_view::npos;
       pos = line.find_first_not_of(kSpace, pos)) {
    const size_t end = std::min(line.find_first_of(kSpace, pos), line.size());
    tokens->push_back(line.substr(pos, end - pos));
    pos = end;
  }
}

/// Splits "key=value"; returns false if there is no '='.
bool SplitKeyValue(std::string_view token, std::string_view* key,
                   std::string_view* value) {
  const size_t eq = token.find('=');
  if (eq == std::string_view::npos) return false;
  *key = token.substr(0, eq);
  *value = token.substr(eq + 1);
  return true;
}

Status LineError(size_t line_no, const std::string& message) {
  return Status::InvalidArgument("line " + std::to_string(line_no) + ": " +
                                 message);
}

/// LineError naming the offending token: "<what> '<token>'".
Status LineError(size_t line_no, const char* what, std::string_view token) {
  return LineError(line_no,
                   std::string(what) + " '" + std::string(token) + "'");
}

bool ParseU64(std::string_view text, uint64_t* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// A finite decimal number in the grammar of doc/workloads.md. Unlike
/// bare from_chars it skips leading whitespace and one '+', and rejects
/// inf and nan.
bool ParseDouble(std::string_view text, double* out) {
  text.remove_prefix(std::min(text.find_first_not_of(" \t\n\v\f\r"),
                              text.size()));
  if (!text.empty() && text.front() == '+') text.remove_prefix(1);
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && std::isfinite(*out);
}

}  // namespace

Result<NamedWorkload> ParseWorkload(const std::string& text) {
  NamedWorkload named;
  Workload& w = named.workload;

  // Keys view `text`, which outlives the parse.
  std::unordered_map<std::string_view, TableId> tables;
  std::vector<std::unordered_map<std::string_view, AttributeId>> attributes;
  bool have_table = false;
  TableId current_table = 0;
  std::string_view current_table_name;

  std::vector<std::string_view> tokens;
  const std::string_view input(text);
  size_t line_no = 0;
  for (size_t begin = 0; begin < input.size();) {
    const size_t end = std::min(input.find('\n', begin), input.size());
    const std::string_view line = input.substr(begin, end - begin);
    begin = end + 1;
    ++line_no;
    Tokenize(line, &tokens);
    if (tokens.empty()) continue;
    const std::string_view verb = tokens.front();

    if (verb == "table") {
      if (tokens.size() != 3) {
        return LineError(line_no, "expected: table <name> rows=<count>");
      }
      const std::string_view name = tokens[1];
      if (tables.count(name)) {
        return LineError(line_no, "duplicate table", name);
      }
      std::string_view key;
      std::string_view value;
      uint64_t rows = 0;
      if (!SplitKeyValue(tokens[2], &key, &value) || key != "rows" ||
          !ParseU64(value, &rows) || rows == 0) {
        return LineError(line_no, "expected rows=<positive count>");
      }
      current_table = w.AddTable(std::string(name), rows);
      current_table_name = name;
      tables[name] = current_table;
      attributes.emplace_back();
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
      const std::string_view name = tokens[1];
      if (attributes[current_table].count(name)) {
        return LineError(line_no, "duplicate attribute", name);
      }
      uint64_t distinct = 0;
      uint64_t size = 4;
      for (size_t t = 2; t < tokens.size(); ++t) {
        std::string_view key;
        std::string_view value;
        if (!SplitKeyValue(tokens[t], &key, &value)) {
          return LineError(line_no, "malformed option", tokens[t]);
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
          return LineError(line_no, "unknown attr option", key);
        }
      }
      if (distinct == 0) {
        return LineError(line_no, "attr requires distinct=<count>");
      }
      const AttributeId id = w.AddAttribute(
          current_table, distinct, static_cast<uint32_t>(size));
      attributes[current_table][name] = id;
      std::string& full =
          named.attribute_names.emplace_back(current_table_name);
      full += '.';
      full += name;
    } else if (verb == "query") {
      if (tokens.size() < 4) {
        return LineError(line_no,
                         "expected: query <table> freq=<n> [write] "
                         "attrs=<a>,<b>,...");
      }
      auto table_it = tables.find(tokens[1]);
      if (table_it == tables.end()) {
        return LineError(line_no, "unknown table", tokens[1]);
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
        std::string_view key;
        std::string_view value;
        if (!SplitKeyValue(tokens[t], &key, &value)) {
          return LineError(line_no, "malformed option", tokens[t]);
        }
        if (key == "freq") {
          if (!ParseDouble(value, &freq) || freq <= 0.0) {
            return LineError(line_no, "freq must be positive");
          }
        } else if (key == "attrs") {
          have_attrs = true;
          // Comma-separated; one trailing comma ends the list.
          for (size_t pos = 0; pos < value.size();) {
            const size_t comma = std::min(value.find(',', pos), value.size());
            const std::string_view attr_name = value.substr(pos, comma - pos);
            pos = comma + 1;
            auto attr_it = attributes[table].find(attr_name);
            if (attr_it == attributes[table].end()) {
              return LineError(line_no, "unknown attribute", attr_name);
            }
            attrs.push_back(attr_it->second);
          }
        } else {
          return LineError(line_no, "unknown query option", key);
        }
      }
      if (!(freq > 0.0)) return LineError(line_no, "query requires freq=");
      if (!have_attrs || attrs.empty()) {
        return LineError(line_no, "query requires non-empty attrs=");
      }
      auto added = w.AddQuery(table, std::move(attrs), freq, kind);
      if (!added.ok()) return LineError(line_no, added.status().message());
    } else {
      return LineError(line_no, "unknown directive", verb);
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

Result<NamedWorkload> LoadWorkloadFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseWorkload(buffer.str());
}

Result<std::string> FormatWorkload(const Workload& workload,
                                   const std::vector<std::string>& names) {
  if (names.size() != workload.num_attributes()) {
    return Status::InvalidArgument(
        "attribute name count (" + std::to_string(names.size()) +
        ") does not match workload attributes (" +
        std::to_string(workload.num_attributes()) + ")");
  }
  auto local_name = [&](AttributeId a) {
    const std::string& full = names[a];
    const size_t dot = full.find('.');
    return dot == std::string::npos ? full : full.substr(dot + 1);
  };

  std::string out;
  for (TableId t = 0; t < workload.num_tables(); ++t) {
    const TableSchema& schema = workload.table(t);
    out += "table " + schema.name + " rows=" +
           std::to_string(schema.row_count) + "\n";
    for (AttributeId a : schema.attributes) {
      const AttributeStats& stats = workload.attribute(a);
      out += "attr " + local_name(a) +
             " distinct=" + std::to_string(stats.distinct_values) +
             " size=" + std::to_string(stats.value_size) + "\n";
    }
  }
  for (const Query& q : workload.queries()) {
    out += "query " + workload.table(q.table).name + " freq=";
    // Shortest decimal form that parses back to the exact double:
    // integer-valued frequencies render as before ("1200"), while shifted
    // frequencies from serve deltas survive a Format/Parse round trip
    // bit-identically (checkpoint recovery depends on this).
    char freq[32];
    for (int digits = 15; digits <= 17; ++digits) {
      std::snprintf(freq, sizeof(freq), "%.*g", digits, q.frequency);
      if (std::strtod(freq, nullptr) == q.frequency) break;
    }
    out += freq;
    if (q.kind == QueryKind::kWrite) out += " write";
    out += " attrs=";
    for (size_t u = 0; u < q.attributes.size(); ++u) {
      if (u != 0) out += ',';
      out += local_name(q.attributes[u]);
    }
    out += "\n";
  }
  return out;
}

}  // namespace idxsel::workload
