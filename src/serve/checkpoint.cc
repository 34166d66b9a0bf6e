#include "serve/checkpoint.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define IDXSEL_SERVE_HAVE_FSYNC 1
#endif

#include "serve/delta.h"

namespace idxsel::serve {
namespace {

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("checkpoint: " + what);
}

/// Reads "<key> <value...>" from `line`; the value is the remainder.
bool SplitField(const std::string& line, const std::string& key,
                std::string* value) {
  if (line.size() <= key.size() || line.compare(0, key.size(), key) != 0 ||
      line[key.size()] != ' ') {
    return false;
  }
  *value = line.substr(key.size() + 1);
  return true;
}

bool ParseU64(const std::string& text, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return !text.empty() && end != nullptr && *end == '\0';
}

bool ParseF64(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

}  // namespace

uint64_t Fnv1a64(std::string_view data) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char ch : data) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string SerializeCheckpoint(const Checkpoint& cp) {
  std::string out = kCheckpointMagic;
  out += '\n';
  out += "epoch " + std::to_string(cp.epoch) + "\n";
  out += "cursor " + std::to_string(cp.cursor) + "\n";
  out += "budget_fraction " + FormatExactDouble(cp.budget_fraction) + "\n";
  out += "budget_bytes " + FormatExactDouble(cp.budget_bytes) + "\n";
  out += "drift " + FormatExactDouble(cp.drift) + "\n";
  out += "degraded " + std::string(cp.degraded ? "1" : "0") + "\n";
  out += "cost_before " + FormatExactDouble(cp.cost_before) + "\n";
  out += "cost_after " + FormatExactDouble(cp.cost_after) + "\n";
  out += "memory " + FormatExactDouble(cp.memory) + "\n";
  out += "selection " + std::to_string(cp.selection.size()) + "\n";
  for (const costmodel::Index& k : cp.selection.indexes()) {
    out += "index ";
    for (size_t u = 0; u < k.width(); ++u) {
      if (u != 0) out += ',';
      out += std::to_string(k.attribute(u));
    }
    out += '\n';
  }
  out += "plan_budget " + FormatExactDouble(cp.plan.budget) + "\n";
  out += "plan_initial " + FormatExactDouble(cp.plan.initial_memory) + "\n";
  out += "plan_final " + FormatExactDouble(cp.plan.final_memory) + "\n";
  out += "plan " + std::to_string(cp.plan.steps.size()) + "\n";
  for (const PlanStep& step : cp.plan.steps) {
    out += "step ";
    out += step.create ? 'C' : 'D';
    out += ' ';
    for (size_t u = 0; u < step.index.width(); ++u) {
      if (u != 0) out += ',';
      out += std::to_string(step.index.attribute(u));
    }
    out += ' ' + FormatExactDouble(step.benefit);
    out += ' ' + FormatExactDouble(step.memory_delta);
    out += ' ' + FormatExactDouble(step.memory_after);
    out += '\n';
  }
  out += "workload " + std::to_string(cp.workload_text.size()) + "\n";
  out += cp.workload_text;
  if (!cp.workload_text.empty() && cp.workload_text.back() != '\n') {
    out += '\n';
  }
  char checksum[32];
  std::snprintf(checksum, sizeof(checksum), "checksum %016llx\n",
                static_cast<unsigned long long>(Fnv1a64(out)));
  out += checksum;
  return out;
}

Result<Checkpoint> DeserializeCheckpoint(const std::string& body) {
  // Checksum first: the last line must be "checksum <16 hex>" and must
  // match the bytes above it. Truncated or bit-flipped files die here.
  constexpr size_t kChecksumLineLen = sizeof("checksum 0123456789abcdef");
  if (body.size() < kChecksumLineLen || body.back() != '\n') {
    return Malformed("truncated (no checksum line)");
  }
  const size_t line_start = body.rfind('\n', body.size() - 2);
  const size_t payload_end =
      line_start == std::string::npos ? 0 : line_start + 1;
  const std::string last =
      body.substr(payload_end, body.size() - payload_end - 1);
  std::string checksum_text;
  if (!SplitField(last, "checksum", &checksum_text)) {
    return Malformed("truncated (no checksum line)");
  }
  char* end = nullptr;
  const uint64_t stated = std::strtoull(checksum_text.c_str(), &end, 16);
  if (checksum_text.size() != 16 || *end != '\0') {
    return Malformed("malformed checksum");
  }
  const uint64_t actual = Fnv1a64(std::string_view(body).substr(0, payload_end));
  if (stated != actual) {
    return Malformed("checksum mismatch (corrupt or truncated)");
  }

  std::istringstream in(body.substr(0, payload_end));
  std::string line;
  if (!std::getline(in, line)) return Malformed("empty");
  if (line != kCheckpointMagic) {
    return Malformed("version skew: got '" + line + "', want '" +
                     kCheckpointMagic + "'");
  }

  Checkpoint cp;
  std::string value;
  auto next_field = [&](const char* key) -> Status {
    if (!std::getline(in, line) || !SplitField(line, key, &value)) {
      return Malformed(std::string("missing field '") + key + "'");
    }
    return Status::Ok();
  };
  Status s;
  if (!(s = next_field("epoch")).ok()) return s;
  if (!ParseU64(value, &cp.epoch)) return Malformed("bad epoch");
  if (!(s = next_field("cursor")).ok()) return s;
  if (!ParseU64(value, &cp.cursor)) return Malformed("bad cursor");
  if (!(s = next_field("budget_fraction")).ok()) return s;
  if (!ParseF64(value, &cp.budget_fraction)) return Malformed("bad fraction");
  if (!(s = next_field("budget_bytes")).ok()) return s;
  if (!ParseF64(value, &cp.budget_bytes)) return Malformed("bad bytes");
  if (!(s = next_field("drift")).ok()) return s;
  if (!ParseF64(value, &cp.drift)) return Malformed("bad drift");
  if (!(s = next_field("degraded")).ok()) return s;
  if (value != "0" && value != "1") return Malformed("bad degraded flag");
  cp.degraded = value == "1";
  if (!(s = next_field("cost_before")).ok()) return s;
  if (!ParseF64(value, &cp.cost_before)) return Malformed("bad cost_before");
  if (!(s = next_field("cost_after")).ok()) return s;
  if (!ParseF64(value, &cp.cost_after)) return Malformed("bad cost_after");
  if (!(s = next_field("memory")).ok()) return s;
  if (!ParseF64(value, &cp.memory)) return Malformed("bad memory");

  if (!(s = next_field("selection")).ok()) return s;
  uint64_t num_indexes = 0;
  if (!ParseU64(value, &num_indexes)) return Malformed("bad selection count");
  std::vector<costmodel::Index> selection;
  for (uint64_t i = 0; i < num_indexes; ++i) {
    if (!(s = next_field("index")).ok()) return s;
    std::vector<workload::AttributeId> attrs;
    size_t pos = 0;
    while (pos <= value.size()) {
      size_t comma = value.find(',', pos);
      if (comma == std::string::npos) comma = value.size();
      const std::string token = value.substr(pos, comma - pos);
      char* attr_end = nullptr;
      const unsigned long attr = std::strtoul(token.c_str(), &attr_end, 10);
      if (token.empty() || *attr_end != '\0') {
        return Malformed("bad index attribute list");
      }
      attrs.push_back(static_cast<workload::AttributeId>(attr));
      pos = comma + 1;
    }
    if (attrs.empty()) return Malformed("empty index");
    selection.emplace_back(std::move(attrs));
  }
  cp.selection = costmodel::IndexConfig(std::move(selection));

  if (!(s = next_field("plan_budget")).ok()) return s;
  if (!ParseF64(value, &cp.plan.budget)) return Malformed("bad plan budget");
  if (!(s = next_field("plan_initial")).ok()) return s;
  if (!ParseF64(value, &cp.plan.initial_memory)) {
    return Malformed("bad plan initial memory");
  }
  if (!(s = next_field("plan_final")).ok()) return s;
  if (!ParseF64(value, &cp.plan.final_memory)) {
    return Malformed("bad plan final memory");
  }
  if (!(s = next_field("plan")).ok()) return s;
  uint64_t num_steps = 0;
  if (!ParseU64(value, &num_steps)) return Malformed("bad plan count");
  for (uint64_t i = 0; i < num_steps; ++i) {
    if (!(s = next_field("step")).ok()) return s;
    // "C|D <a,b,...> <benefit> <memory_delta> <memory_after>"
    std::vector<std::string> tokens;
    size_t pos = 0;
    while (pos <= value.size()) {
      size_t space = value.find(' ', pos);
      if (space == std::string::npos) space = value.size();
      tokens.push_back(value.substr(pos, space - pos));
      pos = space + 1;
    }
    if (tokens.size() != 5 || (tokens[0] != "C" && tokens[0] != "D")) {
      return Malformed("bad plan step");
    }
    PlanStep step;
    step.create = tokens[0] == "C";
    std::vector<workload::AttributeId> attrs;
    pos = 0;
    const std::string& attr_list = tokens[1];
    while (pos <= attr_list.size()) {
      size_t comma = attr_list.find(',', pos);
      if (comma == std::string::npos) comma = attr_list.size();
      const std::string token = attr_list.substr(pos, comma - pos);
      char* attr_end = nullptr;
      const unsigned long attr = std::strtoul(token.c_str(), &attr_end, 10);
      if (token.empty() || *attr_end != '\0') {
        return Malformed("bad plan step attributes");
      }
      attrs.push_back(static_cast<workload::AttributeId>(attr));
      pos = comma + 1;
    }
    if (attrs.empty()) return Malformed("bad plan step attributes");
    step.index = costmodel::Index(std::move(attrs));
    if (!ParseF64(tokens[2], &step.benefit) ||
        !ParseF64(tokens[3], &step.memory_delta) ||
        !ParseF64(tokens[4], &step.memory_after)) {
      return Malformed("bad plan step numbers");
    }
    cp.plan.steps.push_back(std::move(step));
  }

  if (!(s = next_field("workload")).ok()) return s;
  uint64_t workload_bytes = 0;
  if (!ParseU64(value, &workload_bytes)) return Malformed("bad workload size");
  std::string rest((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (rest.size() < workload_bytes) {
    return Malformed("workload block shorter than declared");
  }
  cp.workload_text = rest.substr(0, workload_bytes);
  return cp;
}

Status SaveCheckpoint(const std::string& path, const Checkpoint& cp) {
  const std::string body = SerializeCheckpoint(cp);
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return Status::Internal("checkpoint: cannot open " + tmp);
  }
  const size_t written = std::fwrite(body.data(), 1, body.size(), file);
  bool ok = written == body.size() && std::fflush(file) == 0;
#if defined(IDXSEL_SERVE_HAVE_FSYNC)
  ok = ok && ::fsync(::fileno(file)) == 0;
#endif
  ok = std::fclose(file) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::Internal("checkpoint: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("checkpoint: rename to " + path + " failed");
  }
  return Status::Ok();
}

Result<Checkpoint> LoadCheckpoint(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("checkpoint: no file at " + path);
  }
  std::string body;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    body.append(buf, got);
  }
  std::fclose(file);
  return DeserializeCheckpoint(body);
}

}  // namespace idxsel::serve
