#include "obs/journal.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace idxsel::obs {
namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') *out += '\\';
    *out += c;
  }
}

/// %.17g round-trips every finite double; non-finite values are not valid
/// JSON numbers, so they render as quoted strings — the report tool and
/// the journal tests parse both forms.
void AppendDouble(std::string* out, double v) {
  if (std::isnan(v)) {
    *out += "\"nan\"";
  } else if (std::isinf(v)) {
    *out += v > 0 ? "\"inf\"" : "\"-inf\"";
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    *out += buf;
  }
}

void AppendField(std::string* out, const char* key, const std::string& v) {
  *out += '"';
  *out += key;
  *out += "\":\"";
  AppendEscaped(out, v);
  *out += '"';
}

void AppendField(std::string* out, const char* key, double v) {
  *out += '"';
  *out += key;
  *out += "\":";
  AppendDouble(out, v);
}

void AppendField(std::string* out, const char* key, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += '"';
  *out += key;
  *out += "\":";
  *out += buf;
}

void BridgeSink(const telemetry::JournalEvent& event) {
  Journal::Default().Append(event);
}

std::atomic<bool>& JournalEnabledFlag() {
  static std::atomic<bool> flag{[] {
    const char* v = std::getenv("IDXSEL_JOURNAL");
    const bool on = v != nullptr && v[0] == '1';
    if (on) telemetry::SetJournalSink(&BridgeSink);
    return on;
  }()};
  return flag;
}

}  // namespace

std::string JournalRecord::ToJsonl() const {
  std::string out = "{";
  AppendField(&out, "seq", seq);
  out += ',';
  AppendField(&out, "strategy", strategy);
  out += ',';
  AppendField(&out, "action", action);
  out += ',';
  AppendField(&out, "round", round);
  out += ',';
  AppendField(&out, "winner", winner);
  out += ',';
  AppendField(&out, "winner_ratio", winner_ratio);
  out += ',';
  AppendField(&out, "margin", margin);
  out += ',';
  AppendField(&out, "objective_before", objective_before);
  out += ',';
  AppendField(&out, "objective_after", objective_after);
  out += ',';
  AppendField(&out, "memory_after", memory_after);
  out += ',';
  AppendField(&out, "sanitized_whatif", sanitized_whatif);
  out += ",\"candidates\":[";
  for (size_t i = 0; i < candidates.size(); ++i) {
    const JournalCandidate& c = candidates[i];
    if (i != 0) out += ',';
    out += '{';
    AppendField(&out, "index", c.index);
    out += ',';
    AppendField(&out, "reject", c.reject);
    out += ',';
    AppendField(&out, "benefit", c.benefit);
    out += ',';
    AppendField(&out, "memory_delta", c.memory_delta);
    out += ',';
    AppendField(&out, "ratio", c.ratio);
    out += '}';
  }
  out += ']';
  if (!note.empty()) {
    out += ',';
    AppendField(&out, "note", note);
  }
  out += '}';
  return out;
}

std::string JournalToJsonl(const std::vector<JournalRecord>& records) {
  std::string out;
  for (const JournalRecord& r : records) {
    out += r.ToJsonl();
    out += '\n';
  }
  return out;
}

bool JournalEnabled() {
  return JournalEnabledFlag().load(std::memory_order_relaxed);
}

void SetJournalEnabled(bool on) {
  JournalEnabledFlag().store(on, std::memory_order_relaxed);
  telemetry::SetJournalSink(on ? &BridgeSink : nullptr);
}

Journal& Journal::Default() {
  static Journal* journal = new Journal();  // leaked: outlives every sink call
  return *journal;
}

void Journal::Append(const telemetry::JournalEvent& event) {
  JournalRecord record;
  record.strategy = event.strategy != nullptr ? event.strategy : "";
  record.action = event.action != nullptr ? event.action : "";
  record.round = event.round;
  record.winner = event.winner != nullptr ? event.winner : "";
  record.winner_ratio = event.winner_ratio;
  record.margin = event.margin;
  record.objective_before = event.objective_before;
  record.objective_after = event.objective_after;
  record.memory_after = event.memory_after;
  record.sanitized_whatif = event.sanitized_whatif;
  record.note = event.note != nullptr ? event.note : "";
  record.candidates.reserve(event.num_candidates);
  for (size_t i = 0; i < event.num_candidates; ++i) {
    const telemetry::JournalCandidate& c = event.candidates[i];
    JournalCandidate owned;
    owned.index = c.index != nullptr ? c.index : "";
    owned.reject = c.reject != nullptr ? c.reject : "";
    owned.benefit = c.benefit;
    owned.memory_delta = c.memory_delta;
    owned.ratio = c.ratio;
    record.candidates.push_back(std::move(owned));
  }

  common::MutexLock lock(&mu_);
  if (records_.size() >= kMaxRecords) {
    ++dropped_;
    return;
  }
  records_.push_back(std::move(record));
}

size_t Journal::size() const {
  common::MutexLock lock(&mu_);
  return records_.size();
}

uint64_t Journal::dropped() const {
  common::MutexLock lock(&mu_);
  return dropped_;
}

std::vector<JournalRecord> Journal::SnapshotSince(size_t mark) const {
  common::MutexLock lock(&mu_);
  std::vector<JournalRecord> out;
  if (mark >= records_.size()) return out;
  out.assign(records_.begin() + static_cast<ptrdiff_t>(mark),
             records_.end());
  for (size_t i = 0; i < out.size(); ++i) out[i].seq = i;
  return out;
}

void Journal::Clear() {
  common::MutexLock lock(&mu_);
  records_.clear();
  dropped_ = 0;
}

JournalScope::JournalScope(std::vector<std::string> lane_order)
    : lane_order_(std::move(lane_order)) {
  if (JournalEnabled()) telemetry::SetJournalSink(&BridgeSink);
  mark_ = Journal::Default().size();
}

void JournalScope::SetLaneOrder(std::vector<std::string> lane_order) {
  lane_order_ = std::move(lane_order);
}

std::vector<JournalRecord> JournalScope::Finish() {
  std::vector<JournalRecord> records =
      Journal::Default().SnapshotSince(mark_);
  const auto ordinal = [&](const JournalRecord& r) {
    for (size_t i = 0; i < lane_order_.size(); ++i) {
      if (lane_order_[i] == r.strategy) return i;
    }
    return lane_order_.size();
  };
  std::stable_sort(records.begin(), records.end(),
                   [&](const JournalRecord& a, const JournalRecord& b) {
                     return ordinal(a) < ordinal(b);
                   });
  for (size_t i = 0; i < records.size(); ++i) records[i].seq = i;
  return records;
}

}  // namespace idxsel::obs
