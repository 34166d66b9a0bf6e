#include "idxsel_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

namespace idxsel::lint {
namespace {

// ---------------------------------------------------------------------------
// Path classification

std::string Normalize(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  return path;
}

std::vector<std::string> Segments(const std::string& path) {
  std::vector<std::string> out;
  std::string seg;
  std::stringstream ss(path);
  while (std::getline(ss, seg, '/')) {
    if (!seg.empty()) out.push_back(seg);
  }
  return out;
}

enum class Scope { kSrc, kTests, kBench, kTools, kExamples, kOther };

/// The tree a directory name stands for, or kOther.
Scope TreeNamed(const std::string& seg) {
  if (seg == "src") return Scope::kSrc;
  if (seg == "tests") return Scope::kTests;
  if (seg == "bench") return Scope::kBench;
  if (seg == "tools") return Scope::kTools;
  if (seg == "examples") return Scope::kExamples;
  return Scope::kOther;
}

/// Index of the segment that names the file's tree, or segs.size() when
/// none does. The first `root_len` segments are the root argument the file
/// was found under, and the innermost tree name among them wins: a file
/// under `bench` stays in bench even when a deeper directory is called
/// src (bench/e2e/src/a.cc). A root above every tree ("." or the
/// repository) defers to the first tree name below it. A file that is its
/// own root (root_len == segs.size()) classifies by its innermost tree
/// name, so absolute paths (/home/x/repo/src/core/a.cc) and golden-test
/// trees classify alike.
size_t TreeSegment(const std::vector<std::string>& segs, size_t root_len) {
  for (size_t i = root_len; i-- > 0;) {
    if (TreeNamed(segs[i]) != Scope::kOther) return i;
  }
  for (size_t i = root_len; i < segs.size(); ++i) {
    if (TreeNamed(segs[i]) != Scope::kOther) return i;
  }
  return segs.size();
}

/// Module directory under src/ ("core", "obs", ...), or "" outside src/
/// (or for files sitting directly in src/ with no module directory).
std::string ModuleOf(const std::vector<std::string>& segs, size_t tree) {
  if (tree + 2 < segs.size() && segs[tree] == "src") return segs[tree + 1];
  return "";
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ---------------------------------------------------------------------------
// The layering DAG (DESIGN.md §2 "Dependency order"). Direct allowed
// dependencies; the checker closes them transitively. kernel and exec
// deliberately omit obs: they sit beside it, and their telemetry flows
// through common/telemetry.h.

const std::map<std::string, std::vector<std::string>>& LayeringDag() {
  static const std::map<std::string, std::vector<std::string>> dag = {
      {"common", {}},
      {"obs", {"common"}},
      {"exec", {"common"}},
      {"workload", {"common"}},
      {"kernel", {"common", "workload"}},
      {"mip", {"common", "obs", "exec"}},
      {"costmodel", {"common", "workload", "kernel", "obs", "exec"}},
      {"audit", {"common", "workload", "kernel", "costmodel", "exec"}},
      {"rt", {"common", "workload", "kernel", "costmodel", "obs", "exec"}},
      {"candidates",
       {"common", "workload", "kernel", "costmodel", "obs", "exec"}},
      {"engine", {"common", "workload", "kernel", "costmodel", "obs", "exec"}},
      {"selection",
       {"common", "workload", "kernel", "costmodel", "obs", "exec",
        "candidates"}},
      {"cophy",
       {"common", "workload", "kernel", "costmodel", "obs", "exec",
        "candidates", "mip"}},
      {"core",
       {"common", "workload", "kernel", "costmodel", "obs", "exec", "audit"}},
      {"frontier",
       {"common", "workload", "kernel", "costmodel", "obs", "exec"}},
      {"analysis",
       {"common", "workload", "kernel", "costmodel", "obs", "exec"}},
      {"shard",
       {"common", "workload", "costmodel", "exec", "core"}},
      {"advisor",
       {"common", "workload", "kernel", "costmodel", "obs", "exec", "rt",
        "audit", "candidates", "mip", "cophy", "selection", "core",
        "shard"}},
      {"serve", {"common", "workload", "costmodel", "rt", "advisor", "shard"}},
  };
  return dag;
}

/// Transitive closure of the DAG (a module may include headers of any
/// transitive dependency — linking already hands it the whole chain).
const std::map<std::string, std::set<std::string>>& LayeringClosure() {
  static const std::map<std::string, std::set<std::string>> closure = [] {
    std::map<std::string, std::set<std::string>> out;
    // Iterate to fixpoint; the table is tiny.
    for (const auto& [mod, deps] : LayeringDag()) {
      out[mod] = {deps.begin(), deps.end()};
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (auto& [mod, deps] : out) {
        std::set<std::string> add;
        for (const std::string& d : deps) {
          auto it = out.find(d);
          if (it == out.end()) continue;
          for (const std::string& dd : it->second) {
            if (!deps.count(dd)) add.insert(dd);
          }
        }
        if (!add.empty()) {
          deps.insert(add.begin(), add.end());
          changed = true;
        }
      }
    }
    return out;
  }();
  return closure;
}

// ---------------------------------------------------------------------------
// Tokenized file view

struct FileView {
  std::string path;                     // normalized
  std::vector<std::string> segs;        // path segments
  Scope scope = Scope::kOther;
  std::string module;                   // src module or ""
  std::vector<std::string> code;        // per line, comments/strings blanked
  std::vector<std::string> comments;    // per line, comment text only
  std::vector<std::pair<int, std::string>> includes;  // (line, quoted path)
  bool is_cmake = false;
};

/// Strips comments and string/char literals while preserving line
/// structure; collects comment text per line (for suppression parsing) and
/// quoted includes.
void BuildView(const std::string& content, FileView* view) {
  std::string line_code, line_comment;
  enum class St { kCode, kLineComment, kBlockComment, kString, kChar, kRaw };
  St st = St::kCode;
  bool keep_string = false;
  std::string raw_delim;
  size_t i = 0;
  const size_t n = content.size();
  auto flush_line = [&] {
    view->code.push_back(line_code);
    view->comments.push_back(line_comment);
    line_code.clear();
    line_comment.clear();
  };
  while (i < n) {
    const char c = content[i];
    const char next = i + 1 < n ? content[i + 1] : '\0';
    if (c == '\n') {
      if (st == St::kLineComment) st = St::kCode;
      // Unterminated ordinary literals do not span lines.
      if (st == St::kString || st == St::kChar) st = St::kCode;
      flush_line();
      ++i;
      continue;
    }
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLineComment;
          i += 2;
        } else if (c == '/' && next == '*') {
          st = St::kBlockComment;
          line_code += "  ";
          i += 2;
        } else if (c == 'R' && next == '"' &&
                   (line_code.empty() ||
                    (!std::isalnum(static_cast<unsigned char>(
                         line_code.back())) &&
                     line_code.back() != '_'))) {
          // Raw string literal: R"delim( ... )delim"
          size_t j = i + 2;
          raw_delim.clear();
          while (j < n && content[j] != '(') raw_delim += content[j++];
          st = St::kRaw;
          line_code += ' ';
          i = j < n ? j + 1 : n;
        } else if (c == '"') {
          st = St::kString;
          line_code += '"';
          ++i;
          // Only preprocessor lines keep their string contents in the code
          // view (the #include extraction below reads the quoted path);
          // everywhere else literal text is blanked so words inside
          // strings can never trigger token-scanning checks.
          {
            const size_t h = line_code.find_first_not_of(" \t");
            keep_string = h != std::string::npos && line_code[h] == '#';
          }
        } else if (c == '\'') {
          st = St::kChar;
          line_code += ' ';
          ++i;
        } else {
          line_code += c;
          ++i;
        }
        break;
      case St::kLineComment:
        line_comment += c;
        ++i;
        break;
      case St::kBlockComment:
        if (c == '*' && next == '/') {
          st = St::kCode;
          i += 2;
        } else {
          line_comment += c;
          ++i;
        }
        break;
      case St::kString:
        if (c == '\\') {
          i += 2;
        } else if (c == '"') {
          st = St::kCode;
          line_code += '"';
          ++i;
        } else {
          line_code += keep_string ? c : ' ';
          ++i;
        }
        break;
      case St::kChar:
        if (c == '\\') {
          i += 2;
        } else if (c == '\'') {
          st = St::kCode;
          ++i;
        } else {
          ++i;
        }
        break;
      case St::kRaw: {
        const std::string close = ")" + raw_delim + "\"";
        if (content.compare(i, close.size(), close) == 0) {
          st = St::kCode;
          i += close.size();
        } else {
          ++i;
        }
        break;
      }
    }
  }
  flush_line();

  // Collect #include "..." lines from the code view.
  for (size_t l = 0; l < view->code.size(); ++l) {
    const std::string& s = view->code[l];
    size_t p = s.find_first_not_of(" \t");
    if (p == std::string::npos || s[p] != '#') continue;
    p = s.find_first_not_of(" \t", p + 1);
    if (p == std::string::npos || s.compare(p, 7, "include") != 0) continue;
    const size_t q1 = s.find('"', p + 7);
    if (q1 == std::string::npos) continue;
    const size_t q2 = s.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    view->includes.emplace_back(static_cast<int>(l + 1),
                                s.substr(q1 + 1, q2 - q1 - 1));
  }
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Whole-word occurrences of `word` in `s`; returns 0-based positions.
std::vector<size_t> FindWord(const std::string& s, const std::string& word) {
  std::vector<size_t> out;
  size_t pos = 0;
  while ((pos = s.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(s[pos - 1]);
    const size_t end = pos + word.size();
    const bool right_ok = end >= s.size() || !IsIdentChar(s[end]);
    if (left_ok && right_ok) out.push_back(pos);
    pos = end;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Suppressions

struct Suppression {
  std::string check;
  bool has_reason = false;
};

/// Parses "idxsel-lint: allow(<check>) reason=<text>" out of a comment.
std::vector<Suppression> ParseSuppressions(const std::string& comment) {
  std::vector<Suppression> out;
  size_t pos = 0;
  while ((pos = comment.find("idxsel-lint:", pos)) != std::string::npos) {
    size_t p = comment.find("allow(", pos);
    if (p == std::string::npos) break;
    p += 6;
    const size_t close = comment.find(')', p);
    if (close == std::string::npos) break;
    Suppression s;
    s.check = comment.substr(p, close - p);
    const size_t r = comment.find("reason=", close);
    if (r != std::string::npos) {
      std::string reason = comment.substr(r + 7);
      // Trim; an all-whitespace reason is no reason.
      while (!reason.empty() && std::isspace(static_cast<unsigned char>(
                                    reason.back()))) {
        reason.pop_back();
      }
      s.has_reason = !reason.empty();
    }
    out.push_back(std::move(s));
    pos = close;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Check context

struct Context {
  std::vector<FileView> files;
  Options options;
  std::vector<Finding> findings;

  void Report(const FileView& f, int line, const std::string& check,
              std::string message) {
    findings.push_back({f.path, line, check, std::move(message)});
  }
};

// ---------------------------------------------------------------------------
// L1: layering + include cycles

void CheckLayering(Context* ctx) {
  const auto& closure = LayeringClosure();
  for (const FileView& f : ctx->files) {
    if (f.is_cmake || f.scope != Scope::kSrc || f.module.empty()) continue;
    const auto self = closure.find(f.module);
    if (self == closure.end()) {
      ctx->Report(f, 1, "layering",
                  "module 'src/" + f.module +
                      "' is not in the layering table; add it to the "
                      "DESIGN.md dependency DAG and tools/idxsel_lint");
      continue;
    }
    for (const auto& [line, inc] : f.includes) {
      const size_t slash = inc.find('/');
      if (slash == std::string::npos) continue;  // sibling include
      const std::string target = inc.substr(0, slash);
      if (target == f.module) continue;
      if (!closure.count(target)) continue;  // not a src module ("gtest/...")
      if ((f.module == "kernel" || f.module == "exec") && target == "obs") {
        ctx->Report(f, line, "layering",
                    "src/" + f.module +
                        " must never include obs headers directly (include '" +
                        inc + "'); publish through common/telemetry.h");
        continue;
      }
      if (!self->second.count(target)) {
        ctx->Report(f, line, "layering",
                    "src/" + f.module + " may not depend on src/" + target +
                        " (include '" + inc +
                        "'); allowed: " + [&] {
                          std::string s;
                          for (const auto& d : self->second) {
                            s += s.empty() ? d : ", " + d;
                          }
                          return s.empty() ? std::string("none") : s;
                        }());
      }
    }
  }
}

void CheckIncludeCycles(Context* ctx) {
  // Resolve quoted includes to scanned files by path suffix (or sibling
  // file for slash-less includes).
  std::map<std::string, size_t> by_path;  // normalized path -> index
  for (size_t i = 0; i < ctx->files.size(); ++i) {
    by_path[ctx->files[i].path] = i;
  }
  auto resolve = [&](const FileView& from, const std::string& inc) -> int {
    if (inc.find('/') == std::string::npos) {
      const size_t slash = from.path.rfind('/');
      const std::string sibling =
          slash == std::string::npos ? inc : from.path.substr(0, slash + 1) + inc;
      const auto it = by_path.find(sibling);
      return it == by_path.end() ? -1 : static_cast<int>(it->second);
    }
    int found = -1;
    for (const auto& [path, idx] : by_path) {
      if (EndsWith(path, "/" + inc) || path == inc) {
        if (found >= 0) return -1;  // ambiguous: stay silent
        found = static_cast<int>(idx);
      }
    }
    return found;
  };

  const size_t n = ctx->files.size();
  std::vector<std::vector<std::pair<int, int>>> edges(n);  // (target, line)
  for (size_t i = 0; i < n; ++i) {
    if (ctx->files[i].is_cmake) continue;
    for (const auto& [line, inc] : ctx->files[i].includes) {
      const int t = resolve(ctx->files[i], inc);
      if (t >= 0 && static_cast<size_t>(t) != i) {
        edges[i].push_back({t, line});
      }
    }
  }

  // Iterative DFS, reporting the first back-edge of each cycle found.
  std::vector<int> color(n, 0);  // 0 white, 1 gray, 2 black
  std::vector<int> parent_edge_line(n, 0);
  std::set<std::pair<size_t, size_t>> reported;
  for (size_t root = 0; root < n; ++root) {
    if (color[root] != 0) continue;
    std::vector<std::pair<size_t, size_t>> stack;  // (node, next edge idx)
    std::vector<size_t> path;
    stack.push_back({root, 0});
    color[root] = 1;
    path.push_back(root);
    while (!stack.empty()) {
      auto& [node, edge_idx] = stack.back();
      if (edge_idx >= edges[node].size()) {
        color[node] = 2;
        stack.pop_back();
        path.pop_back();
        continue;
      }
      const auto [target, line] = edges[node][edge_idx++];
      const size_t t = static_cast<size_t>(target);
      if (color[t] == 1) {
        // Back edge: path from t .. node forms the cycle.
        if (reported.insert({std::min(node, t), std::max(node, t)}).second) {
          std::string cyc;
          bool in = false;
          for (const size_t p : path) {
            if (p == t) in = true;
            if (in) cyc += ctx->files[p].path + " -> ";
          }
          cyc += ctx->files[t].path;
          ctx->Report(ctx->files[node], static_cast<int>(line),
                      "include-cycle", "include cycle: " + cyc);
        }
      } else if (color[t] == 0) {
        color[t] = 1;
        stack.push_back({t, 0});
        path.push_back(t);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// L1 companion: journal emission goes through the telemetry bridge

/// Strategy and leaf layers emit decision records exclusively via
/// telemetry::EmitJournal (common/telemetry.h); only obs (the sink) and
/// advisor (JournalScope owner, Recommendation::journal) may touch the
/// obs::Journal* types or include obs/journal.h. Direct consumption from
/// an emitting layer would bypass the run scoping and the journal's
/// runtime switch — see doc/observability.md ("Selection journal").
void CheckJournalBridge(Context* ctx) {
  for (const FileView& f : ctx->files) {
    if (f.is_cmake || f.scope != Scope::kSrc) continue;
    if (f.module == "obs" || f.module == "advisor") continue;
    for (const auto& [line, inc] : f.includes) {
      if (inc == "obs/journal.h") {
        ctx->Report(f, line, "journal-bridge",
                    "src/" + f.module +
                        " must not include obs/journal.h; emit decision "
                        "records through telemetry::EmitJournal "
                        "(common/telemetry.h)");
      }
    }
    for (size_t l = 0; l < f.code.size(); ++l) {
      if (f.code[l].find("obs::Journal") != std::string::npos) {
        ctx->Report(f, static_cast<int>(l + 1), "journal-bridge",
                    "src/" + f.module +
                        " must not use obs::Journal* directly; emit through "
                        "telemetry::EmitJournal, consume from src/obs or "
                        "src/advisor only");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// L1 companion: no vector intrinsics

/// Occurrences of `token` in `s` at identifier-start boundaries (the
/// token is a prefix: intrinsic names continue past it, so FindWord's
/// trailing boundary would never match).
bool HasPrefixWord(const std::string& s, const std::string& token) {
  size_t pos = 0;
  while ((pos = s.find(token, pos)) != std::string::npos) {
    if (pos == 0 || !IsIdentChar(s[pos - 1])) return true;
    pos += token.size();
  }
  return false;
}

/// Raw SIMD intrinsics (immintrin.h and friends, _mm*/__m* names) are
/// flagged everywhere: no target is compiled with -mavx2, and where a
/// vector loop pays (the engine's scan blocks) it is a plain loop the
/// compiler vectorizes at the baseline flags — see doc/cost_model.md
/// ("Why there is no vector layer").
void CheckSimdConfinement(Context* ctx) {
  static const char* kIntrinsicHeaders[] = {
      "immintrin.h", "x86intrin.h", "emmintrin.h", "xmmintrin.h",
      "pmmintrin.h", "smmintrin.h", "tmmintrin.h", "nmmintrin.h",
      "wmmintrin.h", "avxintrin.h", "arm_neon.h"};
  static const char* kIntrinsicTokens[] = {"_mm512_", "_mm256_", "_mm_",
                                           "__m512", "__m256", "__m128"};
  for (const FileView& f : ctx->files) {
    if (f.is_cmake) continue;
    for (size_t l = 0; l < f.code.size(); ++l) {
      const std::string& s = f.code[l];
      bool hit = false;
      for (const char* h : kIntrinsicHeaders) {
        if (s.find(h) != std::string::npos) {
          ctx->Report(f, static_cast<int>(l + 1), "simd-confinement",
                      std::string("intrinsics header <") + h +
                          ">; write a plain loop the compiler vectorizes "
                          "at the baseline flags");
          hit = true;
          break;
        }
      }
      if (hit) continue;
      for (const char* t : kIntrinsicTokens) {
        if (HasPrefixWord(s, t)) {
          ctx->Report(f, static_cast<int>(l + 1), "simd-confinement",
                      std::string("raw SIMD intrinsic '") + t +
                          "...'; write a plain loop the compiler "
                          "vectorizes at the baseline flags");
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// L2: determinism

bool DeterminismScoped(const FileView& f) {
  return f.scope == Scope::kSrc && f.module != "rt" && f.module != "obs";
}

void CheckRandom(Context* ctx) {
  for (const FileView& f : ctx->files) {
    if (f.is_cmake || !DeterminismScoped(f)) continue;
    for (size_t l = 0; l < f.code.size(); ++l) {
      const std::string& s = f.code[l];
      for (const char* fn : {"rand", "srand"}) {
        for (const size_t pos : FindWord(s, fn)) {
          const size_t after = s.find_first_not_of(" \t", pos + strlen(fn));
          if (after != std::string::npos && s[after] == '(') {
            ctx->Report(f, static_cast<int>(l + 1), "determinism-random",
                        std::string("'") + fn +
                            "()' is nondeterministic across runs; use the "
                            "seeded PRNGs in common/random.h");
          }
        }
      }
      if (!FindWord(s, "random_device").empty()) {
        ctx->Report(f, static_cast<int>(l + 1), "determinism-random",
                    "'std::random_device' is nondeterministic; selection "
                    "code must seed from configuration (common/random.h)");
      }
    }
  }
}

void CheckClock(Context* ctx) {
  for (const FileView& f : ctx->files) {
    if (f.is_cmake || !DeterminismScoped(f)) continue;
    for (size_t l = 0; l < f.code.size(); ++l) {
      const std::string& s = f.code[l];
      for (const char* id : {"system_clock", "gettimeofday", "localtime"}) {
        if (!FindWord(s, id).empty()) {
          ctx->Report(f, static_cast<int>(l + 1), "determinism-clock",
                      std::string("wall-clock '") + id +
                          "' outside rt/obs/bench; deadlines go through "
                          "rt::Deadline (common/deadline.h), timing through "
                          "obs spans");
        }
      }
      for (const char* fn : {"time", "clock"}) {
        for (const size_t pos : FindWord(s, fn)) {
          const size_t after = s.find_first_not_of(" \t", pos + strlen(fn));
          if (after != std::string::npos && s[after] == '(' &&
              (pos < 2 || s.compare(pos - 2, 2, "->") != 0) &&
              (pos == 0 || s[pos - 1] != '.')) {
            ctx->Report(f, static_cast<int>(l + 1), "determinism-clock",
                        std::string("wall-clock '") + fn +
                            "()' outside rt/obs/bench; deadlines go through "
                            "rt::Deadline (common/deadline.h)");
          }
        }
      }
    }
  }
}

void CheckUnorderedIter(Context* ctx) {
  for (const FileView& f : ctx->files) {
    if (f.is_cmake || f.scope != Scope::kSrc) continue;
    if (f.module != "core" && f.module != "selection" && f.module != "mip") {
      continue;
    }
    // Pass 1: names declared with an unordered container type.
    std::set<std::string> unordered_vars;
    for (const std::string& s : f.code) {
      for (const char* ty :
           {"unordered_map", "unordered_set", "unordered_multimap",
            "unordered_multiset"}) {
        for (size_t pos : FindWord(s, ty)) {
          size_t p = pos + strlen(ty);
          if (p >= s.size() || s[p] != '<') continue;
          int depth = 0;
          while (p < s.size()) {
            if (s[p] == '<') ++depth;
            if (s[p] == '>') {
              --depth;
              if (depth == 0) break;
            }
            ++p;
          }
          if (p >= s.size()) continue;  // declaration spans lines: skip
          ++p;
          // Skip refs/pointers/whitespace, then read the variable name.
          while (p < s.size() &&
                 (s[p] == ' ' || s[p] == '&' || s[p] == '*')) {
            ++p;
          }
          std::string name;
          while (p < s.size() && IsIdentChar(s[p])) name += s[p++];
          if (!name.empty()) unordered_vars.insert(name);
        }
      }
    }
    // Pass 2: range-fors whose range expression mentions an unordered
    // container (by declared name or directly).
    for (size_t l = 0; l < f.code.size(); ++l) {
      const std::string& s = f.code[l];
      for (const size_t pos : FindWord(s, "for")) {
        const size_t paren = s.find('(', pos + 3);
        if (paren == std::string::npos) continue;
        // Find the ':' of a range-for at paren depth 1 (ignore '::').
        int depth = 0;
        size_t colon = std::string::npos;
        size_t close = std::string::npos;
        for (size_t p = paren; p < s.size(); ++p) {
          if (s[p] == '(') ++depth;
          if (s[p] == ')') {
            --depth;
            if (depth == 0) {
              close = p;
              break;
            }
          }
          if (s[p] == ':' && depth == 1 && colon == std::string::npos &&
              (p + 1 >= s.size() || s[p + 1] != ':') &&
              (p == 0 || s[p - 1] != ':')) {
            colon = p;
          }
        }
        if (colon == std::string::npos || close == std::string::npos) {
          continue;
        }
        const std::string range = s.substr(colon + 1, close - colon - 1);
        bool hit = range.find("unordered_") != std::string::npos;
        for (const std::string& name : unordered_vars) {
          if (!FindWord(range, name).empty()) hit = true;
        }
        if (hit) {
          ctx->Report(
              f, static_cast<int>(l + 1), "unordered-iter",
              "range-for over an unordered container in src/" + f.module +
                  "; selection decisions must iterate deterministic orders "
                  "(sort the keys first, or suppress with a written reason "
                  "if the order provably never escapes)");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// L3: hygiene

/// True when the token names a cost-like quantity. Identifiers are split
/// into words on '_', '.', and camelCase boundaries so that e.g.
/// "reconfiguration" does not match "ratio" by substring accident, while
/// "x.cost", "query_costs", and "bestRatio" all match.
bool CostLikeToken(const std::string& tok) {
  std::vector<std::string> words;
  std::string word;
  for (size_t i = 0; i < tok.size(); ++i) {
    const char c = tok[i];
    if (c == '_' || c == '.') {
      if (!word.empty()) words.push_back(word);
      word.clear();
      continue;
    }
    if (std::isupper(static_cast<unsigned char>(c)) && !word.empty() &&
        std::islower(static_cast<unsigned char>(word.back()))) {
      words.push_back(word);
      word.clear();
    }
    word += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (!word.empty()) words.push_back(word);
  for (const std::string& w : words) {
    for (const char* kw :
         {"cost", "benefit", "ratio", "penalty", "objective"}) {
      if (w == kw || w == std::string(kw) + "s") return true;
    }
  }
  return false;
}

bool FloatLiteralToken(const std::string& tok) {
  if (tok.empty() || !std::isdigit(static_cast<unsigned char>(tok[0]))) {
    return tok.size() >= 2 && tok[0] == '.' &&
           std::isdigit(static_cast<unsigned char>(tok[1]));
  }
  return tok.find('.') != std::string::npos ||
         tok.find('e') != std::string::npos ||
         tok.find('E') != std::string::npos;
}

/// Token (identifier/number, possibly dotted member chain) ending at `end`
/// (exclusive), scanning backwards. Trailing balanced "[...]"/"(...)"
/// groups are skipped so "query_costs[x]" yields "query_costs".
std::string TokenBefore(const std::string& s, size_t end) {
  size_t p = end;
  while (p > 0 && s[p - 1] == ' ') --p;
  while (p > 0 && (s[p - 1] == ']' || s[p - 1] == ')')) {
    const char open = s[p - 1] == ']' ? '[' : '(';
    const char close = s[p - 1];
    int depth = 0;
    while (p > 0) {
      --p;
      if (s[p] == close) ++depth;
      if (s[p] == open && --depth == 0) break;
    }
    if (depth != 0) return "";  // unbalanced on this line: give up
  }
  const size_t stop = p;
  while (p > 0 && (IsIdentChar(s[p - 1]) || s[p - 1] == '.')) --p;
  return s.substr(p, stop - p);
}

std::string TokenAfter(const std::string& s, size_t begin) {
  size_t p = begin;
  while (p < s.size() && s[p] == ' ') ++p;
  const size_t start = p;
  while (p < s.size() && (IsIdentChar(s[p]) || s[p] == '.')) ++p;
  return s.substr(start, p - start);
}

void CheckDoubleCompare(Context* ctx) {
  for (const FileView& f : ctx->files) {
    // Library and bench code: the benches compute the reported figures.
    if (f.is_cmake || (f.scope != Scope::kSrc && f.scope != Scope::kBench)) {
      continue;
    }
    // The one approved home for raw FP equality, and the generic CHECK
    // macros (whose ==/!= instantiate over every comparable type).
    if (EndsWith(f.path, "common/float_cmp.h") ||
        EndsWith(f.path, "common/check.h")) {
      continue;
    }
    for (size_t l = 0; l < f.code.size(); ++l) {
      const std::string& s = f.code[l];
      if (s.find("operator==") != std::string::npos ||
          s.find("operator!=") != std::string::npos) {
        continue;
      }
      for (size_t p = 0; p + 1 < s.size(); ++p) {
        const bool eq = s[p] == '=' && s[p + 1] == '=';
        const bool ne = s[p] == '!' && s[p + 1] == '=';
        if (!eq && !ne) continue;
        // Exclude <=, >=, === (no such thing), and assignment ==.
        if (p > 0 && (s[p - 1] == '<' || s[p - 1] == '>' || s[p - 1] == '=' ||
                      s[p - 1] == '!')) {
          continue;
        }
        if (p + 2 < s.size() && s[p + 2] == '=') continue;
        const std::string left = TokenBefore(s, p);
        const std::string right = TokenAfter(s, p + 2);
        // Pointer/sentinel comparisons are not value comparisons.
        if (left == "nullptr" || right == "nullptr") continue;
        const bool cost_like = CostLikeToken(left) || CostLikeToken(right);
        const bool fp_lit =
            FloatLiteralToken(left) || FloatLiteralToken(right);
        if (cost_like || fp_lit) {
          ctx->Report(
              f, static_cast<int>(l + 1), "double-compare",
              "raw " + std::string(eq ? "==" : "!=") + " on " +
                  (fp_lit ? "a floating-point literal" : "a cost-like value") +
                  " ('" + (left.empty() ? "?" : left) + "' vs '" +
                  (right.empty() ? "?" : right) +
                  "'); use common/float_cmp.h (ExactlyEqual/ExactlyZero for "
                  "deliberate bitwise tests, ApproxEqual for tolerances)");
        }
      }
    }
  }
}

void CheckMissingCheckInclude(Context* ctx) {
  // Per-file include closure restricted to the scanned set.
  std::map<std::string, size_t> by_path;
  for (size_t i = 0; i < ctx->files.size(); ++i) {
    by_path[ctx->files[i].path] = i;
  }
  auto resolve = [&](const FileView& from, const std::string& inc) -> int {
    if (inc.find('/') == std::string::npos) {
      const size_t slash = from.path.rfind('/');
      const std::string sibling =
          slash == std::string::npos ? inc
                                     : from.path.substr(0, slash + 1) + inc;
      const auto it = by_path.find(sibling);
      return it == by_path.end() ? -1 : static_cast<int>(it->second);
    }
    for (const auto& [path, idx] : by_path) {
      if (EndsWith(path, "/" + inc) || path == inc) {
        return static_cast<int>(idx);
      }
    }
    return -1;
  };
  const size_t n = ctx->files.size();
  // closure_has_check[i]: common/check.h reachable from i via includes.
  std::vector<int> state(n, -1);  // -1 unknown, 0 no, 1 yes
  std::function<bool(size_t, std::vector<char>&)> reaches =
      [&](size_t i, std::vector<char>& visiting) -> bool {
    if (state[i] >= 0) return state[i] == 1;
    if (visiting[i]) return false;  // cycle: handled by include-cycle check
    visiting[i] = 1;
    bool found = EndsWith(ctx->files[i].path, "common/check.h");
    for (const auto& [line, inc] : ctx->files[i].includes) {
      if (found) break;
      if (inc == "common/check.h" || EndsWith(inc, "/check.h")) {
        found = true;
        break;
      }
      const int t = resolve(ctx->files[i], inc);
      if (t >= 0 && reaches(static_cast<size_t>(t), visiting)) found = true;
    }
    visiting[i] = 0;
    state[i] = found ? 1 : 0;
    return found;
  };
  for (size_t i = 0; i < n; ++i) {
    const FileView& f = ctx->files[i];
    if (f.is_cmake || EndsWith(f.path, "common/check.h")) continue;
    bool uses = false;
    int first_line = 0;
    for (size_t l = 0; l < f.code.size() && !uses; ++l) {
      if (!FindWord(f.code[l], "IDXSEL_CHECK").empty() ||
          f.code[l].find("IDXSEL_CHECK_") != std::string::npos ||
          !FindWord(f.code[l], "IDXSEL_DCHECK").empty() ||
          f.code[l].find("IDXSEL_DCHECK_") != std::string::npos) {
        uses = true;
        first_line = static_cast<int>(l + 1);
      }
    }
    if (!uses) continue;
    std::vector<char> visiting(n, 0);
    if (!reaches(i, visiting)) {
      ctx->Report(f, first_line, "missing-check-include",
                  "IDXSEL_CHECK/IDXSEL_DCHECK used but common/check.h is "
                  "not in this file's include closure");
    }
  }
}

// ---------------------------------------------------------------------------
// L3: orphan sources (build-graph check over CMakeLists.txt inputs)

void CheckOrphanSources(Context* ctx) {
  if (!ctx->options.orphan_check) return;
  // Gather CMake content: per-directory source lists and the union of all
  // idxsel_* target references in tests/ CMake files.
  struct CMakeDir {
    std::set<std::string> sources;  // .cc files named in this CMakeLists
    std::vector<std::string> libraries;  // add_library target names
  };
  std::map<std::string, CMakeDir> dirs;  // directory path -> info
  std::set<std::string> test_referenced;
  bool have_src_cmake = false;
  bool have_tests_cmake = false;
  for (const FileView& f : ctx->files) {
    if (!f.is_cmake) continue;
    const size_t slash = f.path.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "" : f.path.substr(0, slash);
    CMakeDir& d = dirs[dir];
    // Tokenize on non-identifier/path characters.
    std::string all;
    for (const std::string& line : f.code) all += line + "\n";
    std::vector<std::string> toks;
    std::string tok;
    for (const char c : all) {
      if (IsIdentChar(c) || c == '.' || c == '/') {
        tok += c;
      } else if (!tok.empty()) {
        toks.push_back(tok);
        tok.clear();
      }
    }
    if (!tok.empty()) toks.push_back(tok);
    for (size_t t = 0; t < toks.size(); ++t) {
      if ((toks[t] == "add_library" || toks[t] == "add_executable") &&
          t + 1 < toks.size()) {
        if (toks[t] == "add_library") d.libraries.push_back(toks[t + 1]);
      }
      if (EndsWith(toks[t], ".cc")) d.sources.insert(toks[t]);
    }
    if (f.scope == Scope::kSrc) have_src_cmake = true;
    if (f.scope == Scope::kTests) {
      have_tests_cmake = true;
      for (const std::string& t : toks) {
        if (t.rfind("idxsel_", 0) == 0) test_referenced.insert(t);
      }
    }
  }
  if (!have_src_cmake) return;  // nothing to check against

  // (a) every src/ .cc must be named by its directory's CMakeLists.txt.
  for (const FileView& f : ctx->files) {
    if (f.is_cmake || f.scope != Scope::kSrc || !EndsWith(f.path, ".cc")) {
      continue;
    }
    const size_t slash = f.path.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "" : f.path.substr(0, slash);
    const std::string base =
        slash == std::string::npos ? f.path : f.path.substr(slash + 1);
    const auto it = dirs.find(dir);
    if (it == dirs.end() || !it->second.sources.count(base)) {
      ctx->Report(f, 1, "orphan-source",
                  "src/ source file is not compiled into any target by " +
                      (dir.empty() ? std::string("its") : dir + "/") +
                      "CMakeLists.txt");
    }
  }

  // (b) every src/ library must be referenced by the tests CMake graph.
  if (!have_tests_cmake) return;
  for (const auto& [dir, d] : dirs) {
    for (const std::string& lib : d.libraries) {
      if (lib.rfind("idxsel_", 0) != 0) continue;
      if (dir.find("/src/") == std::string::npos &&
          dir.rfind("src/", 0) != 0 && dir != "src") {
        continue;
      }
      if (!test_referenced.count(lib)) {
        // Attribute to the directory's CMakeLists.txt.
        for (const FileView& f : ctx->files) {
          if (f.is_cmake && f.path == dir + "/CMakeLists.txt") {
            ctx->Report(f, 1, "orphan-source",
                        "library '" + lib +
                            "' is not linked by any test target in "
                            "tests/CMakeLists.txt");
            break;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// L4: concurrency contracts

/// Innermost named scope per line (class/struct body, or the owning class
/// of an out-of-line `X::Method(...)` definition at namespace scope) plus
/// the brace depth entering each line. Line-granular: a scope opened and
/// used on the same line is attributed from the line start, which matches
/// the project style (guards and members declared on their own lines).
struct ScopeMap {
  std::vector<std::string> context;
  std::vector<int> depth_at_start;
};

ScopeMap BuildScopeMap(const FileView& f) {
  ScopeMap out;
  out.context.resize(f.code.size());
  out.depth_at_start.resize(f.code.size());
  struct Entry {
    std::string name;
    int depth;
  };
  std::vector<Entry> stack;
  int depth = 0;
  bool cls_mode = false;        // between class/struct keyword and its body
  std::string cls_candidate;    // last identifier seen in cls_mode
  std::string pending;          // scope name for the next '{'
  std::string last_ident;
  std::string qual_owner;       // identifier before the most recent '::'
  bool after_scope_op = false;  // just consumed "::"
  auto effective = [&stack]() -> std::string {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (!it->name.empty()) return it->name;
    }
    return "";
  };
  for (size_t l = 0; l < f.code.size(); ++l) {
    out.depth_at_start[l] = depth;
    out.context[l] = effective();
    const std::string& s = f.code[l];
    for (size_t i = 0; i < s.size(); ++i) {
      const char c = s[i];
      if (IsIdentChar(c)) {
        size_t j = i;
        while (j < s.size() && IsIdentChar(s[j])) ++j;
        const std::string ident = s.substr(i, j - i);
        if (ident == "class" || ident == "struct") {
          cls_mode = true;
          cls_candidate.clear();
        } else if (cls_mode) {
          cls_candidate = ident;
        }
        // Out-of-line method definition "Owner::Name(" at namespace scope
        // binds the function body to Owner (the last qualifier, so
        // "ns::Owner::Name(" also resolves to Owner).
        const size_t next = s.find_first_not_of(' ', j);
        if (after_scope_op && !cls_mode && next != std::string::npos &&
            s[next] == '(' && effective().empty()) {
          pending = qual_owner;
        }
        after_scope_op = false;
        last_ident = ident;
        i = j - 1;
        continue;
      }
      if (c == ':' && i + 1 < s.size() && s[i + 1] == ':') {
        qual_owner = last_ident;
        after_scope_op = true;
        ++i;
        continue;
      }
      after_scope_op = false;
      if (c == ':') {
        // Inheritance list: the class name is final, the base names that
        // follow must not overwrite it.
        if (cls_mode) {
          cls_mode = false;
          pending = cls_candidate;
        }
      } else if (c == '<' || c == '>' || c == ',') {
        cls_mode = false;  // "template <class T>" is not a class decl
      } else if (c == '~') {
        // Destructor "Owner::~Owner()": keep the scope-op state so the
        // identifier after '~' still sees it.
        after_scope_op = after_scope_op || (i >= 2 && s[i - 1] == ':');
      } else if (c == '{') {
        if (cls_mode) {
          pending = cls_candidate;
          cls_mode = false;
        }
        stack.push_back({pending, depth});
        pending.clear();
        ++depth;
      } else if (c == '}') {
        --depth;
        while (!stack.empty() && stack.back().depth >= depth) {
          stack.pop_back();
        }
      } else if (c == ';') {
        pending.clear();
        cls_mode = false;
      }
    }
  }
  return out;
}

/// Position of the ')' matching the '(' at `open`, or npos when the group
/// does not close on this line.
size_t MatchParen(const std::string& s, size_t open) {
  int depth = 0;
  for (size_t p = open; p < s.size(); ++p) {
    if (s[p] == '(') ++depth;
    if (s[p] == ')' && --depth == 0) return p;
  }
  return std::string::npos;
}

/// Argument text of the call whose '(' sits at (line l, column open),
/// joined across up to 8 lines (enough for any clang-formatted call).
std::string CollectArgs(const FileView& f, size_t l, size_t open) {
  std::string out;
  int depth = 0;
  for (size_t ll = l; ll < f.code.size() && ll < l + 8; ++ll) {
    const std::string& s = f.code[ll];
    for (size_t p = ll == l ? open : 0; p < s.size(); ++p) {
      if (s[p] == '(') {
        if (depth++ > 0) out += '(';
      } else if (s[p] == ')') {
        if (--depth == 0) return out;
        out += ')';
      } else if (depth > 0) {
        out += s[p];
      }
    }
    out += ' ';
  }
  return out;
}

/// Canonical lock-graph node for a guard expression: enclosing class +
/// final member name, with address-of/deref, this->, object prefixes and
/// trailing index groups stripped — "&shard.mu" inside a ShardedMap
/// method becomes "ShardedMap::mu". Same-named members of one class
/// collapse into one node (deliberately conservative: nesting two
/// instances of the same member is exactly the shape that needs an
/// address-independent order, which pointer-order bans).
std::string LockNode(std::string expr, const std::string& cls) {
  auto trim = [](std::string& t) {
    while (!t.empty() && (t.front() == ' ' || t.front() == '&' ||
                          t.front() == '*')) {
      t.erase(t.begin());
    }
    while (!t.empty() && t.back() == ' ') t.pop_back();
  };
  trim(expr);
  if (expr.rfind("this->", 0) == 0) expr.erase(0, 6);
  while (!expr.empty() && (expr.back() == ']' || expr.back() == ')')) {
    const char close = expr.back();
    const char open = close == ']' ? '[' : '(';
    int depth = 0;
    size_t p = expr.size();
    while (p > 0) {
      --p;
      if (expr[p] == close) ++depth;
      if (expr[p] == open && --depth == 0) break;
    }
    if (depth != 0) break;
    expr.erase(p);
    while (!expr.empty() && expr.back() == ' ') expr.pop_back();
  }
  size_t member = expr.rfind('.');
  const size_t arrow = expr.rfind("->");
  if (arrow != std::string::npos &&
      (member == std::string::npos || arrow + 1 > member)) {
    member = arrow + 1;
  }
  if (member != std::string::npos) expr = expr.substr(member + 1);
  trim(expr);
  return cls + "::" + expr;
}

/// Splits `args` on top-level commas.
std::vector<std::string> SplitArgs(const std::string& args) {
  std::vector<std::string> out;
  std::string cur;
  int depth = 0;
  for (const char c : args) {
    if (c == '(' || c == '<' || c == '[') ++depth;
    if (c == ')' || c == '>' || c == ']') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

/// RAII guard declarations on one line: (column, guarded mutex exprs).
/// Recognizes common::MutexLock plus the std lock guards; a declaration
/// needs a variable name between the type and the '(' (so constructor
/// declarations inside common/mutex.h itself do not match).
struct GuardDecl {
  size_t col;
  std::vector<std::string> exprs;
};

std::vector<GuardDecl> GuardDecls(const std::string& s) {
  std::vector<GuardDecl> out;
  struct Kind {
    const char* word;
    bool all_args;  // scoped_lock locks every argument
  };
  static const Kind kKinds[] = {{"MutexLock", false},
                                {"lock_guard", false},
                                {"unique_lock", false},
                                {"scoped_lock", true}};
  for (const Kind& kind : kKinds) {
    for (const size_t pos : FindWord(s, kind.word)) {
      size_t p = pos + std::strlen(kind.word);
      if (p < s.size() && s[p] == '<') {  // template argument list
        int depth = 0;
        while (p < s.size()) {
          if (s[p] == '<') ++depth;
          if (s[p] == '>' && --depth == 0) break;
          ++p;
        }
        if (p >= s.size()) continue;
        ++p;
      }
      while (p < s.size() && s[p] == ' ') ++p;
      if (p >= s.size() || !IsIdentChar(s[p])) continue;  // not a decl
      while (p < s.size() && IsIdentChar(s[p])) ++p;
      while (p < s.size() && s[p] == ' ') ++p;
      if (p >= s.size() || s[p] != '(') continue;
      const size_t close = MatchParen(s, p);
      if (close == std::string::npos) continue;
      const std::string args = s.substr(p + 1, close - p - 1);
      if (args.find("defer_lock") != std::string::npos ||
          args.find("adopt_lock") != std::string::npos) {
        continue;  // does not acquire here
      }
      GuardDecl decl{pos, {}};
      std::vector<std::string> parts = SplitArgs(args);
      if (!kind.all_args && !parts.empty()) parts.resize(1);
      for (std::string& part : parts) {
        if (!part.empty()) decl.exprs.push_back(std::move(part));
      }
      if (!decl.exprs.empty()) out.push_back(std::move(decl));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const GuardDecl& a, const GuardDecl& b) { return a.col < b.col; });
  return out;
}

/// lock-order: a cross-TU directed graph of "held X while acquiring Y"
/// edges from RAII guard scopes; any cycle (including the one-node cycle
/// of re-acquiring a held lock) is deadlock potential. Intra-procedural
/// like the Clang analysis: edges come from guards nested in one
/// function, the cross-TU part is that the *graph* is global, so
/// ShardedSelector holding its mutex over a WhatIfEngine call that locks
/// back still surfaces once both sites exist in any scanned file.
void CheckLockOrder(Context* ctx) {
  struct Edge {
    const FileView* file;
    int line;  // acquisition site
    std::string held;
  };
  std::map<std::string, std::map<std::string, Edge>> adj;
  for (const FileView& f : ctx->files) {
    if (f.is_cmake || f.scope != Scope::kSrc) continue;
    const ScopeMap scopes = BuildScopeMap(f);
    struct Hold {
      std::string node;
      int depth;
    };
    std::vector<Hold> holds;
    for (size_t l = 0; l < f.code.size(); ++l) {
      const int depth = scopes.depth_at_start[l];
      while (!holds.empty() && holds.back().depth > depth) holds.pop_back();
      const std::string& s = f.code[l];
      if (s.find('(') == std::string::npos) continue;
      for (const GuardDecl& decl : GuardDecls(s)) {
        // Depth at the declaration column (brace traffic earlier on the
        // same line counts: "if (x) { MutexLock l(&mu_); ... }").
        int at = depth;
        for (size_t p = 0; p < decl.col; ++p) {
          if (s[p] == '{') ++at;
          if (s[p] == '}') --at;
        }
        for (const std::string& expr : decl.exprs) {
          const std::string node = LockNode(expr, scopes.context[l]);
          for (const Hold& hold : holds) {
            if (hold.node == node) {
              ctx->Report(
                  f, static_cast<int>(l + 1), "lock-order",
                  "'" + node +
                      "' acquired while already held in this scope: "
                      "self-deadlock on one instance, address-ordered "
                      "nesting on two — restructure so one scope ends "
                      "before the next begins");
              continue;
            }
            auto& slot = adj[hold.node];
            slot.emplace(node, Edge{&f, static_cast<int>(l + 1), hold.node});
          }
          // The guard lives until its scope closes: lines at depth `at`
          // (siblings after the declaration) still hold it; the pop above
          // fires once depth drops below the declaration's.
          holds.push_back({node, at});
        }
      }
    }
  }

  // Cycle detection over the global graph; one finding per node set.
  std::set<std::string> reported;
  std::map<std::string, int> color;  // 0/absent white, 1 gray, 2 black
  for (const auto& [root, unused] : adj) {
    if (color[root] != 0) continue;
    std::vector<std::pair<std::string, std::map<std::string, Edge>::const_iterator>>
        stack;
    std::vector<std::string> path;
    color[root] = 1;
    stack.push_back({root, adj[root].begin()});
    path.push_back(root);
    while (!stack.empty()) {
      auto& [node, it] = stack.back();
      const auto& out_edges = adj[node];
      if (it == out_edges.end()) {
        color[node] = 2;
        stack.pop_back();
        path.pop_back();
        continue;
      }
      const std::string target = it->first;
      const Edge& edge = it->second;
      ++it;
      if (color[target] == 1) {
        // Reconstruct the cycle target .. node.
        std::vector<std::string> cycle;
        bool in = false;
        for (const std::string& p : path) {
          if (p == target) in = true;
          if (in) cycle.push_back(p);
        }
        std::string key;
        {
          std::vector<std::string> sorted = cycle;
          std::sort(sorted.begin(), sorted.end());
          for (const std::string& n : sorted) key += n + "|";
        }
        if (reported.insert(key).second) {
          std::string desc;
          for (size_t u = 0; u < cycle.size(); ++u) {
            const std::string& from = cycle[u];
            const std::string& to =
                u + 1 < cycle.size() ? cycle[u + 1] : target;
            const auto e = adj[from].find(to);
            desc += from + " -> " + to;
            if (e != adj[from].end()) {
              desc += " (" + e->second.file->path + ":" +
                      std::to_string(e->second.line) + ")";
            }
            desc += "; ";
          }
          ctx->Report(*edge.file, edge.line, "lock-order",
                      "lock-order cycle (deadlock potential): " + desc +
                          "pick one global order and acquire in it "
                          "everywhere, or collapse to a single lock");
        }
      } else if (color[target] == 0) {
        color[target] = 1;
        stack.push_back({target, adj[target].begin()});
        path.push_back(target);
      }
    }
  }
}

/// guarded-field: the concurrency modules keep their shared state
/// declared. Two shapes: (a) a `mutable` non-atomic member without
/// IDXSEL_GUARDED_BY — mutable is the project marker for "mutated under a
/// const API", i.e. cross-thread by construction; (b) a common::Mutex
/// member that guards no annotated field at all — either the annotations
/// were forgotten or the lock serializes something subtler (wakeup
/// ordering, allocation publication), which deserves a written reason.
void CheckGuardedField(Context* ctx) {
  static const std::set<std::string> kModules = {
      "exec",  "costmodel", "serve", "obs",   "rt",     "kernel",
      "shard", "mip",       "audit", "common", "engine"};
  for (const FileView& f : ctx->files) {
    if (f.is_cmake || f.scope != Scope::kSrc) continue;
    if (EndsWith(f.path, "common/mutex.h") ||
        EndsWith(f.path, "common/thread_annotations.h")) {
      continue;
    }
    const bool listed = kModules.count(f.module) != 0;
    const ScopeMap scopes = BuildScopeMap(f);
    struct MutexDecl {
      int line;
      std::string name;
      std::string cls;
    };
    std::vector<MutexDecl> mutexes;
    std::set<std::pair<std::string, std::string>> guarded;  // (class, mutex)
    for (size_t l = 0; l < f.code.size(); ++l) {
      std::string s = f.code[l];
      // Inline comments leave trailing blanks in the code view; a member
      // declaration still "ends with ';'" for our purposes.
      while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
        s.pop_back();
      }
      for (const size_t pos : FindWord(s, "IDXSEL_GUARDED_BY")) {
        const size_t open = s.find('(', pos);
        if (open == std::string::npos) continue;
        const size_t close = MatchParen(s, open);
        if (close == std::string::npos) continue;
        std::string arg = s.substr(open + 1, close - open - 1);
        while (!arg.empty() && arg.back() == ' ') arg.pop_back();
        while (!arg.empty() && arg.front() == ' ') arg.erase(arg.begin());
        guarded.insert({scopes.context[l], arg});
      }
      // (a) mutable members in the listed modules. A declaration may wrap
      // over several lines, so it is read up to its ';'.
      const size_t first = s.find_first_not_of(" \t");
      std::string decl;
      if (listed && first != std::string::npos &&
          s.compare(first, 8, "mutable ") == 0) {
        decl = s;
        for (size_t m = l + 1;
             decl.find(';') == std::string::npos && m < f.code.size(); ++m) {
          decl += ' ';
          decl += f.code[m];
        }
      }
      if (decl.find(';') != std::string::npos &&
          decl.find("IDXSEL_GUARDED_BY") == std::string::npos &&
          FindWord(decl, "Mutex").empty() &&
          FindWord(decl, "CondVar").empty() &&
          FindWord(decl, "atomic").empty()) {
        ctx->Report(f, static_cast<int>(l + 1), "guarded-field",
                    "mutable member without IDXSEL_GUARDED_BY in src/" +
                        f.module +
                        "; mutable means mutated under a const API — name "
                        "the lock that guards it (common/thread_"
                        "annotations.h), or suppress with the reason it "
                        "needs none");
      }
      // Collect common::Mutex member declarations for shape (b).
      if (FindWord(s, "Mutex").empty() || s.find('(') != std::string::npos ||
          !EndsWith(s, ";") || s.find("friend") != std::string::npos) {
        continue;
      }
      const std::string name = TokenBefore(s, s.size() - 1);
      const std::string& cls = scopes.context[l];
      if (name.empty() || name.find('.') != std::string::npos ||
          cls.empty()) {
        continue;
      }
      mutexes.push_back({static_cast<int>(l + 1), name, cls});
    }
    for (const MutexDecl& m : mutexes) {
      if (guarded.count({m.cls, m.name})) continue;
      ctx->Report(f, m.line, "guarded-field",
                  "common::Mutex '" + m.name + "' in " + m.cls +
                      " guards no IDXSEL_GUARDED_BY(" + m.name +
                      ") field; annotate the state it protects, or "
                      "suppress with the reason it exists (wakeup "
                      "ordering, allocation serialization, ...)");
    }
  }
}

/// atomic-ordering: every atomic operation in the hot modules names its
/// std::memory_order. The default seq_cst is both a fence the hot paths
/// cannot afford and — worse — a silent statement that nobody thought
/// about the required ordering; the kernel's publication chains
/// (store-release block pointers, acquire loads) only stay reviewable if
/// each site says what it needs.
void CheckAtomicOrdering(Context* ctx) {
  static const std::set<std::string> kModules = {"kernel", "exec", "common"};
  static const char* kMethods[] = {
      "load",     "store",    "exchange",
      "fetch_add", "fetch_sub", "fetch_or",
      "fetch_and", "fetch_xor", "compare_exchange_strong",
      "compare_exchange_weak"};
  // Atomic member/variable names per module (declarations in headers,
  // operator uses in the .cc files).
  std::map<std::string, std::set<std::string>> atomic_names;
  for (const FileView& f : ctx->files) {
    if (f.is_cmake || f.scope != Scope::kSrc || !kModules.count(f.module)) {
      continue;
    }
    for (const std::string& s : f.code) {
      for (const size_t pos : FindWord(s, "atomic")) {
        size_t p = pos + 6;
        if (p >= s.size() || s[p] != '<') continue;
        int depth = 0;
        while (p < s.size()) {
          if (s[p] == '<') ++depth;
          if (s[p] == '>' && --depth == 0) break;
          ++p;
        }
        if (p >= s.size()) continue;
        ++p;
        while (p < s.size() && (s[p] == ' ' || s[p] == '&')) ++p;
        if (p < s.size() && s[p] == '*') continue;  // pointer TO an atomic
        std::string name;
        while (p < s.size() && IsIdentChar(s[p])) name += s[p++];
        if (!name.empty()) atomic_names[f.module].insert(name);
      }
    }
  }
  for (const FileView& f : ctx->files) {
    if (f.is_cmake || f.scope != Scope::kSrc || !kModules.count(f.module)) {
      continue;
    }
    const std::set<std::string>& names = atomic_names[f.module];
    for (size_t l = 0; l < f.code.size(); ++l) {
      const std::string& s = f.code[l];
      for (const char* m : kMethods) {
        const std::string pat = std::string(".") + m + "(";
        size_t pos = 0;
        while ((pos = s.find(pat, pos)) != std::string::npos) {
          const size_t open = pos + pat.size() - 1;
          pos += pat.size();
          if (CollectArgs(f, l, open).find("memory_order") !=
              std::string::npos) {
            continue;
          }
          ctx->Report(f, static_cast<int>(l + 1), "atomic-ordering",
                      std::string("atomic '") + m +
                          "' without an explicit std::memory_order in src/" +
                          f.module +
                          "; the seq_cst default is an unreviewed fence — "
                          "state the ordering the algorithm needs");
        }
      }
      // Operator forms on declared atomics (++/--/compound/=): all are
      // seq_cst RMWs/stores in disguise.
      if (!FindWord(s, "atomic").empty()) continue;  // the declaration line
      for (const std::string& name : names) {
        for (const size_t pos : FindWord(s, name)) {
          const size_t end = pos + name.size();
          size_t after = end;
          while (after < s.size() && s[after] == ' ') ++after;
          const bool pre =
              pos >= 2 && (s.compare(pos - 2, 2, "++") == 0 ||
                           s.compare(pos - 2, 2, "--") == 0);
          bool hit = pre;
          if (!hit && after + 1 < s.size()) {
            const std::string two = s.substr(after, 2);
            hit = two == "++" || two == "--" || two == "+=" || two == "-=" ||
                  two == "|=" || two == "&=" || two == "^=";
          }
          if (!hit && after < s.size() && s[after] == '=' &&
              (after + 1 >= s.size() || s[after + 1] != '=')) {
            size_t b = pos;
            while (b > 0 && s[b - 1] == ' ') --b;
            const char before = b == 0 ? ' ' : s[b - 1];
            // "Type name = init" declares a *different*, same-named local;
            // an identifier directly before the name is its type.
            if (before != '=' && before != '!' && before != '<' &&
                before != '>' && before != '.' && !IsIdentChar(before)) {
              hit = true;
            }
          }
          if (hit) {
            ctx->Report(f, static_cast<int>(l + 1), "atomic-ordering",
                        "operator on atomic '" + name +
                            "' is a seq_cst operation in disguise; spell it "
                            "as load/store/fetch_* with an explicit "
                            "std::memory_order");
          }
        }
      }
    }
  }
}

/// pointer-order: selection decisions must never order on addresses.
/// Pointer values differ run to run (ASLR, allocation order, thread
/// interleaving), so an address-keyed sort or comparison is
/// nondeterminism that survives every seed pin and that the journal
/// cannot see — the determinism suite only catches it when the ordering
/// actually flips. Banned in the decision modules outright.
void CheckPointerOrder(Context* ctx) {
  static const std::set<std::string> kModules = {"core", "selection", "shard",
                                                 "mip"};
  for (const FileView& f : ctx->files) {
    if (f.is_cmake || f.scope != Scope::kSrc || !kModules.count(f.module)) {
      continue;
    }
    for (size_t l = 0; l < f.code.size(); ++l) {
      const std::string& s = f.code[l];
      const int line = static_cast<int>(l + 1);
      if (s.find("reinterpret_cast") != std::string::npos &&
          s.find("uintptr_t") != std::string::npos) {
        ctx->Report(f, line, "pointer-order",
                    "address reinterpreted as an integer in src/" + f.module +
                        "; pointer values are run-dependent — key on a "
                        "dense id (kernel::IndexId) or a stable field "
                        "instead");
        continue;
      }
      bool reported = false;
      for (const size_t pos : FindWord(s, "less")) {
        const size_t open = pos + 4;
        if (open >= s.size() || s[open] != '<') continue;
        int depth = 0;
        size_t p = open;
        while (p < s.size()) {
          if (s[p] == '<') ++depth;
          if (s[p] == '>' && --depth == 0) break;
          ++p;
        }
        if (p >= s.size()) continue;
        if (s.substr(open, p - open).find('*') != std::string::npos) {
          ctx->Report(f, line, "pointer-order",
                      "std::less over a pointer type in src/" + f.module +
                          " orders by address; order on a stable key "
                          "(dense id, name, position) instead");
          reported = true;
          break;
        }
      }
      if (reported) continue;
      size_t pos = 0;
      while ((pos = s.find(".get()", pos)) != std::string::npos) {
        const size_t end = pos + 6;
        size_t after = end;
        while (after < s.size() && s[after] == ' ') ++after;
        bool hit = false;
        if (after < s.size() && (s[after] == '<' || s[after] == '>')) {
          const char next = after + 1 < s.size() ? s[after + 1] : '\0';
          if (next != s[after]) hit = true;  // exclude << and >>
        }
        size_t start = pos;
        while (start > 0 &&
               (IsIdentChar(s[start - 1]) || s[start - 1] == '.')) {
          --start;
        }
        while (start > 0 && s[start - 1] == ' ') --start;
        if (!hit && start > 0 && (s[start - 1] == '<' || s[start - 1] == '>')) {
          const char prev = start >= 2 ? s[start - 2] : '\0';
          if (prev != s[start - 1] && prev != '-') hit = true;
        }
        if (hit) {
          ctx->Report(f, line, "pointer-order",
                      "relational comparison of .get() pointers in src/" +
                          f.module +
                          " orders by address (run-dependent); compare a "
                          "stable key instead");
          break;
        }
        pos = end;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Suppression application

void ApplySuppressions(Context* ctx) {
  const std::set<std::string> known(KnownChecks().begin(),
                                    KnownChecks().end());
  const std::set<std::string> skip(ctx->options.skip.begin(),
                                   ctx->options.skip.end());
  // The meta checks report on the suppression machinery itself; their own
  // suppressions are exempt from staleness (usage is only known after
  // this pass ran, so flagging them would be circular).
  static const std::set<std::string> kMeta = {
      "unknown-check", "suppression-missing-reason", "stale-suppression"};
  // Index views by path for comment lookup.
  std::map<std::string, const FileView*> by_path;
  for (const FileView& f : ctx->files) by_path[f.path] = &f;

  std::vector<Finding> kept;
  std::set<std::pair<std::string, int>> reported_bad_suppression;
  // (path, comment line, check) of every suppression that suppressed a
  // finding — the complement is stale.
  std::set<std::tuple<std::string, int, std::string>> used;
  auto try_suppress = [&](Finding& finding) -> bool {
    const FileView* f = by_path[finding.path];
    if (f == nullptr) return false;
    bool suppressed = false;
    // Candidate lines: the finding line itself, plus the contiguous block
    // of comment-only lines directly above it (so a suppression whose
    // reason wraps onto a second comment line still attaches).
    std::vector<int> lines = {finding.line};
    for (int l = finding.line - 1; l >= 1; --l) {
      const std::string& code = f->code[static_cast<size_t>(l - 1)];
      const std::string& comment = f->comments[static_cast<size_t>(l - 1)];
      if (code.find_first_not_of(" \t") != std::string::npos ||
          comment.find_first_not_of(" \t") == std::string::npos) {
        break;
      }
      lines.push_back(l);
    }
    for (const int l : lines) {
      if (l < 1 || static_cast<size_t>(l) > f->comments.size()) continue;
      for (const Suppression& s :
           ParseSuppressions(f->comments[static_cast<size_t>(l - 1)])) {
        if (s.check != finding.check) continue;
        if (!s.has_reason) {
          if (!skip.count("suppression-missing-reason") &&
              reported_bad_suppression.insert({finding.path, l}).second) {
            kept.push_back(
                {finding.path, l, "suppression-missing-reason",
                 "suppression of '" + s.check +
                     "' must carry a written reason: idxsel-lint: allow(" +
                     s.check + ") reason=<why this is sound>"});
          }
          continue;
        }
        suppressed = true;
        used.insert({finding.path, l, s.check});
      }
    }
    return suppressed;
  };
  for (Finding& finding : ctx->findings) {
    if (!try_suppress(finding)) kept.push_back(std::move(finding));
  }

  // Suppressions naming unknown checks are typos that would silently stop
  // protecting the line once the check is renamed (unknown-check), and
  // reasoned suppressions of real checks that suppressed nothing are
  // stale armor: the finding they silenced is gone, and they would
  // silently swallow the next, unrelated finding on that line
  // (stale-suppression).
  std::vector<Finding> extra;
  for (const FileView& f : ctx->files) {
    for (size_t l = 0; l < f.comments.size(); ++l) {
      for (const Suppression& s : ParseSuppressions(f.comments[l])) {
        if (!known.count(s.check)) {
          if (!skip.count("unknown-check")) {
            extra.push_back({f.path, static_cast<int>(l + 1), "unknown-check",
                             "suppression names unknown check '" + s.check +
                                 "'; known: see --list-checks"});
          }
          continue;
        }
        if (s.has_reason && !kMeta.count(s.check) && !skip.count(s.check) &&
            !skip.count("stale-suppression") &&
            !used.count({f.path, static_cast<int>(l + 1), s.check})) {
          extra.push_back(
              {f.path, static_cast<int>(l + 1), "stale-suppression",
               "suppression of '" + s.check +
                   "' no longer suppresses anything; the finding it "
                   "silenced is gone — delete the comment (or fix the "
                   "check name/line)"});
        }
      }
    }
  }
  // The extra findings are themselves suppressible (golden fixtures keep
  // deliberately-unknown names; refactors may park a stale suppression).
  for (Finding& finding : extra) {
    if (!try_suppress(finding)) kept.push_back(std::move(finding));
  }
  ctx->findings = std::move(kept);
}

}  // namespace

const std::vector<std::string>& KnownChecks() {
  static const std::vector<std::string> checks = {
      "layering",          "include-cycle",
      "journal-bridge",    "simd-confinement",
      "determinism-random", "determinism-clock",
      "unordered-iter",    "double-compare",
      "missing-check-include", "orphan-source",
      "lock-order",        "guarded-field",
      "atomic-ordering",   "pointer-order",
      "suppression-missing-reason", "unknown-check",
      "stale-suppression",
  };
  return checks;
}

namespace {

/// LintFiles, with root_lens[i] the number of leading path segments of
/// files[i] that come from the root argument it was found under (see
/// TreeSegment). Files past the end of root_lens are their own root.
std::vector<Finding> LintRooted(const std::vector<FileInput>& files,
                                const std::vector<size_t>& root_lens,
                                const Options& options) {
  Context ctx;
  ctx.options = options;
  ctx.files.reserve(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    const FileInput& in = files[i];
    FileView view;
    view.path = Normalize(in.path);
    view.segs = Segments(view.path);
    const size_t root_len =
        std::min(i < root_lens.size() ? root_lens[i] : view.segs.size(),
                 view.segs.size());
    const size_t tree = TreeSegment(view.segs, root_len);
    view.scope = tree < view.segs.size() ? TreeNamed(view.segs[tree])
                                         : Scope::kOther;
    view.module = ModuleOf(view.segs, tree);
    view.is_cmake = EndsWith(view.path, "CMakeLists.txt");
    BuildView(in.content, &view);
    ctx.files.push_back(std::move(view));
  }
  CheckLayering(&ctx);
  CheckIncludeCycles(&ctx);
  CheckJournalBridge(&ctx);
  CheckSimdConfinement(&ctx);
  CheckRandom(&ctx);
  CheckClock(&ctx);
  CheckUnorderedIter(&ctx);
  CheckDoubleCompare(&ctx);
  CheckMissingCheckInclude(&ctx);
  CheckOrphanSources(&ctx);
  CheckLockOrder(&ctx);
  CheckGuardedField(&ctx);
  CheckAtomicOrdering(&ctx);
  CheckPointerOrder(&ctx);
  if (!ctx.options.skip.empty()) {
    const std::set<std::string> skip(ctx.options.skip.begin(),
                                     ctx.options.skip.end());
    std::erase_if(ctx.findings, [&skip](const Finding& finding) {
      return skip.count(finding.check) != 0;
    });
  }
  ApplySuppressions(&ctx);
  std::sort(ctx.findings.begin(), ctx.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.check < b.check;
            });
  return ctx.findings;
}

}  // namespace

std::vector<Finding> LintFiles(const std::vector<FileInput>& files,
                               const Options& options) {
  return LintRooted(files, {}, options);
}

bool LintPaths(const std::vector<std::string>& paths, const Options& options,
               std::vector<Finding>* findings, std::string* error) {
  namespace fs = std::filesystem;
  std::vector<FileInput> inputs;
  std::vector<size_t> root_lens;
  std::set<std::string> seen;
  // `root_len`: segments of the directory argument the file was found
  // under; SIZE_MAX for a file that is its own root.
  auto add_file = [&](const fs::path& p, size_t root_len) -> bool {
    const std::string norm = Normalize(p.string());
    if (!seen.insert(norm).second) return true;
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      if (error != nullptr) *error = "cannot read " + p.string();
      return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    inputs.push_back({norm, ss.str()});
    root_lens.push_back(root_len);
    return true;
  };
  auto wanted = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".h" || p.filename() == "CMakeLists.txt";
  };
  for (const std::string& raw : paths) {
    const fs::path p(raw);
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      const size_t root_len = Segments(Normalize(raw)).size();
      for (auto it = fs::recursive_directory_iterator(p, ec);
           !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file(ec) && wanted(it->path())) {
          if (!add_file(it->path(), root_len)) return false;
        }
      }
      // A "src" root implies the sibling tests/CMakeLists.txt matters for
      // the orphan-source link check.
      if (p.filename() == "src") {
        const fs::path tests = p.parent_path() / "tests" / "CMakeLists.txt";
        if (fs::exists(tests, ec)) {
          if (!add_file(tests, SIZE_MAX)) return false;
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      if (!add_file(p, SIZE_MAX)) return false;
    } else {
      if (error != nullptr) *error = "no such file or directory: " + raw;
      return false;
    }
  }
  *findings = LintRooted(inputs, root_lens, options);
  return true;
}

std::string FormatFinding(const Finding& finding) {
  return finding.path + ":" + std::to_string(finding.line) + ": [" +
         finding.check + "] " + finding.message;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string SarifReport(const std::vector<Finding>& findings) {
  std::set<std::string> rules;
  for (const Finding& finding : findings) rules.insert(finding.check);
  std::ostringstream o;
  o << "{\n"
    << "  \"version\": \"2.1.0\",\n"
    << "  \"$schema\": "
       "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
    << "  \"runs\": [\n"
    << "    {\n"
    << "      \"tool\": {\n"
    << "        \"driver\": {\n"
    << "          \"name\": \"idxsel_lint\",\n"
    << "          \"rules\": [";
  bool first = true;
  for (const std::string& rule : rules) {
    o << (first ? "\n" : ",\n")
      << "            {\"id\": \"" << JsonEscape(rule)
      << "\", \"shortDescription\": {\"text\": \"" << JsonEscape(rule)
      << "\"}}";
    first = false;
  }
  o << (rules.empty() ? "]\n" : "\n          ]\n")
    << "        }\n"
    << "      },\n"
    << "      \"results\": [";
  first = true;
  for (const Finding& finding : findings) {
    o << (first ? "\n" : ",\n")
      << "        {\"ruleId\": \"" << JsonEscape(finding.check)
      << "\", \"level\": \"error\", \"message\": {\"text\": \""
      << JsonEscape(finding.message)
      << "\"}, \"locations\": [{\"physicalLocation\": "
         "{\"artifactLocation\": {\"uri\": \""
      << JsonEscape(finding.path) << "\"}, \"region\": {\"startLine\": "
      << (finding.line > 0 ? finding.line : 1) << "}}}]}";
    first = false;
  }
  o << (findings.empty() ? "]\n" : "\n      ]\n")
    << "    }\n"
    << "  ]\n"
    << "}\n";
  return o.str();
}

}  // namespace idxsel::lint
