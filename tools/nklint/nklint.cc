// Copyright (c) NetKernel reproduction authors.

#include "tools/nklint/nklint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

namespace fs = std::filesystem;

namespace nklint {
namespace {

// Canonical locations of the contract's ground-truth files, relative to the
// lint root. Fixture trees (tests/nklint_fixtures/*) mirror this layout.
constexpr const char* kNqeHeader = "src/shm/nqe.h";
constexpr const char* kNqeNames = "src/shm/nqe.cc";
constexpr const char* kCoreEngine = "src/core/coreengine.cc";
constexpr const char* kGuestLib = "src/core/guestlib.cc";
// The NSM transports' Dispatch switches; the shared front-end in
// src/core/nsm_service.cc only prefilters and forwards to them.
constexpr const char* kDispatchFiles[] = {"src/core/servicelib.cc", "src/core/shm_nsm.cc"};
constexpr const char* kFlightHeader = "src/obs/flight_recorder.h";
constexpr const char* kFlightNames = "src/obs/flight_recorder.cc";

const char* const kCheckNames[] = {
    "op-annotation",  "op-name",     "op-routing",      "reclaim-closure",
    "completion-pairing", "stats-drift", "flight-coverage", "switch-default",
    "guard-coverage",
};

// ---------------------------------------------------------------------------
// Lexing: split every line into code / comment / string literals.
// ---------------------------------------------------------------------------

struct SourceFile {
  std::string rel;  // path relative to the lint root, '/'-separated
  // All vectors are indexed by line - 1. `code` preserves column positions
  // (comment and literal characters are blanked to spaces) so regexes see
  // real code only; `comment` holds the text after // or inside /* */.
  std::vector<std::string> code;
  std::vector<std::string> comment;
  std::vector<std::vector<std::string>> literals;
  std::vector<bool> comment_only;  // no code, has a comment

  int line_count() const { return static_cast<int>(code.size()); }
};

SourceFile LexFile(const fs::path& abs, std::string rel) {
  SourceFile out;
  out.rel = std::move(rel);
  std::ifstream in(abs);
  std::string line;
  bool in_block_comment = false;
  while (std::getline(in, line)) {
    const size_t n = line.size();
    std::string code(n, ' ');
    std::string comment;
    std::vector<std::string> lits;
    size_t i = 0;
    while (i < n) {
      if (in_block_comment) {
        if (line[i] == '*' && i + 1 < n && line[i + 1] == '/') {
          in_block_comment = false;
          i += 2;
        } else {
          comment += line[i++];
        }
        continue;
      }
      const char c = line[i];
      if (c == '/' && i + 1 < n && line[i + 1] == '/') {
        comment.append(line.substr(i + 2));
        break;
      }
      if (c == '/' && i + 1 < n && line[i + 1] == '*') {
        in_block_comment = true;
        i += 2;
        continue;
      }
      if (c == '"') {
        std::string lit;
        ++i;
        while (i < n && line[i] != '"') {
          if (line[i] == '\\' && i + 1 < n) {
            lit += line[i + 1];
            i += 2;
          } else {
            lit += line[i++];
          }
        }
        ++i;  // closing quote
        lits.push_back(lit);
        continue;
      }
      if (c == '\'') {
        ++i;
        while (i < n && line[i] != '\'') {
          if (line[i] == '\\') ++i;
          ++i;
        }
        ++i;
        continue;
      }
      code[i] = c;
      ++i;
    }
    const bool has_code =
        std::any_of(code.begin(), code.end(), [](char ch) { return !std::isspace(static_cast<unsigned char>(ch)); });
    out.code.push_back(std::move(code));
    out.comment.push_back(std::move(comment));
    out.literals.push_back(std::move(lits));
    out.comment_only.push_back(!has_code && !out.comment.back().empty());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Annotation + suppression parsing.
// ---------------------------------------------------------------------------

struct OpInfo {
  std::string name;  // kSend
  int line = 0;      // enumerator line in src/shm/nqe.h
  bool annotated = false;
  std::string dir;         // guest->nsm | nsm->guest | control | none
  std::string ring;        // "" | completion | receive
  bool carries_chunk = false;
  std::string completion;  // "" or kOp
  std::string reclaim;     // "" or kOp
  std::string guard;       // "" | send | job — ring nkguard admits the op on
};

struct Allow {
  std::string check;
};

struct Suppressions {
  // (file, line) -> allowed check names on that line.
  std::map<std::pair<std::string, int>, std::vector<std::string>> allows;
  // (file, line, check) of every allow that suppressed a diagnostic.
  std::set<std::tuple<std::string, int, std::string>> used;
  std::vector<Diagnostic> bad;  // bad-suppression diagnostics
};

void CollectSuppressions(const SourceFile& f, Suppressions* out) {
  static const std::regex kAllowRe(R"(nklint-allow\(([^)]*)\)\s*(:?)\s*(.*))");
  for (int i = 0; i < f.line_count(); ++i) {
    const std::string& c = f.comment[i];
    if (c.find("nklint-allow") == std::string::npos) continue;
    std::smatch m;
    if (!std::regex_search(c, m, kAllowRe)) {
      out->bad.push_back({f.rel, i + 1, "bad-suppression",
                          "malformed nklint-allow (expected `nklint-allow(<check>): reason`)"});
      continue;
    }
    const std::string check = m[1].str();
    // `nklint-allow(<check>)` with an angle-bracket placeholder is grammar
    // documentation (nqe.h, README), not a suppression attempt.
    if (!check.empty() && check.front() == '<' && check.back() == '>') continue;
    if (!IsKnownCheck(check)) {
      out->bad.push_back({f.rel, i + 1, "bad-suppression",
                          "nklint-allow names unknown check '" + check + "'"});
      continue;
    }
    if (m[2].str().empty() || m[3].str().empty()) {
      out->bad.push_back({f.rel, i + 1, "bad-suppression",
                          "nklint-allow(" + check + ") must state a reason after ':'"});
      continue;
    }
    out->allows[{f.rel, i + 1}].push_back(check);
  }
}

// A diagnostic at (file, line) is suppressed by an allow on that line or on
// the run of comment-only lines directly above it — the natural place for a
// `// nklint-allow(...)` next to a documented exception. The allow that
// suppresses it is marked used.
bool Suppressed(const Diagnostic& d, Suppressions& sup,
                const std::map<std::string, SourceFile>& files) {
  auto allowed_at = [&](int line) {
    auto it = sup.allows.find({d.file, line});
    if (it == sup.allows.end()) return false;
    if (std::find(it->second.begin(), it->second.end(), d.check) == it->second.end()) return false;
    sup.used.emplace(d.file, line, d.check);
    return true;
  };
  if (allowed_at(d.line)) return true;
  auto fit = files.find(d.file);
  if (fit == files.end()) return false;
  const SourceFile& f = fit->second;
  for (int l = d.line - 1; l >= 1 && f.comment_only[l - 1]; --l) {
    if (allowed_at(l)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Small scanning helpers.
// ---------------------------------------------------------------------------

// Enum body: [first line after `enum class <name>`, closing `};`).
struct EnumBody {
  int begin = 0;  // 1-based first line of the body
  int end = 0;    // 1-based line of the closing brace
  bool found = false;
};

EnumBody FindEnumBody(const SourceFile& f, const std::string& enum_name) {
  EnumBody out;
  const std::regex head("enum\\s+class\\s+" + enum_name + "\\b");
  for (int i = 0; i < f.line_count(); ++i) {
    if (!std::regex_search(f.code[i], head)) continue;
    int depth = 0;
    for (int j = i; j < f.line_count(); ++j) {
      for (char ch : f.code[j]) {
        if (ch == '{') {
          if (++depth == 1) out.begin = j + 1;
        } else if (ch == '}') {
          if (--depth == 0) {
            out.end = j + 1;
            out.found = true;
            return out;
          }
        }
      }
    }
  }
  return out;
}

// Collects `kFoo` enumerator names (with lines) inside an enum body.
std::vector<std::pair<std::string, int>> EnumeratorsIn(const SourceFile& f, const EnumBody& body) {
  std::vector<std::pair<std::string, int>> out;
  static const std::regex kEnumerator(R"(^\s*(k[A-Za-z0-9_]+)\s*(=\s*[0-9]+\s*)?,?\s*$)");
  for (int l = body.begin; l <= body.end; ++l) {
    std::smatch m;
    const std::string& code = f.code[l - 1];
    if (std::regex_match(code, m, kEnumerator)) out.emplace_back(m[1].str(), l);
  }
  return out;
}

std::set<std::string> MentionsOf(const SourceFile& f, const std::string& enum_name,
                                 int from_line = 1, int to_line = 1 << 30) {
  std::set<std::string> out;
  const std::regex re(enum_name + "::(k[A-Za-z0-9_]+)");
  to_line = std::min(to_line, f.line_count());
  for (int l = from_line; l <= to_line; ++l) {
    auto begin = std::sregex_iterator(f.code[l - 1].begin(), f.code[l - 1].end(), re);
    for (auto it = begin; it != std::sregex_iterator(); ++it) out.insert((*it)[1].str());
  }
  return out;
}

std::set<std::string> CaseLabelsOf(const SourceFile& f, const std::string& enum_name,
                                   int from_line = 1, int to_line = 1 << 30) {
  std::set<std::string> out;
  const std::regex re("case\\s+(?:[A-Za-z_][A-Za-z0-9_]*::)*" + enum_name + "::(k[A-Za-z0-9_]+)");
  to_line = std::min(to_line, f.line_count());
  for (int l = from_line; l <= to_line; ++l) {
    auto begin = std::sregex_iterator(f.code[l - 1].begin(), f.code[l - 1].end(), re);
    for (auto it = begin; it != std::sregex_iterator(); ++it) out.insert((*it)[1].str());
  }
  return out;
}

// [begin, end] lines of the body of the member function whose qualified name
// contains `::name(` — call sites are unqualified, so this finds definitions.
std::optional<std::pair<int, int>> FindFunctionBody(const SourceFile& f, const std::string& name) {
  const std::string needle = "::" + name;
  for (int i = 0; i < f.line_count(); ++i) {
    const size_t pos = f.code[i].find(needle);
    if (pos == std::string::npos) continue;
    const size_t after = pos + needle.size();
    if (after >= f.code[i].size() || f.code[i][after] != '(') continue;
    int depth = 0;
    bool opened = false;
    for (int j = i; j < f.line_count(); ++j) {
      for (char ch : f.code[j]) {
        if (ch == '{') {
          ++depth;
          opened = true;
        } else if (ch == '}') {
          if (--depth == 0 && opened) return std::make_pair(i + 1, j + 1);
        }
      }
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// NqeOp annotation parsing.
// ---------------------------------------------------------------------------

std::vector<std::string> SplitTokens(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

// Parses `dir=... [ring=...] [carries-chunk] [completion=kX] [reclaim=kX]`
// into `op`; returns diagnostics for malformed annotations.
void ParseAnnotation(const std::string& body, const std::string& file, int line, OpInfo* op,
                     std::vector<Diagnostic>* diags) {
  op->annotated = true;
  for (const std::string& tok : SplitTokens(body)) {
    if (tok == "carries-chunk") {
      op->carries_chunk = true;
    } else if (tok.rfind("dir=", 0) == 0) {
      op->dir = tok.substr(4);
    } else if (tok.rfind("ring=", 0) == 0) {
      op->ring = tok.substr(5);
    } else if (tok.rfind("completion=", 0) == 0) {
      op->completion = tok.substr(11);
    } else if (tok.rfind("reclaim=", 0) == 0) {
      op->reclaim = tok.substr(8);
    } else if (tok.rfind("guard=", 0) == 0) {
      op->guard = tok.substr(6);
    } else {
      diags->push_back({file, line, "op-annotation",
                        op->name + ": unknown annotation token '" + tok + "'"});
    }
  }
  if (op->dir != "guest->nsm" && op->dir != "nsm->guest" && op->dir != "control" &&
      op->dir != "none") {
    diags->push_back({file, line, "op-annotation",
                      op->name + ": dir must be guest->nsm, nsm->guest, control, or none (got '" +
                          op->dir + "')"});
    return;
  }
  if (!op->ring.empty() && op->dir != "nsm->guest") {
    diags->push_back({file, line, "op-annotation",
                      op->name + ": ring= only applies to dir=nsm->guest ops"});
  }
  if (op->dir == "nsm->guest" && op->ring != "completion" && op->ring != "receive") {
    diags->push_back({file, line, "op-annotation",
                      op->name + ": dir=nsm->guest requires ring=completion or ring=receive"});
  }
  if (!op->completion.empty() && op->dir != "guest->nsm") {
    diags->push_back({file, line, "op-annotation",
                      op->name + ": completion= only applies to dir=guest->nsm request ops"});
  }
  if (!op->reclaim.empty() && !(op->dir == "guest->nsm" && op->carries_chunk)) {
    diags->push_back({file, line, "op-annotation",
                      op->name + ": reclaim= only applies to carries-chunk guest->nsm ops"});
  }
  if (!op->guard.empty() && op->guard != "send" && op->guard != "job") {
    diags->push_back({file, line, "op-annotation",
                      op->name + ": guard= must be send or job (got '" + op->guard + "')"});
  }
  if (!op->guard.empty() && op->dir != "guest->nsm") {
    diags->push_back({file, line, "op-annotation",
                      op->name + ": guard= only applies to dir=guest->nsm ops"});
  }
}

// Walks the NqeOp enum body attaching `// nklint:` annotations to their
// enumerators. An annotation sits either in a comment-only line block above
// the enumerator or trails it on the same line.
std::vector<OpInfo> ParseOps(const SourceFile& nqe_h, std::vector<Diagnostic>* diags) {
  std::vector<OpInfo> ops;
  const EnumBody body = FindEnumBody(nqe_h, "NqeOp");
  if (!body.found) {
    diags->push_back({nqe_h.rel, 1, "op-annotation", "cannot find `enum class NqeOp`"});
    return ops;
  }
  static const std::regex kEnumerator(R"(^\s*(k[A-Za-z0-9_]+)\s*(=\s*[0-9]+\s*)?,?\s*$)");
  static const std::regex kAnnotation(R"(^\s*nklint:\s*(.*)$)");
  std::string pending;     // annotation text waiting for its enumerator
  int pending_line = 0;
  for (int l = body.begin; l <= body.end; ++l) {
    const std::string& code = nqe_h.code[l - 1];
    const std::string& comment = nqe_h.comment[l - 1];
    std::smatch m;
    if (nqe_h.comment_only[l - 1]) {
      if (std::regex_match(comment, m, kAnnotation)) {
        pending = m[1].str();
        pending_line = l;
      }
      continue;
    }
    if (!std::regex_match(code, m, kEnumerator)) continue;
    OpInfo op;
    op.name = m[1].str();
    op.line = l;
    std::smatch trail;
    if (std::regex_match(comment, trail, kAnnotation)) {
      ParseAnnotation(trail[1].str(), nqe_h.rel, l, &op, diags);
    } else if (!pending.empty()) {
      ParseAnnotation(pending, nqe_h.rel, pending_line, &op, diags);
    } else {
      diags->push_back({nqe_h.rel, l, "op-annotation",
                        op.name + " has no `// nklint:` annotation (grammar documented at the "
                                  "top of src/shm/nqe.h)"});
    }
    pending.clear();
    ops.push_back(std::move(op));
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Stats structs and metric registration.
// ---------------------------------------------------------------------------

struct StatsField {
  std::string strct;
  std::string name;
  std::string file;
  int line = 0;
};

// `// nklint: stats` (own line or trailing) marks the next/current
// `struct X {` as registry-backed: every uint64_t field must be registered.
std::vector<StatsField> CollectStatsFields(const SourceFile& f) {
  std::vector<StatsField> out;
  static const std::regex kMarker(R"(^\s*nklint:\s*stats\s*$)");
  static const std::regex kStruct(R"(^\s*struct\s+([A-Za-z0-9_]+)\s*\{)");
  static const std::regex kField(R"(^\s*uint64_t\s+([a-z][a-z0-9_]*)\s*(=\s*0\s*)?;\s*$)");
  for (int i = 0; i < f.line_count(); ++i) {
    if (!std::regex_match(f.comment[i], kMarker)) continue;
    // Find the struct the marker applies to: this line or the next code line.
    int sl = i;
    std::smatch sm;
    while (sl < f.line_count() && !std::regex_search(f.code[sl], sm, kStruct)) {
      if (sl != i && !f.comment_only[sl] &&
          f.code[sl].find_first_not_of(' ') != std::string::npos) {
        break;  // hit unrelated code before a struct: marker dangles, ignore
      }
      ++sl;
    }
    if (sl >= f.line_count() || sm.empty()) continue;
    const std::string strct = sm[1].str();
    int depth = 0;
    for (int j = sl; j < f.line_count(); ++j) {
      for (char ch : f.code[j]) {
        if (ch == '{') ++depth;
        if (ch == '}') --depth;
      }
      std::smatch fm;
      if (depth > 0 && std::regex_match(f.code[j], fm, kField)) {
        out.push_back({strct, fm[1].str(), f.rel, j + 1});
      }
      if (depth == 0 && j > sl) break;
    }
  }
  return out;
}

// All string literals inside Register*/AddOwnedHistogram call parentheses,
// across the whole tree. Metric names are built as `prefix + "suffix"`, so
// the suffix literal is what identifies the registration.
std::set<std::string> CollectRegisteredNames(const std::vector<const SourceFile*>& files) {
  std::set<std::string> out;
  static const std::regex kCall(
      R"((RegisterCounter|RegisterGauge|RegisterHistogram|AddOwnedHistogram)\s*\()");
  for (const SourceFile* f : files) {
    for (int i = 0; i < f->line_count(); ++i) {
      std::smatch m;
      if (!std::regex_search(f->code[i], m, kCall)) continue;
      // Balance parens from the call's opening '(' to its close, collecting
      // every literal on the spanned lines.
      int depth = 0;
      bool started = false;
      for (int j = i; j < f->line_count(); ++j) {
        const size_t from = (j == i) ? static_cast<size_t>(m.position(0)) : 0;
        for (size_t k = from; k < f->code[j].size(); ++k) {
          if (f->code[j][k] == '(') {
            ++depth;
            started = true;
          } else if (f->code[j][k] == ')') {
            --depth;
          }
        }
        for (const std::string& lit : f->literals[j]) out.insert(lit);
        if (started && depth <= 0) break;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Switch hygiene.
// ---------------------------------------------------------------------------

void CheckSwitchDefaults(const SourceFile& f, std::vector<Diagnostic>* diags) {
  struct Sw {
    bool armed = true;       // seen `switch`, waiting for its body brace
    int body_depth = 0;      // depth inside the body once opened
    std::string enum_seen;   // "NqeOp" / "CeOp" if a case label names one
    int default_line = -1;
  };
  static const std::regex kSwitch(R"(\bswitch\s*\()");
  static const std::regex kEnumCase(R"(case\s+(?:[A-Za-z_][A-Za-z0-9_]*::)*(NqeOp|CeOp)::k)");
  static const std::regex kDefault(R"(^\s*default\s*:)");
  std::vector<Sw> stack;
  int depth = 0;
  for (int i = 0; i < f.line_count(); ++i) {
    const std::string& code = f.code[i];
    if (std::regex_search(code, kSwitch)) stack.push_back(Sw{});
    std::smatch m;
    if (std::regex_search(code, m, kEnumCase)) {
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (!it->armed) {
          it->enum_seen = m[1].str();
          break;
        }
      }
    }
    if (std::regex_search(code, kDefault)) {
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (!it->armed) {
          it->default_line = i + 1;
          break;
        }
      }
    }
    for (char ch : code) {
      if (ch == '{') {
        ++depth;
        if (!stack.empty() && stack.back().armed) {
          stack.back().armed = false;
          stack.back().body_depth = depth;
        }
      } else if (ch == '}') {
        --depth;
        while (!stack.empty() && !stack.back().armed && depth < stack.back().body_depth) {
          const Sw sw = stack.back();
          stack.pop_back();
          if (!sw.enum_seen.empty() && sw.default_line > 0) {
            diags->push_back({f.rel, sw.default_line, "switch-default",
                              "switch over " + sw.enum_seen +
                                  " has a `default:` arm — it hides unhandled ops from "
                                  "-Wswitch; enumerate the ops or suppress with a reason"});
          }
        }
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

std::string Format(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ": " + d.check + ": " + d.message;
}

bool IsKnownCheck(const std::string& name) {
  for (const char* c : kCheckNames) {
    if (name == c) return true;
  }
  return false;
}

std::vector<Diagnostic> Run(const std::string& root) {
  std::vector<Diagnostic> diags;

  // Load every .h/.cc under <root>/src, keyed by '/'-separated relative path.
  std::map<std::string, SourceFile> files;
  const fs::path src_dir = fs::path(root) / "src";
  if (!fs::is_directory(src_dir)) {
    return {{(fs::path("src")).string(), 0, "op-annotation",
             "lint root has no src/ directory: " + root}};
  }
  for (const auto& entry : fs::recursive_directory_iterator(src_dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    std::string rel = fs::relative(entry.path(), fs::path(root)).generic_string();
    files.emplace(rel, LexFile(entry.path(), rel));
  }

  auto file = [&](const std::string& rel) -> const SourceFile* {
    auto it = files.find(rel);
    return it == files.end() ? nullptr : &it->second;
  };

  Suppressions sup;
  for (const auto& [rel, f] : files) CollectSuppressions(f, &sup);

  // ---- Parse ground truth ----
  const SourceFile* nqe_h = file(kNqeHeader);
  std::vector<OpInfo> ops;
  if (nqe_h == nullptr) {
    diags.push_back({kNqeHeader, 0, "op-annotation", "missing (NqeOp enum lives here)"});
  } else {
    ops = ParseOps(*nqe_h, &diags);
  }
  std::map<std::string, const OpInfo*> by_name;
  for (const OpInfo& op : ops) by_name[op.name] = &op;

  // ---- op-name: every enumerator has a NqeOpName case ----
  if (const SourceFile* f = file(kNqeNames)) {
    const std::set<std::string> cases = CaseLabelsOf(*f, "NqeOp");
    for (const OpInfo& op : ops) {
      if (cases.count(op.name) == 0) {
        diags.push_back({nqe_h->rel, op.line, "op-name",
                         op.name + " has no NqeOpName case in " + std::string(kNqeNames)});
      }
    }
  } else if (nqe_h != nullptr) {
    diags.push_back({kNqeNames, 0, "op-name", "missing (NqeOpName switch lives here)"});
  }

  // ---- op-routing ----
  const SourceFile* ce = file(kCoreEngine);
  const SourceFile* gl = file(kGuestLib);
  const std::set<std::string> ce_mentions =
      ce != nullptr ? MentionsOf(*ce, "NqeOp") : std::set<std::string>{};
  const std::set<std::string> gl_cases =
      gl != nullptr ? CaseLabelsOf(*gl, "NqeOp") : std::set<std::string>{};
  std::set<std::string> dispatch_cases;
  for (const char* rel : kDispatchFiles) {
    if (const SourceFile* f = file(rel)) {
      const std::set<std::string> c = CaseLabelsOf(*f, "NqeOp");
      dispatch_cases.insert(c.begin(), c.end());
    }
  }
  std::set<std::string> core_mentions;  // any src/core file, for control ops
  for (const auto& [rel, f] : files) {
    if (rel.rfind("src/core/", 0) != 0) continue;
    const std::set<std::string> m = MentionsOf(f, "NqeOp");
    core_mentions.insert(m.begin(), m.end());
  }
  for (const OpInfo& op : ops) {
    if (!op.annotated) continue;
    if (op.dir == "guest->nsm") {
      if (ce != nullptr && ce_mentions.count(op.name) == 0) {
        diags.push_back({nqe_h->rel, op.line, "op-routing",
                         op.name + " (guest->nsm) is never mentioned by " +
                             std::string(kCoreEngine) + " — the switch cannot route or unwind it"});
      }
      if (dispatch_cases.count(op.name) == 0) {
        diags.push_back({nqe_h->rel, op.line, "op-routing",
                         op.name + " (guest->nsm) has no dispatch case in " +
                             std::string(kDispatchFiles[0]) + " or " +
                             std::string(kDispatchFiles[1])});
      }
    } else if (op.dir == "nsm->guest") {
      if (gl != nullptr && gl_cases.count(op.name) == 0) {
        diags.push_back({nqe_h->rel, op.line, "op-routing",
                         op.name + " (nsm->guest) has no reap case in " + std::string(kGuestLib)});
      }
      if (op.ring == "receive" && ce != nullptr && ce_mentions.count(op.name) == 0) {
        diags.push_back({nqe_h->rel, op.line, "op-routing",
                         op.name + " rides the receive ring but " + std::string(kCoreEngine) +
                             " never classifies it (receive-ring byte accounting)"});
      }
    } else if (op.dir == "control") {
      if (core_mentions.count(op.name) == 0) {
        diags.push_back({nqe_h->rel, op.line, "op-routing",
                         op.name + " (control) is referenced nowhere in src/core/"});
      }
    }
    // dir=none (kInvalid) is exempt from routing.
  }

  // ---- guard-coverage ----
  // The guard= annotations name the ring nkguard admits each guest->nsm op
  // on; the admission tables in src/guard/ must mention every such op (and
  // every nsm->guest op, for the direction check) or the validator has
  // drifted from the contract. Trees without a src/guard/ directory predate
  // nkguard and skip the check.
  {
    std::set<std::string> guard_mentions;
    bool have_guard = false;
    for (const auto& [rel, f] : files) {
      if (rel.rfind("src/guard/", 0) != 0) continue;
      have_guard = true;
      const std::set<std::string> m = MentionsOf(f, "NqeOp");
      guard_mentions.insert(m.begin(), m.end());
    }
    if (have_guard && nqe_h != nullptr) {
      for (const OpInfo& op : ops) {
        if (!op.annotated) continue;
        if (op.dir == "guest->nsm") {
          if (op.guard.empty()) {
            diags.push_back({nqe_h->rel, op.line, "guard-coverage",
                             op.name + " (guest->nsm) declares no guard= ring — nkguard cannot "
                                       "admit it at the boundary"});
          } else if (guard_mentions.count(op.name) == 0) {
            diags.push_back({nqe_h->rel, op.line, "guard-coverage",
                             op.name + " (guard=" + op.guard + ") never appears in src/guard/ — "
                                       "the admission tables have drifted from the contract"});
          }
        } else if (op.dir == "nsm->guest") {
          if (guard_mentions.count(op.name) == 0) {
            diags.push_back({nqe_h->rel, op.line, "guard-coverage",
                             op.name + " (nsm->guest) never appears in src/guard/ — the "
                                       "NSM-direction table has drifted from the contract"});
          }
        }
      }
    }
  }

  // ---- reclaim-closure ----
  if (ce != nullptr && nqe_h != nullptr) {
    const auto body = FindFunctionBody(*ce, "BuildErrorCompletion");
    std::set<std::string> err_cases, err_mentions;
    if (body) {
      err_cases = CaseLabelsOf(*ce, "NqeOp", body->first, body->second);
      err_mentions = MentionsOf(*ce, "NqeOp", body->first, body->second);
    }
    for (const OpInfo& op : ops) {
      if (!(op.annotated && op.dir == "guest->nsm" && op.carries_chunk)) continue;
      if (op.reclaim.empty()) {
        diags.push_back({nqe_h->rel, op.line, "reclaim-closure",
                         op.name + " carries a chunk but declares no reclaim= completion"});
        continue;
      }
      if (!body) {
        diags.push_back({nqe_h->rel, op.line, "reclaim-closure",
                         "cannot locate CoreEngineShard::BuildErrorCompletion in " +
                             std::string(kCoreEngine) + " to verify " + op.name});
        continue;
      }
      if (err_cases.count(op.name) == 0) {
        diags.push_back({nqe_h->rel, op.line, "reclaim-closure",
                         op.name + " has no case in BuildErrorCompletion — a switch-side death "
                                   "would leak its chunk and send credit"});
      } else if (err_mentions.count(op.reclaim) == 0) {
        diags.push_back({nqe_h->rel, op.line, "reclaim-closure",
                         op.name + " declares reclaim=" + op.reclaim +
                             " but BuildErrorCompletion never synthesizes it"});
      }
      auto rit = by_name.find(op.reclaim);
      if (rit == by_name.end()) {
        diags.push_back({nqe_h->rel, op.line, "reclaim-closure",
                         op.name + " declares reclaim=" + op.reclaim + " which is not a NqeOp"});
      } else if (rit->second->dir != "nsm->guest") {
        diags.push_back({nqe_h->rel, op.line, "reclaim-closure",
                         op.name + "'s reclaim " + op.reclaim + " must flow nsm->guest"});
      }
    }
  }

  // ---- completion-pairing ----
  if (nqe_h != nullptr) {
    for (const OpInfo& op : ops) {
      if (!op.annotated || op.completion.empty()) continue;
      auto it = by_name.find(op.completion);
      if (it == by_name.end()) {
        diags.push_back({nqe_h->rel, op.line, "completion-pairing",
                         op.name + " declares completion=" + op.completion +
                             " which is not a NqeOp"});
        continue;
      }
      const OpInfo& comp = *it->second;
      if (comp.dir != "nsm->guest") {
        diags.push_back({nqe_h->rel, op.line, "completion-pairing",
                         op.name + "'s completion " + comp.name +
                             " must flow the opposite direction (nsm->guest)"});
      } else if (comp.ring != "completion") {
        diags.push_back({nqe_h->rel, op.line, "completion-pairing",
                         op.name + "'s completion " + comp.name +
                             " must ride the completion ring (ring=completion)"});
      }
    }
  }

  // ---- stats-drift ----
  {
    std::vector<const SourceFile*> impls;
    for (const auto& [rel, f] : files) {
      if (rel.size() > 3 && rel.compare(rel.size() - 3, 3, ".cc") == 0) impls.push_back(&f);
    }
    const std::set<std::string> registered = CollectRegisteredNames(impls);
    auto is_registered = [&](const std::string& field) {
      if (registered.count(field) != 0) return true;
      const std::string dotted = "." + field;
      for (const std::string& name : registered) {
        if (name.size() > dotted.size() &&
            name.compare(name.size() - dotted.size(), dotted.size(), dotted) == 0) {
          return true;
        }
      }
      return false;
    };
    for (const auto& [rel, f] : files) {
      for (const StatsField& field : CollectStatsFields(f)) {
        if (!is_registered(field.name)) {
          diags.push_back({field.file, field.line, "stats-drift",
                           field.strct + "::" + field.name +
                               " is never registered in a MetricsRegistry (no Register* call "
                               "names it)"});
        }
      }
    }
  }

  // ---- flight-coverage ----
  if (const SourceFile* fh = file(kFlightHeader)) {
    const EnumBody body = FindEnumBody(*fh, "FlightEventType");
    const SourceFile* fn = file(kFlightNames);
    const std::set<std::string> name_cases =
        fn != nullptr ? CaseLabelsOf(*fn, "FlightEventType") : std::set<std::string>{};
    std::set<std::string> emissions;
    for (const auto& [rel, f] : files) {
      if (rel == kFlightHeader || rel == kFlightNames) continue;
      const std::set<std::string> m = MentionsOf(f, "FlightEventType");
      emissions.insert(m.begin(), m.end());
    }
    if (body.found) {
      for (const auto& [name, line] : EnumeratorsIn(*fh, body)) {
        if (fn != nullptr && name_cases.count(name) == 0) {
          diags.push_back({fh->rel, line, "flight-coverage",
                           name + " has no FlightEventName case in " + std::string(kFlightNames)});
        }
        if (emissions.count(name) == 0) {
          diags.push_back({fh->rel, line, "flight-coverage",
                           name + " is never emitted anywhere in src/ — dead event kind"});
        }
      }
    }
  }

  // ---- switch-default ----
  for (const auto& [rel, f] : files) CheckSwitchDefaults(f, &diags);

  // ---- suppressions ----
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : diags) {
    if (!Suppressed(d, sup, files)) out.push_back(d);
  }
  for (const Diagnostic& d : sup.bad) out.push_back(d);
  // ---- stale-suppression: an allow that suppressed nothing ----
  for (const auto& [where, checks] : sup.allows) {
    for (const std::string& check : checks) {
      if (sup.used.count({where.first, where.second, check}) == 0) {
        out.push_back({where.first, where.second, "stale-suppression",
                       "nklint-allow(" + check + ") suppresses no diagnostic; delete it"});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Diagnostic& a, const Diagnostic& b) {
    return std::tie(a.file, a.line, a.check, a.message) <
           std::tie(b.file, b.line, b.check, b.message);
  });
  return out;
}

}  // namespace nklint
