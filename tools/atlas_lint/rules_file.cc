#include "atlas_lint/rules_file.h"

#include <algorithm>
#include <cctype>
#include <regex>
#include <set>
#include <string>

namespace atlas::lint {
namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsHeader(const std::string& path) {
  return EndsWith(path, ".h") || EndsWith(path, ".hpp");
}

bool InLibrary(const std::string& path) { return StartsWith(path, "src/"); }

bool InLibraryOrTools(const std::string& path) {
  return StartsWith(path, "src/") || StartsWith(path, "tools/");
}

class FileRules {
 public:
  FileRules(const FileIndex& f, Sink& sink) : f_(f), sink_(sink) {}

  void Run() {
    CheckNondeterminism();
    CheckRawNewDelete();
    CheckNarrowByteCounter();
    CheckRawStdMutex();
    CheckMutexAnnotations();
    CheckPragmaOnce();
    CheckUnorderedIteration();
    CheckUncheckedIndexCast();
    CheckTraceBufferInCdn();
    CheckPerRecordInHotPath();
    CheckCkptUnversionedBlob();
  }

 private:
  const std::string& path() const { return f_.path; }

  // Applies `re` to every code line, reporting `rule` on match.
  void ForbidPattern(const std::regex& re, const std::string& rule,
                     const std::string& message) {
    for (std::size_t i = 1; i < f_.scrubbed.code.size(); ++i) {
      std::smatch m;
      if (std::regex_search(f_.scrubbed.code[i], m, re)) {
        sink_.Report(i, static_cast<std::size_t>(m.position(0)) + 1, rule,
                     message);
      }
    }
  }

  void CheckNondeterminism();
  void CheckRawNewDelete();
  void CheckNarrowByteCounter();
  void CheckRawStdMutex();
  void CheckMutexAnnotations();
  void CheckPragmaOnce();
  void CheckUnorderedIteration();
  void CheckUncheckedIndexCast();
  void CheckTraceBufferInCdn();
  void CheckPerRecordInHotPath();
  void CheckCkptUnversionedBlob();

  const FileIndex& f_;
  Sink& sink_;
};

void FileRules::CheckNondeterminism() {
  if (!InLibrary(path())) return;
  static const std::regex kRandomDevice(R"(\brandom_device\b)");
  static const std::regex kRand(R"((^|[^\w:.>])s?rand\s*\()");
  static const std::regex kTime(R"(\btime\s*\(\s*(nullptr|NULL|0)\s*\))");
  static const std::regex kSystemClock(R"(\bsystem_clock\b)");
  ForbidPattern(kRandomDevice, "nondet-random-device",
                "std::random_device is nondeterministic; seed util::Rng / "
                "util::ShardedRng from an explicit seed");
  ForbidPattern(kRand, "nondet-rand",
                "rand()/srand() are banned; use util::Rng");
  ForbidPattern(kTime, "nondet-time",
                "wall-clock time() is banned in library code; timestamps "
                "come from the trace");
  if (path() != "src/util/time.h" && path() != "src/util/time.cc") {
    ForbidPattern(kSystemClock, "nondet-system-clock",
                  "std::chrono::system_clock is banned outside util/time; "
                  "library results must not depend on wall-clock reads");
  }
}

void FileRules::CheckRawNewDelete() {
  if (!InLibraryOrTools(path())) return;
  static const std::regex kNew(R"(\bnew\b)");
  static const std::regex kDelete(R"(\bdelete\b)");
  for (std::size_t i = 1; i < f_.scrubbed.code.size(); ++i) {
    const std::string& line = f_.scrubbed.code[i];
    std::smatch m;
    if (std::regex_search(line, m, kNew)) {
      sink_.Report(i, static_cast<std::size_t>(m.position(0)) + 1,
                   "raw-new-delete",
                   "raw new is banned; use std::make_unique or a container");
    }
    if (std::regex_search(line, m, kDelete)) {
      // `= delete` (deleted special members) is fine. The '=' may sit at
      // the end of the previous line.
      std::string before =
          line.substr(0, static_cast<std::size_t>(m.position(0)));
      if (before.find_last_not_of(" \t") == std::string::npos && i > 1) {
        before = f_.scrubbed.code[i - 1];
      }
      const std::size_t last_pos = before.find_last_not_of(" \t");
      const char last = last_pos == std::string::npos ? '\0' : before[last_pos];
      if (last != '=') {
        sink_.Report(i, static_cast<std::size_t>(m.position(0)) + 1,
                     "raw-new-delete",
                     "raw delete is banned; use std::unique_ptr or a "
                     "container");
      }
    }
  }
}

void FileRules::CheckNarrowByteCounter() {
  if (!StartsWith(path(), "src/cdn/") &&
      !StartsWith(path(), "src/analysis/")) {
    return;
  }
  // Narrow or signed arithmetic types followed by an identifier whose name
  // says it holds bytes or a size. 64-bit unsigned types (std::uint64_t,
  // std::size_t, unsigned long long) pass.
  static const std::regex kNarrowDecl(
      R"re((?:^|[^\w:])()re"
      R"re(unsigned\s+short|unsigned\s+char|unsigned\s+int|unsigned|signed|)re"
      R"re(short|long\s+long|long|int|)re"
      R"re((?:std::)?u?int(?:8|16|32)_t)re"
      R"re()\s+(?:const\s+)?([A-Za-z_]\w*)\s*(?=[;,=){\[]))re");
  static const std::regex kCounterName(R"([Bb]ytes|[Ss]ize)");
  for (std::size_t i = 1; i < f_.scrubbed.code.size(); ++i) {
    const std::string& line = f_.scrubbed.code[i];
    auto begin = std::sregex_iterator(line.begin(), line.end(), kNarrowDecl);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      const std::string type = (*it)[1].str();
      const std::string name = (*it)[2].str();
      // `unsigned long` / `unsigned long long` are 64-bit unsigned on LP64;
      // the regex can match their trailing `long (long)` alone, so check
      // the word right before the matched type.
      static const std::regex kUnsignedTail(R"(\bunsigned\s*$)");
      const std::string prefix =
          line.substr(0, static_cast<std::size_t>(it->position(1)));
      if (std::regex_search(prefix, kUnsignedTail)) continue;
      if (std::regex_search(name, kCounterName)) {
        sink_.Report(i, static_cast<std::size_t>(it->position(1)) + 1,
                     "narrow-byte-counter",
                     "byte/size counter '" + name + "' declared as '" + type +
                         "'; byte accounting must use std::uint64_t (or "
                         "std::size_t for in-memory sizes)");
      }
    }
  }
}

void FileRules::CheckRawStdMutex() {
  if (!InLibraryOrTools(path())) return;
  if (path() == "src/util/mutex.h") return;
  static const std::regex kStdSync(
      R"(std::(mutex|shared_mutex|recursive_mutex|timed_mutex|)"
      R"(condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock)\b)");
  ForbidPattern(kStdSync, "raw-std-mutex",
                "raw std synchronization types are invisible to Clang "
                "-Wthread-safety; use util::Mutex / util::MutexLock / "
                "util::CondVar from util/mutex.h");
}

void FileRules::CheckMutexAnnotations() {
  if (!InLibraryOrTools(path())) return;
  if (path() == "src/util/mutex.h") return;
  // A Mutex declaration (member or namespace-scope). `MutexLock lock(...)`
  // does not match: \b requires the token to be exactly `Mutex`.
  static const std::regex kMutexDecl(R"(\bMutex\s+([A-Za-z_]\w*)\s*[;={])");
  for (std::size_t i = 1; i < f_.scrubbed.code.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(f_.scrubbed.code[i], m, kMutexDecl)) continue;
    const std::string name = m[1].str();
    const std::regex annotated(
        R"(ATLAS_(GUARDED_BY|PT_GUARDED_BY|REQUIRES|ACQUIRE|RELEASE|)"
        R"(EXCLUDES)\s*\([^)]*\b)" +
        name + R"(\b[^)]*\))");
    if (!std::regex_search(f_.flat, annotated) &&
        !std::regex_search(f_.decl_flat, annotated)) {
      sink_.Report(i, static_cast<std::size_t>(m.position(0)) + 1,
                   "mutex-unannotated",
                   "Mutex '" + name +
                       "' guards nothing: annotate the state it protects "
                       "with ATLAS_GUARDED_BY(" +
                       name + ") (see util/thread_annotations.h)");
    }
  }
}

void FileRules::CheckPragmaOnce() {
  if (!IsHeader(path())) return;
  static const std::regex kPragmaOnce(R"(^\s*#\s*pragma\s+once\b)");
  for (std::size_t i = 1; i < f_.scrubbed.code.size(); ++i) {
    if (std::regex_search(f_.scrubbed.code[i], kPragmaOnce)) return;
  }
  sink_.Report(1, 1, "missing-pragma-once",
               "header is missing #pragma once");
}

void FileRules::CheckUncheckedIndexCast() {
  // Population sizes in src/synth/ are validated against the uint32 index
  // range, but intermediate products (shard offsets, scaled counts, sampled
  // indices) are 64-bit: a silent static_cast<uint32_t> truncates exactly
  // when a scale-up makes it matter. util::CheckedIndexU32 (util/checked.h)
  // is the loud equivalent.
  if (!StartsWith(path(), "src/synth/")) return;
  static const std::regex kNarrowCast(
      R"(static_cast<\s*(?:std::)?uint32_t\s*>)");
  ForbidPattern(kNarrowCast, "unchecked-index-cast",
                "silent narrowing cast to uint32_t in the synth layer; use "
                "util::CheckedIndexU32 (util/checked.h) so an over-scaled "
                "population throws instead of wrapping");
}

void FileRules::CheckTraceBufferInCdn() {
  if (!StartsWith(path(), "src/cdn/")) return;
  // A TraceBuffer declaration (member, local, global) or by-value return
  // type in the simulator materializes a whole trace in RAM — the sharded
  // engine's contract is that records stream through trace::RecordSink.
  // References and pointers (read-only views of caller-owned buffers) are
  // fine and do not match.
  static const std::regex kDeclOrReturn(
      R"(\bTraceBuffer\s+[A-Za-z_][A-Za-z0-9_:]*\s*[;={(])");
  ForbidPattern(kDeclOrReturn, "tracebuffer-in-cdn",
                "trace::TraceBuffer members/returns are banned in src/cdn/; "
                "emit records through trace::RecordSink (trace/sink.h) "
                "instead of materializing a buffer");
}

void FileRules::CheckUnorderedIteration() {
  if (!InLibrary(path())) return;
  // Pass 1: names declared with an unordered container type anywhere in
  // this file or its sibling header (members, locals, globals).
  std::set<std::string> unordered_names;
  static const std::regex kUnorderedType(
      R"(std::unordered_(map|set|multimap|multiset)\s*<)");
  for (const std::string* source : {&f_.flat, &f_.decl_flat}) {
    const std::string& text = *source;
    for (auto it =
             std::sregex_iterator(text.begin(), text.end(), kUnorderedType);
         it != std::sregex_iterator(); ++it) {
      // Balance the template angle brackets, then read the declared name.
      std::size_t pos = static_cast<std::size_t>(it->position(0)) +
                        static_cast<std::size_t>(it->length(0));
      int depth = 1;
      while (pos < text.size() && depth > 0) {
        if (text[pos] == '<') ++depth;
        if (text[pos] == '>') --depth;
        ++pos;
      }
      while (pos < text.size() &&
             (std::isspace(static_cast<unsigned char>(text[pos])) != 0 ||
              text[pos] == '&' || text[pos] == '*')) {
        ++pos;
      }
      if (text.compare(pos, 6, "const ") == 0) pos += 6;
      std::string name;
      while (pos < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[pos])) != 0 ||
              text[pos] == '_')) {
        name += text[pos++];
      }
      while (pos < text.size() &&
             std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
        ++pos;
      }
      // `std::unordered_map<...> Foo(` is a function decl, not state.
      if (!name.empty() && (pos >= text.size() || text[pos] != '(')) {
        unordered_names.insert(name);
      }
    }
  }
  if (unordered_names.empty()) return;

  // Pass 2: range-based for loops whose range resolves to one of those
  // names and whose body accumulates.
  static const std::regex kFor(R"(\bfor\s*\()");
  for (auto it = std::sregex_iterator(f_.flat.begin(), f_.flat.end(), kFor);
       it != std::sregex_iterator(); ++it) {
    std::size_t pos =
        static_cast<std::size_t>(it->position(0)) + it->length(0);
    const std::size_t at = static_cast<std::size_t>(it->position(0));
    // Find the range-for ':' at paren depth 1 (skipping '::').
    int depth = 1;
    std::size_t colon = std::string::npos;
    std::size_t close = std::string::npos;
    for (std::size_t p = pos; p < f_.flat.size(); ++p) {
      const char c = f_.flat[p];
      if (c == '(') ++depth;
      if (c == ')') {
        --depth;
        if (depth == 0) {
          close = p;
          break;
        }
      }
      if (c == ';') break;  // classic for loop
      if (c == ':' && depth == 1 && colon == std::string::npos &&
          (p + 1 >= f_.flat.size() || f_.flat[p + 1] != ':') &&
          (p == 0 || f_.flat[p - 1] != ':')) {
        colon = p;
      }
    }
    if (colon == std::string::npos || close == std::string::npos) continue;
    std::string range = f_.flat.substr(colon + 1, close - colon - 1);
    range.erase(
        std::remove_if(range.begin(), range.end(),
                       [](unsigned char c) { return std::isspace(c) != 0; }),
        range.end());
    if (range.empty() || range.back() == ')') continue;  // call expression
    // Last component of a member/scope chain.
    const std::size_t cut = range.find_last_of(".>:");
    const std::string base =
        cut == std::string::npos ? range : range.substr(cut + 1);
    if (unordered_names.count(base) == 0) continue;
    // Loop body: braces (or single statement) after the closing paren.
    std::size_t body_begin = close + 1;
    while (body_begin < f_.flat.size() &&
           std::isspace(static_cast<unsigned char>(f_.flat[body_begin])) !=
               0) {
      ++body_begin;
    }
    std::size_t body_end = body_begin;
    if (body_begin < f_.flat.size() && f_.flat[body_begin] == '{') {
      int braces = 1;
      for (body_end = body_begin + 1;
           body_end < f_.flat.size() && braces > 0; ++body_end) {
        if (f_.flat[body_end] == '{') ++braces;
        if (f_.flat[body_end] == '}') --braces;
      }
    } else {
      body_end = f_.flat.find(';', body_begin);
      if (body_end == std::string::npos) body_end = f_.flat.size();
    }
    const std::string body =
        f_.flat.substr(body_begin, body_end - body_begin);
    static const std::regex kAccumulate(
        R"(\+=|\bpush_back\s*\(|\bemplace_back\s*\()");
    if (std::regex_search(body, kAccumulate)) {
      sink_.Report(f_.line_of[at], f_.col_of[at], "unordered-iter",
                   "iteration over unordered container '" + base +
                       "' accumulates in implementation-defined order; sort "
                       "the keys first or prove order-insensitivity and "
                       "annotate with // atlas-lint: allow(unordered-iter)");
    }
  }
}

void FileRules::CheckPerRecordInHotPath() {
  if (!StartsWith(path(), "src/analysis/") &&
      !StartsWith(path(), "src/cdn/")) {
    return;
  }
  // A member call on a one-record-at-a-time adapter (NextRecord pulls one
  // record off a block stream, PushRecord packs one into a block).
  // Requiring `.` or `->` before the name keeps declarations and free
  // functions that merely share the name out of scope; matching on the
  // flattened view catches calls split across lines.
  static const std::regex kPerRecordCall(
      R"((\.|->)\s*(NextRecord|PushRecord)\s*\()");
  for (auto it = std::sregex_iterator(f_.flat.begin(), f_.flat.end(),
                                      kPerRecordCall);
       it != std::sregex_iterator(); ++it) {
    const std::size_t at = static_cast<std::size_t>(it->position(2));
    sink_.Report(f_.line_of[at], f_.col_of[at], "perrecord-in-hotpath",
                 "per-record adapter call '" + (*it)[2].str() +
                     "()' in a hot-path layer; stream whole SoA RecordBlocks "
                     "(BlockSource::NextBlock, trace/block.h) or push "
                     "record spans (RecordSink::Write, trace/sink.h) — "
                     "compatibility shims annotate with "
                     "// atlas-lint: allow(perrecord-in-hotpath)");
  }
}

void FileRules::CheckCkptUnversionedBlob() {
  if (!InLibrary(path())) return;
  // The codec itself is the one place allowed to touch raw bytes.
  if (StartsWith(path(), "src/ckpt/")) return;
  // A SaveState-family *definition*: match the name, balance the parameter
  // list, then skip trailing specifiers (const/final/override/noexcept) to
  // the body '{'. Declarations and call sites end in ';', ',' or ')' and
  // are skipped. Raw stream writes inside the body bypass the Writer's
  // CRC-stamped, versioned section framing — a checkpoint written that way
  // restores wrong-but-plausible after any layout change.
  static const std::regex kSaveFn(R"(\bSave\w*State\s*\()");
  static const std::regex kRawWrite(R"((\.|->)\s*write\s*\(|\bfwrite\s*\()");
  for (auto it =
           std::sregex_iterator(f_.flat.begin(), f_.flat.end(), kSaveFn);
       it != std::sregex_iterator(); ++it) {
    std::size_t pos = static_cast<std::size_t>(it->position(0)) +
                      static_cast<std::size_t>(it->length(0));
    int depth = 1;
    while (pos < f_.flat.size() && depth > 0) {
      if (f_.flat[pos] == '(') ++depth;
      if (f_.flat[pos] == ')') --depth;
      ++pos;
    }
    while (pos < f_.flat.size() && f_.flat[pos] != '{' &&
           f_.flat[pos] != ';' && f_.flat[pos] != '=' &&
           f_.flat[pos] != ',' && f_.flat[pos] != ')') {
      ++pos;
    }
    if (pos >= f_.flat.size() || f_.flat[pos] != '{') continue;
    const std::size_t body_begin = pos + 1;
    int braces = 1;
    std::size_t body_end = body_begin;
    while (body_end < f_.flat.size() && braces > 0) {
      if (f_.flat[body_end] == '{') ++braces;
      if (f_.flat[body_end] == '}') --braces;
      ++body_end;
    }
    const std::string body =
        f_.flat.substr(body_begin, body_end - body_begin);
    for (auto w = std::sregex_iterator(body.begin(), body.end(), kRawWrite);
         w != std::sregex_iterator(); ++w) {
      const std::size_t at =
          body_begin + static_cast<std::size_t>(w->position(0));
      sink_.Report(f_.line_of[at], f_.col_of[at], "ckpt-unversioned-blob",
                   "raw stream write inside a SaveState implementation; "
                   "checkpoint blobs must go through ckpt::Writer's typed, "
                   "versioned section API (see ckpt/checkpoint.h)");
    }
  }
}

}  // namespace

void RunFileRules(const FileIndex& file, Sink& sink) {
  FileRules(file, sink).Run();
}

}  // namespace atlas::lint
