//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared across test suites — source-tree paths, the
/// regression-corpus loader and a minimal JSON parser for validating
/// the telemetry artifacts (--trace / --metrics-json output), so none
/// of them lives in more than one place.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_TESTS_TESTUTIL_H
#define SLP_TESTS_TESTUTIL_H

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace slp {
namespace test {

#ifndef SLP_SOURCE_DIR
#error "test targets must define SLP_SOURCE_DIR (see CMakeLists.txt)"
#endif

/// Absolute path of \p Rel (e.g. "data/regression.slp") in the source
/// tree, wherever the build directory is.
inline std::string sourcePath(const std::string &Rel) {
  return std::string(SLP_SOURCE_DIR) + "/" + Rel;
}

/// Opens data/regression.slp. A missing file fails the calling test
/// (and the returned stream is unopened), so no test passes vacuously
/// on an empty corpus.
inline std::ifstream openRegressionCorpus() {
  const std::string Path = sourcePath("data/regression.slp");
  std::ifstream In(Path);
  if (!In)
    ADD_FAILURE() << "cannot open " << Path;
  return In;
}

/// The corpus's query lines (blanks and comment-only lines dropped).
inline std::vector<std::string> regressionQueryLines() {
  std::vector<std::string> Queries;
  std::ifstream In = openRegressionCorpus();
  std::string Line;
  while (std::getline(In, Line)) {
    size_t NonWs = Line.find_first_not_of(" \t\r");
    if (NonWs == std::string::npos || Line[NonWs] == '#' ||
        Line.substr(NonWs, 2) == "//")
      continue;
    Queries.push_back(Line);
  }
  return Queries;
}

//===----------------------------------------------------------------------===//
// Minimal JSON parser (tests only)
//===----------------------------------------------------------------------===//

/// A parsed JSON value. Just enough JSON for the telemetry tests:
/// objects, arrays, strings with the common escapes, doubles, bools,
/// null. Not validating beyond what parsing needs.
struct Json {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<Json> Arr;
  std::vector<std::pair<std::string, Json>> Obj;

  /// Object member lookup; null when absent or not an object.
  const Json *get(const std::string &Key) const {
    for (const auto &KV : Obj)
      if (KV.first == Key)
        return &KV.second;
    return nullptr;
  }
};

namespace detail {

inline void jsonSkipWs(const std::string &S, size_t &I) {
  while (I < S.size() && std::isspace(static_cast<unsigned char>(S[I])))
    ++I;
}

/// Parses one JSON value at S[I]; false on malformed input.
inline bool jsonParseValue(const std::string &S, size_t &I, Json &Out) {
  jsonSkipWs(S, I);
  if (I >= S.size())
    return false;
  char C = S[I];
  if (C == '{') {
    Out.K = Json::Kind::Object;
    ++I;
    jsonSkipWs(S, I);
    if (I < S.size() && S[I] == '}')
      return ++I, true;
    for (;;) {
      Json Key, Val;
      if (!jsonParseValue(S, I, Key) || Key.K != Json::Kind::String)
        return false;
      jsonSkipWs(S, I);
      if (I >= S.size() || S[I] != ':')
        return false;
      ++I;
      if (!jsonParseValue(S, I, Val))
        return false;
      Out.Obj.emplace_back(std::move(Key.Str), std::move(Val));
      jsonSkipWs(S, I);
      if (I >= S.size())
        return false;
      if (S[I] == ',') {
        ++I;
        continue;
      }
      return S[I] == '}' ? (++I, true) : false;
    }
  }
  if (C == '[') {
    Out.K = Json::Kind::Array;
    ++I;
    jsonSkipWs(S, I);
    if (I < S.size() && S[I] == ']')
      return ++I, true;
    for (;;) {
      Json Elem;
      if (!jsonParseValue(S, I, Elem))
        return false;
      Out.Arr.push_back(std::move(Elem));
      jsonSkipWs(S, I);
      if (I >= S.size())
        return false;
      if (S[I] == ',') {
        ++I;
        continue;
      }
      return S[I] == ']' ? (++I, true) : false;
    }
  }
  if (C == '"') {
    Out.K = Json::Kind::String;
    ++I;
    while (I < S.size() && S[I] != '"') {
      if (S[I] == '\\') {
        if (I + 1 >= S.size())
          return false;
        char E = S[I + 1];
        switch (E) {
        case '"':
        case '\\':
        case '/':
          Out.Str += E;
          break;
        case 'n':
          Out.Str += '\n';
          break;
        case 't':
          Out.Str += '\t';
          break;
        case 'r':
          Out.Str += '\r';
          break;
        case 'b':
          Out.Str += '\b';
          break;
        case 'f':
          Out.Str += '\f';
          break;
        case 'u': {
          if (I + 5 >= S.size())
            return false;
          // Keep the raw escape; the tests never check non-ASCII.
          Out.Str += S.substr(I, 6);
          I += 4;
          break;
        }
        default:
          return false;
        }
        I += 2;
      } else {
        Out.Str += S[I++];
      }
    }
    return I < S.size() ? (++I, true) : false;
  }
  if (S.compare(I, 4, "true") == 0) {
    Out.K = Json::Kind::Bool;
    Out.B = true;
    I += 4;
    return true;
  }
  if (S.compare(I, 5, "false") == 0) {
    Out.K = Json::Kind::Bool;
    Out.B = false;
    I += 5;
    return true;
  }
  if (S.compare(I, 4, "null") == 0) {
    Out.K = Json::Kind::Null;
    I += 4;
    return true;
  }
  // Number.
  {
    char *End = nullptr;
    Out.Num = std::strtod(S.c_str() + I, &End);
    if (End == S.c_str() + I)
      return false;
    Out.K = Json::Kind::Number;
    I = static_cast<size_t>(End - S.c_str());
    return true;
  }
}

} // namespace detail

/// Parses \p Text as one JSON document (trailing whitespace allowed).
/// Returns nullptr on malformed input.
inline std::unique_ptr<Json> parseJson(const std::string &Text) {
  auto Out = std::make_unique<Json>();
  size_t I = 0;
  if (!detail::jsonParseValue(Text, I, *Out))
    return nullptr;
  detail::jsonSkipWs(Text, I);
  return I == Text.size() ? std::move(Out) : nullptr;
}

/// Slurps a whole file; empty string when unreadable.
inline std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::string S;
  char Buf[4096];
  while (In.read(Buf, sizeof(Buf)) || In.gcount())
    S.append(Buf, static_cast<size_t>(In.gcount()));
  return S;
}

} // namespace test
} // namespace slp

#endif // SLP_TESTS_TESTUTIL_H
