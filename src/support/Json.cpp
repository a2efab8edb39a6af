//===- support/Json.cpp - Minimal JSON emission and scanning --------------===//

#include "support/Json.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <string_view>

using namespace isq;
using namespace isq::json;

namespace {

bool keyNamed(std::string_view Key, const std::vector<std::string> &Keys) {
  for (std::string_view K : Keys) {
    if (K == Key)
      return true;
    if (K.empty() || K[0] != '*' || Key.size() < K.size() - 1)
      continue;
    if (Key.substr(Key.size() - (K.size() - 1)) == K.substr(1) &&
        Key.find_first_not_of("abcdefghijklmnopqrstuvwxyz_") == Key.npos)
      return true;
  }
  return false;
}

/// The next value at or after \p From that follows `"key":` for a key
/// \p Keys names and starts with one of \p Chars (npos when none);
/// \p Len receives the length of its run of \p Chars.
size_t findValue(const std::string &Doc, size_t From,
                 const std::vector<std::string> &Keys, const char *Chars,
                 size_t &Len) {
  for (size_t Open = Doc.find('"', From), Close; Open != Doc.npos;
       Open = Close) {
    if ((Close = Doc.find('"', Open + 1)) == Doc.npos)
      break;
    if (Doc.compare(Close, 2, "\":") != 0 ||
        !keyNamed(std::string_view(Doc).substr(Open + 1, Close - Open - 1),
                  Keys))
      continue;
    Len = std::min(Doc.find_first_not_of(Chars, Close + 2), Doc.size()) -
          (Close + 2);
    if (Len)
      return Close + 2;
  }
  return Doc.npos;
}

} // namespace

std::string json::zeroNumbers(const std::string &Doc,
                              const std::vector<std::string> &Keys) {
  std::string Out;
  size_t Copied = 0, Len = 0, V;
  while ((V = findValue(Doc, Copied, Keys, "0123456789.", Len)) != Doc.npos) {
    Out.append(Doc, Copied, V - Copied) += '0';
    Copied = V + Len;
  }
  return Out.append(Doc, Copied);
}

uint64_t json::readUnsigned(const std::string &Doc, const std::string &Key) {
  size_t Len = 0, V = findValue(Doc, 0, {Key}, "0123456789", Len);
  return V == Doc.npos ? 0 : std::stoull(Doc.substr(V, Len));
}

std::string json::escape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  return Out;
}

void JsonWriter::pre() {
  if (PendingKey) {
    PendingKey = false;
    return; // the value belongs to the key just written
  }
  if (!HasSibling.empty()) {
    if (HasSibling.back())
      Out += ',';
    HasSibling.back() = true;
  }
}

JsonWriter &JsonWriter::beginObject() {
  pre();
  Out += '{';
  HasSibling.push_back(false);
  return *this;
}

JsonWriter &JsonWriter::endObject() {
  assert(!HasSibling.empty() && "endObject without beginObject");
  HasSibling.pop_back();
  Out += '}';
  return *this;
}

JsonWriter &JsonWriter::beginArray() {
  pre();
  Out += '[';
  HasSibling.push_back(false);
  return *this;
}

JsonWriter &JsonWriter::endArray() {
  assert(!HasSibling.empty() && "endArray without beginArray");
  HasSibling.pop_back();
  Out += ']';
  return *this;
}

JsonWriter &JsonWriter::key(const std::string &Name) {
  pre();
  Out += '"';
  Out += escape(Name);
  Out += "\":";
  PendingKey = true;
  return *this;
}

JsonWriter &JsonWriter::value(const std::string &S) {
  pre();
  Out += '"';
  Out += escape(S);
  Out += '"';
  return *this;
}

JsonWriter &JsonWriter::value(const char *S) {
  return value(std::string(S));
}

JsonWriter &JsonWriter::value(int64_t N) {
  pre();
  Out += std::to_string(N);
  return *this;
}

JsonWriter &JsonWriter::value(uint64_t N) {
  pre();
  Out += std::to_string(N);
  return *this;
}

JsonWriter &JsonWriter::value(double D) {
  pre();
  if (!std::isfinite(D)) {
    Out += "null"; // JSON has no NaN/Inf literals
    return *this;
  }
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6f", D);
  Out += Buf;
  return *this;
}

JsonWriter &JsonWriter::value(bool B) {
  pre();
  Out += B ? "true" : "false";
  return *this;
}

JsonWriter &JsonWriter::null() {
  pre();
  Out += "null";
  return *this;
}

std::string JsonWriter::take() {
  assert(HasSibling.empty() && "unbalanced JSON document");
  assert(!PendingKey && "key without value");
  return std::move(Out);
}
