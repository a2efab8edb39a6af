//===- support/Json.h - Minimal JSON emission and scanning ------*- C++ -*-===//
///
/// \file
/// A small streaming JSON writer for the machine-readable verdict report
/// (isq-verify --format json). Handles comma placement, nesting, string
/// escaping, and non-finite doubles (emitted as null, which JSON requires).
/// Plus two plain scanners over a rendered report, for comparing and
/// mining reports by key; the repo never needs a full JSON parser.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_SUPPORT_JSON_H
#define ISQ_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <vector>

namespace isq {
namespace json {

/// Escapes \p S for inclusion in a JSON string literal (quotes excluded).
std::string escape(const std::string &S);

/// Returns \p Doc with the number of every member whose key \p Keys names
/// replaced by 0: the run of digits and '.' right after `"key":`. Values
/// that do not start with one (null, strings, nested values) are left
/// alone. A key entry "*suffix" names every key made of lowercase letters
/// and '_' that ends in suffix, so {"*seconds"} zeroes every timing.
std::string zeroNumbers(const std::string &Doc,
                        const std::vector<std::string> &Keys);

/// The unsigned integer right after the first `"Key":` in \p Doc that is
/// followed by a digit; 0 when there is none.
uint64_t readUnsigned(const std::string &Doc, const std::string &Key);

/// A streaming writer. Calls must form a well-nested document:
///
///   JsonWriter W;
///   W.beginObject();
///   W.key("accepted").value(true);
///   W.key("conditions").beginArray();
///   ...
///   W.endArray();
///   W.endObject();
///   std::string Doc = W.take();
class JsonWriter {
public:
  JsonWriter &beginObject();
  JsonWriter &endObject();
  JsonWriter &beginArray();
  JsonWriter &endArray();

  /// Emits an object key; the next call must emit its value.
  JsonWriter &key(const std::string &Name);

  JsonWriter &value(const std::string &S);
  JsonWriter &value(const char *S);
  JsonWriter &value(int64_t N);
  JsonWriter &value(uint64_t N);
  JsonWriter &value(int N) { return value(static_cast<int64_t>(N)); }
  JsonWriter &value(unsigned N) { return value(static_cast<uint64_t>(N)); }
  JsonWriter &value(double D);
  JsonWriter &value(bool B);
  JsonWriter &null();

  /// The finished document. The writer must be back at nesting depth 0.
  std::string take();

private:
  /// Emits the separating comma when a sibling value precedes this one.
  void pre();

  std::string Out;
  /// One entry per open container: whether a value was already emitted at
  /// this level (so the next sibling needs a comma).
  std::vector<bool> HasSibling;
  /// True directly after key(): the next value is a member value, not a
  /// sibling.
  bool PendingKey = false;
};

} // namespace json
} // namespace isq

#endif // ISQ_SUPPORT_JSON_H
