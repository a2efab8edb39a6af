//===- lang/Diagnostics.h - Frontend diagnostics ------------------*- C++ -*-===//
///
/// \file
/// Source locations and the diagnostic type shared by every frontend
/// stage (lexer, parser, module resolver, binder, type checker, HIR
/// pipeline) and by the drivers that render them (isq-verify text/JSON,
/// isq-serve error marshalling).
///
/// A FrontendDiagnostic is an aggregate whose leading fields are the
/// historical {Message, Line, Column} triple, so stage code keeps pushing
/// `{"message", L, C}`; richer producers additionally fill the severity,
/// the owning file, an end position (turning the location into a span)
/// and an optional note. File identity travels as a SourceManager id
/// while the pipeline runs and is resolved to a display name once, at the
/// frontend boundary (frontend entry / driver), so inner stages never
/// carry path strings.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_LANG_DIAGNOSTICS_H
#define ISQ_LANG_DIAGNOSTICS_H

#include <cstdint>
#include <string>
#include <vector>

namespace isq {
namespace asl {

/// Diagnostic severity. Errors fail the compile; warnings and notes do
/// not (notes only occur attached to a primary diagnostic).
enum class Severity : uint8_t { Error, Warning, Note };

/// Renders "error" / "warning" / "note".
const char *severityName(Severity S);

/// A position in one source file: 1-based line/column plus the
/// SourceManager id of the file (0 is always the main input).
struct SourceLoc {
  uint32_t File = 0;
  unsigned Line = 0;
  unsigned Column = 0;

  bool valid() const { return Line != 0; }
};

/// A source-located diagnostic message.
struct FrontendDiagnostic {
  std::string Message;
  unsigned Line = 0;
  unsigned Column = 0;
  /// --- fields below carry default member initializers, so the
  /// historical {Message, Line, Column} aggregate spelling (and any
  /// prefix of the fields) leaves them empty without a
  /// -Wmissing-field-initializers warning ---
  Severity Sev = Severity::Error;
  /// SourceManager file id of the owning file (0 = main input).
  uint32_t File = 0;
  /// End of the offending span; 0 when the diagnostic is a point.
  unsigned EndLine = 0;
  unsigned EndColumn = 0;
  /// Display name of the owning file, resolved from File by the frontend
  /// entry before diagnostics escape to a driver. Empty inside stages.
  std::string FileName{};
  /// Optional secondary text ("first declared here", a fix hint, ...).
  std::string Note{};

  SourceLoc loc() const { return {File, Line, Column}; }

  /// Renders "file.asl:3:7: error: message" when the file name is
  /// resolved, falling back to the historical "line 3:7: message" form
  /// used by stage-level tests; a note is appended as "; note: ...".
  std::string str() const {
    std::string Out;
    if (!FileName.empty())
      Out = FileName + ":" + std::to_string(Line) + ":" +
            std::to_string(Column) + ": " + severityName(Sev) + ": " +
            Message;
    else
      Out = "line " + std::to_string(Line) + ":" + std::to_string(Column) +
            ": " + Message;
    if (!Note.empty())
      Out += "; note: " + Note;
    return Out;
  }
};

/// Historical name, kept for the stage interfaces and their tests.
using Diagnostic = FrontendDiagnostic;

/// The file table of one frontend run: maps SourceLoc::File ids to
/// display names. Id 0 is the main input.
class SourceManager {
public:
  /// Registers a file and returns its id.
  uint32_t add(std::string Name) {
    Names.push_back(std::move(Name));
    return static_cast<uint32_t>(Names.size() - 1);
  }

  const std::string &name(uint32_t Id) const {
    static const std::string Unknown = "<input>";
    return Id < Names.size() ? Names[Id] : Unknown;
  }
  size_t size() const { return Names.size(); }

  /// Fills FrontendDiagnostic::FileName from the file id on every
  /// diagnostic in \p Diags that does not carry one yet (the frontend
  /// boundary step).
  void resolveFileNames(std::vector<FrontendDiagnostic> &Diags) const {
    for (FrontendDiagnostic &D : Diags)
      if (D.FileName.empty() && D.File < Names.size())
        D.FileName = Names[D.File];
  }

private:
  std::vector<std::string> Names;
};

} // namespace asl
} // namespace isq

#endif // ISQ_LANG_DIAGNOSTICS_H
