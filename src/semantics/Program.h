//===- semantics/Program.h - Programs over atomic actions -------*- C++ -*-===//
///
/// \file
/// A program is a finite mapping from action names to gated atomic actions,
/// containing the dedicated name Main (§3). This header also provides the
/// operational semantics: the transition relation between configurations,
/// where any pending async may be scheduled next.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_SEMANTICS_PROGRAM_H
#define ISQ_SEMANTICS_PROGRAM_H

#include "semantics/Action.h"
#include "semantics/Configuration.h"

#include <memory>
#include <unordered_map>
#include <vector>

namespace isq {

class SymmetrySpec;

/// A finite mapping from action names to actions. Value type; the
/// substitution P[A ↦ a] of the paper is withAction().
class Program {
public:
  /// The dedicated entry-point name.
  static Symbol mainSymbol() { return Symbol::get("Main"); }

  /// Registers \p A; replaces any action with the same name.
  void addAction(Action A);

  bool hasAction(Symbol Name) const {
    return Index.find(Name) != Index.end();
  }
  bool hasAction(const std::string &Name) const {
    return hasAction(Symbol::get(Name));
  }

  /// Looks up an action; asserts that it exists.
  const Action &action(Symbol Name) const;
  const Action &action(const std::string &Name) const {
    return action(Symbol::get(Name));
  }

  /// All registered action names, in registration order.
  std::vector<Symbol> actionNames() const;

  /// P[A ↦ a]: returns a copy with \p A replacing the action of the same
  /// name (which must already exist, per Prop. 3.3's usage).
  Program withAction(Action A) const;

  /// True if the program declares Main.
  bool hasMain() const { return hasAction(mainSymbol()); }

  /// Declares the program symmetric under the given spec. Symmetry is a
  /// property of the *whole* action set (every action must be
  /// equivariant), so withAction() drops the spec: substituting an action
  /// — e.g. a rank-ordered schedule invariant for M, or the
  /// sequentialization produced by applyIS — may break equivariance, and
  /// the substituted program then explores unreduced. (The IS universe
  /// explores P[M ↦ I] only when I leaves Reach(P); see ISUniverse::build.)
  void setSymmetry(std::shared_ptr<const SymmetrySpec> Spec) {
    Sym = std::move(Spec);
  }
  /// The declared symmetry, or null for asymmetric programs.
  const std::shared_ptr<const SymmetrySpec> &symmetry() const { return Sym; }

private:
  std::vector<Action> Actions;
  std::unordered_map<Symbol, size_t> Index;
  std::shared_ptr<const SymmetrySpec> Sym;
};

/// Builds the initialized configuration (g, {(ℓ, Main)}) of §3.
Configuration initialConfiguration(Store Global,
                                   std::vector<Value> MainArgs = {});

/// Executes one occurrence of \p PA (which must be contained in \p C's
/// pending asyncs) and returns all successor configurations. A failed gate
/// yields the single failure configuration; a blocked action yields no
/// successors.
std::vector<Configuration> stepPendingAsync(const Program &P,
                                            const Configuration &C,
                                            const PendingAsync &PA);

/// All successors of \p C across every schedulable pending async.
std::vector<Configuration> successors(const Program &P,
                                      const Configuration &C);

/// True if some pending async of \p C has a true gate but no transition
/// (i.e. \p C is a deadlock if additionally no other PA can run) — used by
/// diagnostics.
bool hasBlockedPendingAsync(const Program &P, const Configuration &C);

} // namespace isq

#endif // ISQ_SEMANTICS_PROGRAM_H
