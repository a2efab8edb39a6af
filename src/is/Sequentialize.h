//===- is/Sequentialize.h - Deriving and applying M' --------------*- C++ -*-===//
///
/// \file
/// Construction of the sequentialized action M' and of the transformed
/// program P' = P[M ↦ M'] (the conclusion of the IS rule). M' is derived
/// from the invariant action by erasing every transition that still
/// creates pending asyncs to E — exactly the construction appearing in
/// condition (I2) of Fig. 3 — unless the application supplies its own M'.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_IS_SEQUENTIALIZE_H
#define ISQ_IS_SEQUENTIALIZE_H

#include "is/ISApplication.h"

namespace isq {

/// Whether transition \p T of the invariant survives the restriction of
/// condition (I2): PAE(T) = ∅, i.e. T creates no PA to an action of \p E.
bool keptByRestriction(const std::vector<Symbol> &E, const Transition &T);

/// The action (ρI, {t ∈ τI | PAE(t) = ∅}) of condition (I2), named M: the
/// invariant's transitions that keptByRestriction keeps, in order.
Action restrictInvariant(const ISApplication &App);

/// Whether M' is derived, i.e. sequentializedAction(App) is
/// restrictInvariant(App): the application supplies no M' of its own.
bool derivesSequentializedAction(const ISApplication &App);

/// The action M' substituted for M: App.SeqAction if supplied (renamed to
/// M), otherwise restrictInvariant(App).
Action sequentializedAction(const ISApplication &App);

/// The transformed program P' = P[M ↦ M'].
Program applyIS(const ISApplication &App);

} // namespace isq

#endif // ISQ_IS_SEQUENTIALIZE_H
