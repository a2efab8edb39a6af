//===- protocols/Measures.cpp - Stock well-founded measures ----------------===//

#include "protocols/Measures.h"

using namespace isq;

Measure protocols::pendingAsyncCount() {
  return Measure("|Ω|", [](const Configuration &C) {
    return std::vector<uint64_t>{C.isFailure() ? 0 : C.pendingAsyncs().size()};
  });
}

Measure protocols::channelsThenPas(std::vector<Symbol> ChannelVars) {
  return Measure(
      "(Σ|CH|, |Ω|)", [Vars = std::move(ChannelVars)](const Configuration &C) {
        if (C.isFailure())
          return std::vector<uint64_t>{0, 0};
        uint64_t Msgs = 0;
        for (Symbol Var : Vars) {
          if (!C.global().contains(Var))
            continue;
          const Value &V = C.global().get(Var);
          if (V.kind() == ValueKind::Bag)
            Msgs += V.bagSize();
          else if (V.kind() == ValueKind::Seq)
            Msgs += V.seqSize();
          else if (V.kind() == ValueKind::Map) {
            // A map of channels: sum the per-key channel sizes.
            for (const auto &[Key, Chan] : V.mapEntries()) {
              (void)Key;
              if (Chan.kind() == ValueKind::Bag)
                Msgs += Chan.bagSize();
              else if (Chan.kind() == ValueKind::Seq)
                Msgs += Chan.seqSize();
            }
          }
        }
        return std::vector<uint64_t>{Msgs, C.pendingAsyncs().size()};
      });
}
