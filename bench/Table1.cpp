//===- bench/Table1.cpp - Table 1 pipeline registry -------------------------------===//

#include "bench/Table1.h"

#include "is/Sequentialize.h"
#include "protocols/Broadcast.h"
#include "protocols/ChangRoberts.h"
#include "protocols/NBuyer.h"
#include "protocols/Paxos.h"
#include "protocols/PingPong.h"
#include "protocols/ProducerConsumer.h"
#include "protocols/TwoPhaseCommit.h"
#include "reference/Explorer.h"
#include "reference/ISCheck.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <functional>
#include <vector>

using namespace isq;
using namespace isq::bench;
using namespace isq::protocols;

namespace {

/// Runs a chain of IS applications (each on the result of the previous),
/// then checks the spec on the fully sequentialized program.
struct Pipeline {
  std::string Name;
  size_t PaperNumIS;
  /// Produces the IS applications in order; each receives the program
  /// produced by the previous stage (the first receives its own P).
  std::vector<std::function<ISApplication(const Program &)>> Stages;
  Store Init;
  std::function<bool(const Store &)> Spec;
  /// The initial program of stage 0.
  Program P0;
};

Table1Row runPipeline(const Pipeline &Pipe) {
  Table1Row Row;
  Row.Name = Pipe.Name;
  Row.PaperNumIS = Pipe.PaperNumIS;
  Row.NumISApplications = Pipe.Stages.size();
  Timer T;
  bool AllOk = true;
  Program Current = Pipe.P0;
  for (const auto &MakeStage : Pipe.Stages) {
    ISApplication App = MakeStage(Current);
    ISCheckReport Report = checkIS(App, {{Pipe.Init, {}}});
    Row.Obligations += Report.totalObligations();
    AllOk = AllOk && Report.ok();
    Current = applyIS(App);
  }
  // The sequential reduction must terminate in spec-satisfying states.
  ExploreResult R = explore(Current, initialConfiguration(Pipe.Init));
  AllOk = AllOk && !R.FailureReachable && !R.TerminalStores.empty();
  for (const Store &Final : R.TerminalStores)
    AllOk = AllOk && Pipe.Spec(Final);
  Row.Accepted = AllOk;
  Row.Seconds = T.elapsed();
  return Row;
}

std::vector<Pipeline> buildPipelines() {
  std::vector<Pipeline> Pipes;

  // Broadcast consensus: 2 IS applications (§5.3 iterated proof).
  {
    BroadcastParams Params{3, {}};
    Pipeline Pipe;
    Pipe.Name = "Broadcast consensus";
    Pipe.PaperNumIS = 2;
    Pipe.P0 = makeBroadcastProgram(Params);
    Pipe.Init = makeBroadcastInitialStore(Params);
    Pipe.Stages.push_back(
        [Params](const Program &) { return makeBroadcastStage1IS(Params); });
    Pipe.Stages.push_back([Params](const Program &Prev) {
      return makeBroadcastStage2IS(Params, Prev);
    });
    Pipe.Spec = [Params](const Store &Final) {
      return checkBroadcastSpec(Final, Params);
    };
    Pipes.push_back(std::move(Pipe));
  }

  // Ping-Pong: 1 IS application.
  {
    PingPongParams Params{3};
    Pipeline Pipe;
    Pipe.Name = "Ping-Pong";
    Pipe.PaperNumIS = 1;
    Pipe.P0 = makePingPongProgram(Params);
    Pipe.Init = makePingPongInitialStore(Params);
    Pipe.Stages.push_back(
        [Params](const Program &) { return makePingPongIS(Params); });
    Pipe.Spec = [Params](const Store &Final) {
      return checkPingPongSpec(Final, Params);
    };
    Pipes.push_back(std::move(Pipe));
  }

  // Producer-Consumer: 1 IS application.
  {
    ProducerConsumerParams Params{4};
    Pipeline Pipe;
    Pipe.Name = "Producer-Consumer";
    Pipe.PaperNumIS = 1;
    Pipe.P0 = makeProducerConsumerProgram(Params);
    Pipe.Init = makeProducerConsumerInitialStore(Params);
    Pipe.Stages.push_back([Params](const Program &) {
      return makeProducerConsumerIS(Params);
    });
    Pipe.Spec = [Params](const Store &Final) {
      return checkProducerConsumerSpec(Final, Params);
    };
    Pipes.push_back(std::move(Pipe));
  }

  // N-Buyer: 4 IS applications.
  {
    NBuyerParams Params{3, 2, {0, 1}};
    Pipeline Pipe;
    Pipe.Name = "N-Buyer";
    Pipe.PaperNumIS = 4;
    Pipe.P0 = makeNBuyerProgram(Params);
    Pipe.Init = makeNBuyerInitialStore(Params);
    for (size_t Stage = 0; Stage < kNBuyerStages; ++Stage)
      Pipe.Stages.push_back([Params, Stage](const Program &Prev) {
        return makeNBuyerStageIS(Params, Stage, Prev);
      });
    Pipe.Spec = [Params](const Store &Final) {
      return checkNBuyerSpec(Final, Params);
    };
    Pipes.push_back(std::move(Pipe));
  }

  // Chang-Roberts: 2 IS applications.
  {
    ChangRobertsParams Params{3, {2, 3, 1}};
    Pipeline Pipe;
    Pipe.Name = "Chang-Roberts";
    Pipe.PaperNumIS = 2;
    Pipe.P0 = makeChangRobertsProgram(Params);
    Pipe.Init = makeChangRobertsInitialStore(Params);
    Pipe.Stages.push_back([Params](const Program &) {
      return makeChangRobertsStage1IS(Params);
    });
    Pipe.Stages.push_back([Params](const Program &Prev) {
      return makeChangRobertsStage2IS(Params, Prev);
    });
    Pipe.Spec = [Params](const Store &Final) {
      return checkChangRobertsSpec(Final, Params);
    };
    Pipes.push_back(std::move(Pipe));
  }

  // Two-phase commit: 4 IS applications.
  {
    TwoPhaseCommitParams Params{3};
    Pipeline Pipe;
    Pipe.Name = "Two-phase commit";
    Pipe.PaperNumIS = 4;
    Pipe.P0 = makeTwoPhaseCommitProgram(Params);
    Pipe.Init = makeTwoPhaseCommitInitialStore(Params);
    for (size_t Stage = 0; Stage < kTwoPhaseCommitStages; ++Stage)
      Pipe.Stages.push_back([Params, Stage](const Program &Prev) {
        return makeTwoPhaseCommitStageIS(Params, Stage, Prev);
      });
    Pipe.Spec = [Params](const Store &Final) {
      return checkTwoPhaseCommitSpec(Final, Params);
    };
    Pipes.push_back(std::move(Pipe));
  }

  // Paxos: 1 IS application (the most expensive row, as in the paper).
  {
    PaxosParams Params{2, 3};
    Pipeline Pipe;
    Pipe.Name = "Paxos";
    Pipe.PaperNumIS = 1;
    Pipe.P0 = makePaxosProgram(Params);
    Pipe.Init = makePaxosInitialStore(Params);
    Pipe.Stages.push_back(
        [Params](const Program &) { return makePaxosIS(Params); });
    Pipe.Spec = [Params](const Store &Final) {
      return checkPaxosSpec(Final, Params);
    };
    Pipes.push_back(std::move(Pipe));
  }

  return Pipes;
}

const std::vector<Pipeline> &pipelines() {
  static const std::vector<Pipeline> Pipes = buildPipelines();
  return Pipes;
}

} // namespace

size_t bench::numTable1Rows() { return pipelines().size(); }

Table1Row bench::runTable1Row(size_t Index) {
  return runPipeline(pipelines().at(Index));
}

std::string bench::renderTable1() {
  std::vector<std::vector<std::string>> Rows;
  for (size_t I = 0; I < numTable1Rows(); ++I) {
    Table1Row Row = runTable1Row(I);
    Rows.push_back({Row.Name, std::to_string(Row.NumISApplications),
                    std::to_string(Row.PaperNumIS),
                    std::to_string(Row.Obligations),
                    Row.Accepted ? "yes" : "NO",
                    formatSeconds(Row.Seconds)});
  }
  return "Table 1 (reproduced): examples verified with IS\n" +
         formatTable({"Example", "#IS", "#IS(paper)", "Obligations",
                      "Verified", "Time(s)"},
                     Rows);
}
