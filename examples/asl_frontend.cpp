//===- examples/asl_frontend.cpp - The ASL frontend tour -----------------------------===//
///
/// \file
/// Shows the textual frontend end to end: an ASL protocol (producer/
/// consumer over a FIFO queue) with its proof artifacts declared in the
/// same module, compiled to gated atomic actions and verified with the
/// IS rule through the same driver the `isq-verify` tool uses.
///
/// Run: ./asl_frontend [items]
///
//===----------------------------------------------------------------------===//

#include "driver/VerifyDriver.h"
#include "reference/Explorer.h"

#include <cstdio>
#include <cstdlib>

using namespace isq;
using namespace isq::driver;

namespace {

const char *ProducerConsumerAsl = R"(
// Producer-Consumer over a FIFO queue (§5.3 of the paper): the producer
// may run arbitrarily ahead; the sequentialization alternates the two so
// the queue never holds more than one element.
const T: int;

var queue: seq<int> := [];
var produced: int := 0;
var consumed: int := 0;

action Main() {
  async Producer(1);
  async Consumer(1);
}

action Producer(k: int) {
  queue := push_back(queue, k);
  produced := k;
  if k < T {
    async Producer(k + 1);
  }
}

action Consumer(k: int) {
  assert size(queue) == 0 || front(queue) == k;  // FIFO order spec
  await size(queue) >= 1;
  queue := pop_front(queue);
  consumed := k;
  if k < T {
    async Consumer(k + 1);
  }
}

// The left-mover abstraction: in the sequential context the queue holds
// exactly the next item.
action ConsumerAbs(k: int) {
  assert size(queue) >= 1;
  assert front(queue) == k;
  await size(queue) >= 1;
  queue := pop_front(queue);
  consumed := k;
  if k < T {
    async Consumer(k + 1);
  }
}
)";

} // namespace

int main(int argc, char **argv) {
  int64_t T = argc > 1 ? std::atoll(argv[1]) : 4;
  if (T < 1 || T > 8) {
    std::fprintf(stderr, "usage: asl_frontend [items 1-8]\n");
    return 1;
  }
  std::printf("== ASL frontend: producer-consumer, %lld items ==\n\n",
              static_cast<long long>(T));
  std::printf("%s\n", ProducerConsumerAsl);

  VerifyOptions Options;
  Options.Source = ProducerConsumerAsl;
  Options.Consts = {{"T", T}};
  Options.Eliminate = {"Producer", "Consumer"};
  Options.Order = VerifyOptions::RankOrder::ArgMajor;
  Options.Abstractions = {{"Consumer", "ConsumerAbs"}};

  VerifyResult Result = verifyModule(Options);
  std::printf("%s", Result.Summary.c_str());
  if (!Result.Accepted)
    return 1;

  std::printf("\nThe FIFO-order assertion and the final counters were "
              "verified by sequential reasoning over the alternating "
              "schedule Producer(1); Consumer(1); ...; Producer(%lld); "
              "Consumer(%lld).\n",
              static_cast<long long>(T), static_cast<long long>(T));
  return 0;
}
