// ocbench — the benchmark's load and replay binary. perfbench/run.py calls it:
//
//   ocbench wait    --port P                        poll until PING answers
//   ocbench preload --port P                        write every app-reads key once
//   ocbench load    --workload W --seed N --port P --requests N
//                   [--warmup-requests N] [--max-seconds S]
//                   [--writes-only] [--acked-out FILE]
//   ocbench verify  --port P --acked FILE           read back acked values
//   ocbench scrape  --port P                        METRICS + STATS
//   ocbench layers  --seed N [--scratch DIR]        in-process layer replays
//   ocbench repair  --seed N --passes P [--trace 0|1] [--setups K]
//                   [--scratch DIR]
//
// Every subcommand prints one JSON object on stdout.
#include <cstdio>
#include <exception>
#include <string>

#include "common/flags.h"
#include "subcommands.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: ocbench <wait|preload|load|verify|scrape|layers|repair> ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const ocasta::Args args = ocasta::Args::Parse(argc, argv, 2);
  try {
    if (cmd == "wait") return perfbench::CmdWait(args);
    if (cmd == "preload") return perfbench::CmdPreload(args);
    if (cmd == "load") return perfbench::CmdLoad(args);
    if (cmd == "verify") return perfbench::CmdVerify(args);
    if (cmd == "scrape") return perfbench::CmdScrape(args);
    if (cmd == "layers") return perfbench::CmdLayers(args);
    if (cmd == "repair") return perfbench::CmdRepair(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ocbench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "ocbench: unknown subcommand %s\n", cmd.c_str());
  return 2;
}
