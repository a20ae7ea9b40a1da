// ocbench subcommands. Each prints one JSON object on stdout and returns the
// process exit code; perfbench/run.py drives them.
#pragma once

#include <string>
#include <vector>

#include "clustering/engine.h"
#include "common/flags.h"
#include "ttkv/ttkv.h"
#include "workload/generator.h"
#include "workload.h"

namespace perfbench {

// load.cpp — against a running daemon (--port).
int CmdWait(const ocasta::Args& args);     // Poll until PING answers.
int CmdPreload(const ocasta::Args& args);  // Write every app-reads key's initial value.
int CmdLoad(const ocasta::Args& args);     // Closed-loop load of --requests requests.
int CmdVerify(const ocasta::Args& args);   // Read back the acked values.
int CmdScrape(const ocasta::Args& args);   // METRICS + STATS.

// layers.cpp — in-process replays of app-reads' generated requests.
int CmdLayers(const ocasta::Args& args);

// repair.cpp — the repair-table4 workload.
int CmdRepair(const ocasta::Args& args);

// Times the four public stages of the clustering pipeline on one TTKV and
// checks that their output equals ClusterKeys at 1 and `par_threads`
// threads. Each stage time is the median of `reps` runs.
struct StageTimes {
  double events_ms = 0;
  double group_ms = 0;
  double correlation_ms = 0;
  double correlation_par_ms = 0;
  double hac_ms = 0;
  double cluster_keys_ms = 0;
  uint64_t groups = 0;
  uint64_t pairs = 0;
  uint64_t clusters = 0;
  bool staged_equals_cluster_keys = true;
  bool threads_agree = true;
};
StageTimes TimeClusterStages(const ocasta::TTKV& ttkv, const ocasta::ClusteringParams& params,
                             int par_threads, int reps);

// CPUs this process may run on (its affinity mask): the "nproc" thread count.
int UsableCpus();

// The seven Table I machines the Table III errors use.
std::vector<ocasta::MachineTrace> GenerateScenarioMachines();

// Replays `requests` through the codec, the sharded engine (1 and 2
// threads), the durable engine, and a loopback socket echo of the same
// frame sizes; adds the api.*, server.shard_*, persist.durable_apply_ns and
// loopback.rtt_us fields to `out`. `scratch_dir` holds the durable engine's
// files and is removed afterwards.
void ReplayRequestLayers(const std::vector<std::vector<Request>>& per_conn,
                         const std::vector<ocasta::api::Command>& preload,
                         const std::string& scratch_dir, JsonObject& out);

void AddStageTimes(const StageTimes& t, JsonObject& out);

}  // namespace perfbench
