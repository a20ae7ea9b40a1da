// Workload definitions shared by every ocbench subcommand: key spaces,
// value encoding, and the seeded per-connection request streams. The
// program under test only ever sees the requests generated here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/command.h"
#include "common/rng.h"
#include "obs/histogram.h"
#include "workload/keydist.h"

namespace perfbench {

enum class Workload { kAppReads, kRepairTable4 };

// "app-reads" | "repair-table4".
Workload WorkloadByName(const std::string& name);

// app-reads: 20,000 keys (about Windows XP-2's key count), 99% GET / 1% PUT.
inline constexpr size_t kAppKeys = 20000;
inline constexpr uint32_t kAppPutPermille = 10;
inline constexpr size_t kValueBytes = 64;
inline constexpr double kZipfTheta = 0.99;
// Closed-loop connections of every load (each caller waits for its reply).
inline constexpr size_t kConns = 2;
// Writer id of the values every key is preloaded with.
inline constexpr uint32_t kPreloadWriter = 255;

std::string AppKeyName(size_t key);

// Values are 64-byte strings "<key>:<writer>:<seq>:" padded with '.', so a
// read can be checked against the key it asked for and the writes issued.
std::string MakeValue(size_t key, uint32_t writer, uint64_t seq);
struct ValueTag {
  size_t key = 0;
  uint32_t writer = 0;
  uint64_t seq = 0;
};
std::optional<ValueTag> ParseValue(std::string_view value);

// One request: a single-command GET or PUT frame.
struct Request {
  ocasta::api::Command cmd;
  bool write = false;
  size_t key = 0;  // app-reads' key index (0 for repair-table4).
};

// Closed-loop request stream of connection `conn` out of `num_conns`.
// repair-table4 streams its first machine's write events as PUTs.
class RequestStream {
 public:
  RequestStream(Workload w, uint64_t seed, size_t conn, size_t num_conns);
  Request Next();
  // Sequence number of the latest write generated (writes count from 1).
  uint64_t seq() const { return seq_; }

 private:
  Workload workload_;
  uint32_t conn_;
  ocasta::Rng rng_;
  ocasta::KeyChooser chooser_;
  std::vector<size_t> keys_;  // Zipf rank -> key (app-reads).
  uint64_t seq_ = 0;
  const std::vector<ocasta::api::PutCmd>* writes_ = nullptr;  // repair-table4.
  size_t next_write_ = 0;
  size_t stride_ = 1;
};

// Preload commands: every app-reads key with its writer-255 value.
std::vector<ocasta::api::Command> PreloadCommands();

// --- Output helpers -----------------------------------------------------------

// Flat JSON object writer: {"k": v, ...} with keys in insertion order.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, uint64_t value);
  JsonObject& Hist(const std::string& prefix, const ocasta::obs::HistogramStats& stats);
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

double SecondsSince(uint64_t start_ns);
// Median of a non-empty sample (the mean of the middle two for even sizes).
double Median(std::vector<double> values);
// Mean of the middle half of a non-empty sample (its interquartile mean).
// Over windows of bucket-quantized percentiles it is as robust to outlier
// windows as the median, without reading one bucket's bound on every run.
double InterquartileMean(std::vector<double> values);
uint64_t NowNs();

}  // namespace perfbench
