#include "workload.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <stdexcept>

#include "workload/generator.h"
#include "workload/profiles.h"

namespace perfbench {

using ocasta::api::Command;
using ocasta::api::GetCmd;
using ocasta::api::PutCmd;

Workload WorkloadByName(const std::string& name) {
  if (name == "app-reads") return Workload::kAppReads;
  if (name == "repair-table4") return Workload::kRepairTable4;
  throw std::runtime_error("unknown workload: " + name);
}

std::string AppKeyName(size_t key) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "app/k%05zu", key);
  return buf;
}

std::string MakeValue(size_t key, uint32_t writer, uint64_t seq) {
  char buf[kValueBytes + 1];
  int n = std::snprintf(buf, sizeof(buf), "%zu:%u:%" PRIu64 ":", key, writer, seq);
  std::string value(buf, static_cast<size_t>(n));
  value.resize(kValueBytes, '.');
  return value;
}

std::optional<ValueTag> ParseValue(std::string_view value) {
  if (value.size() != kValueBytes) return std::nullopt;
  ValueTag tag;
  unsigned long long key = 0;
  unsigned long long seq = 0;
  unsigned writer = 0;
  const std::string text(value);
  if (std::sscanf(text.c_str(), "%llu:%u:%llu:", &key, &writer, &seq) != 3) return std::nullopt;
  if (text != MakeValue(key, writer, seq)) return std::nullopt;
  tag.key = key;
  tag.writer = writer;
  tag.seq = seq;
  return tag;
}

namespace {

// Seeded Fisher-Yates permutation, so which keys are hot depends on the seed.
std::vector<size_t> Permutation(size_t n, ocasta::Rng& rng) {
  std::vector<size_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(out[i - 1], out[rng.next_below(i)]);
  return out;
}

// repair-table4's requests: the write events of its first machine
// (Windows 7), as the interception layer sends them, one PUT each.
const std::vector<PutCmd>& MachineWrites() {
  static std::mutex mu;
  static std::vector<PutCmd> puts;
  std::lock_guard<std::mutex> lock(mu);
  if (puts.empty()) {
    const ocasta::MachineTrace machine =
        ocasta::GenerateMachineTrace(ocasta::ProfileByName("Windows 7"));
    for (const ocasta::AccessEvent& e : machine.trace.events()) {
      if (e.op == ocasta::AccessOp::kWrite) puts.push_back(PutCmd{e.key, e.value, 0});
    }
  }
  return puts;
}

}  // namespace

RequestStream::RequestStream(Workload w, uint64_t seed, size_t conn, size_t num_conns)
    : workload_(w),
      conn_(static_cast<uint32_t>(conn)),
      rng_(seed * 1000003u + conn * 7919u + 17u),
      chooser_(ocasta::KeyDist::kZipf, 1, kZipfTheta) {
  if (w == Workload::kRepairTable4) {
    // The seed picks where in the trace the replay starts.
    writes_ = &MachineWrites();
    next_write_ = static_cast<size_t>(seed) * 7919u + conn;
    stride_ = num_conns;
    return;
  }
  // Hot-key ranks come from a seed-only stream shared by every connection,
  // the op sequence from the per-connection stream.
  ocasta::Rng perm_rng(seed * 2654435761u);
  keys_ = Permutation(kAppKeys, perm_rng);
  chooser_ = ocasta::KeyChooser(ocasta::KeyDist::kZipf, keys_.size(), kZipfTheta);
}

Request RequestStream::Next() {
  Request req;
  if (workload_ == Workload::kRepairTable4) {
    req.write = true;
    req.cmd = (*writes_)[next_write_ % writes_->size()];
    next_write_ += stride_;
    ++seq_;
    return req;
  }
  req.key = keys_[chooser_.Next(rng_)];
  req.write = rng_.next_below(1000) < kAppPutPermille;
  if (req.write) {
    req.cmd = PutCmd{AppKeyName(req.key), MakeValue(req.key, conn_, ++seq_), 0};
  } else {
    req.cmd = GetCmd{AppKeyName(req.key)};
  }
  return req;
}

std::vector<Command> PreloadCommands() {
  std::vector<Command> cmds;
  for (size_t key = 0; key < kAppKeys; ++key) {
    cmds.push_back(PutCmd{AppKeyName(key), MakeValue(key, kPreloadWriter, 0), 0});
  }
  return cmds;
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  char buf[64];
  if (!std::isfinite(value)) value = 0.0;
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  fields_.emplace_back(key, buf);
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Hist(const std::string& prefix, const ocasta::obs::HistogramStats& s) {
  Int(prefix + "_count", s.count);
  Num(prefix + "_mean", s.count == 0 ? 0.0 : s.sum / static_cast<double>(s.count));
  Num(prefix + "_p50", s.p50);
  Num(prefix + "_p90", s.p90);
  Num(prefix + "_p99", s.p99);
  return *this;
}

std::string JsonObject::Render() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + fields_[i].first + "\": " + fields_[i].second;
  }
  return out + "}";
}

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

double SecondsSince(uint64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e9; }

double InterquartileMean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  const size_t lo = n / 4;
  const size_t hi = std::max(n - n / 4, lo + 1);
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

}  // namespace perfbench
