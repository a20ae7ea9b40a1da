// Daemon-facing subcommands: wait, preload, load, verify, scrape. Each talks
// to a running `ocasta_cli serve` over TCP through the shipped TtkvClient,
// and prints one JSON object on stdout.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "client/ttkv_client.h"
#include "common/flags.h"
#include "common/hash.h"
#include "obs/histogram.h"
#include "subcommands.h"
#include "workload.h"

namespace perfbench {

using ocasta::Args;
using ocasta::TtkvClient;
namespace api = ocasta::api;

namespace {

uint16_t PortArg(const Args& args) { return static_cast<uint16_t>(args.GetInt("port", 0)); }

struct Window {
  ocasta::obs::LatencyHistogram read_ns;
  ocasta::obs::LatencyHistogram write_ns;
  std::atomic<uint64_t> commands{0};
  std::atomic<uint64_t> first_t0{UINT64_MAX};
  std::atomic<uint64_t> last_t1{0};
};

void AtomicMin(std::atomic<uint64_t>& a, uint64_t v) {
  uint64_t prev = a.load(std::memory_order_relaxed);
  while (v < prev && !a.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<uint64_t>& a, uint64_t v) {
  uint64_t prev = a.load(std::memory_order_relaxed);
  while (v > prev && !a.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
}

// Seconds from the first start to the last finish (0 when nothing ran).
double SpanSeconds(const std::atomic<uint64_t>& first_t0, const std::atomic<uint64_t>& last_t1) {
  const uint64_t end = last_t1.load();
  return static_cast<double>(end - std::min(first_t0.load(), end)) / 1e9;
}



// Last acked value per key, written by `load --acked-out` and checked by
// `verify`: key, value type and display text, tab-separated, so typed trace
// values compare exactly.
void WriteAcked(const std::string& path, const std::map<std::string, ocasta::Value>& acked) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& [key, value] : acked) {
    out << key << '\t' << static_cast<int>(value.type()) << '\t' << value.ToDisplay() << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::map<std::string, ocasta::Value> ReadAcked(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::map<std::string, ocasta::Value> acked;
  std::string line;
  while (std::getline(in, line)) {
    const size_t tab1 = line.find('\t');
    const size_t tab2 = line.find('\t', tab1 + 1);
    if (tab2 == std::string::npos) throw std::runtime_error("bad line in " + path);
    const auto type = static_cast<ocasta::ValueType>(std::stoi(line.substr(tab1 + 1)));
    acked[line.substr(0, tab1)] = ocasta::Value::ParseDisplay(type, line.substr(tab2 + 1));
  }
  return acked;
}

// What one GET may legitimately return under app-reads: the preload value,
// or a value some connection has already issued for that key.
bool ReadIsValid(const api::Result& result, size_t key,
                 const std::vector<std::atomic<uint64_t>>& issued) {
  const auto* value = std::get_if<api::ValueResult>(&result.op);
  if (value == nullptr || !value->value.has_value() ||
      value->value->type() != ocasta::ValueType::kString) {
    return false;
  }
  const std::optional<ValueTag> tag = ParseValue(value->value->as_string());
  if (!tag.has_value() || tag->key != key) return false;
  if (tag->writer == kPreloadWriter) return tag->seq == 0;
  return tag->writer < issued.size() &&
         tag->seq <= issued[tag->writer].load(std::memory_order_acquire);
}

// Whether `req` is a write to a key connection `conn` owns (by key hash).
bool OwnedWrite(const Request& req, size_t conn) {
  return req.write && ocasta::Fnv1a(std::get<api::PutCmd>(req.cmd.op).key) % kConns == conn;
}

}  // namespace

int CmdWait(const Args& args) {
  constexpr double timeout = 30.0;
  const uint64_t start = NowNs();
  for (;;) {
    try {
      TtkvClient client("127.0.0.1", PortArg(args));
      client.Ping();
      std::printf("%s\n", JsonObject().Num("wait_s", SecondsSince(start)).Render().c_str());
      return 0;
    } catch (const std::exception& e) {
      if (SecondsSince(start) > timeout) {
        std::fprintf(stderr, "ocbench wait: no PING answer after %.0f s: %s\n", timeout,
                     e.what());
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

int CmdPreload(const Args& args) {
  const std::vector<api::Command> cmds = PreloadCommands();
  TtkvClient client("127.0.0.1", PortArg(args));
  size_t errors = 0;
  constexpr size_t kChunk = 250;
  for (size_t i = 0; i < cmds.size(); i += kChunk) {
    const size_t n = std::min(kChunk, cmds.size() - i);
    for (const api::Result& r : client.ApplyBatch(std::span(cmds).subspan(i, n))) {
      if (api::IsError(r)) ++errors;
    }
  }
  std::printf("%s\n", JsonObject().Int("keys", cmds.size()).Int("errors", errors).Render().c_str());
  return errors == 0 ? 0 : 1;
}

int CmdLoad(const Args& args) {
  const Workload w = WorkloadByName(args.Get("workload", ""));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 0));
  // A fixed amount of work: --warmup-requests unmeasured requests, then
  // --requests measured ones, shared by all connections. A fixed request
  // count (not a fixed time) keeps the history the daemon ends up holding,
  // and so its memory, independent of how fast this run happened to go.
  const uint64_t warmup = static_cast<uint64_t>(args.GetInt("warmup-requests", 0));
  const uint64_t requests = static_cast<uint64_t>(args.GetInt("requests", 1000));
  // Safety cap on the whole run, so a pathologically slow build still ends.
  const double max_seconds = args.GetDouble("max-seconds", 60.0);
  // Probe mode sends only the stream's writes, each connection only those
  // to keys it owns (by key hash), so every key's last acked value is the
  // last one its one writer was acked for.
  const bool writes_only = args.Has("writes-only");
  const uint16_t port = PortArg(args);

  ocasta::obs::LatencyHistogram read_ns;
  ocasta::obs::LatencyHistogram write_ns;
  std::atomic<uint64_t> failed{0}, commands{0}, started{0}, user_bytes{0};
  std::atomic<uint64_t> first_t0{UINT64_MAX}, last_t1{0};
  // The measured requests are cut into up to 100 windows in issue order;
  // the *_win_* outputs are interquartile means over windows, so hypervisor
  // steal or a stall that hits some windows moves them less than it moves
  // the whole-run figures.
  const size_t num_windows = static_cast<size_t>(std::clamp<uint64_t>(requests / 200, 1, 100));
  std::vector<Window> windows(num_windows);
  std::vector<std::atomic<uint64_t>> issued(kConns);
  std::vector<std::map<std::string, ocasta::Value>> acked(kConns);
  std::vector<std::string> errors(kConns);

  const uint64_t deadline = NowNs() + static_cast<uint64_t>(max_seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      TtkvClient client("127.0.0.1", port);
      RequestStream stream(w, seed, c, kConns);
      while (NowNs() < deadline) {
        Request req = stream.Next();
        if (writes_only && !OwnedWrite(req, c)) continue;
        const uint64_t index = started.fetch_add(1);
        if (index >= warmup + requests) break;
        if (req.write) issued[c].store(stream.seq(), std::memory_order_release);
        const uint64_t t0 = NowNs();
        bool ok = true;
        try {
          const api::Result r = client.Apply(req.cmd);
          ok = req.write ? !api::IsError(r) : ReadIsValid(r, req.key, issued);
        } catch (const std::exception& e) {
          ok = false;
          if (errors[c].empty()) errors[c] = e.what();
          client.Close();
        }
        const uint64_t t1 = NowNs();
        if (ok && req.write) {
          const auto& put = std::get<api::PutCmd>(req.cmd.op);
          // repair-table4's trace values are not all strings.
          user_bytes.fetch_add(put.key.size() + put.value.ToDisplay().size(),
                               std::memory_order_relaxed);
          if (writes_only) acked[c][put.key] = put.value;
        }
        if (index < warmup) continue;
        if (!ok) {
          failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        AtomicMin(first_t0, t0);
        AtomicMax(last_t1, t1);
        commands.fetch_add(1, std::memory_order_relaxed);
        (req.write ? write_ns : read_ns).Record(t1 - t0);
        Window& win = windows[(index - warmup) * num_windows / requests];
        AtomicMin(win.first_t0, t0);
        AtomicMax(win.last_t1, t1);
        win.commands.fetch_add(1, std::memory_order_relaxed);
        (req.write ? win.write_ns : win.read_ns).Record(t1 - t0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const uint64_t attempted = std::min(started.load(), warmup + requests) -
                             std::min(started.load(), warmup);

  if (args.Has("acked-out")) {
    std::map<std::string, ocasta::Value> all;
    for (const auto& per_conn : acked) all.insert(per_conn.begin(), per_conn.end());
    WriteAcked(args.Get("acked-out", ""), all);
  }
  for (const std::string& e : errors) {
    if (!e.empty()) std::fprintf(stderr, "ocbench load: %s\n", e.c_str());
  }
  if (attempted < requests) {
    std::fprintf(stderr, "ocbench load: only %llu of %llu requests ran in %.0f s\n",
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(requests), max_seconds);
  }
  JsonObject out;
  out.Int("attempted", attempted)
      .Int("failed", failed.load() + (requests - attempted))
      .Int("commands", commands.load())
      .Int("user_write_bytes", user_bytes.load())
      .Num("measured_s", SpanSeconds(first_t0, last_t1))
      .Hist("read_ns", read_ns.Snapshot())
      .Hist("write_ns", write_ns.Snapshot());
  std::vector<double> ops;
  std::vector<ocasta::obs::HistogramStats> reads, writes;
  for (const Window& win : windows) {
    const double span_s = SpanSeconds(win.first_t0, win.last_t1);
    ops.push_back(span_s > 0 ? static_cast<double>(win.commands.load()) / span_s : 0.0);
    reads.push_back(win.read_ns.Snapshot());
    writes.push_back(win.write_ns.Snapshot());
  }
  out.Int("windows", num_windows).Num("win_ops_per_s", InterquartileMean(ops));
  for (auto [name, stats] : {std::pair{"read_ns", &reads}, std::pair{"write_ns", &writes}}) {
    for (auto [pct, field] : {std::pair{"p50", &ocasta::obs::HistogramStats::p50},
                              std::pair{"p90", &ocasta::obs::HistogramStats::p90},
                              std::pair{"p99", &ocasta::obs::HistogramStats::p99}}) {
      std::vector<double> values;
      for (const auto& st : *stats) values.push_back(st.*field);
      out.Num(std::string(name) + "_win_" + pct, InterquartileMean(values));
    }
  }
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

int CmdVerify(const Args& args) {
  const std::map<std::string, ocasta::Value> acked = ReadAcked(args.Get("acked", ""));
  TtkvClient client("127.0.0.1", PortArg(args));
  ocasta::obs::LatencyHistogram read_ns;
  uint64_t mismatches = 0;
  std::string first_bad;
  for (const auto& [key, want] : acked) {
    const uint64_t t0 = NowNs();
    const std::optional<ocasta::Value> got = client.Get(key);
    read_ns.Record(NowNs() - t0);
    if (got != want) {
      if (mismatches++ == 0) first_bad = key;
    }
  }
  if (mismatches != 0) {
    std::fprintf(stderr, "ocbench verify: %llu of %zu keys lost their acked value (first: %s)\n",
                 static_cast<unsigned long long>(mismatches), acked.size(), first_bad.c_str());
  }
  std::printf("%s\n", JsonObject()
                          .Int("checked", acked.size())
                          .Int("mismatches", mismatches)
                          .Hist("read_ns", read_ns.Snapshot())
                          .Render()
                          .c_str());
  return 0;
}

int CmdScrape(const Args& args) {
  TtkvClient client("127.0.0.1", PortArg(args));
  const api::Result result = client.Apply(api::MetricsCmd{});
  const auto* metrics = std::get_if<api::MetricsResult>(&result.op);
  if (metrics == nullptr) throw std::runtime_error("METRICS op failed");
  const ocasta::EngineStats stats = client.Stats();
  JsonObject out;
  const auto name = [](const std::string& base, const ocasta::obs::Labels& labels) {
    std::string n = base;
    for (const auto& [k, v] : labels) n += "." + k + "=" + v;
    return n;
  };
  for (const auto& c : metrics->snapshot.counters) out.Int(name(c.name, c.labels), c.value);
  for (const auto& g : metrics->snapshot.gauges) {
    out.Num(name(g.name, g.labels), static_cast<double>(g.value));
  }
  for (const auto& h : metrics->snapshot.histograms) out.Hist(name(h.name, h.labels), h.stats);
  out.Int("stats.keys", stats.ttkv.num_keys)
      .Int("stats.writes", stats.ttkv.writes)
      .Int("stats.puts", stats.puts)
      .Int("stats.gets", stats.gets)
      .Int("stats.lock_acquisitions", stats.lock_acquisitions);
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

}  // namespace perfbench
