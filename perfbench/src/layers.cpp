// In-process layer replays: the workload's generated requests go through
// each layer's public function on its own (codec, sharded engine, durable
// engine, TTKV build, clustering stages), and a loopback echo of the same
// frame sizes times the socket round trip without the daemon.
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "api/backends.h"
#include "api/codec.h"
#include "clustering/correlation.h"
#include "clustering/hac.h"
#include "clustering/window.h"
#include "server/sharded_ttkv.h"
#include "server/wire.h"
#include "subcommands.h"

namespace perfbench {

namespace api = ocasta::api;
using ocasta::TTKV;

namespace {

constexpr int kReps = 5;

// Median over kReps repetitions of `body`'s wall time divided by `per`.
double MedianNs(const std::function<void()>& body, size_t per, int reps = kReps) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const uint64_t t0 = NowNs();
    body();
    samples.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(per));
  }
  return Median(samples);
}

// Socket echo on 127.0.0.1: one frame of `request_bytes` out, one frame of
// `reply_bytes` back, through the same framing helpers the client uses.
ocasta::obs::HistogramStats LoopbackRtt(size_t request_bytes, size_t reply_bytes, int rounds) {
  const int listen_fd = ocasta::ListenLoopback(0);
  const uint16_t port = ocasta::BoundPort(listen_fd);
  std::thread echo([&] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    const std::string reply(reply_bytes, 'r');
    ocasta::FrameBuffer in;
    try {
      while (in.Recv(fd).has_value()) ocasta::SendFrame(fd, reply);
    } catch (const std::exception&) {
    }
    ::close(fd);
  });
  ocasta::obs::LatencyHistogram rtt;
  {
    const int fd = ocasta::ConnectTcp("127.0.0.1", port);
    const std::string request(request_bytes, 'q');
    ocasta::FrameBuffer in;
    for (int i = 0; i < rounds; ++i) {
      const uint64_t t0 = NowNs();
      ocasta::SendFrame(fd, request);
      if (!in.Recv(fd).has_value()) throw std::runtime_error("loopback echo closed");
      if (i >= rounds / 10) rtt.Record(NowNs() - t0);  // First 10% warm up.
    }
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  echo.join();
  ::close(listen_fd);
  return rtt.Snapshot();
}

std::unique_ptr<ocasta::ShardedTtkv> PreloadedEngine(const std::vector<api::Command>& preload) {
  auto engine = std::make_unique<ocasta::ShardedTtkv>(8);
  engine->ApplyBatch(preload);
  return engine;
}

std::vector<std::vector<uint32_t>> KeySets(const ocasta::ClusterSet& set) {
  std::vector<std::vector<uint32_t>> out;
  for (const ocasta::KeyCluster& c : set.clusters()) out.push_back(c.keys);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

void ReplayRequestLayers(const std::vector<std::vector<Request>>& per_conn,
                         const std::vector<api::Command>& preload,
                         const std::string& scratch_dir, JsonObject& out) {
  // Interleave the connections' streams in the order a server would see
  // them under even scheduling.
  std::vector<const Request*> all;
  for (size_t i = 0;; ++i) {
    bool any = false;
    for (const auto& stream : per_conn) {
      if (i < stream.size()) {
        all.push_back(&stream[i]);
        any = true;
      }
    }
    if (!any) break;
  }
  const size_t n = all.size();

  std::vector<std::string> payloads(n);
  const double encode_ns = MedianNs(
      [&] {
        for (size_t i = 0; i < n; ++i) payloads[i] = api::EncodeCommand(all[i]->cmd);
      },
      n);
  const double decode_ns = MedianNs(
      [&] {
        for (const std::string& p : payloads) {
          if (api::DecodeCommand(p).op.index() == std::variant_npos) std::abort();
        }
      },
      n);

  // The replies a daemon would send for these requests.
  std::vector<std::string> replies(n);
  {
    auto engine = PreloadedEngine(preload);
    for (size_t i = 0; i < n; ++i) replies[i] = api::EncodeResult(engine->Apply(all[i]->cmd));
  }
  std::vector<api::Result> decoded(n);
  const double reply_decode_ns = MedianNs(
      [&] {
        for (size_t i = 0; i < n; ++i) decoded[i] = api::DecodeResult(replies[i]);
      },
      n);
  const double reply_encode_ns = MedianNs(
      [&] {
        for (size_t i = 0; i < n; ++i) replies[i] = api::EncodeResult(decoded[i]);
      },
      n);

  // ShardedTtkv::Apply, one thread, then two threads on their own streams.
  auto single = PreloadedEngine(preload);
  const double shard_apply_ns = MedianNs(
      [&] {
        for (const Request* r : all) single->Apply(r->cmd);
      },
      n);
  std::vector<double> contended;
  for (int r = 0; r < kReps; ++r) {
    auto shared = PreloadedEngine(preload);
    std::vector<double> per_thread(per_conn.size());
    std::vector<std::thread> threads;
    for (size_t c = 0; c < per_conn.size(); ++c) {
      threads.emplace_back([&, c] {
        const uint64_t t0 = NowNs();
        for (const Request& req : per_conn[c]) shared->Apply(req.cmd);
        per_thread[c] =
            static_cast<double>(NowNs() - t0) / static_cast<double>(per_conn[c].size());
      });
    }
    for (std::thread& t : threads) t.join();
    double sum = 0;
    for (double v : per_thread) sum += v;
    contended.push_back(sum / static_cast<double>(per_thread.size()));
  }

  // DurableEngine (fsync=batch) over a prefix holding at most 200 writes.
  double durable_apply_ns = 0;
  {
    std::filesystem::remove_all(scratch_dir);
    api::BackendOptions options;
    options.backend = "sharded";
    options.data_dir = scratch_dir;
    options.fsync = "batch";
    auto engine = api::MakeEngine(options);
    engine->ApplyBatch(preload);
    size_t count = 0;
    size_t writes = 0;
    const uint64_t t0 = NowNs();
    for (const Request* r : all) {
      if (r->write && ++writes > 200) break;
      engine->Apply(r->cmd);
      ++count;
    }
    durable_apply_ns = static_cast<double>(NowNs() - t0) / static_cast<double>(count);
    engine.reset();
    std::filesystem::remove_all(scratch_dir);
  }

  size_t request_bytes = 0;
  size_t reply_bytes = 0;
  for (size_t i = 0; i < n; ++i) {
    request_bytes += payloads[i].size();
    reply_bytes += replies[i].size();
  }
  const ocasta::obs::HistogramStats rtt = LoopbackRtt(request_bytes / n, reply_bytes / n, 4000);

  out.Int("requests", n)
      .Num("api.encode_ns", encode_ns)
      .Num("api.decode_ns", decode_ns)
      .Num("api.reply_encode_ns", reply_encode_ns)
      .Num("api.reply_decode_ns", reply_decode_ns)
      .Num("api.reply_codec_ns", reply_encode_ns + reply_decode_ns)
      .Num("server.shard_apply_ns", shard_apply_ns)
      .Num("server.shard_apply_contended_ns", Median(contended))
      .Num("persist.durable_apply_ns", durable_apply_ns)
      .Num("loopback.rtt_us", rtt.p50 / 1000.0)
      .Int("loopback.rtt_count", rtt.count)
      .Int("request_bytes", request_bytes / n)
      .Int("reply_bytes", reply_bytes / n);
}

StageTimes TimeClusterStages(const TTKV& ttkv, const ocasta::ClusteringParams& params,
                             int par_threads, int reps) {
  StageTimes t;
  std::vector<ocasta::WriteEvent> events;
  t.events_ms = MedianNs([&] { events = ttkv.write_events(); }, 1, reps) / 1e6;
  std::vector<ocasta::CoModGroup> groups;
  const ocasta::TimeMicros window = ocasta::Seconds(params.window_seconds);
  t.group_ms = MedianNs([&] { groups = ocasta::GroupWrites(events, window); }, 1, reps) / 1e6;
  ocasta::CorrelationResult corr;
  t.correlation_ms =
      MedianNs([&] { corr = ocasta::ComputeCorrelations(groups, ttkv.num_keys(), 1); }, 1, reps) /
      1e6;
  ocasta::CorrelationResult corr_par;
  t.correlation_par_ms =
      MedianNs(
          [&] { corr_par = ocasta::ComputeCorrelations(groups, ttkv.num_keys(), par_threads); },
          1, reps) /
      1e6;
  std::vector<uint32_t> ids;
  for (uint32_t id = 0; id < ttkv.num_keys(); ++id) {
    if (corr.group_counts[id] > 0) ids.push_back(id);
  }
  ocasta::PairTable distances;
  for (const auto& [pair_key, correlation] : corr.correlation.raw()) {
    const auto [a, b] = ocasta::PairTable::DecodePair(pair_key);
    distances.Set(a, b, 1.0 / correlation);
  }
  std::vector<std::vector<uint32_t>> staged;
  t.hac_ms = MedianNs(
                 [&] {
                   staged = ocasta::AgglomerativeCluster(ids, distances, params.linkage,
                                                         1.0 / params.threshold_correlation);
                 },
                 1, reps) /
             1e6;
  std::sort(staged.begin(), staged.end());

  ocasta::ClusteringParams one = params;
  one.num_threads = 1;
  ocasta::ClusteringParams par = params;
  par.num_threads = par_threads;
  ocasta::ClusterSet at_one;
  t.cluster_keys_ms = MedianNs([&] { at_one = ocasta::ClusterKeys(ttkv, one); }, 1, reps) / 1e6;
  const ocasta::ClusterSet at_par = ocasta::ClusterKeys(ttkv, par);

  t.groups = groups.size();
  t.pairs = corr.correlation.size();
  t.clusters = staged.size();
  t.staged_equals_cluster_keys = staged == KeySets(at_one) &&
                                 corr.group_counts == corr_par.group_counts &&
                                 corr.correlation.raw() == corr_par.correlation.raw();
  t.threads_agree = KeySets(at_one) == KeySets(at_par);
  for (size_t i = 0; t.threads_agree && i < at_one.size(); ++i) {
    t.threads_agree = at_one.cluster(i).version_count == at_par.cluster(i).version_count &&
                      at_one.cluster(i).last_modified == at_par.cluster(i).last_modified;
  }
  return t;
}

int UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

void AddStageTimes(const StageTimes& t, JsonObject& out) {
  out.Num("clustering.events_ms", t.events_ms)
      .Num("clustering.group_ms", t.group_ms)
      .Num("clustering.correlation_ms", t.correlation_ms)
      .Num("clustering.correlation_par_ms", t.correlation_par_ms)
      .Num("clustering.hac_ms", t.hac_ms)
      .Num("clustering.cluster_keys_ms", t.cluster_keys_ms)
      .Int("clustering.groups", t.groups)
      .Int("clustering.pairs", t.pairs)
      .Int("clustering.clusters", t.clusters)
      .Int("check.staged_equals_cluster_keys", t.staged_equals_cluster_keys ? 1 : 0)
      .Int("check.threads_agree", t.threads_agree ? 1 : 0);
}

int CmdLayers(const ocasta::Args& args) {
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 0));
  constexpr size_t per_conn_requests = 20000;
  std::vector<std::vector<Request>> per_conn(kConns);
  for (size_t c = 0; c < kConns; ++c) {
    RequestStream stream(Workload::kAppReads, seed, c, kConns);
    for (size_t i = 0; i < per_conn_requests; ++i) per_conn[c].push_back(stream.Next());
  }
  JsonObject out;
  ReplayRequestLayers(per_conn, PreloadCommands(), args.Get("scratch", ".bench_tmp/layers"), out);

  // The history these writes leave, as the interception layer would record
  // it: one co-modification group per request, requests 2 s apart.
  TTKV ttkv;
  const double build_ms =
      MedianNs(
          [&] {
            ttkv = TTKV();
            ocasta::TimeMicros t = 0;
            for (size_t i = 0; i < per_conn_requests; ++i) {
              for (const auto& stream : per_conn) {
                t += ocasta::Seconds(2);
                if (!stream[i].write) continue;
                const auto& put = std::get<api::PutCmd>(stream[i].cmd.op);
                ttkv.record_write(put.key, put.value, t);
              }
            }
          },
          1, 3) /
      1e6;
  const StageTimes stages = TimeClusterStages(ttkv, ocasta::ClusteringParams{}, UsableCpus(), 3);
  out.Num("ttkv.build_ms", build_ms);
  AddStageTimes(stages, out);
  std::printf("%s\n", out.Render().c_str());
  return stages.staged_equals_cluster_keys && stages.threads_agree ? 0 : 1;
}

}  // namespace perfbench
