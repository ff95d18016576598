// durable_tcp_mixed: writes beside reads over loopback TCP. An in-process
// serve::Server on an ephemeral port fronts a durable 1-thread service (WAL
// with fsync on every commit, a checkpoint every 16 batches). One writer
// connection stages 8-edit batches of the S1 mix (added nodes carry a label
// only) and commits them: the first half of a round's batches alone, the
// second half beside two reader connections that alternate `detect` and
// `violations 0 100` against the published generation, pausing 20 ms after
// each reply. The lone writes give the end-to-end write latency and the
// reads its read latency; writes beside reads are a per-layer figure,
// because readers that pin a generation make publication rebuild or not by
// the timing of the host. The whole workload (server, clients and the
// service) runs on one CPU: a request that crosses to an idle vCPU of a
// shared host waits for the host to run it, which raised the write latency
// by up to half from run to run (perfbench/README.md). Each round ends by
// stopping the server and recovering a fresh service from the WAL
// directory. This is the only workload that exercises sessions, the
// server, WAL appends and fsyncs, checkpoints, and publication under
// pinned readers; key-less persons pile up as it runs.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "eval/experiment.h"
#include "obs/metrics.h"
#include "repair/engine.h"
#include "serve/repair_service.h"
#include "serve/server.h"
#include "storage/fs.h"
#include "storage/wal.h"
#include "util/strings.h"

namespace perfbench {

using namespace grepair;
namespace fs = std::filesystem;

namespace {

constexpr size_t kThreads = 1;
constexpr size_t kReaders = 2;
// A reader's pause after each reply, outside its timed round trip.
constexpr auto kReadPause = std::chrono::milliseconds(20);
constexpr size_t kBatchEdits = 8;
// Not a multiple of the checkpoint cadence, so recovery replays a WAL tail.
constexpr size_t kBatchesPerRound = 40;
// Batches the writer commits alone before the readers start.
constexpr size_t kLoneBatches = 20;
constexpr uint64_t kCheckpointEvery = 16;

/// A blocking line-protocol client over loopback TCP.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Connects and consumes the two greeting lines.
  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval tv{30, 0};  // a stuck server fails the run instead of hanging
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
      return false;
    std::string line;
    return ReadLine(&line) && ReadLine(&line);
  }

  bool Send(const std::string& line) {
    std::string msg = line + "\n";
    size_t off = 0;
    while (off < msg.size()) {
      ssize_t n = ::send(fd_, msg.data() + off, msg.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadLine(std::string* out) {
    for (;;) {
      size_t pos = buf_.find('\n');
      if (pos != std::string::npos) {
        *out = buf_.substr(0, pos);
        buf_.erase(0, pos + 1);
        return true;
      }
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// Reads one `detect` reply: "<n> violations" and then one line per rule
/// with violations, whose counts sum to n. True iff it reports zero.
bool ReadDetectReply(LineClient* c, bool* framed) {
  std::string line;
  *framed = c->ReadLine(&line);
  if (!*framed) return false;
  size_t n = 0;
  if (std::sscanf(line.c_str(), "%zu violations", &n) != 1) return false;
  size_t seen = 0;
  while (seen < n) {
    if (!c->ReadLine(&line)) {
      *framed = false;
      return false;
    }
    size_t pos = line.find_last_of(' ');
    seen += std::strtoull(line.c_str() + pos + 1, nullptr, 10);
  }
  return line == "0 violations";
}

/// Reads one `violations` page: a header with total= and returned=, then
/// `returned` rows. True iff the page is empty with total=0.
bool ReadViolationsReply(LineClient* c, bool* framed) {
  std::string line;
  *framed = c->ReadLine(&line);
  if (!*framed) return false;
  size_t total = 0, gen = 0, batch = 0, offset = 0, returned = 0;
  if (std::sscanf(line.c_str(),
                  "violations total=%zu generation=%zu batch=%zu offset=%zu "
                  "returned=%zu",
                  &total, &gen, &batch, &offset, &returned) != 5)
    return false;
  for (size_t i = 0; i < returned; ++i)
    if (!c->ReadLine(&line)) {
      *framed = false;
      return false;
    }
  return total == 0 && returned == 0;
}

struct ReaderTally {
  std::vector<double> detect_rtt_ms;
  std::vector<double> rtt_ms;
  uint64_t reads = 0;
  uint64_t failed = 0;
  bool broken = false;
};

void ReaderLoop(uint16_t port, const std::atomic<bool>* stop,
                uint64_t group, ReaderTally* out) {
  SpanGroup spans(group);
  LineClient c;
  if (!c.Connect(port)) {
    out->broken = true;
    return;
  }
  for (uint64_t i = 0; !stop->load(std::memory_order_acquire); ++i) {
    const bool detect = i % 2 == 0;
    bool framed = false, ok = false;
    double ms = 0;
    {
      Span span(detect ? "serve.detect_request" : "serve.violations_request");
      if (c.Send(detect ? "detect" : "violations 0 100"))
        ok = detect ? ReadDetectReply(&c, &framed)
                    : ReadViolationsReply(&c, &framed);
      ms = span.ElapsedMs();
    }
    if (!framed) {
      out->broken = true;
      return;
    }
    ++out->reads;
    if (!ok) ++out->failed;
    out->rtt_ms.push_back(ms);
    if (detect) out->detect_rtt_ms.push_back(ms);
    std::this_thread::sleep_for(kReadPause);
  }
  std::string bye;
  if (c.Send("quit")) (void)c.ReadLine(&bye);
}

std::string OpLine(const EditEntry& op, const std::vector<std::string>& labels) {
  switch (op.kind) {
    case EditKind::kAddNode:
      return "add_node " + labels[op.label];
    case EditKind::kAddEdge:
      return StrFormat("add_edge %u %u %s", op.src, op.dst,
                       labels[op.label].c_str());
    case EditKind::kRemoveEdge:
      return StrFormat("remove_edge %u", op.edge);
    case EditKind::kSetNodeLabel:
      return StrFormat("set_node_label %u %s", op.node,
                       labels[op.new_sym].c_str());
    default:
      return "";
  }
}

ServeOptions DurableOptions(const std::string& dir, int port) {
  ServeOptions o;
  o.num_threads = kThreads;
  o.wal_dir = dir;
  o.fsync_policy = storage::FsyncPolicy::kEveryCommit;
  o.checkpoint_every = kCheckpointEvery;
  o.listen_port = port;
  return o;
}

DatasetBundle CleanKg(uint64_t seed) {
  KgOptions kg;
  kg.num_persons = 4000;
  kg.num_cities = 400;
  kg.num_countries = 20;
  kg.num_orgs = 260;
  kg.seed = seed * 3 + 1;
  InjectOptions none;
  none.rate = 0.0;
  return MakeKgBundle(kg, none).value();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Loads a saved state into a fresh non-durable service and saves it
/// again: the reload closes the edge-id gaps SaveState keeps, so the live
/// and recovered states compare byte for byte only after this round trip.
std::string Normalized(const DatasetBundle& clean, const std::string& path,
                       Report* rep) {
  RepairService svc(clean.graph.Clone(), clean.rules, ServeOptions{});
  Status st = svc.RestoreState(path);
  if (st.ok()) st = svc.SaveState(path + ".norm");
  if (!st.ok()) {
    rep->Fail("normalising " + path + ": " + st.ToString());
    return "";
  }
  return ReadFile(path + ".norm");
}

/// Restricts the calling thread, and every thread it starts later, to the
/// highest-numbered CPU it may run on. False if the affinity calls fail.
bool PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return false;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0;
  }
  return false;
}

double HistMean(obs::MetricsRegistry* reg, const std::string& name) {
  obs::Histogram* h =
      reg->GetHistogram(name, "", obs::DefaultLatencyBucketsMs());
  return h->Count() == 0 ? 0 : h->Sum() / static_cast<double>(h->Count());
}

double HistSum(obs::MetricsRegistry* reg, const std::string& name) {
  return reg->GetHistogram(name, "", obs::DefaultLatencyBucketsMs())->Sum();
}

}  // namespace

Report RunDurableTcpMixed(const Args& args) {
  Report rep;
  if (!PinToOneCpu()) std::fprintf(stderr, "durable_tcp_mixed: not pinned\n");
  DatasetBundle clean;
  std::vector<double> setup_s;
  for (int i = 0; i < 3; ++i) {
    const std::string dir = args.work_dir + "/wal-setup";
    fs::remove_all(dir);
    auto t0 = Clock::now();
    {
      Span span("serve.setup");
      clean = CleanKg(args.seed);
      RepairService service(clean.graph.Clone(), clean.rules,
                            DurableOptions(dir, 0));
      auto info = service.OpenDurability();
      serve::Server server(&service);
      if (!info.ok() || !server.Start().ok()) {
        rep.Fail("durable server did not start");
        return rep;
      }
      server.Stop();
    }
    setup_s.push_back(MsSince(t0) / 1000.0);
    fs::remove_all(dir);
  }
  rep.Set("setup_s", Median(setup_s));
  if (CountViolations(clean.graph, clean.rules, kThreads) != 0)
    rep.Fail("generated knowledge graph is not clean");

  std::vector<std::string> labels;
  for (SymbolId l = 0; l < clean.vocab->NumLabels(); ++l)
    labels.push_back(clean.vocab->LabelName(l));
  KeyAttrs keys;
  clean.vocab->LookupLabel("Person", &keys.person);

  std::vector<double> write_ms, write_beside_reads_ms;
  std::vector<double> stage_ms, commit_rtt_ms, detect_rtt_ms;
  std::vector<double> client_rtt_ms;
  double edits = 0, edit_time_ms = 0, reads = 0, traffic_ms = 0;
  double server_commit_ms = 0, server_detect_ms = 0, snapshot_ms = 0;
  double batches = 0, publish_ms = 0, publishes = 0;
  double request_ms = 0, read_ms = 0, recovery_ms = 0;
  std::vector<Batch> recorded;
  GlobalCounters measured;
  const auto start = Clock::now();
  size_t rounds = 0;
  while (rounds == 0 || MsSince(start) < args.seconds * 1000.0) {
    SpanGroup group(rounds + 1);
    const std::string dir = args.work_dir + "/wal-round";
    const std::string live_path = args.work_dir + "/live.state";
    const std::string rec_path = args.work_dir + "/recovered.state";
    fs::remove_all(dir);
    auto service = std::make_unique<RepairService>(
        clean.graph.Clone(), clean.rules, DurableOptions(dir, 0));
    auto server = std::make_unique<serve::Server>(service.get());
    if (!service->OpenDurability().ok() || !server->Start().ok()) {
      rep.Fail("durable server did not start");
      return rep;
    }
    const uint16_t port = server->port();
    // Each round draws its own batches (round r of seed s is the same in
    // every run), so a run's medians cover many streams.
    EditGenerator gen(args.seed * 1000003 + rounds * 7919 + 29,
                      EditGenerator::Mix::kLabelOnly, keys);

    std::atomic<bool> stop{false};
    std::vector<ReaderTally> tallies(kReaders);
    std::vector<std::thread> readers;
    LineClient writer;
    if (!writer.Connect(port)) {
      rep.Fail("writer could not connect");
      return rep;
    }
    const GlobalCounters region = GlobalCounters::Read();
    auto traffic_start = Clock::now();
    size_t fixes = 0;
    for (size_t b = 0; b < kBatchesPerRound; ++b) {
      if (b == kLoneBatches) {
        traffic_start = Clock::now();
        for (size_t r = 0; r < kReaders; ++r)
          readers.emplace_back(ReaderLoop, port, &stop,
                               (rounds + 1) * 1000 + r + 1, &tallies[r]);
      }
      ++rep.attempted;
      // Ids come from the generation published after the last batch reply:
      // checkpoints compact ids, so older ones go stale.
      Batch batch;
      std::vector<std::string> lines;
      {
        serve::ReadLease lease = service->PinPublished();
        std::vector<EdgeId> removed;
        while (batch.size() < kBatchEdits) {
          EditEntry op = gen.Next(lease.view(), removed,
                                  kBatchEdits - batch.size());
          if (op.kind == EditKind::kRemoveEdge) removed.push_back(op.edge);
          lines.push_back(OpLine(op, labels));
          batch.push_back(op);
        }
      }
      std::string reply;
      bool ok = true;
      const auto batch_start = Clock::now();
      double staged_ms = 0, commit_ms = 0;
      {
        Span stage("serve.stage_edits");
        for (const std::string& line : lines) {
          Span request("serve.edit_request");
          ok = ok && writer.Send(line) && writer.ReadLine(&reply) &&
               StartsWith(reply, "staged ");
          client_rtt_ms.push_back(request.ElapsedMs());
        }
        staged_ms = stage.ElapsedMs();
      }
      {
        Span span("serve.commit_request");
        ok = ok && writer.Send("commit") && writer.ReadLine(&reply);
        commit_ms = span.ElapsedMs();
      }
      client_rtt_ms.push_back(commit_ms);
      const double batch_ms = MsSince(batch_start);
      size_t batch_fixes = 0;
      if (!ok || !StartsWith(reply, "batch ") ||
          reply.find("op_errors=") != std::string::npos ||
          reply.find("BUDGET_EXHAUSTED") != std::string::npos) {
        ++rep.failed;
        rep.Fail("batch reply: " + reply);
        if (!ok) break;
        continue;
      }
      size_t pos = reply.find("fixes=");
      batch_fixes = std::strtoull(reply.c_str() + pos + 6, nullptr, 10);
      fixes += batch_fixes;
      (b < kLoneBatches ? write_ms : write_beside_reads_ms).push_back(batch_ms);
      stage_ms.push_back(staged_ms);
      commit_rtt_ms.push_back(commit_ms);
      edits += static_cast<double>(batch.size());
      edit_time_ms += batch_ms;
      if (rounds == 0) recorded.push_back(std::move(batch));
    }
    const double round_traffic_ms = MsSince(traffic_start);
    stop.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();
    measured.AddSince(region);
    std::string bye;
    if (writer.Send("quit")) (void)writer.ReadLine(&bye);
    server->Stop();
    traffic_ms += round_traffic_ms;
    for (const ReaderTally& t : tallies) {
      if (t.broken) rep.Fail("a reader connection broke");
      rep.attempted += t.reads;
      rep.failed += t.failed;
      reads += static_cast<double>(t.reads - t.failed);
      detect_rtt_ms.insert(detect_rtt_ms.end(), t.detect_rtt_ms.begin(),
                           t.detect_rtt_ms.end());
      client_rtt_ms.insert(client_rtt_ms.end(), t.rtt_ms.begin(),
                           t.rtt_ms.end());
    }

    const ServiceStats& st = service->stats();
    obs::MetricsRegistry* reg = service->mutable_metrics_registry();
    server_commit_ms += HistSum(reg, "grepair_serve_commit_ms");
    server_detect_ms += HistSum(reg, "grepair_serve_detect_ms");
    snapshot_ms += st.snapshot_patch_ms + st.snapshot_rebuild_ms;
    batches += static_cast<double>(st.batches);
    publish_ms += st.publish_ms;
    publishes += static_cast<double>(st.publishes);
    request_ms += HistMean(reg, "grepair_server_request_ms");
    read_ms += HistMean(reg, "grepair_serve_read_ms");
    if (rounds == 0) {
      // Deterministic per seed: the counts of round 0.
      rep.Set("repair.fixes", static_cast<double>(fixes));
      rep.Set("match.expansions", static_cast<double>(st.expansions));
      rep.Set("storage.wal_syncs", static_cast<double>(st.wal_syncs));
      rep.Set("storage.wal_bytes_per_edit",
              static_cast<double>(st.wal_bytes) /
                  static_cast<double>(kBatchesPerRound * kBatchEdits));
    }

    // Outside the timed region: recover a fresh service from the WAL
    // directory; it must reproduce the acknowledged state.
    Status saved = service->SaveState(live_path);
    server.reset();
    service.reset();
    RepairService recovered(clean.graph.Clone(), clean.rules,
                            DurableOptions(dir, -1));
    Result<RecoveryInfo> info = Status::Ok();
    {
      Span span("storage.recover");
      info = recovered.OpenDurability();
      recovery_ms += span.ElapsedMs();
    }
    if (!saved.ok() || !info.ok()) {
      rep.Fail("save or recovery failed");
    } else {
      Status rs = recovered.SaveState(rec_path);
      if (!rs.ok() ||
          Normalized(clean, live_path, &rep) != Normalized(clean, rec_path,
                                                           &rep))
        rep.Fail("recovered state differs from the acknowledged state");
    }
    if (rounds == 0 && info.ok())
      rep.Set("storage.replayed_batches",
              static_cast<double>(info.value().replayed_batches));

    if (args.trace && rounds == 0) {
      TimeFullDetectPerRule(recovered.graph(), clean.rules, kThreads, &rep);
      {
        Span span("storage.checkpoint");
        Status cs = recovered.CheckpointNow(false);
        rep.Set("storage.checkpoint_ms", span.ElapsedMs());
        if (!cs.ok()) rep.Fail("checkpoint: " + cs.ToString());
      }
      // WAL appends of the recorded batches through a writer of our own.
      const std::string wdir = args.work_dir + "/wal-append";
      fs::remove_all(wdir);
      fs::create_directories(wdir);
      auto w = storage::WalWriter::Open(storage::RealFs::Default(), wdir, 1,
                                        storage::FsyncPolicy::kEveryCommit,
                                        0);
      if (w.ok()) {
        std::vector<double> append_ms;
        for (size_t b = 0; b < recorded.size(); ++b) {
          storage::WalBatch wb;
          wb.seq = b + 1;
          wb.records = recorded[b];
          Span span("storage.wal_append");
          Status as = w.value()->AppendBatch(wb, 0);
          append_ms.push_back(span.ElapsedMs());
          if (!as.ok()) rep.Fail("wal append: " + as.ToString());
        }
        rep.Set("storage.wal_append_ms", Mean(append_ms));
      } else {
        rep.Fail("wal open: " + w.status().ToString());
      }
      fs::remove_all(wdir);
      // Graph and match layers on the batches before the first checkpoint
      // (their ids are still those of the generated graph).
      std::vector<Batch> head(
          recorded.begin(),
          recorded.begin() + std::min<size_t>(kCheckpointEvery,
                                              recorded.size()));
      Graph replay = clean.graph.Clone();
      ReplayBatches(&replay, clean.rules, head, kThreads, &rep, &rep);
      if (rep.values.count("graph.snapshot_advance_ms"))
        rep.values["graph.snapshot_advance_ms"] /=
            static_cast<double>(head.size());
    }
    fs::remove_all(dir);
    ++rounds;
  }
  fs::remove(args.work_dir + "/live.state");
  fs::remove(args.work_dir + "/live.state.norm");
  fs::remove(args.work_dir + "/recovered.state");
  fs::remove(args.work_dir + "/recovered.state.norm");

  const double r = static_cast<double>(rounds);
  const double nb = std::max(1.0, batches);
  measured.SetMetrics(r, &rep);
  rep.Set("write_p50_ms", Median(write_ms));
  rep.Set("serve.write_beside_reads_p50_ms", Median(write_beside_reads_ms));
  rep.Set("detect_p50_ms", Median(detect_rtt_ms));
  rep.Set("serve.edits_per_s", edits / (edit_time_ms / 1000.0));
  rep.Set("serve.apply_edits_ms", Mean(stage_ms));
  rep.Set("serve.snapshot_ms", snapshot_ms / nb);
  rep.Set("serve.seed_ms", (server_detect_ms - snapshot_ms) / nb);
  rep.Set("serve.cascade_ms", (server_commit_ms - server_detect_ms) / nb);
  rep.Set("serve.post_commit_ms",
          Mean(commit_rtt_ms) - server_commit_ms / nb);
  rep.Set("serve.publish_ms", publishes > 0 ? publish_ms / publishes : 0);
  rep.Set("serve.request_ms", request_ms / r);
  rep.Set("serve.client_rtt_ms", Mean(client_rtt_ms));
  rep.Set("serve.read_ms", read_ms / r);
  rep.Set("serve.reads_per_s", reads / (traffic_ms / 1000.0));
  std::vector<double> all_writes = write_ms;
  all_writes.insert(all_writes.end(), write_beside_reads_ms.begin(),
                    write_beside_reads_ms.end());
  rep.Set("serve.commit_tail_ms", TailValue(all_writes));
  rep.Set("storage.recovery_ms", recovery_ms / r);
  std::fprintf(stderr, "durable_tcp_mixed: %zu rounds, %zu batches, %.0f "
               "reads\n", rounds, all_writes.size(), reads);
  return rep;
}

}  // namespace perfbench
