#include "bench.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "graph/sharded_snapshot.h"
#include "obs/metrics.h"
#include "repair/engine.h"
#include "serve/repair_service.h"
#include "util/strings.h"

namespace perfbench {

using namespace grepair;

void Report::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "check failed: %s\n", why.c_str());
}

// ---------------------------------------------------------------- spans

namespace {
thread_local uint64_t tls_parent = 0;
thread_local uint64_t tls_group = 0;
std::atomic<uint32_t> next_thread{1};
thread_local uint32_t tls_thread = 0;
}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Close(const char* name, uint64_t id, uint64_t parent,
                   Clock::time_point start) {
  auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  const double end_us = us(Clock::now());
  if (tls_thread == 0) tls_thread = next_thread.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(
      Record{name, id, parent, tls_group, tls_thread, us(start), end_us});
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << StrFormat(
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
        "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"group\":%llu}}"
        "%s\n",
        r.name, r.thread, r.start_us, r.end_us - r.start_us,
        static_cast<unsigned long long>(r.id),
        static_cast<unsigned long long>(r.parent),
        static_cast<unsigned long long>(r.group),
        i + 1 < records_.size() ? "," : "");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Span::Span(const char* name) : name_(name), start_(Clock::now()) {
  Tracer& t = Tracer::Get();
  if (!t.enabled()) return;
  id_ = t.NextId();
  parent_ = tls_parent;
  tls_parent = id_;
}

Span::~Span() {
  if (id_ == 0) return;
  tls_parent = parent_;
  Tracer::Get().Close(name_, id_, parent_, start_);
}

SpanGroup::SpanGroup(uint64_t group) : saved_(tls_group) { tls_group = group; }
SpanGroup::~SpanGroup() { tls_group = saved_; }

// ------------------------------------------------------------ statistics

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double TailValue(std::vector<double> v) {
  if (v.size() < 40) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() - 11];
}

// ---------------------------------------------------------- edit generator

EditGenerator::EditGenerator(uint64_t seed, Mix mix, KeyAttrs keys)
    : rng_(seed), mix_(mix), keys_(keys) {}

NodeId EditGenerator::AliveNode(const GraphView& g) {
  for (;;) {
    NodeId n = static_cast<NodeId>(rng_.NextBounded(g.NodeIdBound()));
    if (g.NodeAlive(n)) return n;
  }
}

EdgeId EditGenerator::AliveEdge(const GraphView& g,
                                const std::vector<EdgeId>& removed) {
  for (;;) {
    EdgeId e = static_cast<EdgeId>(rng_.NextBounded(g.EdgeIdBound()));
    if (g.EdgeAlive(e) &&
        std::find(removed.begin(), removed.end(), e) == removed.end())
      return e;
  }
}

size_t EditGenerator::AddNodeCost(SymbolId label) const {
  if (mix_ == Mix::kLabelOnly) return 1;
  return label == keys_.person ? 3 : 2;
}

EditEntry EditGenerator::Next(const GraphView& g,
                              const std::vector<EdgeId>& removed,
                              size_t room) {
  const uint64_t kinds = mix_ == Mix::kKeyed ? 5 : 4;
  for (;;) {
    EditEntry op;
    switch (rng_.NextBounded(kinds)) {
      case 0: {  // add_edge with the label of a random live edge
        op.kind = EditKind::kAddEdge;
        op.src = AliveNode(g);
        op.dst = AliveNode(g);
        if (op.src == op.dst) continue;
        op.label = g.EdgeLabel(AliveEdge(g, {}));
        return op;
      }
      case 1: {
        if (g.NumEdges() <= removed.size() + 1) continue;
        op.kind = EditKind::kRemoveEdge;
        op.edge = AliveEdge(g, removed);
        return op;
      }
      case 2: {  // add_node with the label of a random live node
        op.kind = EditKind::kAddNode;
        op.label = g.NodeLabel(AliveNode(g));
        if (AddNodeCost(op.label) > room) continue;
        return op;
      }
      case 3: {
        op.kind = EditKind::kSetNodeLabel;
        op.node = AliveNode(g);
        op.new_sym = g.NodeLabel(AliveNode(g));
        return op;
      }
      default: {  // attribute set: a birth year on a Person, else a name
        op.kind = EditKind::kSetNodeAttr;
        op.node = AliveNode(g);
        if (g.NodeLabel(op.node) == keys_.person) {
          if (years_.empty()) {
            for (int y = 1940; y < 2010; ++y)
              years_.push_back(g.vocab()->Value(std::to_string(y)));
          }
          op.attr = keys_.birth_year;
          op.new_sym = years_[rng_.PickIndex(years_)];
        } else {
          op.attr = keys_.name;
          op.new_sym = g.vocab()->Value("bench_name" + std::to_string(fresh_++));
        }
        return op;
      }
    }
  }
}

std::vector<EditEntry> EditGenerator::KeyedFollowUps(NodeId node,
                                                     SymbolId label,
                                                     Vocabulary* vocab) {
  std::vector<EditEntry> ops;
  if (mix_ == Mix::kLabelOnly) return ops;
  EditEntry name;
  name.kind = EditKind::kSetNodeAttr;
  name.node = node;
  name.attr = keys_.name;
  name.new_sym = vocab->Value("bench_name" + std::to_string(fresh_++));
  ops.push_back(name);
  if (label == keys_.person) {
    EditEntry year = name;
    year.attr = keys_.birth_year;
    year.new_sym =
        vocab->Value(std::to_string(1940 + rng_.NextBounded(70)));
    ops.push_back(year);
  }
  return ops;
}

namespace {

// Applies one journal-shaped op to a plain Graph (the offline replays).
Status ApplyOp(Graph* g, const EditEntry& op) {
  switch (op.kind) {
    case EditKind::kAddNode:
      g->AddNode(op.label);
      return Status::Ok();
    case EditKind::kAddEdge:
      return g->AddEdge(op.src, op.dst, op.label).status();
    case EditKind::kRemoveEdge:
      return g->RemoveEdge(op.edge);
    case EditKind::kRemoveNode:
      return g->RemoveNode(op.node);
    case EditKind::kSetNodeLabel:
      return g->SetNodeLabel(op.node, op.new_sym);
    case EditKind::kSetEdgeLabel:
      return g->SetEdgeLabel(op.edge, op.new_sym);
    case EditKind::kSetNodeAttr:
      return g->SetNodeAttr(op.node, op.attr, op.new_sym);
    case EditKind::kSetEdgeAttr:
      return g->SetEdgeAttr(op.edge, op.attr, op.new_sym);
  }
  return Status::InvalidArgument("unknown op");
}

}  // namespace

// ---------------------------------------------------------- layer replays

const std::vector<std::string>& AllRuleNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names = {
        // knowledge graph
        "spouse_symmetric", "knows_symmetric", "capital_implies_located",
        "country_needs_capital", "one_capital_per_country", "one_birthplace",
        "worker_is_person", "capital_flag", "dup_person", "junk_org",
        // social network (knows_symmetric is shared with the KG)
        "no_self_knows", "dup_user", "orphan_user",
        // citation network
        "no_future_citation", "cites_to_author_is_authorship",
        "paper_needs_author", "dup_paper"};
    std::sort(names.begin(), names.end());
    return names;
  }();
  return kNames;
}

void TimeFullDetectPerRule(const GraphView& g, const RuleSet& rules,
                           size_t threads, Report* report) {
  // One snapshot for all rules, so the figures are matching alone.
  ShardedSnapshot snap(g, threads);
  for (const Rule& rule : rules.rules()) {
    RuleSet one;
    (void)one.Add(rule);
    Span span("match.full_detect");
    (void)CountViolations(g, one, threads, &snap);
    report->Add("match.full_detect_ms." + rule.name(), span.ElapsedMs());
  }
}

void TimeDeltaDetectPerRule(const GraphView& g, const RuleSet& rules,
                            const std::vector<EditEntry>& delta,
                            Report* report) {
  SymbolId conf = 0;
  g.vocab()->LookupAttr("conf", &conf);
  for (const Rule& rule : rules.rules()) {
    RuleSet one;
    (void)one.Add(rule);
    ViolationStore store;
    size_t expansions = 0;
    Span span("match.delta_detect");
    DetectDelta(g, one, delta, &store, CostModel{}, conf, &expansions);
    report->Add("match.delta_detect_ms." + rule.name(), span.ElapsedMs());
  }
}

bool ReplayBatches(Graph* g, const RuleSet& rules,
                   const std::vector<Batch>& batches, size_t threads,
                   Report* checks, Report* layers) {
  RepairEngine engine;
  std::unique_ptr<ShardedSnapshot> snap;
  uint64_t watermark = 0;
  const double fraction = ServeOptions{}.snapshot_rebuild_fraction;
  if (layers != nullptr) {
    g->EnableDeltaLog();
    Span span("graph.snapshot_build");
    snap = std::make_unique<ShardedSnapshot>(*g, threads);
    layers->Add("graph.snapshot_build_ms", span.ElapsedMs());
    watermark = g->DeltaLogEnd();
  }
  for (size_t b = 0; b < batches.size(); ++b) {
    size_t mark = g->JournalSize();
    for (const EditEntry& op : batches[b]) {
      Status st = ApplyOp(g, op);
      if (!st.ok()) {
        checks->Fail(StrFormat("replay batch %zu: %s", b + 1,
                               st.ToString().c_str()));
        return false;
      }
    }
    if (layers != nullptr) {
      std::vector<EditEntry> delta(g->Journal().begin() + mark,
                                   g->Journal().end());
      // The seed pass of a commit reads a snapshot advanced to the
      // batch's state; time that advance and each rule's delta search.
      auto [records, count] = g->DeltaLogSince(watermark);
      {
        Span span("graph.snapshot_advance");
        snap->Advance(*g, records, count, fraction);
        layers->Add("graph.snapshot_advance_ms", span.ElapsedMs());
      }
      layers->Add("graph.patched_records", static_cast<double>(count));
      TimeDeltaDetectPerRule(*snap, rules, delta, layers);
      watermark = g->DeltaLogEnd();
    }
    auto r = engine.RunDelta(g, rules, mark);
    if (!r.ok() || r.value().budget_exhausted ||
        r.value().remaining_violations != 0) {
      checks->Fail(StrFormat("replay batch %zu did not repair cleanly",
                             b + 1));
      return false;
    }
    if (layers != nullptr) {
      // Cascade fixes land after the seed pass; fold them into the
      // snapshot too, as the next commit's advance would.
      auto [records, count] = g->DeltaLogSince(watermark);
      snap->Advance(*g, records, count, fraction);
      layers->Add("graph.patched_records", static_cast<double>(count));
      watermark = g->DeltaLogEnd();
    }
  }
  return true;
}

// --------------------------------------------------------- global counters

GlobalCounters GlobalCounters::Read() {
  auto& reg = obs::MetricsRegistry::Global();
  GlobalCounters c;
  c.tasks = static_cast<double>(
      reg.GetCounter("grepair_pool_tasks_total",
                     "Tasks ever submitted to a worker pool.")
          ->Value());
  obs::Histogram* wait =
      reg.GetHistogram("grepair_pool_task_wait_ms",
                       "Queue wait from submit to a worker picking up.",
                       obs::DefaultLatencyBucketsMs());
  obs::Histogram* run = reg.GetHistogram(
      "grepair_pool_task_run_ms", "Task execution time on the worker.",
      obs::DefaultLatencyBucketsMs());
  c.wait_ms = wait->Sum();
  c.run_ms = run->Sum();
  c.plan_compiles = static_cast<double>(
      reg.GetCounter("grepair_plan_compiles_total",
                     "Match plans compiled.")
          ->Value());
  return c;
}

void GlobalCounters::AddSince(const GlobalCounters& before) {
  GlobalCounters now = Read();
  tasks += now.tasks - before.tasks;
  wait_ms += now.wait_ms - before.wait_ms;
  run_ms += now.run_ms - before.run_ms;
  plan_compiles += now.plan_compiles - before.plan_compiles;
}

void GlobalCounters::SetMetrics(double rounds,
                            perfbench::Report* report) const {
  const double r = std::max(1.0, rounds);
  report->Set("parallel.tasks", tasks / r);
  report->Set("parallel.task_wait_ms", wait_ms / r);
  report->Set("parallel.task_run_ms", run_ms / r);
  report->Set("match.plan_compiles", plan_compiles / r);
}

}  // namespace perfbench
