// offline_repair: the paper's batch repair. One dirty graph from each
// generator (knowledge graph, social network, citation network) with 5%
// injected errors across all three error classes; per graph a full
// DetectAll, then a greedy incremental RepairEngine::Run, both on one
// thread. Time goes to the cascade (Verify, ApplyFix, DetectDelta per fix)
// and to full detection; snapshot patching, publication, storage and
// sockets are never touched. The timed passes run one thread because on a
// shared 4-vCPU host four threads draw steal that moved them by up to half
// from run to run; a 4-thread detection runs once per graph, as a check and
// as the parallel layer's figures (perfbench/README.md).
#include <cstdio>

#include "bench.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "graph/sharded_snapshot.h"
#include "repair/engine.h"
#include "util/strings.h"

namespace perfbench {

using namespace grepair;

namespace {

constexpr size_t kThreads = 1;
// Threads of the detection that must agree with the timed one.
constexpr size_t kParallelThreads = 4;
// Fix-level F1 each graph's greedy repair must reach against the injected
// ground truth (README "Correctness checks").
constexpr double kF1Floor = 0.95;

std::vector<DatasetBundle> MakeBundles(uint64_t seed) {
  InjectOptions iopt;
  iopt.rate = 0.05;
  std::vector<DatasetBundle> out;
  KgOptions kg;
  kg.num_persons = 20000;
  kg.num_cities = 2000;
  kg.num_countries = 40;
  kg.num_orgs = 1300;
  kg.seed = seed * 3 + 1;
  iopt.seed = seed * 7 + 1;
  out.push_back(MakeKgBundle(kg, iopt).value());
  SocialOptions so;
  so.num_persons = 20000;
  so.seed = seed * 3 + 2;
  iopt.seed = seed * 7 + 2;
  out.push_back(MakeSocialBundle(so, iopt).value());
  CitationOptions co;
  co.num_papers = 15000;
  co.num_authors = 5000;
  co.num_venues = 100;
  co.seed = seed * 3 + 3;
  iopt.seed = seed * 7 + 3;
  out.push_back(MakeCitationBundle(co, iopt).value());
  return out;
}

}  // namespace

Report RunOfflineRepair(const Args& args) {
  Report rep;
  std::vector<DatasetBundle> bundles;
  std::vector<double> setup_s;
  for (int i = 0; i < 3; ++i) {
    Span span("graph.generate");
    bundles = MakeBundles(args.seed);
    setup_s.push_back(span.ElapsedMs() / 1000.0);
  }
  rep.Set("setup_s", Median(setup_s));

  RepairOptions ropt;
  ropt.strategy = RepairStrategy::kGreedy;
  ropt.incremental = true;
  ropt.num_threads = kThreads;
  RepairEngine engine(ropt);

  std::vector<double> round_detect_ms, round_repair_ms;
  double repair_edits = 0, repair_ms_total = 0;
  // Deterministic outcome of round 0, per graph: every later round must
  // reproduce it exactly.
  std::vector<size_t> fixes0(bundles.size());
  std::vector<double> cost0(bundles.size());
  GlobalCounters measured;
  GlobalCounters fanout;  // the 4-thread detections of round 0
  const auto start = Clock::now();
  size_t rounds = 0;
  while (rounds == 0 || MsSince(start) < args.seconds * 1000.0) {
    SpanGroup group(rounds + 1);
    double detect_ms = 0, repair_ms = 0;
    for (size_t b = 0; b < bundles.size(); ++b) {
      const DatasetBundle& bundle = bundles[b];
      Graph work = bundle.graph.Clone();
      ++rep.attempted;

      ViolationStore store;
      size_t detect_expansions = 0;
      size_t detected = 0;
      const GlobalCounters region = GlobalCounters::Read();
      {
        Span span("repair.detect_all");
        detected = DetectAll(work, bundle.rules, &store, &detect_expansions,
                             kThreads);
        detect_ms += span.ElapsedMs();
      }
      const size_t mark = work.JournalSize();
      Result<RepairResult> res = Status::Ok();
      double run_ms = 0;
      {
        Span span("repair.run");
        res = engine.Run(&work, bundle.rules);
        run_ms = span.ElapsedMs();
      }
      measured.AddSince(region);
      if (!res.ok()) {
        ++rep.failed;
        rep.Fail(bundle.name + ": " + res.status().ToString());
        continue;
      }
      const RepairResult& r = res.value();
      repair_ms += run_ms;
      repair_edits += static_cast<double>(work.JournalSize() - mark);
      repair_ms_total += run_ms;

      if (rounds > 0) {
        if (r.applied.size() != fixes0[b] || r.repair_cost != cost0[b])
          rep.Fail(bundle.name + ": repair differs between rounds");
        continue;
      }
      // Round 0: outputs are checked, and the deterministic counts kept.
      fixes0[b] = r.applied.size();
      cost0[b] = r.repair_cost;
      if (r.budget_exhausted) rep.Fail(bundle.name + ": budget exhausted");
      if (CountViolations(work, bundle.rules, 1) != 0)
        rep.Fail(bundle.name + ": violations remain after repair");
      ViolationStore store4;
      size_t detected4 = 0;
      {
        const GlobalCounters before = GlobalCounters::Read();
        Span span("parallel.detect_all");
        detected4 = DetectAll(bundle.graph, bundle.rules, &store4, nullptr,
                              kParallelThreads);
        rep.Add("parallel.detect_all_ms", span.ElapsedMs());
        fanout.AddSince(before);
      }
      if (detected4 != detected)
        rep.Fail(bundle.name + ": detection differs at 1 and 4 threads");
      QualityMetrics q =
          EvaluateRepair(work, r.applied, bundle.truth,
                         static_cast<NodeId>(bundle.graph.NodeIdBound()));
      std::fprintf(stderr, "%s: nodes=%zu edges=%zu violations=%zu "
                   "fixes=%zu cost=%.0f f1=%.4f\n",
                   bundle.name.c_str(), bundle.graph.NumNodes(),
                   bundle.graph.NumEdges(), detected, r.applied.size(),
                   r.repair_cost, q.f1);
      if (q.f1 < kF1Floor)
        rep.Fail(StrFormat("%s: F1 %.4f below the floor %.2f",
                           bundle.name.c_str(), q.f1, kF1Floor));
      auto it = rep.values.find("repair.f1_min");
      if (it == rep.values.end() || q.f1 < it->second)
        rep.Set("repair.f1_min", q.f1);
      rep.Add("repair.cost", r.repair_cost);
      rep.Add("repair.fixes", static_cast<double>(r.applied.size()));
      rep.Add("match.expansions",
              static_cast<double>(detect_expansions + r.matcher_expansions));

      if (!args.trace) continue;
      // Per-layer figures on the round-0 inputs, outside the timed region.
      {
        Span span("graph.snapshot_build");
        ShardedSnapshot snap(bundle.graph, kThreads);
        rep.Add("graph.snapshot_build_ms", span.ElapsedMs());
      }
      // Run = seed detection + cascade + a final recount; the seed and the
      // recount are timed alone and the cascade is the rest.
      double recount_ms = 0;
      {
        Span span("repair.recount");
        (void)CountViolations(work, bundle.rules, kThreads);
        recount_ms = span.ElapsedMs();
      }
      TimeFullDetectPerRule(bundle.graph, bundle.rules, kThreads, &rep);
      std::vector<EditEntry> fixes(work.Journal().begin() + mark,
                                   work.Journal().end());
      TimeDeltaDetectPerRule(work, bundle.rules, fixes, &rep);
      rep.Add("repair.recount_ms", recount_ms);
      rep.Add("repair.run_ms", run_ms);
    }
    round_detect_ms.push_back(detect_ms);
    round_repair_ms.push_back(repair_ms);
    ++rounds;
  }
  measured.SetMetrics(static_cast<double>(rounds), &rep);
  rep.Set("parallel.tasks", fanout.tasks);
  rep.Set("parallel.task_wait_ms", fanout.wait_ms);
  rep.Set("parallel.task_run_ms", fanout.run_ms);

  rep.Set("write_p50_ms", Median(round_repair_ms));
  rep.Set("detect_p50_ms", Median(round_detect_ms));
  rep.Set("repair.edits_per_s", repair_edits / (repair_ms_total / 1000.0));
  if (args.trace) {
    rep.Set("repair.seed_detect_ms", round_detect_ms.front());
    rep.Set("repair.cascade_ms", rep.values["repair.run_ms"] -
                                     round_detect_ms.front() -
                                     rep.values["repair.recount_ms"]);
    rep.values.erase("repair.run_ms");
    rep.values.erase("repair.recount_ms");
  }
  std::fprintf(stderr, "offline_repair: %zu rounds\n", rounds);
  return rep;
}

}  // namespace perfbench
