// serve_stream: a closed loop with one in-process writer. Each batch is 64
// RepairService::ApplyEdit calls (edge adds and removes, relabels, attribute
// sets, and node adds that carry their label's key attributes) and one
// Commit, on a 1-thread service (publication on, no WAL, no readers) over a
// clean knowledge graph. Delta seed detection, the repair cascade and the
// snapshot advance of each publication do the work; storage, sessions and
// TCP do none. The service runs one thread because on a shared 4-vCPU host
// a pool that fills every vCPU draws steal that moved commit latency by up
// to 2x from run to run (perfbench/README.md).
#include <cstdio>

#include "bench.h"
#include "eval/experiment.h"
#include "graph/graph_io.h"
#include "repair/engine.h"
#include "serve/repair_service.h"
#include "util/strings.h"

namespace perfbench {

using namespace grepair;

namespace {

constexpr size_t kThreads = 1;
constexpr size_t kBatchEdits = 64;
constexpr size_t kBatchesPerRound = 256;

DatasetBundle CleanKg(uint64_t seed) {
  KgOptions kg;
  kg.num_persons = 16000;
  kg.num_cities = 1600;
  kg.num_countries = 40;
  kg.num_orgs = 1000;
  kg.seed = seed * 3 + 1;
  InjectOptions none;
  none.rate = 0.0;
  return MakeKgBundle(kg, none).value();
}

ServeOptions Options() {
  ServeOptions o;
  o.num_threads = kThreads;
  return o;
}

}  // namespace

Report RunServeStream(const Args& args) {
  Report rep;
  DatasetBundle clean;
  std::vector<double> setup_s;
  for (int i = 0; i < 3; ++i) {
    Span span("serve.setup");
    clean = CleanKg(args.seed);
    RepairService service(clean.graph.Clone(), clean.rules, Options());
    setup_s.push_back(span.ElapsedMs() / 1000.0);
  }
  rep.Set("setup_s", Median(setup_s));
  if (CountViolations(clean.graph, clean.rules, kThreads) != 0)
    rep.Fail("generated knowledge graph is not clean");
  std::fprintf(stderr, "serve_stream: %zu nodes %zu edges\n",
               clean.graph.NumNodes(), clean.graph.NumEdges());

  KeyAttrs keys;
  clean.vocab->LookupLabel("Person", &keys.person);
  clean.vocab->LookupAttr("name", &keys.name);
  clean.vocab->LookupAttr("birth_year", &keys.birth_year);

  std::vector<double> write_ms, detect_ms;
  std::vector<double> apply_ms, seed_ms, snapshot_ms, cascade_ms, post_ms;
  double edits = 0, edit_time_ms = 0, publish_ms = 0, publishes = 0;
  size_t fixes0 = 0, expansions0 = 0;
  std::vector<Batch> recorded;
  GlobalCounters measured;
  const auto start = Clock::now();
  size_t rounds = 0;
  while (rounds == 0 || MsSince(start) < args.seconds * 1000.0) {
    SpanGroup group(rounds + 1);
    RepairService service(clean.graph.Clone(), clean.rules, Options());
    // Each round draws its own batches, so a run's median covers many
    // streams rather than repeating one; round r of seed s is the same in
    // every run.
    EditGenerator gen(args.seed * 1000003 + rounds * 7919 + 17,
                      EditGenerator::Mix::kKeyed, keys);
    size_t fixes = 0, expansions = 0;
    for (size_t b = 0; b < kBatchesPerRound; ++b) {
      ++rep.attempted;
      Batch batch;
      double batch_apply_ms = 0;
      bool ok = true;
      const GlobalCounters region = GlobalCounters::Read();
      while (ok && batch.size() < kBatchEdits) {
        std::vector<EditEntry> ops = {
            gen.Next(service.graph(), {}, kBatchEdits - batch.size())};
        for (size_t i = 0; ok && i < ops.size(); ++i) {
          Result<EditApplied> r = Status::Ok();
          {
            Span span("serve.apply_edit");
            r = service.ApplyEdit(ops[i]);
            batch_apply_ms += span.ElapsedMs();
          }
          if (!r.ok()) {
            rep.Fail("ApplyEdit: " + r.status().ToString());
            ok = false;
            break;
          }
          batch.push_back(ops[i]);
          if (ops[i].kind == EditKind::kAddNode) {
            for (EditEntry& f : gen.KeyedFollowUps(
                     r.value().node, ops[i].label, clean.vocab.get()))
              ops.push_back(f);
          }
        }
      }
      Result<BatchResult> res = Status::Ok();
      double commit_ms = 0;
      const size_t fix_mark = service.graph().JournalSize();
      if (ok) {
        Span span("serve.commit");
        res = service.Commit();
        commit_ms = span.ElapsedMs();
      }
      measured.AddSince(region);
      if (!ok || !res.ok()) {
        ++rep.failed;
        if (ok) rep.Fail("Commit: " + res.status().ToString());
        continue;
      }
      const BatchResult& br = res.value();
      if (br.budget_exhausted) rep.Fail("a commit ran out of fix budget");
      fixes += br.fixes;
      if (rounds == 0)
        rep.Add("repair.cost",
                service.graph().CostSince(fix_mark, CostModel{}));
      expansions += br.expansions;
      write_ms.push_back(batch_apply_ms + commit_ms);
      apply_ms.push_back(batch_apply_ms);
      snapshot_ms.push_back(br.snapshot_ms);
      seed_ms.push_back(br.detect_ms - br.snapshot_ms);
      cascade_ms.push_back(br.total_ms - br.detect_ms);
      post_ms.push_back(commit_ms - br.total_ms);
      edits += static_cast<double>(batch.size());
      edit_time_ms += batch_apply_ms + commit_ms;
      if (rounds == 0) recorded.push_back(std::move(batch));
    }
    const ServiceStats& stats = service.stats();
    publish_ms += stats.publish_ms;
    publishes += static_cast<double>(stats.publishes);

    // Outside the commit loop: full detection of the final graph, which
    // must be clean (three passes, for a steadier median).
    for (int pass = 0; pass < 3; ++pass) {
      ViolationStore store;
      Span span("repair.detect_all");
      size_t left =
          DetectAll(service.graph(), clean.rules, &store, nullptr, kThreads);
      detect_ms.push_back(span.ElapsedMs());
      if (left != 0)
        rep.Fail(StrFormat("%zu violations after round %zu", left, rounds));
    }
    if (rounds == 0) {
      fixes0 = fixes;
      expansions0 = expansions;
      // The committed state must equal an offline RunDelta replay of the
      // same client batches.
      Graph replay = clean.graph.Clone();
      if (ReplayBatches(&replay, clean.rules, recorded, kThreads, &rep,
                        args.trace ? &rep : nullptr) &&
          SerializeGraph(replay) != SerializeGraph(service.graph()))
        rep.Fail("served state differs from the offline RunDelta replay");
      if (args.trace)
        TimeFullDetectPerRule(service.graph(), clean.rules, kThreads, &rep);
    }
    ++rounds;
  }
  const double r = static_cast<double>(rounds);
  measured.SetMetrics(r, &rep);
  rep.Set("write_p50_ms", Median(write_ms));
  rep.Set("detect_p50_ms", Median(detect_ms));
  rep.Set("serve.edits_per_s", edits / (edit_time_ms / 1000.0));
  rep.Set("repair.fixes", static_cast<double>(fixes0));
  rep.Set("match.expansions", static_cast<double>(expansions0));
  rep.Set("serve.apply_edits_ms", Mean(apply_ms));
  rep.Set("serve.seed_ms", Mean(seed_ms));
  rep.Set("serve.snapshot_ms", Mean(snapshot_ms));
  rep.Set("serve.cascade_ms", Mean(cascade_ms));
  rep.Set("serve.post_commit_ms", Mean(post_ms));
  rep.Set("serve.publish_ms", publishes > 0 ? publish_ms / publishes : 0);
  rep.Set("serve.commit_tail_ms", TailValue(write_ms));
  // The graph-layer replay covers one round's batches.
  for (const char* name : {"graph.snapshot_advance_ms"})
    if (rep.values.count(name)) rep.values[name] /= kBatchesPerRound;
  std::fprintf(stderr, "serve_stream: %zu rounds, %zu batches\n", rounds,
               write_ms.size());
  return rep;
}

}  // namespace perfbench
