// grepair benchmark program: one seeded workload per invocation.
//
//   perfbench --workload <offline_repair|serve_stream|durable_tcp_mixed>
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Progress goes to stderr; the last line of stdout is one JSON object with
// `correct`, `attempted`, `failed` and `metrics`. Untraced runs print the
// end-to-end metrics; traced runs record spans around every call into a
// library layer, print the per-layer metrics, and write the spans to
// DIR/trace-<workload>-<seed>.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& EndToEnd() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},
      {"write_p50_ms", "ms"},
      {"detect_p50_ms", "ms"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayer() {
  static const std::vector<MetricDef> kDefs = [] {
    std::vector<MetricDef> d = {
        {"graph.snapshot_build_ms", "ms"},
        {"graph.snapshot_advance_ms", "ms"},
        {"graph.patched_records", "count"},
        {"match.expansions", "count"},
        {"match.plan_compiles", "count"},
        {"repair.seed_detect_ms", "ms"},
        {"repair.cascade_ms", "ms"},
        {"repair.fixes", "count"},
        {"repair.cost", "edits"},
        {"repair.f1_min", "ratio"},
        {"repair.edits_per_s", "1/s"},
        {"parallel.tasks", "count"},
        {"parallel.task_wait_ms", "ms"},
        {"parallel.task_run_ms", "ms"},
        {"parallel.detect_all_ms", "ms"},
        {"serve.apply_edits_ms", "ms"},
        {"serve.seed_ms", "ms"},
        {"serve.snapshot_ms", "ms"},
        {"serve.cascade_ms", "ms"},
        {"serve.post_commit_ms", "ms"},
        {"serve.publish_ms", "ms"},
        {"serve.request_ms", "ms"},
        {"serve.client_rtt_ms", "ms"},
        {"serve.read_ms", "ms"},
        {"serve.edits_per_s", "1/s"},
        {"serve.reads_per_s", "1/s"},
        {"serve.commit_tail_ms", "ms"},
        {"serve.write_beside_reads_p50_ms", "ms"},
        {"storage.wal_append_ms", "ms"},
        {"storage.wal_syncs", "count"},
        {"storage.wal_bytes_per_edit", "B"},
        {"storage.checkpoint_ms", "ms"},
        {"storage.replayed_batches", "count"},
        {"storage.recovery_ms", "ms"},
        {"trace.write_p50_ms", "ms"},
    };
    for (const std::string& rule : AllRuleNames()) {
      d.push_back({"match.delta_detect_ms." + rule, "ms"});
      d.push_back({"match.full_detect_ms." + rule, "ms"});
    }
    return d;
  }();
  return kDefs;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<offline_repair|serve_stream|durable_tcp_mixed> --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (i + 1 >= argc) Usage("missing flag value");
    std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) Usage("bad --seconds");
    } else if (key == "--trace") {
      if (val != "0" && val != "1") Usage("bad --trace");
      a.trace = val == "1";
    } else if (key == "--work-dir") {
      a.work_dir = val;
    } else {
      Usage("unknown flag");
    }
  }
  if (a.work_dir.empty()) Usage("--work-dir is required");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args = ParseArgs(argc, argv);
  std::filesystem::create_directories(args.work_dir);
  if (args.trace) Tracer::Get().Enable();

  Report rep;
  if (args.workload == "offline_repair") {
    rep = RunOfflineRepair(args);
  } else if (args.workload == "serve_stream") {
    rep = RunServeStream(args);
  } else if (args.workload == "durable_tcp_mixed") {
    rep = RunDurableTcpMixed(args);
  } else {
    Usage("unknown workload");
  }

  if (args.trace) {
    rep.Set("trace.write_p50_ms", rep.values["write_p50_ms"]);
    std::string path = args.work_dir + "/trace-" + args.workload + "-" +
                       std::to_string(args.seed) + ".json";
    if (!Tracer::Get().WriteJson(path))
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }

  const std::vector<MetricDef>& defs = args.trace ? PerLayer() : EndToEnd();
  std::string metrics;
  for (const MetricDef& m : defs) {
    auto it = rep.values.find(m.name);
    double v = it == rep.values.end() ? 0.0 : it->second;
    if (!args.trace && (it == rep.values.end() || !(v > 0) ||
                        !std::isfinite(v))) {
      std::fprintf(stderr, "end-to-end metric %s missing or not positive\n",
                   m.name.c_str());
      return 1;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}", metrics.empty() ? "" : ", ",
                  m.name.c_str(), v, m.unit.c_str());
    metrics += buf;
  }
  // Values every workload reports on stderr, whichever set stdout carries.
  for (const auto& [name, v] : rep.values)
    std::fprintf(stderr, "  %-44s %.6g\n", name.c_str(), v);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              rep.correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed), metrics.c_str());
  return 0;
}
