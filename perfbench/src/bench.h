// Shared pieces of the grepair benchmark program: command-line arguments,
// the result record every workload fills, the span tracer that times calls
// into the library from outside, order statistics, the seeded edit
// generator, and the per-layer replays the serving workloads share.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "graph/edit_log.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "grr/rule.h"
#include "util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory for WAL files and traces
};

/// What one run reports. `values` holds every metric the workload measured,
/// end-to-end and per-layer alike; main() selects the set to print.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;

  /// Records a failed output check (prints the reason to stderr).
  void Fail(const std::string& why);
  void Set(const std::string& name, double v) { values[name] = v; }
  void Add(const std::string& name, double v) { values[name] += v; }
};

/// The benchmark's own span recorder. Spans wrap calls into library layers
/// from the benchmark's files; they are kept in memory and written out as
/// Chrome trace-event JSON when the run ends. Disabled (the untraced
/// end-to-end runs), a span costs one flag test.
class Tracer {
 public:
  struct Record {
    const char* name;  ///< a string literal
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = root
    uint64_t group = 0;   ///< the round or request the span belongs to
    uint32_t thread = 0;
    double start_us = 0;
    double end_us = 0;
  };

  static Tracer& Get();
  bool enabled() const { return enabled_; }
  void Enable() { enabled_ = true; }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Close(const char* name, uint64_t id, uint64_t parent,
             Clock::time_point start);

  /// Writes every span as Chrome trace-event JSON.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// RAII span around one call into a layer. It always times the call
/// (ElapsedMs); while the tracer is enabled it is also recorded.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double ElapsedMs() const { return MsSince(start_); }

 private:
  const char* name_;
  Clock::time_point start_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
};

/// Marks every span opened on this thread while it lives as belonging to
/// `group` (a round of a workload, or one client request).
class SpanGroup {
 public:
  explicit SpanGroup(uint64_t group);
  ~SpanGroup();
  SpanGroup(const SpanGroup&) = delete;
  SpanGroup& operator=(const SpanGroup&) = delete;

 private:
  uint64_t saved_;
};

double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);
/// The highest percentile that still has at least ten samples beyond it,
/// or 0 with fewer than forty samples (that would be no tail).
double TailValue(std::vector<double> v);

/// Node-attribute vocabulary the generator needs for the knowledge-graph
/// domain: the key attributes every keyed add carries.
struct KeyAttrs {
  grepair::SymbolId person = 0;
  grepair::SymbolId name = 0;
  grepair::SymbolId birth_year = 0;
};

/// Seeded edit generator. Ids are drawn by rejection sampling against the
/// view's NodeIdBound/EdgeIdBound, so it never copies or enumerates the
/// graph; the caller keeps its time out of every timing.
class EditGenerator {
 public:
  enum class Mix {
    /// add_edge / remove_edge / relabel / add_node (label only): the mix of
    /// the serving tables' S1 stream.
    kLabelOnly,
    /// The same four kinds plus attribute sets; every added node carries
    /// its label's key attributes (a name, and a birth_year on a Person).
    kKeyed,
  };

  EditGenerator(uint64_t seed, Mix mix, KeyAttrs keys);

  /// Draws the next op against `g`. `removed` lists edges already removed
  /// by ops staged but not yet applied (never drawn again). An add_node
  /// comes back alone; KeyedFollowUps() gives its attribute sets once its
  /// id is known.
  grepair::EditEntry Next(const grepair::GraphView& g,
                          const std::vector<grepair::EdgeId>& removed,
                          size_t room);
  /// The key-attribute ops for a node just added with `label`.
  std::vector<grepair::EditEntry> KeyedFollowUps(grepair::NodeId node,
                                                 grepair::SymbolId label,
                                                 grepair::Vocabulary* vocab);
 private:
  /// Ops an add_node of `label` expands to under this mix (1 + key attrs).
  size_t AddNodeCost(grepair::SymbolId label) const;
  grepair::NodeId AliveNode(const grepair::GraphView& g);
  grepair::EdgeId AliveEdge(const grepair::GraphView& g,
                            const std::vector<grepair::EdgeId>& removed);

  grepair::Rng rng_;
  Mix mix_;
  KeyAttrs keys_;
  uint64_t fresh_ = 0;
  std::vector<grepair::SymbolId> years_;
};

/// Every rule name of the three shipped rule sets, sorted: the suffixes of
/// the per-rule match metrics.
const std::vector<std::string>& AllRuleNames();

/// Times CountViolations of each rule alone over one prebuilt snapshot of
/// `g`, adding into match.full_detect_ms.<rule>.
void TimeFullDetectPerRule(const grepair::GraphView& g,
                           const grepair::RuleSet& rules, size_t threads,
                           Report* report);
/// Times DetectDelta of each rule alone over `delta`, adding into
/// match.delta_detect_ms.<rule>.
void TimeDeltaDetectPerRule(const grepair::GraphView& g,
                            const grepair::RuleSet& rules,
                            const std::vector<grepair::EditEntry>& delta,
                            Report* report);

/// The client ops of one batch of a serving workload.
using Batch = std::vector<grepair::EditEntry>;

/// Replays recorded client batches offline, outside every timed region:
/// each batch's ops are applied to `g` and repaired by
/// RepairEngine::RunDelta. When `report` is non-null (traced runs) the
/// replay also times the graph and match layers on those inputs: a sharded
/// snapshot build of the starting graph, its advance per batch, and each
/// rule's DetectDelta alone over each batch. Returns false (and fails the
/// report) on an op the graph rejects or a budget-cut repair.
bool ReplayBatches(grepair::Graph* g, const grepair::RuleSet& rules,
                   const std::vector<Batch>& batches, size_t threads,
                   Report* checks, Report* layers);

/// Process-wide pool and planner counters (library instruments). Workloads
/// sum the differences across their measured regions only, so checks and
/// layer replays stay out of them.
struct GlobalCounters {
  double tasks = 0;
  double wait_ms = 0;
  double run_ms = 0;
  double plan_compiles = 0;
  static GlobalCounters Read();
  /// Adds `after - before` into this sum.
  void AddSince(const GlobalCounters& before);
  /// Sets the parallel.* and match.plan_compiles metrics, per round.
  void SetMetrics(double rounds, perfbench::Report* report) const;
};

Report RunOfflineRepair(const Args& args);
Report RunServeStream(const Args& args);
Report RunDurableTcpMixed(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
