// Shared pieces of the uniqopt benchmark: run configuration, latency
// samples, the correctness tally, the metric report, and the span log
// the traced run fills. Everything here lives outside the library: the
// benchmark times each layer by calling that layer's public function
// itself, so src/ carries no benchmark instrumentation.
#ifndef UNIQBENCH_HARNESS_H_
#define UNIQBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/profile.h"
#include "obs/trace.h"
#include "storage/table.h"
#include "types/row.h"

namespace uniqbench {

/// Command-line configuration of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Chrome trace-event output of a traced run (empty: not written).
  std::string trace_path;
};

/// Steady-clock nanoseconds since the first call.
uint64_t NowNs();

/// Seconds elapsed since `start_ns` (a NowNs() value).
double SecondsSince(uint64_t start_ns);

/// Wall time of a closed loop, minus the untimed checks run inside it.
class LoopClock {
 public:
  LoopClock() : start_ns_(NowNs()) {}
  double Seconds() const {
    return static_cast<double>(NowNs() - start_ns_ - untimed_ns_) / 1e9;
  }

  /// Scope whose time does not count as loop time.
  class Untimed {
   public:
    explicit Untimed(LoopClock* clock) : clock_(clock), start_ns_(NowNs()) {}
    ~Untimed() { clock_->untimed_ns_ += NowNs() - start_ns_; }
    Untimed(const Untimed&) = delete;
    Untimed& operator=(const Untimed&) = delete;

   private:
    LoopClock* clock_;
    uint64_t start_ns_;
  };

 private:
  uint64_t start_ns_;
  uint64_t untimed_ns_ = 0;
};

/// Completed operations of one closed loop, with the loop time at which
/// each completed.
class LoopOutcome {
 public:
  void Complete(const LoopClock& clock) { done_at_.push_back(clock.Seconds()); }
  void Finish(const LoopClock& clock) { seconds_ = clock.Seconds(); }

  uint64_t completed() const { return done_at_.size(); }
  /// Operations per second over the whole loop.
  double Throughput() const {
    return static_cast<double>(completed()) / seconds_;
  }
  /// Median over groups of `group` consecutive operations of each
  /// group's operations per second. A burst of machine noise slows a
  /// few groups and leaves the median alone; a loop shorter than two
  /// groups falls back to Throughput().
  double MedianGroupThroughput(size_t group) const;

 private:
  std::vector<double> done_at_;
  double seconds_ = 0;
};

/// Latency samples in nanoseconds.
class Samples {
 public:
  void Add(uint64_t ns) { ns_.push_back(ns); }
  size_t size() const { return ns_.size(); }
  /// Nearest-rank percentile (q in [0, 1]) in microseconds; 0 when empty.
  double PercentileUs(double q) const;
  double MedianUs() const { return PercentileUs(0.5); }
  /// Samples strictly above the q-th percentile.
  size_t CountAbove(double q) const;

 private:
  std::vector<uint64_t> ns_;
};

/// The median of a list of doubles (0 when empty).
double Median(std::vector<double> values);

/// Correctness tally. Every operation counts as attempted; a wrong
/// result, an unexpected error or a failed untimed check counts as
/// failed. The first few reasons go to stderr.
class Tally {
 public:
  void Attempt() { ++attempted_; }
  void Fail(const std::string& why);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Named metrics of one run. `Metric` entries make up the JSON result
/// line (the BENCHMARK.json set for the run's mode); `Info` entries are
/// printed for people only.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& name, double value, const std::string& unit);
  /// A free-form line printed before the metric table.
  void Note(const std::string& line) { notes_.push_back(line); }

  /// Prints notes and the metric table, then the result JSON as the
  /// last line of standard output.
  void Print(const Tally& tally) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    bool in_json;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> notes_;
};

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Resident set size of this process now, in MiB, after returning freed
/// heap pages to the operating system (malloc_trim): the memory the
/// process's live state holds, independent of transient peaks.
double LiveRssMb();

/// Median of `setups` timed set-ups, in seconds. Each call of `setup`
/// must build its state from scratch (dropping the previous instance
/// first), so the last instance is the one the timed loop uses.
template <typename F>
double MedianSetupSeconds(int setups, F&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < setups; ++i) {
    const uint64_t start = NowNs();
    setup();
    seconds.push_back(SecondsSince(start));
  }
  return Median(seconds);
}

/// Order-independent digest of a multiset of rows: equal multisets give
/// equal digests. Used to check every timed result cheaply against a
/// reference checked in full once.
struct RowDigest {
  uint64_t count = 0;
  uint64_t hash_sum = 0;
  bool operator==(const RowDigest& o) const {
    return count == o.count && hash_sum == o.hash_sum;
  }
};
RowDigest DigestRows(const std::vector<uniqopt::Row>& rows);

/// True when `a` and `b` hold the same rows with the same multiplicities
/// under the null-safe tuple equality `=!`. Sorts both.
bool SameMultiset(std::vector<uniqopt::Row> a, std::vector<uniqopt::Row> b);

/// The Figure 1 supplier database at the given scale (deterministic for
/// a data seed). Aborts the process if the library rejects it.
std::unique_ptr<uniqopt::Database> MakeSupplierDb(size_t suppliers,
                                                  size_t parts_per_supplier,
                                                  size_t agents,
                                                  uint64_t data_seed);

// ---------------------------------------------------------------------
// Traced runs.

/// In-memory span log of a traced run. A span is opened with Begin,
/// closed with End, and carries its operation id and parent span id;
/// spans are exported as Chrome trace-event JSON when the run ends.
class SpanLog {
 public:
  /// Opens a span; returns its id. `parent` 0 makes it an op root.
  uint64_t Begin(const std::string& name, uint64_t op, uint64_t parent);
  /// Closes span `id`; returns its duration in nanoseconds.
  uint64_t End(uint64_t id);
  /// Attaches a string attribute to span `id` (open or closed).
  void AddAttr(uint64_t id, const std::string& key, const std::string& value);
  /// Renames span `id` (a call whose outcome decides its layer).
  void Rename(uint64_t id, const std::string& name);

  /// Self time per span name over the spans of operation `op`: each
  /// span's duration minus the durations of its direct children. Span
  /// names listed in `containers` are structure only: they contribute
  /// no self time and their children count as top-level.
  std::map<std::string, int64_t> SelfTimes(
      uint64_t op, const std::vector<std::string>& containers) const;

  /// Discards the spans of `op`, which must be the latest operation
  /// logged: its numbers are already aggregated, and the exported trace
  /// stays bounded on long runs.
  void DropOp(uint64_t op);

  /// Writes every span as Chrome trace-event JSON (Perfetto loads it).
  bool WriteChromeTrace(const std::string& path) const;

  size_t size() const { return events_.size(); }

 private:
  uniqopt::obs::TraceEvent* Find(uint64_t id);

  std::vector<uniqopt::obs::TraceEvent> events_;
  std::vector<uint64_t> ops_;  ///< op id of events_[i]
  uint64_t next_id_ = 1;
};

/// RAII span on a SpanLog: Begin on construction, End on destruction or
/// on an explicit Close (which returns the duration). A null log makes
/// the span inert, so untraced callers share the traced code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, uint64_t op,
             uint64_t parent)
      : log_(log), id_(log != nullptr ? log->Begin(name, op, parent) : 0) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  uint64_t Close() {
    if (log_ == nullptr || !open_) return duration_ns_;
    open_ = false;
    duration_ns_ = log_->End(id_);
    return duration_ns_;
  }

 private:
  SpanLog* log_;
  uint64_t id_;
  bool open_ = true;
  uint64_t duration_ns_ = 0;
};

/// Operator self times of one profiled serial execution, keyed by the
/// operator's base name (`IndexLookup(pk_x)` → `IndexLookup`).
std::map<std::string, int64_t> OperatorSelfTimes(
    const uniqopt::ExecProfile& profile);

/// Per-layer aggregation over the operations of a traced run: every
/// metric is the median over the operations in which that layer ran.
class LayerStats {
 public:
  /// Adds one operation's per-layer self times (nanoseconds).
  void AddOp(const std::map<std::string, int64_t>& self_ns);
  /// Adds one per-operation value of a named quantity (counts, ratios).
  void AddValue(const std::string& name, double value);
  /// Median microseconds of `layer` over the operations that ran it; 0
  /// when none did.
  double MedianUs(const std::string& layer) const;
  /// Median of a named per-operation value; 0 when never added.
  double MedianValue(const std::string& name) const;
  /// Mean of a named per-operation value; 0 when never added.
  double MeanValue(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> layer_us_;
  std::map<std::string, std::vector<double>> values_;
};

/// Operator names the per-layer report lists one `exec.op.<Name>.self_us`
/// metric for (a fixed list, so every traced run prints the same set).
/// Operators outside it are folded into `exec.op.Other.self_us`.
const std::vector<std::string>& ReportedOperators();

/// Emits the per-layer metric set shared by every workload from a traced
/// run's aggregates. Layers a workload does not exercise report 0.
void ReportLayerMetrics(const LayerStats& layers, Report* report);

}  // namespace uniqbench

#endif  // UNIQBENCH_HARNESS_H_
