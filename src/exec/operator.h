#ifndef UNIQOPT_EXEC_OPERATOR_H_
#define UNIQOPT_EXEC_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/batch.h"
#include "types/row.h"
#include "types/schema.h"
#include "types/value.h"

namespace uniqopt {

/// Work counters accumulated across one execution. The §5/§6 claims are
/// about work avoided (sort comparisons, inner scans, pointer chases), so
/// operators account for it explicitly. Under parallel execution each
/// worker accumulates into a thread-local ExecStats which the
/// coordinator folds into the caller's via Merge() after joining, so
/// the totals stay exact at any degree of parallelism.
struct ExecStats {
  size_t rows_scanned = 0;      ///< base-table rows read
  size_t rows_sorted = 0;       ///< rows fed into a sort
  size_t sort_comparisons = 0;  ///< comparisons performed by sorts
  size_t hash_probes = 0;       ///< hash table probes
  size_t hash_build_rows = 0;   ///< rows inserted into hash tables
  size_t inner_loop_rows = 0;   ///< inner rows visited by nested loops
  size_t rows_output = 0;       ///< rows returned by the root operator
  size_t morsels_claimed = 0;   ///< scan morsels claimed (parallel only)
  size_t index_probes = 0;      ///< unique-index point/join probes

  void Reset() { *this = ExecStats(); }
  /// Folds another worker's counters into this one.
  void Merge(const ExecStats& other) {
    rows_scanned += other.rows_scanned;
    rows_sorted += other.rows_sorted;
    sort_comparisons += other.sort_comparisons;
    hash_probes += other.hash_probes;
    hash_build_rows += other.hash_build_rows;
    inner_loop_rows += other.inner_loop_rows;
    rows_output += other.rows_output;
    morsels_claimed += other.morsels_claimed;
    index_probes += other.index_probes;
  }
  std::string ToString() const;
};

/// Per-execution context: host variable values (the paper's `h`) and
/// the stats sink.
struct ExecContext {
  std::vector<Value> params;
  ExecStats stats;
};

/// Batch-at-a-time iterator. Usage: Open → NextBatch until false →
/// Close. Operators own their children and pull from them one RowBatch
/// (of capacity RowBatch::kDefaultBatchSize) at a time.
class Operator {
 public:
  explicit Operator(Schema schema) : schema_(std::move(schema)) {}
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  const Schema& schema() const { return schema_; }

  virtual Status Open(ExecContext* ctx) = 0;

  /// Produces the next batch of rows into `*out` (after resetting it).
  /// Returns false exactly at end of stream, with `*out` empty; a true
  /// return carries at least one row (possibly fewer than capacity).
  virtual Result<bool> NextBatch(ExecContext* ctx, RowBatch* out) = 0;

  virtual void Close() = 0;

  /// Operator name for EXPLAIN-style output.
  virtual std::string name() const = 0;

 private:
  Schema schema_;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Drains `op` into a vector (Open/NextBatch/Close).
Result<std::vector<Row>> Drain(Operator* op, ExecContext* ctx);

/// Drains the root operator `op` into a vector, counting its rows into
/// ctx->stats.rows_output.
Result<std::vector<Row>> ExecuteToVector(Operator* op, ExecContext* ctx);

}  // namespace uniqopt

#endif  // UNIQOPT_EXEC_OPERATOR_H_
