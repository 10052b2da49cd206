#ifndef UNIQOPT_EXEC_BATCH_H_
#define UNIQOPT_EXEC_BATCH_H_

#include <cstdint>
#include <cstddef>
#include <vector>

#include "types/row.h"

namespace uniqopt {

/// A batch of rows with a selection vector, the unit of the
/// batch-at-a-time execution path (`Operator::NextBatch`).
///
/// Rows live in one of two storage modes:
///  - *borrowed*: `Borrow()` points the batch at a contiguous span of
///    rows owned by someone else (a base table, a materialized output
///    vector). Zero copies — scans and pipeline breakers hand out views
///    into their storage, and filters narrow them by editing only the
///    selection vector.
///  - *owned*: `Append()` copies/moves rows into the batch's own
///    storage (projections, join outputs — anything that constructs new
///    rows).
/// `Reset()` returns the batch to empty; the two modes must not be
/// mixed within one fill.
///
/// The selection vector holds indexes into the underlying row span, in
/// output order. `row(i)` resolves the i-th *selected* row. Operators
/// that drop rows (filters) compact `selection()` in place and never
/// touch row storage.
///
/// `capacity` is a fill target, not a hard limit: producers stop
/// appending once `size() >= capacity()`, but a single production step
/// (e.g. one hash-join probe batch matching many build rows) may
/// overshoot.
class RowBatch {
 public:
  static constexpr size_t kDefaultBatchSize = 1024;

  size_t capacity() const { return kDefaultBatchSize; }
  /// Number of selected (visible) rows.
  size_t size() const { return selection_.size(); }
  bool empty() const { return selection_.empty(); }

  void Reset() {
    data_ = nullptr;
    data_size_ = 0;
    owned_.clear();
    selection_.clear();
  }

  /// Points the batch at `n` externally-owned rows (which must outlive
  /// the batch fill) and selects all of them.
  void Borrow(const Row* rows, size_t n) {
    data_ = rows;
    data_size_ = n;
    owned_.clear();
    selection_.resize(n);
    for (size_t i = 0; i < n; ++i) selection_[i] = static_cast<uint32_t>(i);
  }

  /// Appends a row into owned storage and selects it.
  void Append(Row row) {
    owned_.push_back(std::move(row));
    data_ = owned_.data();
    data_size_ = owned_.size();
    selection_.push_back(static_cast<uint32_t>(owned_.size() - 1));
  }

  /// The i-th selected row.
  const Row& row(size_t i) const { return data_[selection_[i]]; }

  /// Underlying row span (selected or not); filters index it through
  /// the selection vector they are compacting.
  const Row* data() const { return data_; }
  size_t data_size() const { return data_size_; }

  /// Mutable selection vector, for in-place compaction by filters.
  std::vector<uint32_t>& selection() { return selection_; }
  const std::vector<uint32_t>& selection() const { return selection_; }

 private:
  const Row* data_ = nullptr;  ///< borrowed span, or owned_.data()
  size_t data_size_ = 0;
  std::vector<Row> owned_;
  std::vector<uint32_t> selection_;
};

}  // namespace uniqopt

#endif  // UNIQOPT_EXEC_BATCH_H_
