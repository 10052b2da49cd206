#include "exec/operators.h"

#include <algorithm>
#include <utility>

namespace uniqopt {

std::string ExecStats::ToString() const {
  std::string out;
  out += "rows_scanned=" + std::to_string(rows_scanned);
  out += " rows_sorted=" + std::to_string(rows_sorted);
  out += " sort_comparisons=" + std::to_string(sort_comparisons);
  out += " hash_probes=" + std::to_string(hash_probes);
  out += " hash_build_rows=" + std::to_string(hash_build_rows);
  out += " inner_loop_rows=" + std::to_string(inner_loop_rows);
  out += " rows_output=" + std::to_string(rows_output);
  out += " morsels_claimed=" + std::to_string(morsels_claimed);
  out += " index_probes=" + std::to_string(index_probes);
  return out;
}

Result<std::vector<Row>> Drain(Operator* op, ExecContext* ctx) {
  UNIQOPT_RETURN_NOT_OK(op->Open(ctx));
  std::vector<Row> rows;
  RowBatch batch;
  while (true) {
    UNIQOPT_ASSIGN_OR_RETURN(bool more, op->NextBatch(ctx, &batch));
    if (!more) break;
    for (size_t i = 0; i < batch.size(); ++i) rows.push_back(batch.row(i));
  }
  op->Close();
  return rows;
}

Result<std::vector<Row>> ExecuteToVector(Operator* op, ExecContext* ctx) {
  UNIQOPT_ASSIGN_OR_RETURN(std::vector<Row> rows, Drain(op, ctx));
  ctx->stats.rows_output += rows.size();
  return rows;
}

namespace {

/// Pulls batches from `child` into `out`, compacting each selection
/// vector in place to the rows for which `keep` holds, until a batch
/// keeps at least one row (true) or the input ends (false). For
/// operators that pass their input rows through unchanged.
template <typename Keep>
Result<bool> NextKept(Operator* child, ExecContext* ctx, RowBatch* out,
                      Keep keep) {
  while (true) {
    UNIQOPT_ASSIGN_OR_RETURN(bool more, child->NextBatch(ctx, out));
    if (!more) return false;
    std::vector<uint32_t>& sel = out->selection();
    size_t kept = 0;
    for (uint32_t idx : sel) {
      if (keep(out->data()[idx])) sel[kept++] = idx;
    }
    sel.resize(kept);
    if (kept > 0) return true;  // else pull the next batch
  }
}

}  // namespace

// ---------------------------------------------------------------- TableScan
Status TableScanOp::Open(ExecContext*) {
  // Pin the committed version for the whole execution: concurrent DML
  // publishes new versions, but this scan keeps reading the immutable
  // state it opened against (snapshot isolation for readers). The pin
  // is held past Close() so batches that borrowed storage slices stay
  // valid until the operator tree is destroyed.
  snapshot_ = table_->Snapshot();
  pos_ = 0;
  return Status::OK();
}

Result<bool> TableScanOp::NextBatch(ExecContext* ctx, RowBatch* out) {
  out->Reset();
  const std::vector<Row>& rows = snapshot_->rows;
  if (pos_ >= rows.size()) return false;
  size_t n = std::min(out->capacity(), rows.size() - pos_);
  out->Borrow(rows.data() + pos_, n);
  pos_ += n;
  ctx->stats.rows_scanned += n;
  return true;
}

void TableScanOp::Close() {}

// ------------------------------------------------------------------- Filter
Status FilterOp::Open(ExecContext* ctx) {
  program_ = PredicateProgram::Compile(predicate_);
  return child_->Open(ctx);
}

Result<bool> FilterOp::NextBatch(ExecContext* ctx, RowBatch* out) {
  while (true) {
    UNIQOPT_ASSIGN_OR_RETURN(bool more, child_->NextBatch(ctx, out));
    if (!more) return false;
    program_.FilterSel(out->data(), &out->selection(), ctx->params);
    if (!out->selection().empty()) return true;  // else pull the next batch
  }
}

void FilterOp::Close() { child_->Close(); }

// ------------------------------------------------------------------ Project
Status ProjectOp::Open(ExecContext* ctx) { return child_->Open(ctx); }

Result<bool> ProjectOp::NextBatch(ExecContext* ctx, RowBatch* out) {
  out->Reset();
  UNIQOPT_ASSIGN_OR_RETURN(bool more, child_->NextBatch(ctx, &input_batch_));
  if (!more) return false;
  for (size_t i = 0; i < input_batch_.size(); ++i) {
    out->Append(input_batch_.row(i).Project(columns_));
  }
  return true;
}

void ProjectOp::Close() { child_->Close(); }

// ------------------------------------------------------------- SortDistinct
Status SortDistinctOp::Open(ExecContext* ctx) {
  UNIQOPT_ASSIGN_OR_RETURN(rows_, Drain(child_.get(), ctx));
  ctx->stats.rows_sorted += rows_.size();
  size_t* comparisons = &ctx->stats.sort_comparisons;
  std::sort(rows_.begin(), rows_.end(), [comparisons](const Row& a,
                                                      const Row& b) {
    ++*comparisons;
    return a.Compare(b) < 0;
  });
  // Compact to one row per `=!`-equal group (Row::Compare treats NULLs
  // as equal, matching `=!`); emission is then a plain slice.
  rows_.erase(std::unique(rows_.begin(), rows_.end(),
                          [](const Row& a, const Row& b) {
                            return a.Compare(b) == 0;
                          }),
              rows_.end());
  pos_ = 0;
  return Status::OK();
}

Result<bool> SortDistinctOp::NextBatch(ExecContext*, RowBatch* out) {
  out->Reset();
  if (pos_ >= rows_.size()) return false;
  size_t n = std::min(out->capacity(), rows_.size() - pos_);
  out->Borrow(rows_.data() + pos_, n);
  pos_ += n;
  return true;
}

void SortDistinctOp::Close() { rows_.clear(); }

// ------------------------------------------------------------- HashDistinct
Status HashDistinctOp::Open(ExecContext* ctx) {
  seen_.Clear();
  return child_->Open(ctx);
}

Result<bool> HashDistinctOp::NextBatch(ExecContext* ctx, RowBatch* out) {
  out->Reset();
  const std::vector<size_t>& cols = seen_.key_columns();
  while (true) {
    UNIQOPT_ASSIGN_OR_RETURN(bool more,
                             child_->NextBatch(ctx, &input_batch_));
    if (!more) return false;
    const size_t first = seen_.size();
    for (size_t i = 0; i < input_batch_.size(); ++i) {
      const Row& row = input_batch_.row(i);
      ++ctx->stats.hash_probes;
      seen_.FindOrInsert(KeyTable::HashKey(row, cols), row, cols,
                         [&] { return row; });
    }
    // The new rows are contiguous at the end of the store, which only
    // grows on the next call — after the consumer is done with `out`.
    if (seen_.size() > first) {
      out->Borrow(seen_.rows().data() + first, seen_.size() - first);
      return true;
    }
  }
}

void HashDistinctOp::Close() {
  seen_.Clear();
  child_->Close();
}

// ------------------------------------------------------ NestedLoopProduct
Status NestedLoopProductOp::Open(ExecContext* ctx) {
  UNIQOPT_ASSIGN_OR_RETURN(right_rows_, Drain(right_.get(), ctx));
  UNIQOPT_RETURN_NOT_OK(left_->Open(ctx));
  left_batch_.Reset();
  left_pos_ = 0;
  right_pos_ = 0;
  return Status::OK();
}

Result<bool> NestedLoopProductOp::NextBatch(ExecContext* ctx,
                                            RowBatch* out) {
  out->Reset();
  while (out->size() < out->capacity()) {
    if (left_pos_ >= left_batch_.size()) {
      UNIQOPT_ASSIGN_OR_RETURN(bool more, left_->NextBatch(ctx, &left_batch_));
      if (!more) break;
      left_pos_ = 0;
      right_pos_ = 0;
    }
    const Row& left_row = left_batch_.row(left_pos_);
    while (right_pos_ < right_rows_.size() && out->size() < out->capacity()) {
      ++ctx->stats.inner_loop_rows;
      out->Append(Row::Concat(left_row, right_rows_[right_pos_++]));
    }
    if (right_pos_ >= right_rows_.size()) {
      ++left_pos_;
      right_pos_ = 0;
    }
  }
  return !out->empty();
}

void NestedLoopProductOp::Close() {
  left_->Close();
  right_rows_.clear();
}

// ---------------------------------------------------------- SharedJoinBuild
SharedJoinBuild::SharedJoinBuild(std::vector<size_t> keys, size_t partitions)
    : keys_(std::move(keys)),
      part_rows_(partitions == 0 ? 1 : partitions),
      part_hashes_(part_rows_.size()),
      tables_(part_rows_.size(), KeyTable(keys_)) {}

Status SharedJoinBuild::EnsureBuilt(Operator* build_side, ExecContext* ctx) {
  bool drainer = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (state_ == State::kIdle) {
      state_ = State::kDraining;
      drainer = true;
    }
  }
  if (drainer) {
    // Drain the build side once (this worker's operator instance; the
    // other workers' build subtrees are never opened), hash each row's
    // key and partition the rows by hash. NULL join keys never match
    // under 3VL `=`, so those rows are dropped here.
    Status drain_status = [&]() -> Status {
      UNIQOPT_ASSIGN_OR_RETURN(std::vector<Row> rows, Drain(build_side, ctx));
      for (std::vector<Row>& part : part_rows_) {
        part.reserve(rows.size() / part_rows_.size());
      }
      for (Row& r : rows) {
        if (KeyTable::HasNull(r, keys_)) continue;
        const uint64_t hash = KeyTable::HashKey(r, keys_);
        const size_t p = PartitionOf(hash);
        part_rows_[p].push_back(std::move(r));
        part_hashes_[p].push_back(hash);
      }
      return Status::OK();
    }();
    std::unique_lock<std::mutex> lock(mu_);
    if (!drain_status.ok()) {
      state_ = State::kFailed;
      failure_ = drain_status;
      cv_.notify_all();
      return drain_status;
    }
    state_ = State::kBuilding;
    cv_.notify_all();
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return state_ != State::kIdle && state_ != State::kDraining;
    });
    if (state_ == State::kFailed) return failure_;
    if (state_ == State::kPublished) return Status::OK();
  }
  // kBuilding: claim partitions and index them. The atomic counter gives
  // each partition exactly one builder, so the per-table writes are
  // unsynchronized; publication below transfers them via the mutex.
  while (true) {
    size_t p = next_partition_.fetch_add(1, std::memory_order_relaxed);
    if (p >= tables_.size()) break;
    tables_[p].Build(std::move(part_rows_[p]), part_hashes_[p]);
    part_hashes_[p] = std::vector<uint64_t>();
    ctx->stats.hash_build_rows += tables_[p].size();
    std::unique_lock<std::mutex> lock(mu_);
    if (++partitions_built_ == tables_.size()) {
      state_ = State::kPublished;
      cv_.notify_all();
    }
  }
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock,
           [&] { return state_ == State::kPublished ||
                        state_ == State::kFailed; });
  return state_ == State::kFailed ? failure_ : Status::OK();
}

// ----------------------------------------------------------------- HashJoin
Status HashJoinOp::Open(ExecContext* ctx) {
  build_ = shared_ != nullptr
               ? shared_
               : std::make_shared<SharedJoinBuild>(right_keys_, 1);
  UNIQOPT_RETURN_NOT_OK(build_->EnsureBuilt(right_.get(), ctx));
  return left_->Open(ctx);
}

Result<bool> HashJoinOp::NextBatch(ExecContext* ctx, RowBatch* out) {
  out->Reset();
  while (true) {
    UNIQOPT_ASSIGN_OR_RETURN(bool more,
                             left_->NextBatch(ctx, &probe_batch_));
    if (!more) return !out->empty();
    for (size_t i = 0; i < probe_batch_.size(); ++i) {
      const Row& probe = probe_batch_.row(i);
      ++ctx->stats.hash_probes;
      if (KeyTable::HasNull(probe, left_keys_)) continue;
      const uint64_t hash = KeyTable::HashKey(probe, left_keys_);
      const KeyTable& table = build_->Partition(hash);
      for (uint32_t m = table.Find(hash, probe, left_keys_);
           m != KeyTable::kNone; m = table.Next(m)) {
        Row candidate = Row::Concat(probe, table.row(m));
        if (residual_ == nullptr ||
            residual_->EvaluatePredicate(candidate, ctx->params) ==
                Tribool::kTrue) {
          out->Append(std::move(candidate));
        }
      }
    }
    if (!out->empty()) return true;  // else probe the next batch
  }
}

void HashJoinOp::Close() {
  // right_ is opened and closed inside the build, by the draining
  // worker only. A shared build lives until every worker lets go.
  left_->Close();
  build_.reset();
}

// ------------------------------------------------------ NestedLoopSemiJoin
Status NestedLoopSemiJoinOp::Open(ExecContext* ctx) {
  UNIQOPT_ASSIGN_OR_RETURN(inner_rows_, Drain(inner_.get(), ctx));
  return outer_->Open(ctx);
}

bool NestedLoopSemiJoinOp::HasWitness(const Row& row, ExecContext* ctx) {
  for (const Row& inner : inner_rows_) {
    ++ctx->stats.inner_loop_rows;
    Row combined = Row::Concat(row, inner);
    if (correlation_->EvaluatePredicate(combined, ctx->params) ==
        Tribool::kTrue) {
      return true;  // EXISTS needs only one witness.
    }
  }
  return false;
}

Result<bool> NestedLoopSemiJoinOp::NextBatch(ExecContext* ctx,
                                             RowBatch* out) {
  return NextKept(outer_.get(), ctx, out, [&](const Row& row) {
    return HasWitness(row, ctx) != negated_;
  });
}

void NestedLoopSemiJoinOp::Close() {
  outer_->Close();
  inner_rows_.clear();
}

// ---------------------------------------------------------- HashSemiJoin
Status HashSemiJoinOp::Open(ExecContext* ctx) {
  build_ = shared_ != nullptr
               ? shared_
               : std::make_shared<SharedJoinBuild>(inner_keys_, 1);
  UNIQOPT_RETURN_NOT_OK(build_->EnsureBuilt(inner_.get(), ctx));
  return outer_->Open(ctx);
}

bool HashSemiJoinOp::HasWitness(const Row& row, ExecContext* ctx) {
  if (KeyTable::HasNull(row, outer_keys_)) return false;  // never match
  ++ctx->stats.hash_probes;
  const uint64_t hash = KeyTable::HashKey(row, outer_keys_);
  const KeyTable& table = build_->Partition(hash);
  for (uint32_t m = table.Find(hash, row, outer_keys_);
       m != KeyTable::kNone; m = table.Next(m)) {
    if (residual_ == nullptr) return true;
    Row combined = Row::Concat(row, table.row(m));
    if (residual_->EvaluatePredicate(combined, ctx->params) ==
        Tribool::kTrue) {
      return true;
    }
  }
  return false;
}

Result<bool> HashSemiJoinOp::NextBatch(ExecContext* ctx, RowBatch* out) {
  return NextKept(outer_.get(), ctx, out, [&](const Row& row) {
    return HasWitness(row, ctx) != negated_;
  });
}

void HashSemiJoinOp::Close() {
  outer_->Close();
  build_.reset();
}

// -------------------------------------------------------------------- SetOp
Status SetOpOp::Open(ExecContext* ctx) {
  table_.Clear();
  counts_.clear();
  UNIQOPT_ASSIGN_OR_RETURN(std::vector<Row> rows, Drain(right_.get(), ctx));
  const std::vector<size_t>& cols = table_.key_columns();
  for (Row& r : rows) {
    ++ctx->stats.hash_build_rows;
    auto [ordinal, inserted] = table_.FindOrInsert(
        KeyTable::HashKey(r, cols), r, cols, [&] { return std::move(r); });
    if (inserted) {
      counts_.push_back(1);
    } else {
      ++counts_[ordinal];
    }
  }
  return left_->Open(ctx);
}

bool SetOpOp::Keep(const Row& row, ExecStats* stats) {
  ++stats->hash_probes;
  const std::vector<size_t>& cols = table_.key_columns();
  const uint64_t hash = KeyTable::HashKey(row, cols);
  if (mode_ == DuplicateMode::kDist && op_ == SetOpAlgebra::kExcept) {
    // EXCEPT: r0 ∈ result iff it occurs only on the left; emit once. The
    // first left copy goes into the table (count 0), so its later copies
    // are found there and dropped like the rows that occur on the right.
    auto [ordinal, inserted] =
        table_.FindOrInsert(hash, row, cols, [&] { return row; });
    if (inserted) counts_.push_back(0);
    return inserted;
  }
  const uint32_t ordinal = table_.Find(hash, row, cols);
  const size_t right_count = ordinal == KeyTable::kNone ? 0 : counts_[ordinal];
  if (mode_ == DuplicateMode::kDist) {
    // INTERSECT: r0 ∈ result iff it occurs in both; emit once by using
    // up every right copy at the first match.
    if (right_count == 0) return false;
    counts_[ordinal] = 0;
    return true;
  }
  // INTERSECT ALL: min(j, k) occurrences; EXCEPT ALL: max(j − k, 0).
  // Each left copy consumes one right copy while any remain.
  if (right_count > 0) --counts_[ordinal];
  return (op_ == SetOpAlgebra::kIntersect) == (right_count > 0);
}

Result<bool> SetOpOp::NextBatch(ExecContext* ctx, RowBatch* out) {
  return NextKept(left_.get(), ctx, out, [&](const Row& row) {
    return Keep(row, &ctx->stats);
  });
}

void SetOpOp::Close() {
  left_->Close();
  table_.Clear();
  counts_.clear();
}

// --------------------------------------------------- GroupedAggregator
GroupedAggregator::GroupedAggregator(const Schema& input_schema,
                                     std::vector<size_t> group_columns,
                                     std::vector<AggregateItem> aggregates)
    : group_columns_(std::move(group_columns)),
      aggregates_(std::move(aggregates)),
      keys_(AllColumns(group_columns_.size())) {
  arg_types_.reserve(aggregates_.size());
  for (const AggregateItem& agg : aggregates_) {
    arg_types_.push_back(agg.func == AggFunc::kCountStar
                             ? TypeId::kInteger
                             : input_schema.column(agg.arg_column).type);
  }
}

size_t GroupedAggregator::GroupSlot(const Row& row) {
  // Scalar aggregate: one global group, hashed once. keys_ still learns
  // the (empty) key so MergeFrom finds the same group.
  if (group_columns_.empty() && !states_.empty()) return 0;
  // The key is projected only when it opens a new group.
  auto [group, inserted] = keys_.FindOrInsert(
      KeyTable::HashKey(row, group_columns_), row, group_columns_,
      [&] { return row.Project(group_columns_); });
  if (inserted) states_.emplace_back(aggregates_.size());
  return group;
}

void GroupedAggregator::Fold(std::vector<AggState>* group,
                             const Row& row) const {
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    const AggregateItem& agg = aggregates_[a];
    AggState& st = (*group)[a];
    if (agg.func == AggFunc::kCountStar) {
      ++st.count;
      continue;
    }
    const Value& v = row[agg.arg_column];
    if (v.is_null()) continue;  // SQL: aggregates ignore NULLs
    ++st.count;
    st.any = true;
    switch (agg.func) {
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (v.type() == TypeId::kInteger) {
          st.sum_int += v.AsInteger();
        }
        st.sum_double += v.AsNumeric();
        break;
      case AggFunc::kMin:
        if (st.count == 1) {
          st.min = v;
        } else if (v.type() == TypeId::kInteger &&
                   st.min.type() == TypeId::kInteger) {
          // Integer fast path: both sides non-NULL here, compare inline.
          if (v.AsInteger() < st.min.AsInteger()) st.min = v;
        } else if (v.Compare(st.min) < 0) {
          st.min = v;
        }
        break;
      case AggFunc::kMax:
        if (st.count == 1) {
          st.max = v;
        } else if (v.type() == TypeId::kInteger &&
                   st.max.type() == TypeId::kInteger) {
          if (v.AsInteger() > st.max.AsInteger()) st.max = v;
        } else if (v.Compare(st.max) > 0) {
          st.max = v;
        }
        break;
      default:
        break;
    }
  }
}

void GroupedAggregator::Accumulate(const Row& row, ExecStats* stats) {
  ++stats->hash_probes;
  Fold(&states_[GroupSlot(row)], row);
}

void GroupedAggregator::MergeFrom(const GroupedAggregator& other) {
  // other's stored keys are already projected onto the group columns and
  // hashed exactly as a source row's group columns are: reuse the hashes.
  const std::vector<size_t>& cols = keys_.key_columns();
  other.keys_.ForEachKey([&](uint64_t hash, uint32_t g) {
    const Row& key = other.keys_.row(g);
    auto [group, inserted] =
        keys_.FindOrInsert(hash, key, cols, [&] { return key; });
    if (inserted) states_.emplace_back(aggregates_.size());
    std::vector<AggState>& mine = states_[group];
    const std::vector<AggState>& theirs = other.states_[g];
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      AggState& st = mine[a];
      const AggState& o = theirs[a];
      st.count += o.count;
      st.sum_int += o.sum_int;
      st.sum_double += o.sum_double;
      if (o.any) {
        if (!st.any || o.min.Compare(st.min) < 0) st.min = o.min;
        if (!st.any || o.max.Compare(st.max) > 0) st.max = o.max;
        st.any = true;
      }
    }
  });
}

std::vector<Row> GroupedAggregator::Finalize() const {
  std::vector<Row> out_rows;
  // A scalar aggregate always yields one group, even over empty input.
  const bool scalar_empty = group_columns_.empty() && keys_.size() == 0;
  size_t groups = scalar_empty ? 1 : keys_.size();
  const std::vector<AggState> empty_states(aggregates_.size());
  for (size_t g = 0; g < groups; ++g) {
    Row out = scalar_empty ? Row() : keys_.row(static_cast<uint32_t>(g));
    const std::vector<AggState>& group =
        scalar_empty ? empty_states : states_[g];
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      const AggregateItem& agg = aggregates_[a];
      const AggState& st = group[a];
      TypeId arg_type = arg_types_[a];
      switch (agg.func) {
        case AggFunc::kCountStar:
        case AggFunc::kCount:
          out.Append(Value::Integer(st.count));
          break;
        case AggFunc::kSum:
          if (!st.any) {
            out.Append(Value::Null(arg_type));
          } else if (arg_type == TypeId::kInteger) {
            out.Append(Value::Integer(st.sum_int));
          } else {
            out.Append(Value::Double(st.sum_double));
          }
          break;
        case AggFunc::kAvg:
          out.Append(st.any ? Value::Double(st.sum_double /
                                            static_cast<double>(st.count))
                            : Value::Null(TypeId::kDouble));
          break;
        case AggFunc::kMin:
          out.Append(st.any ? st.min : Value::Null(arg_type));
          break;
        case AggFunc::kMax:
          out.Append(st.any ? st.max : Value::Null(arg_type));
          break;
      }
    }
    out_rows.push_back(std::move(out));
  }
  return out_rows;
}

// ------------------------------------------------------- HashAggregate
Status HashAggregateOp::Open(ExecContext* ctx) {
  output_.clear();
  pos_ = 0;
  GroupedAggregator agg(child_->schema(), group_columns_, aggregates_);
  UNIQOPT_RETURN_NOT_OK(child_->Open(ctx));
  // Accumulate straight off borrowed batches — no materialization of
  // the input, no per-row copies.
  RowBatch batch;
  while (true) {
    UNIQOPT_ASSIGN_OR_RETURN(bool more, child_->NextBatch(ctx, &batch));
    if (!more) break;
    for (size_t i = 0; i < batch.size(); ++i) {
      agg.Accumulate(batch.row(i), &ctx->stats);
    }
  }
  child_->Close();
  output_ = agg.Finalize();
  return Status::OK();
}

Result<bool> HashAggregateOp::NextBatch(ExecContext*, RowBatch* out) {
  out->Reset();
  if (pos_ >= output_.size()) return false;
  size_t n = std::min(out->capacity(), output_.size() - pos_);
  out->Borrow(output_.data() + pos_, n);
  pos_ += n;
  return true;
}

void HashAggregateOp::Close() { output_.clear(); }

// ------------------------------------------------------ SortMergeIntersect
Status SortMergeIntersectOp::Open(ExecContext* ctx) {
  UNIQOPT_ASSIGN_OR_RETURN(std::vector<Row> left, Drain(left_.get(), ctx));
  UNIQOPT_ASSIGN_OR_RETURN(std::vector<Row> right, Drain(right_.get(), ctx));
  ctx->stats.rows_sorted += left.size() + right.size();
  size_t* comparisons = &ctx->stats.sort_comparisons;
  auto by_compare = [comparisons](const Row& a, const Row& b) {
    ++*comparisons;
    return a.Compare(b) < 0;
  };
  std::sort(left.begin(), left.end(), by_compare);
  std::sort(right.begin(), right.end(), by_compare);
  out_.clear();
  size_t i = 0;
  size_t j = 0;
  while (i < left.size() && j < right.size()) {
    ++*comparisons;
    int c = left[i].Compare(right[j]);
    if (c < 0) {
      ++i;
    } else if (c > 0) {
      ++j;
    } else {
      // Emit one copy per distinct value (DISTINCT semantics).
      out_.push_back(left[i]);
      const Row& v = out_.back();
      while (i < left.size() && left[i].Compare(v) == 0) ++i;
      while (j < right.size() && right[j].Compare(v) == 0) ++j;
    }
  }
  pos_ = 0;
  return Status::OK();
}

Result<bool> SortMergeIntersectOp::NextBatch(ExecContext*, RowBatch* out) {
  out->Reset();
  if (pos_ >= out_.size()) return false;
  size_t n = std::min(out->capacity(), out_.size() - pos_);
  out->Borrow(out_.data() + pos_, n);
  pos_ += n;
  return true;
}

void SortMergeIntersectOp::Close() { out_.clear(); }

}  // namespace uniqopt
