#include "exec/index_exec.h"

#include <map>
#include <set>
#include <utility>

#include "expr/equality.h"
#include "expr/normalize.h"
#include "index/unique_index.h"

namespace uniqopt {

namespace {

/// Coerces a probe value to the indexed column's type. The index stores
/// column-typed values, so an INTEGER literal probing a DOUBLE key (or
/// vice versa) must be widened/narrowed before hashing. Returns nullopt
/// when no value of the column type can equal the probe (e.g. 1.5
/// against an INTEGER column) — the lookup then matches nothing, which
/// is exactly what the equivalent filter would produce.
std::optional<Value> CoerceProbe(const Value& v, TypeId want) {
  if (v.is_null() || v.type() == want) return v;
  if (v.type() == TypeId::kInteger && want == TypeId::kDouble) {
    return Value::Double(static_cast<double>(v.AsInteger()));
  }
  if (v.type() == TypeId::kDouble && want == TypeId::kInteger) {
    double d = v.AsDouble();
    int64_t i = static_cast<int64_t>(d);
    if (static_cast<double>(i) == d) return Value::Integer(i);
    return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace

std::optional<IndexLookupMatch> MatchIndexLookup(const TableDef& def,
                                                 const ExprPtr& predicate) {
  if (!def.HasAnyKey() || predicate == nullptr) return std::nullopt;
  std::vector<ExprPtr> conjuncts = FlattenAnd(predicate);
  // First Type-1 atom per column wins; later duplicates stay residual.
  std::map<size_t, std::pair<IndexProbe, size_t>> by_column;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    EqualityAtom atom = ClassifyAtom(conjuncts[i]);
    if (atom.type != AtomType::kType1ColumnConstant) continue;
    IndexProbe probe;
    probe.constant = atom.constant;
    probe.host_var = atom.host_var;
    by_column.emplace(atom.column, std::make_pair(std::move(probe), i));
  }
  if (by_column.empty()) return std::nullopt;
  for (size_t k = 0; k < def.keys().size(); ++k) {
    const KeyConstraint& key = def.keys()[k];
    bool covered = true;
    for (size_t col : key.columns) {
      if (by_column.find(col) == by_column.end()) {
        covered = false;
        break;
      }
    }
    if (!covered) continue;
    IndexLookupMatch match;
    match.key_index = k;
    std::set<size_t> consumed;
    for (size_t col : key.columns) {
      const auto& entry = by_column.at(col);
      match.probes.push_back(entry.first);
      consumed.insert(entry.second);
    }
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (consumed.count(i) == 0) match.residual.push_back(conjuncts[i]);
    }
    return match;
  }
  return std::nullopt;
}

std::optional<IndexJoinMatch> MatchUniqueIndexJoin(
    const TableDef& right_def, const std::vector<size_t>& left_keys,
    const std::vector<size_t>& right_keys) {
  if (right_keys.empty() || right_keys.size() != left_keys.size()) {
    return std::nullopt;
  }
  std::set<size_t> right_set(right_keys.begin(), right_keys.end());
  if (right_set.size() != right_keys.size()) return std::nullopt;
  for (size_t k = 0; k < right_def.keys().size(); ++k) {
    const KeyConstraint& key = right_def.keys()[k];
    if (key.columns.size() != right_set.size()) continue;
    std::set<size_t> key_set(key.columns.begin(), key.columns.end());
    if (key_set != right_set) continue;
    IndexJoinMatch match;
    match.key_index = k;
    for (size_t col : key.columns) {
      for (size_t i = 0; i < right_keys.size(); ++i) {
        if (right_keys[i] == col) {
          match.left_keys.push_back(left_keys[i]);
          break;
        }
      }
    }
    return match;
  }
  return std::nullopt;
}

std::string KeyDisplayName(const TableDef& def, size_t key_index) {
  const KeyConstraint& key = def.keys().at(key_index);
  if (!key.name.empty()) return key.name;
  std::string out = def.name() + "(";
  for (size_t i = 0; i < key.columns.size(); ++i) {
    if (i > 0) out += ",";
    out += def.schema().column(key.columns[i]).name;
  }
  out += ")";
  return out;
}

// ---------------------------------------------------------------------------
// IndexLookupOp

IndexLookupOp::IndexLookupOp(const Table* table, Schema schema,
                             size_t key_index,
                             std::vector<IndexProbe> probes, ExprPtr residual,
                             std::string key_name)
    : Operator(std::move(schema)),
      table_(table),
      key_index_(key_index),
      probes_(std::move(probes)),
      residual_(std::move(residual)),
      key_name_(std::move(key_name)) {}

Status IndexLookupOp::Open(ExecContext* ctx) {
  match_ = nullptr;
  snapshot_ = table_->Snapshot();
  const UniqueIndex& index = snapshot_->indexes.at(key_index_);
  std::vector<Value> key_values;
  key_values.reserve(probes_.size());
  for (size_t i = 0; i < probes_.size(); ++i) {
    Value v = probes_[i].Resolve(ctx->params);
    // SQL `=` never matches a NULL probe, even though the index files
    // NULL keys as ordinary values under `=!`.
    if (v.is_null()) return Status::OK();
    TypeId want =
        table_->def().schema().column(index.key_columns()[i]).type;
    std::optional<Value> coerced = CoerceProbe(v, want);
    if (!coerced.has_value()) return Status::OK();
    key_values.push_back(std::move(*coerced));
  }
  ctx->stats.index_probes++;
  std::optional<size_t> ordinal = index.Lookup(Row(std::move(key_values)));
  if (!ordinal.has_value()) return Status::OK();
  const Row& row = snapshot_->rows.at(*ordinal);
  if (residual_ != nullptr &&
      residual_->EvaluatePredicate(row, ctx->params) != Tribool::kTrue) {
    return Status::OK();
  }
  match_ = &row;
  return Status::OK();
}

Result<bool> IndexLookupOp::NextBatch(ExecContext*, RowBatch* out) {
  out->Reset();
  if (match_ == nullptr) return false;
  out->Borrow(match_, 1);
  match_ = nullptr;
  return true;
}

void IndexLookupOp::Close() { match_ = nullptr; }

// ---------------------------------------------------------------------------
// UniqueIndexJoinOp

UniqueIndexJoinOp::UniqueIndexJoinOp(OperatorPtr left,
                                     const Table* right_table,
                                     const Schema& right_schema,
                                     size_t key_index,
                                     std::vector<size_t> left_keys,
                                     ExprPtr right_filter, ExprPtr residual,
                                     std::string key_name)
    : Operator(Schema::Concat(left->schema(), right_schema)),
      left_(std::move(left)),
      right_table_(right_table),
      key_index_(key_index),
      left_keys_(std::move(left_keys)),
      right_filter_(std::move(right_filter)),
      residual_(std::move(residual)),
      key_name_(std::move(key_name)) {}

Status UniqueIndexJoinOp::Open(ExecContext* ctx) {
  snapshot_ = right_table_->Snapshot();
  const UniqueIndex& index = snapshot_->indexes.at(key_index_);
  key_types_.clear();
  for (size_t col : index.key_columns()) {
    key_types_.push_back(right_table_->def().schema().column(col).type);
  }
  left_batch_.Reset();
  left_pos_ = 0;
  return left_->Open(ctx);
}

Result<bool> UniqueIndexJoinOp::NextBatch(ExecContext* ctx, RowBatch* out) {
  out->Reset();
  const UniqueIndex& index = snapshot_->indexes.at(key_index_);
  while (out->size() < out->capacity()) {
    if (left_pos_ >= left_batch_.size()) {
      UNIQOPT_ASSIGN_OR_RETURN(bool more, left_->NextBatch(ctx, &left_batch_));
      if (!more) break;
      left_pos_ = 0;
    }
    const Row& left_row = left_batch_.row(left_pos_++);
    std::vector<Value> key_values;
    key_values.reserve(left_keys_.size());
    bool probeable = true;
    for (size_t i = 0; i < left_keys_.size(); ++i) {
      const Value& v = left_row[left_keys_[i]];
      if (v.is_null()) {
        probeable = false;  // SQL `=` join keys never match on NULL
        break;
      }
      std::optional<Value> coerced = CoerceProbe(v, key_types_[i]);
      if (!coerced.has_value()) {
        probeable = false;
        break;
      }
      key_values.push_back(std::move(*coerced));
    }
    if (!probeable) continue;
    ctx->stats.index_probes++;
    std::optional<size_t> ordinal = index.Lookup(Row(std::move(key_values)));
    if (!ordinal.has_value()) continue;
    const Row& right_row = snapshot_->rows.at(*ordinal);
    if (right_filter_ != nullptr &&
        right_filter_->EvaluatePredicate(right_row, ctx->params) !=
            Tribool::kTrue) {
      continue;
    }
    Row joined = Row::Concat(left_row, right_row);
    if (residual_ != nullptr &&
        residual_->EvaluatePredicate(joined, ctx->params) != Tribool::kTrue) {
      continue;
    }
    out->Append(std::move(joined));
  }
  return !out->empty();
}

void UniqueIndexJoinOp::Close() { left_->Close(); }

}  // namespace uniqopt
