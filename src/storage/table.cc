#include "storage/table.h"

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>

#include "common/string_util.h"
#include "obs/advisor.h"
#include "obs/metrics.h"
#include "parser/ast.h"
#include "parser/parser.h"
#include "plan/binder.h"

namespace uniqopt {

namespace {

/// Hash/equality for single values under `=!`.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const {
    return a.NullSafeEquals(b);
  }
};

}  // namespace

std::optional<size_t> ColumnStats::FindDistinct(size_t column) const {
  std::lock_guard<std::mutex> lock(mu_);
  return column < ndv_.size() ? ndv_[column] : std::nullopt;
}

void ColumnStats::StoreDistinct(size_t column, size_t ndv) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (column >= ndv_.size()) ndv_.resize(column + 1);
  ndv_[column] = ndv;
  filled_.store(true, std::memory_order_release);
}

void ColumnStats::Reset() {
  if (!filled_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(mu_);
  ndv_.clear();
  filled_.store(false, std::memory_order_release);
}

size_t TableVersion::DistinctCount(size_t column) const {
  if (std::optional<size_t> cached = stats.FindDistinct(column)) {
    return *cached;
  }
  static obs::Counter& scans =
      obs::MetricsRegistry::Global().GetCounter("cost.ndv.scans");
  static obs::Counter& key_shortcuts =
      obs::MetricsRegistry::Global().GetCounter("cost.ndv.key_shortcuts");
  // Computed outside the lock: a racing reader of the same column
  // computes the same exact count.
  const bool single_column_key = std::any_of(
      indexes.begin(), indexes.end(), [column](const UniqueIndex& index) {
        return index.key_columns().size() == 1 &&
               index.key_columns()[0] == column;
      });
  size_t ndv = 0;
  if (single_column_key) {
    key_shortcuts.Increment();
    ndv = rows.size();
  } else {
    scans.Increment();
    std::unordered_set<Value, ValueHash, ValueEq> values;
    for (const Row& row : rows) values.insert(row[column]);
    ndv = values.size();
  }
  stats.StoreDistinct(column, ndv);
  return ndv;
}

std::shared_ptr<TableVersion> Table::NewVersion(const TableDef* def) {
  auto version = std::make_shared<TableVersion>();
  version->indexes.reserve(def->keys().size());
  for (const KeyConstraint& key : def->keys()) {
    version->indexes.emplace_back(key.columns);
  }
  return version;
}

TableSnapshot Table::Snapshot() const {
  std::lock_guard<std::mutex> lock(version_mu_);
  return version_;
}

void Table::CommitVersion(std::shared_ptr<TableVersion> next) {
  std::lock_guard<std::mutex> lock(version_mu_);
  version_ = std::move(next);
}

Status Table::Validate(const Row& row) const {
  const Schema& schema = def_->schema();
  if (row.size() != schema.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match table " +
        def_->name() + " arity " + std::to_string(schema.num_columns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Column& col = schema.column(i);
    const Value& v = row[i];
    if (v.is_null()) {
      if (!col.nullable) {
        return Status::ConstraintViolation("NULL in NOT NULL column " +
                                           col.name + " of " + def_->name());
      }
      continue;
    }
    if (!Value::Comparable(v.type(), col.type)) {
      return Status::TypeMismatch("value " + v.ToString() +
                                  " incompatible with column " + col.name +
                                  " of type " + TypeIdToString(col.type));
    }
  }
  // CHECK constraints are true-interpreted: only FALSE rejects.
  static const std::vector<Value> kNoParams;
  for (const CheckConstraint& check : def_->checks()) {
    Tribool t = check.predicate->EvaluatePredicate(row, kNoParams);
    if (t == Tribool::kFalse) {
      return Status::ConstraintViolation(
          "row " + row.ToString() + " violates CHECK (" +
          (check.sql_text.empty() ? check.predicate->ToString()
                                  : check.sql_text) +
          ") on " + def_->name());
    }
  }
  return Status::OK();
}

bool Table::ContainsKeyValue(size_t key_index, const Row& key_row) const {
  TableSnapshot snap = Snapshot();
  if (key_index >= snap->indexes.size()) return false;
  return snap->indexes[key_index].Contains(key_row);
}

Status Table::ValidateForeignKeys(const Row& row) const {
  if (database_ == nullptr) return Status::OK();
  for (const ForeignKeyConstraint& fk : def_->foreign_keys()) {
    // MATCH SIMPLE: a NULL in any referencing column exempts the row.
    bool any_null = false;
    for (size_t c : fk.columns) any_null = any_null || row[c].is_null();
    if (any_null) continue;

    UNIQOPT_ASSIGN_OR_RETURN(const Table* parent,
                             database_->GetTable(fk.ref_table));
    // Locate the referenced candidate key and its index.
    std::vector<size_t> ref_ordinals;
    for (const std::string& rc : fk.ref_columns) {
      UNIQOPT_ASSIGN_OR_RETURN(size_t ord, parent->def().ColumnOrdinal(rc));
      ref_ordinals.push_back(ord);
    }
    std::optional<size_t> key_index;
    const std::vector<KeyConstraint>& parent_keys = parent->def().keys();
    for (size_t k = 0; k < parent_keys.size(); ++k) {
      std::vector<size_t> a = parent_keys[k].columns;
      std::vector<size_t> b = ref_ordinals;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      if (a == b) {
        key_index = k;
        break;
      }
    }
    if (!key_index.has_value()) {
      return Status::Internal("foreign key " + fk.name +
                              " does not match a key of " + fk.ref_table);
    }
    // Build the probe row in the parent key's column order.
    std::vector<Value> probe;
    for (size_t parent_col : parent_keys[*key_index].columns) {
      size_t j = 0;
      while (ref_ordinals[j] != parent_col) ++j;
      probe.push_back(row[fk.columns[j]]);
    }
    if (!parent->ContainsKeyValue(*key_index, Row(std::move(probe)))) {
      return Status::ConstraintViolation(
          "row " + row.ToString() + " violates " + fk.name +
          ": no matching row in " + fk.ref_table);
    }
  }
  return Status::OK();
}

Status Table::Insert(Row row) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  UNIQOPT_RETURN_NOT_OK(Validate(row));
  UNIQOPT_RETURN_NOT_OK(ValidateForeignKeys(row));
  std::lock_guard<std::mutex> vlock(version_mu_);
  // Probe every index before touching any — a multi-key violation must
  // leave the version untouched.
  for (size_t k = 0; k < version_->indexes.size(); ++k) {
    Row key_row = row.Project(version_->indexes[k].key_columns());
    if (version_->indexes[k].Contains(key_row)) {
      return Status::ConstraintViolation(
          "duplicate key " + key_row.ToString() + " for " +
          def_->keys()[k].name + " on " + def_->name());
    }
  }
  // use_count()==1 means nobody holds a pinned snapshot (new pins are
  // blocked while we hold version_mu_), so bulk loads append in place;
  // otherwise copy-on-write keeps every pinned reader consistent.
  std::shared_ptr<TableVersion> target = version_;
  if (version_.use_count() > 2) {  // version_ + target
    target = std::make_shared<TableVersion>(*version_);
  } else {
    target->stats.Reset();  // the rows change under the filled counts
  }
  const size_t ordinal = target->rows.size();
  for (size_t k = 0; k < target->indexes.size(); ++k) {
    UNIQOPT_RETURN_NOT_OK(target->indexes[k].Insert(
        row, ordinal, def_->keys()[k].name, def_->name()));
  }
  target->rows.push_back(std::move(row));
  version_ = std::move(target);
  return Status::OK();
}

void Table::Clear() {
  std::lock_guard<std::mutex> writer(writer_mu_);
  std::lock_guard<std::mutex> vlock(version_mu_);
  version_ = NewVersion(def_);
}

Status Database::CreateTable(TableDef def) {
  UNIQOPT_RETURN_NOT_OK(catalog_.AddTable(std::move(def)));
  // The catalog owns the definition; point the instance at it.
  const std::string name = catalog_.TableNames().back();
  UNIQOPT_ASSIGN_OR_RETURN(const TableDef* stored, catalog_.GetTable(name));
  tables_.push_back(std::make_unique<Table>(stored));
  tables_.back()->SetDatabase(this);
  return Status::OK();
}

Status Database::DropTable(const std::string& name) {
  std::string key = ToUpperAscii(name);
  // Drop the instance before the definition: the Table points into the
  // catalog-owned TableDef.
  bool found = false;
  for (auto it = tables_.begin(); it != tables_.end(); ++it) {
    if ((*it)->def().name() == key) {
      tables_.erase(it);
      found = true;
      break;
    }
  }
  Status st = catalog_.DropTable(name);
  if (!found && st.ok()) {
    return Status::Internal("table instance missing for " + name);
  }
  if (st.ok()) {
    // Stale suggestions for a dropped table would otherwise survive and
    // `\advisor replay`/`adopt` would reference a missing table.
    obs::AdvisorStore::Global().PurgeTable(key);
  }
  return st;
}

Result<size_t> Database::CreateUniqueIndex(
    const std::string& table_name, const std::string& index_name,
    const std::vector<std::string>& columns) {
  UNIQOPT_ASSIGN_OR_RETURN(Table* table, GetTable(table_name));
  std::lock_guard<std::mutex> writer(table->writer_mutex());
  UNIQOPT_ASSIGN_OR_RETURN(TableDef* def,
                           catalog_.GetTableMutable(table_name));
  std::vector<size_t> ordinals;
  for (const std::string& cn : columns) {
    UNIQOPT_ASSIGN_OR_RETURN(size_t ord, def->ColumnOrdinal(cn));
    ordinals.push_back(ord);
  }
  // Validate existing rows before declaring anything: a duplicate under
  // `=!` means the data cannot support the key, and the statement must
  // leave both catalog and table untouched.
  TableSnapshot snap = table->Snapshot();
  UNIQOPT_ASSIGN_OR_RETURN(
      UniqueIndex index,
      UniqueIndex::Build(snap->rows, ordinals, index_name, def->name()));
  UNIQOPT_RETURN_NOT_OK(def->AddNamedUniqueKey(index_name, columns));
  auto next = std::make_shared<TableVersion>(*snap);
  next->indexes.push_back(std::move(index));
  table->CommitVersion(std::move(next));
  catalog_.BumpVersion();
  return snap->rows.size();
}

Status Database::ExecuteDdl(std::string_view sql) {
  UNIQOPT_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatement(sql));
  if (stmt->create_table != nullptr) {
    UNIQOPT_ASSIGN_OR_RETURN(TableDef def,
                             BuildTableDef(*stmt->create_table));
    return CreateTable(std::move(def));
  }
  if (stmt->drop_table != nullptr) {
    return DropTable(stmt->drop_table->table_name);
  }
  if (stmt->create_index != nullptr) {
    return CreateUniqueIndex(stmt->create_index->table_name,
                             stmt->create_index->index_name,
                             stmt->create_index->columns)
        .status();
  }
  return Status::InvalidArgument(
      "expected a CREATE TABLE, DROP TABLE, or CREATE UNIQUE INDEX "
      "statement");
}

Result<Table*> Database::GetTable(const std::string& name) {
  std::string key = ToUpperAscii(name);
  for (auto& t : tables_) {
    if (t->def().name() == key) return t.get();
  }
  return Status::NotFound("table not found: " + name);
}

Result<const Table*> Database::GetTable(const std::string& name) const {
  std::string key = ToUpperAscii(name);
  for (const auto& t : tables_) {
    if (t->def().name() == key) return t.get();
  }
  return Status::NotFound("table not found: " + name);
}

}  // namespace uniqopt
