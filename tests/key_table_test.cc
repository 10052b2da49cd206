// KeyTable, the executor's one hash table, on its own (forced hash
// collisions, growth through several doublings, duplicate build keys)
// and through every hash operator built on it, compared against the
// naive reference interpreter: NULL join keys never match under `=`,
// NULL =! NULL in DISTINCT, GROUP BY and the set operations, and
// INTEGER/DOUBLE keys match exactly as Value::Compare says. Each query
// runs serially with hash strategies and at dop 4 (shared join builds,
// the parallel DISTINCT merge and the pre-aggregation merge).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/key_table.h"
#include "exec/parallel.h"
#include "exec/planner.h"
#include "reference_interpreter.h"
#include "test_util.h"

namespace uniqopt {
namespace {

Row IntRow(int64_t key, int64_t payload) {
  return Row({Value::Integer(key), Value::Integer(payload)});
}

const std::vector<size_t> kKey = {0};

TEST(KeyTableTest, OneForcedHashFindsEveryTrueMatchAndNoFalseOne) {
  // Every entry lands on one hash, so lookups can tell keys apart only
  // by comparing them.
  constexpr uint64_t kHash = 42;
  KeyTable table(kKey);
  for (int64_t k = 0; k < 300; ++k) {
    auto [ordinal, inserted] =
        table.FindOrInsert(kHash, IntRow(k, 0), kKey, [&] {
          return IntRow(k, k * 10);
        });
    EXPECT_TRUE(inserted);
    EXPECT_EQ(ordinal, static_cast<uint32_t>(k));
  }
  for (int64_t k = 0; k < 300; ++k) {
    uint32_t m = table.Find(kHash, IntRow(k, -1), kKey);
    ASSERT_NE(m, KeyTable::kNone) << k;
    EXPECT_EQ(table.row(m)[1].AsInteger(), k * 10);
    EXPECT_EQ(table.Next(m), KeyTable::kNone);
    auto again = table.FindOrInsert(kHash, IntRow(k, -1), kKey,
                                    [&] { return IntRow(k, -1); });
    EXPECT_FALSE(again.second);
    EXPECT_EQ(again.first, m);
  }
  EXPECT_EQ(table.Find(kHash, IntRow(300, 0), kKey), KeyTable::kNone);
  EXPECT_EQ(table.Find(kHash, Row({Value::Null(TypeId::kInteger)}), kKey),
            KeyTable::kNone);
  EXPECT_EQ(table.size(), 300u);

  // The same through the multimap build.
  std::vector<Row> rows;
  for (int64_t k = 0; k < 300; ++k) rows.push_back(IntRow(k % 100, k));
  KeyTable multi(kKey);
  multi.Build(rows, std::vector<uint64_t>(rows.size(), kHash));
  for (int64_t k = 0; k < 100; ++k) {
    std::vector<int64_t> payloads;
    for (uint32_t m = multi.Find(kHash, IntRow(k, 0), kKey);
         m != KeyTable::kNone; m = multi.Next(m)) {
      EXPECT_EQ(multi.row(m)[0].AsInteger(), k);
      payloads.push_back(multi.row(m)[1].AsInteger());
    }
    EXPECT_EQ(payloads, (std::vector<int64_t>{k, k + 100, k + 200})) << k;
  }
  EXPECT_EQ(multi.Find(kHash, IntRow(100, 0), kKey), KeyTable::kNone);
}

TEST(KeyTableTest, GrowsFromEmptyThroughSeveralDoublings) {
  KeyTable table(kKey);
  EXPECT_EQ(table.Find(KeyTable::HashKey(IntRow(1, 0), kKey), IntRow(1, 0),
                       kKey),
            KeyTable::kNone);
  // 16 initial slots, at most half full: 20000 keys double it 11 times.
  constexpr int64_t kKeys = 20000;
  for (int64_t k = 0; k < kKeys; ++k) {
    const Row row = IntRow(k * 1024, k);  // low bits alike before mixing
    auto [ordinal, inserted] = table.FindOrInsert(
        KeyTable::HashKey(row, kKey), row, kKey, [&] { return row; });
    ASSERT_TRUE(inserted) << k;
    ASSERT_EQ(ordinal, static_cast<uint32_t>(k));
  }
  EXPECT_EQ(table.size(), static_cast<size_t>(kKeys));
  size_t keys = 0;
  table.ForEachKey([&](uint64_t hash, uint32_t ordinal) {
    EXPECT_EQ(hash, KeyTable::HashKey(table.row(ordinal), kKey));
    ++keys;
  });
  EXPECT_EQ(keys, static_cast<size_t>(kKeys));
  for (int64_t k = 0; k < kKeys; ++k) {
    const Row probe = IntRow(k * 1024, -1);
    uint32_t m = table.Find(KeyTable::HashKey(probe, kKey), probe, kKey);
    ASSERT_NE(m, KeyTable::kNone) << k;
    EXPECT_EQ(table.row(m)[1].AsInteger(), k);  // ordinals stay put
  }
  const Row absent = IntRow(3, 0);
  EXPECT_EQ(table.Find(KeyTable::HashKey(absent, kKey), absent, kKey),
            KeyTable::kNone);
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(KeyTable::HashKey(absent, kKey), absent, kKey),
            KeyTable::kNone);
}

TEST(KeyTableTest, DuplicateBuildKeysKeepMultimapSemantics) {
  // Key (K1, K2) on columns 1 and 2; column 0 tells the rows apart.
  const std::vector<size_t> key = {1, 2};
  std::vector<Row> rows;
  std::vector<uint64_t> hashes;
  for (int64_t i = 0; i < 1000; ++i) {
    rows.push_back(Row({Value::Integer(i), Value::Integer(i % 7),
                        Value::String(i % 2 == 0 ? "a" : "b")}));
    hashes.push_back(KeyTable::HashKey(rows.back(), key));
  }
  KeyTable table(key);
  table.Build(rows, hashes);
  EXPECT_EQ(table.size(), rows.size());
  size_t heads = 0;
  table.ForEachKey([&](uint64_t, uint32_t) { ++heads; });
  EXPECT_EQ(heads, 14u);
  // A probe row carries the key in other columns (probe_cols).
  const std::vector<size_t> probe_cols = {1, 0};
  for (int64_t k = 0; k < 7; ++k) {
    for (const char* s : {"a", "b"}) {
      const Row probe({Value::String(s), Value::Integer(k)});
      std::vector<int64_t> ids;
      for (uint32_t m = table.Find(KeyTable::HashKey(probe, probe_cols),
                                   probe, probe_cols);
           m != KeyTable::kNone; m = table.Next(m)) {
        ids.push_back(table.row(m)[0].AsInteger());
      }
      std::vector<int64_t> expected;
      for (int64_t i = 0; i < 1000; ++i) {
        if (i % 7 == k && (i % 2 == 0) == (std::string(s) == "a")) {
          expected.push_back(i);
        }
      }
      EXPECT_EQ(ids, expected) << k << s;  // every match, in build order
    }
  }
  const Row miss({Value::String("c"), Value::Integer(1)});
  EXPECT_EQ(table.Find(KeyTable::HashKey(miss, probe_cols), miss,
                       probe_cols),
            KeyTable::kNone);
}

TEST(KeyTableTest, KeysCompareUnderNullSafeEquality) {
  // NULL =! NULL, and INTEGER 1 =! DOUBLE 1.0 (but not 1.5).
  const Row int_one({Value::Integer(1)});
  const Row double_one({Value::Double(1.0)});
  const Row null_int({Value::Null(TypeId::kInteger)});
  const Row null_double({Value::Null(TypeId::kDouble)});
  EXPECT_EQ(KeyTable::HashKey(int_one, kKey),
            KeyTable::HashKey(double_one, kKey));
  EXPECT_EQ(KeyTable::HashKey(null_int, kKey),
            KeyTable::HashKey(null_double, kKey));
  EXPECT_TRUE(KeyTable::HasNull(null_int, kKey));
  EXPECT_FALSE(KeyTable::HasNull(int_one, kKey));

  KeyTable table(kKey);
  for (const Row& row : {int_one, null_int}) {
    table.FindOrInsert(KeyTable::HashKey(row, kKey), row, kKey,
                       [&] { return row; });
  }
  for (const Row& row : {double_one, null_double}) {
    auto [ordinal, inserted] = table.FindOrInsert(
        KeyTable::HashKey(row, kKey), row, kKey, [&] { return row; });
    EXPECT_FALSE(inserted) << row.ToString();
  }
  const Row one_and_a_half({Value::Double(1.5)});
  EXPECT_EQ(table.Find(KeyTable::HashKey(one_and_a_half, kKey),
                       one_and_a_half, kKey),
            KeyTable::kNone);
  EXPECT_EQ(table.size(), 2u);
}

/// The hash operators against the reference interpreter. L has 9000
/// rows, so its scan splits into three morsels at dop 4; R has 60.
/// K is a nullable INTEGER with duplicates; D is a nullable DOUBLE that
/// holds an integral value on some rows and a fraction on others.
class KeyTableOperatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.ExecuteDdl(
        "CREATE TABLE L (ID INTEGER NOT NULL, K INTEGER, D DOUBLE, "
        "PRIMARY KEY (ID))"));
    ASSERT_OK(db_.ExecuteDdl(
        "CREATE TABLE R (ID INTEGER NOT NULL, K INTEGER, D DOUBLE, "
        "PRIMARY KEY (ID))"));
    ASSERT_OK_AND_ASSIGN(Table * l, db_.GetTable("L"));
    ASSERT_OK_AND_ASSIGN(Table * r, db_.GetTable("R"));
    // (ID, K, D) with K NULL where `null_k` and D NULL where `null_d`.
    auto row = [](int64_t id, bool null_k, int64_t k, bool null_d,
                  double d) {
      std::vector<Value> values;
      values.push_back(Value::Integer(id));
      values.push_back(null_k ? Value::Null(TypeId::kInteger)
                              : Value::Integer(k));
      values.push_back(null_d ? Value::Null(TypeId::kDouble)
                              : Value::Double(d));
      return values;
    };
    for (int64_t i = 1; i <= 9000; ++i) {
      const int64_t k = i % 50;
      const double d = static_cast<double>(k) + (i % 4 == 0 ? 0.0 : 0.5);
      ASSERT_OK(l->InsertValues(row(i, i % 9 == 3, k, i % 9 == 4, d)));
    }
    for (int64_t i = 1; i <= 60; ++i) {
      const int64_t k = i % 25;
      ASSERT_OK(r->InsertValues(row(i, i % 7 == 2, k, i % 5 == 1,
                                    static_cast<double>(k))));
    }
  }

  /// Runs `sql` serially (hash join and hash DISTINCT, profiled) and at
  /// dop 4; both must equal the reference interpreter as multisets, and
  /// the serial plan must contain an operator named `op`. Returns the
  /// rows. At dop 4 the join build and probe counters equal serial.
  /// `below_projection` runs the plan under the root's final projection
  /// (a GROUP BY's Aggregate), which dop 4 pre-aggregates per worker.
  std::vector<Row> Check(const std::string& sql, const std::string& op,
                         bool below_projection = false) {
    Binder binder(&db_.catalog());
    auto bound = binder.BindSql(sql);
    EXPECT_TRUE(bound.ok()) << sql << ": " << bound.status().ToString();
    if (!bound.ok()) return {};
    PlanPtr plan = bound->plan;
    if (below_projection) plan = plan->child(0);
    auto reference = ReferenceInterpreter(db_, {}).Run(plan);
    EXPECT_TRUE(reference.ok()) << reference.status().ToString();
    if (!reference.ok()) return {};

    PhysicalOptions serial;
    serial.join = PhysicalOptions::JoinStrategy::kHash;
    serial.distinct = PhysicalOptions::DistinctStrategy::kHash;
    ExecContext serial_ctx;
    ExecProfile profile;
    auto rows = ExecutePlan(plan, db_, &serial_ctx, serial, &profile);
    EXPECT_TRUE(rows.ok()) << sql << ": " << rows.status().ToString();
    if (!rows.ok()) return {};
    EXPECT_TRUE(MultisetEquals(*reference, *rows))
        << sql << ": executor " << rows->size() << " rows, reference "
        << reference->size();
    bool found = false;
    for (const OpProfile& slot : profile.ops()) found |= slot.name == op;
    EXPECT_TRUE(found) << sql << " lowered without " << op << ":\n"
                       << profile.ToText();

    PhysicalOptions dop4 = serial;
    dop4.dop = 4;
    ExecContext parallel_ctx;
    auto parallel = ExecutePlan(plan, db_, &parallel_ctx, dop4);
    EXPECT_TRUE(parallel.ok()) << sql << ": "
                               << parallel.status().ToString();
    if (!parallel.ok()) return {};
    EXPECT_TRUE(MultisetEquals(*reference, *parallel))
        << sql << " at dop 4: executor " << parallel->size()
        << " rows, reference " << reference->size();
    // The morsel executor runs exactly the shapes it claims to.
    EXPECT_EQ(parallel_ctx.stats.morsels_claimed > 0,
              SupportsParallelExecution(plan))
        << sql;
    if (op == "HashJoin" || op == "HashSemiJoin" || op == "HashAntiJoin") {
      EXPECT_GT(parallel_ctx.stats.morsels_claimed, 1u) << sql;
      EXPECT_EQ(parallel_ctx.stats.hash_build_rows,
                serial_ctx.stats.hash_build_rows)
          << sql;
      EXPECT_EQ(parallel_ctx.stats.hash_probes, serial_ctx.stats.hash_probes)
          << sql;
    }
    return *reference;
  }

  Database db_;
};

TEST_F(KeyTableOperatorTest, NullJoinKeysNeverMatch) {
  std::vector<Row> inner = Check(
      "SELECT L.K, R.K FROM L, R WHERE L.K = R.K", "HashJoin");
  EXPECT_FALSE(inner.empty());
  for (const Row& row : inner) {
    EXPECT_FALSE(row[0].is_null() || row[1].is_null()) << row.ToString();
  }
  std::vector<Row> semi = Check(
      "SELECT L.ID, L.K FROM L WHERE EXISTS "
      "(SELECT * FROM R WHERE R.K = L.K)",
      "HashSemiJoin");
  EXPECT_FALSE(semi.empty());
  for (const Row& row : semi) EXPECT_FALSE(row[1].is_null());
  std::vector<Row> anti = Check(
      "SELECT L.ID, L.K FROM L WHERE NOT EXISTS "
      "(SELECT * FROM R WHERE R.K = L.K)",
      "HashAntiJoin");
  size_t null_keys = 0;
  for (const Row& row : anti) null_keys += row[1].is_null() ? 1 : 0;
  EXPECT_EQ(null_keys, 1000u);  // every NULL-keyed L row has no witness
  EXPECT_EQ(semi.size() + anti.size(), 9000u);
  // A residual on top of the keys.
  Check("SELECT L.ID, R.ID FROM L, R WHERE L.K = R.K AND L.ID > R.ID",
        "HashJoin");
  Check("SELECT L.ID FROM L WHERE NOT EXISTS "
        "(SELECT * FROM R WHERE R.K = L.K AND R.ID > 30)",
        "HashAntiJoin");
}

TEST_F(KeyTableOperatorTest, NullsAreEqualInDistinctGroupByAndSetOps) {
  std::vector<Row> distinct = Check("SELECT DISTINCT K FROM L", "HashDistinct");
  EXPECT_EQ(distinct.size(), 51u);  // 50 values and one NULL
  Check("SELECT DISTINCT K, D FROM L", "HashDistinct");
  for (bool below_projection : {false, true}) {
    std::vector<Row> groups =
        Check("SELECT K, COUNT(*), SUM(ID) FROM L GROUP BY K",
              "HashAggregate", below_projection);
    EXPECT_EQ(groups.size(), 51u);
    for (const Row& row : groups) {
      if (row[0].is_null()) {
        EXPECT_EQ(row[1].AsInteger(), 1000);
      }
    }
    Check("SELECT K, D, COUNT(*) FROM L GROUP BY K, D", "HashAggregate",
          below_projection);
  }
  // L holds 1000 NULL keys and R 9, which match each other under `=!`:
  // the NULL rows each mode keeps from L.
  const std::vector<std::pair<std::string, size_t>> modes = {
      {"INTERSECT", 1}, {"INTERSECT ALL", 9}, {"EXCEPT", 0},
      {"EXCEPT ALL", 991}};
  for (const auto& [mode, expected_nulls] : modes) {
    std::vector<Row> left_first =
        Check("SELECT K FROM L " + mode + " SELECT K FROM R", "SetOp");
    Check("SELECT K FROM R " + mode + " SELECT K FROM L", "SetOp");
    size_t nulls = 0;
    for (const Row& row : left_first) nulls += row[0].is_null() ? 1 : 0;
    EXPECT_EQ(nulls, expected_nulls) << mode;
  }
}

TEST_F(KeyTableOperatorTest, IntegerAndDoubleKeysMatchByValue) {
  // L.D is integral on every fourth row: those match R's INTEGER K.
  std::vector<Row> joined = Check(
      "SELECT L.ID, L.D, R.K FROM L, R WHERE L.D = R.K", "HashJoin");
  EXPECT_FALSE(joined.empty());
  for (const Row& row : joined) EXPECT_EQ(row[0].AsInteger() % 4, 0);
  Check("SELECT L.ID FROM L WHERE EXISTS (SELECT * FROM R WHERE R.K = L.D)",
        "HashSemiJoin");
  Check("SELECT L.ID FROM L WHERE NOT EXISTS "
        "(SELECT * FROM R WHERE R.D = L.K)",
        "HashAntiJoin");
  std::vector<Row> pairs = Check(
      "SELECT DISTINCT L.D, R.K FROM L, R WHERE L.D = R.K", "HashDistinct");
  // L's integral D values are even (0..48), R's K covers 0..24: one
  // pair per even value 0..24.
  EXPECT_EQ(pairs.size(), 13u);
  for (const char* op :
       {"INTERSECT", "INTERSECT ALL", "EXCEPT", "EXCEPT ALL"}) {
    Check(std::string("SELECT D FROM L ") + op + " SELECT K FROM R", "SetOp");
    Check(std::string("SELECT K FROM R ") + op + " SELECT D FROM L", "SetOp");
  }
}

}  // namespace
}  // namespace uniqopt
