// Differential oracle for the morsel-driven parallel + batch execution
// layer: every plan in the workload (corpus + generated queries) must
// produce the identical multiset of rows under
//   the naive reference interpreter  vs  serial  vs  dop=2  vs  dop=8,
// with the per-worker ExecStats merging to exact totals. Plus focused
// units for the morsel cursor, the mergeable aggregator, the shared
// hash-join build, EXPLAIN ANALYZE's Gather section, the plan-cache
// physical-options salt, and a TSan hammer mixing concurrent
// PrepareBatch with parallel executes.

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "exec/operators.h"
#include "exec/parallel.h"
#include "reference_interpreter.h"
#include "rewrite/rewriter.h"
#include "test_util.h"
#include "uniqopt/optimizer.h"
#include "workload/query_corpus.h"
#include "workload/random_query.h"
#include "workload/supplier_schema.h"

namespace uniqopt {
namespace {

/// Generic bindings for a bound query's host variables: a fixed value
/// per type, so parameterized corpus queries execute without per-query
/// fixtures.
std::vector<Value> DefaultParams(const std::vector<HostVariable>& vars) {
  std::vector<Value> params;
  params.reserve(vars.size());
  for (const HostVariable& v : vars) {
    switch (v.type) {
      case TypeId::kInteger:
        params.push_back(Value::Integer(1));
        break;
      case TypeId::kString:
        params.push_back(Value::String("S1"));
        break;
      case TypeId::kDouble:
        params.push_back(Value::Double(1.0));
        break;
      default:
        params.push_back(Value::Null(v.type));
        break;
    }
  }
  return params;
}

Result<std::vector<Row>> ExecBound(const BoundQuery& bound,
                                   const Database& db,
                                   const PhysicalOptions& physical,
                                   ExecStats* stats = nullptr) {
  ExecContext ctx;
  ctx.params = DefaultParams(bound.host_vars);
  UNIQOPT_ASSIGN_OR_RETURN(std::vector<Row> rows,
                           ExecutePlan(bound.plan, db, &ctx, physical));
  if (stats != nullptr) *stats = ctx.stats;
  return rows;
}

/// The same bound query evaluated by the naive reference interpreter.
Result<std::vector<Row>> Reference(const BoundQuery& bound,
                                   const Database& db) {
  return ReferenceInterpreter(db, DefaultParams(bound.host_vars))
      .Run(bound.plan);
}

class ParallelSweepTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    ASSERT_OK(CreateSupplierSchema(&db_));
    SupplierDataOptions data;
    data.num_suppliers = 30;
    data.parts_per_supplier = 5;
    data.num_agents = 15;
    data.null_fraction = 0.1;
    ASSERT_OK(PopulateSupplierDatabase(&db_, data));
  }

  std::vector<BoundQuery> Workload() {
    std::vector<BoundQuery> bound_queries;
    Binder binder(&db_.catalog());
    for (const CorpusQuery& q : DistinctQueryCorpus()) {
      auto bound = binder.BindSql(q.sql);
      EXPECT_TRUE(bound.ok()) << q.id;
      if (bound.ok()) bound_queries.push_back(std::move(*bound));
    }
    RandomQueryOptions qopts;
    qopts.seed = GetParam();
    qopts.always_distinct = false;
    qopts.group_by_probability = 0.2;
    RandomQueryGenerator gen(qopts);
    for (int i = 0; i < 80; ++i) {
      auto bound = binder.BindSql(gen.NextQuery());
      if (bound.ok()) bound_queries.push_back(std::move(*bound));
    }
    return bound_queries;
  }

  Database db_;
};

TEST_P(ParallelSweepTest, SerialBatchAndParallelAgree) {
  PhysicalOptions serial;
  serial.dop = 1;
  PhysicalOptions dop2;
  dop2.dop = 2;
  PhysicalOptions dop8;
  dop8.dop = 8;

  size_t plans = 0;
  for (const BoundQuery& bound : Workload()) {
    ASSERT_OK_AND_ASSIGN(std::vector<Row> reference, Reference(bound, db_));
    for (const PhysicalOptions& physical : {serial, dop2, dop8}) {
      ExecStats stats;
      ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                           ExecBound(bound, db_, physical, &stats));
      EXPECT_TRUE(MultisetEquals(reference, rows))
          << "dop=" << physical.dop << "\n"
          << bound.plan->ToString() << "reference rows:\n"
          << RowsToString(reference) << "variant rows:\n"
          << RowsToString(rows);
      EXPECT_EQ(stats.rows_output, rows.size()) << bound.plan->ToString();
    }
    ++plans;
  }
  // Three seed instantiations of >= 70 plans each give the >= 200-plan
  // differential floor.
  EXPECT_GE(plans, 70u);
}

TEST_P(ParallelSweepTest, RewrittenPlansAgreeUnderParallelExecution) {
  PhysicalOptions dop8;
  dop8.dop = 8;
  for (const BoundQuery& bound : Workload()) {
    ASSERT_OK_AND_ASSIGN(RewriteResult rewritten, RewritePlan(bound.plan));
    ASSERT_OK_AND_ASSIGN(std::vector<Row> reference, Reference(bound, db_));
    BoundQuery rebound = bound;
    rebound.plan = rewritten.plan;
    ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                         ExecBound(rebound, db_, dop8));
    EXPECT_TRUE(MultisetEquals(reference, rows))
        << bound.plan->ToString() << "rewritten:\n"
        << rewritten.plan->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelSweepTest,
                         ::testing::Values(11u, 22u, 33u));

TEST(MorselCursorTest, CoversEveryRowExactlyOnce) {
  MorselCursor cursor(10000, 256);
  std::vector<int> claimed(10000, 0);
  std::atomic<size_t> morsels{0};
  auto worker = [&] {
    size_t begin = 0;
    size_t end = 0;
    while (cursor.Claim(&begin, &end)) {
      morsels.fetch_add(1, std::memory_order_relaxed);
      for (size_t i = begin; i < end; ++i) ++claimed[i];
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < 7; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  for (size_t i = 0; i < claimed.size(); ++i) {
    ASSERT_EQ(claimed[i], 1) << "row " << i;
  }
  EXPECT_EQ(morsels.load(), (10000 + 255) / 256);
  size_t begin = 0;
  size_t end = 0;
  EXPECT_FALSE(cursor.Claim(&begin, &end));
}

TEST(GroupedAggregatorTest, PartitionedMergeMatchesSingleAccumulator) {
  Schema schema({Column{"", "G", TypeId::kInteger, /*nullable=*/true},
                 Column{"", "V", TypeId::kInteger, /*nullable=*/true}});
  std::vector<AggregateItem> aggs = {
      {AggFunc::kCountStar, 0, "COUNT(*)"},
      {AggFunc::kCount, 1, "COUNT(V)"},
      {AggFunc::kSum, 1, "SUM(V)"},
      {AggFunc::kAvg, 1, "AVG(V)"},
      {AggFunc::kMin, 1, "MIN(V)"},
      {AggFunc::kMax, 1, "MAX(V)"},
  };
  // NULL group keys and NULL values exercise the `=!` grouping and the
  // NULL-skipping aggregate semantics across the merge.
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) {
    Value g = i % 7 == 0 ? Value::Null(TypeId::kInteger)
                         : Value::Integer(i % 5);
    Value v = i % 11 == 0 ? Value::Null(TypeId::kInteger)
                          : Value::Integer(i - 100);
    rows.push_back(Row({g, v}));
  }

  ExecStats stats;
  GroupedAggregator whole(schema, {0}, aggs);
  for (const Row& r : rows) whole.Accumulate(r, &stats);

  GroupedAggregator merged(schema, {0}, aggs);
  for (size_t part = 0; part < 4; ++part) {
    GroupedAggregator partial(schema, {0}, aggs);
    for (size_t i = part; i < rows.size(); i += 4) {
      partial.Accumulate(rows[i], &stats);
    }
    merged.MergeFrom(partial);
  }

  EXPECT_TRUE(MultisetEquals(whole.Finalize(), merged.Finalize()));
}

TEST(GroupedAggregatorTest, ScalarAggregateOverEmptyMergeYieldsOneRow) {
  Schema schema({Column{"", "V", TypeId::kInteger, /*nullable=*/true}});
  std::vector<AggregateItem> aggs = {{AggFunc::kCountStar, 0, "COUNT(*)"},
                                     {AggFunc::kMax, 0, "MAX(V)"}};
  GroupedAggregator a(schema, {}, aggs);
  GroupedAggregator b(schema, {}, aggs);
  a.MergeFrom(b);
  std::vector<Row> out = a.Finalize();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0][0].NullSafeEquals(Value::Integer(0)));
  EXPECT_TRUE(out[0][1].is_null());
}

class ParallelExecTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_OK(MakeTestSupplierDatabase(&db_)); }

  Database db_;
};

TEST_F(ParallelExecTest, SharedBuildJoinMatchesSerialHashJoin) {
  Binder binder(&db_.catalog());
  ASSERT_OK_AND_ASSIGN(
      BoundQuery bound,
      binder.BindSql("SELECT S.SNO, S.SNAME, P.PNO FROM SUPPLIER S, "
                     "PARTS P WHERE S.SNO = P.SNO AND P.PNO > 2"));
  PhysicalOptions serial;
  ExecStats serial_stats;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> reference,
                       ExecBound(bound, db_, serial, &serial_stats));
  PhysicalOptions dop4;
  dop4.dop = 4;
  ExecStats parallel_stats;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                       ExecBound(bound, db_, dop4, &parallel_stats));
  EXPECT_TRUE(MultisetEquals(reference, rows));
  // The shared build drains the build side exactly once: build-row and
  // probe totals merged across workers equal the serial run's.
  EXPECT_EQ(parallel_stats.hash_build_rows, serial_stats.hash_build_rows);
  EXPECT_EQ(parallel_stats.hash_probes, serial_stats.hash_probes);
  EXPECT_GT(parallel_stats.morsels_claimed, 0u);
}

TEST_F(ParallelExecTest, SharedBuildExistsMatchesSerialHashSemiJoin) {
  // The EXISTS twin: the workers share one inner build instead of each
  // draining the whole inner side, for semi and anti joins alike.
  for (const char* exists : {"EXISTS", "NOT EXISTS"}) {
    Binder binder(&db_.catalog());
    ASSERT_OK_AND_ASSIGN(
        BoundQuery bound,
        binder.BindSql(std::string("SELECT S.SNO, S.SNAME FROM SUPPLIER S "
                                   "WHERE ") +
                       exists +
                       " (SELECT * FROM PARTS P WHERE P.SNO = S.SNO "
                       "AND P.PNO > 2)"));
    PhysicalOptions serial;
    ExecStats serial_stats;
    ASSERT_OK_AND_ASSIGN(std::vector<Row> reference,
                         ExecBound(bound, db_, serial, &serial_stats));
    PhysicalOptions dop4;
    dop4.dop = 4;
    ExecStats parallel_stats;
    ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                         ExecBound(bound, db_, dop4, &parallel_stats));
    EXPECT_TRUE(MultisetEquals(reference, rows)) << exists;
    EXPECT_GT(serial_stats.hash_build_rows, 0u) << exists;
    EXPECT_EQ(parallel_stats.hash_build_rows, serial_stats.hash_build_rows)
        << exists;
    EXPECT_EQ(parallel_stats.hash_probes, serial_stats.hash_probes)
        << exists;
    EXPECT_GT(parallel_stats.morsels_claimed, 0u) << exists;
  }
}

TEST_F(ParallelExecTest, PaperExamplesDop8MergedStatsNonZero) {
  Optimizer optimizer(&db_);
  PhysicalOptions dop8;
  dop8.dop = 8;
  size_t executed = 0;
  size_t parallel_plans = 0;
  for (const CorpusQuery& q : DistinctQueryCorpus()) {
    auto prepared = optimizer.Prepare(q.sql);
    ASSERT_TRUE(prepared.ok()) << q.id;
    if (prepared->verified) {
      EXPECT_TRUE(prepared->verification.violations.empty()) << q.id;
    }
    std::vector<std::pair<std::string, Value>> params;
    for (const HostVariable& v : prepared->host_vars) {
      params.emplace_back(v.name, v.type == TypeId::kString
                                      ? Value::String("S1")
                                      : Value::Integer(1));
    }
    ExecStats stats;
    auto rows = optimizer.Execute(*prepared, params, dop8, &stats);
    ASSERT_TRUE(rows.ok()) << q.id << ": " << rows.status().ToString();
    EXPECT_GT(stats.rows_scanned, 0u) << q.id;
    if (stats.morsels_claimed > 0) ++parallel_plans;
    ++executed;
  }
  EXPECT_GE(executed, 11u);
  // At least some corpus shapes must actually engage the morsel path
  // (the rest legitimately fall back to serial).
  EXPECT_GT(parallel_plans, 0u);
}

TEST_F(ParallelExecTest, ExplainAnalyzeRendersGatherSection) {
  Optimizer optimizer(&db_);
  ASSERT_OK_AND_ASSIGN(
      PreparedQuery prepared,
      optimizer.Prepare("SELECT S.SNO, P.PNO FROM SUPPLIER S, PARTS P "
                        "WHERE S.SNO = P.SNO"));
  PhysicalOptions dop8;
  dop8.dop = 8;
  ASSERT_OK_AND_ASSIGN(std::string report,
                       optimizer.ExplainAnalyze(prepared, {}, dop8));
  EXPECT_NE(report.find("Gather  dop=8"), std::string::npos) << report;
  EXPECT_NE(report.find("worker 0:"), std::string::npos) << report;
  EXPECT_NE(report.find("morsels="), std::string::npos) << report;
  EXPECT_NE(report.find("exec.morsels"), std::string::npos) << report;
}

TEST_F(ParallelExecTest, CacheSaltSeparatesPhysicalDefaults) {
  Optimizer optimizer(&db_);
  const std::string sql =
      "SELECT SNO FROM SUPPLIER WHERE SCITY = 'Toronto'";
  bool hit = false;
  ASSERT_OK(optimizer.PrepareShared(sql, &hit).status());
  ASSERT_OK(optimizer.PrepareShared(sql, &hit).status());
  EXPECT_TRUE(hit);

  PhysicalOptions dop8;
  dop8.dop = 8;
  optimizer.set_default_physical(dop8);
  ASSERT_OK(optimizer.PrepareShared(sql, &hit).status());
  EXPECT_FALSE(hit) << "dop change must not be served from dop=1 entries";
  ASSERT_OK(optimizer.PrepareShared(sql, &hit).status());
  EXPECT_TRUE(hit);

  PhysicalOptions scans = dop8;
  scans.use_indexes = false;
  optimizer.set_default_physical(scans);
  ASSERT_OK(optimizer.PrepareShared(sql, &hit).status());
  EXPECT_FALSE(hit) << "index-use change must re-key the entry";
}

TEST_F(ParallelExecTest, SerialFallbackForUnsupportedShapes) {
  Binder binder(&db_.catalog());
  // INTERSECT has no driving scan (two inputs, breaker at the root):
  // dop > 1 must fall back to the serial executor, not fail.
  ASSERT_OK_AND_ASSIGN(
      BoundQuery bound,
      binder.BindSql("SELECT SNO FROM SUPPLIER INTERSECT "
                     "SELECT SNO FROM AGENTS"));
  PhysicalOptions serial;
  ExecStats serial_stats;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> reference,
                       ExecBound(bound, db_, serial, &serial_stats));
  PhysicalOptions dop8;
  dop8.dop = 8;
  ExecStats stats;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                       ExecBound(bound, db_, dop8, &stats));
  EXPECT_TRUE(MultisetEquals(reference, rows));
  EXPECT_EQ(stats.morsels_claimed, 0u);
  EXPECT_EQ(stats.ToString(), serial_stats.ToString());
}

// TSan hammer: concurrent PrepareBatch (cost model on, so the per-
// version column statistics are filled and read from many threads)
// interleaved with parallel executes on a second optimizer.
TEST_F(ParallelExecTest, ConcurrentPrepareAndParallelExecuteHammer) {
  Optimizer costed(&db_, RewriteOptions{}, /*use_cost_model=*/true);
  costed.set_verify_plans(false);
  Optimizer plain(&db_);
  plain.set_verify_plans(false);
  std::vector<std::string> sqls;
  for (const CorpusQuery& q : DistinctQueryCorpus()) sqls.push_back(q.sql);

  std::atomic<bool> failed{false};
  auto prepare_worker = [&] {
    for (int round = 0; round < 3 && !failed.load(); ++round) {
      auto batch = costed.PrepareBatch(sqls, 4);
      if (!batch.ok()) failed.store(true);
    }
  };
  auto execute_worker = [&] {
    PhysicalOptions dop4;
    dop4.dop = 4;
    for (int round = 0; round < 6 && !failed.load(); ++round) {
      auto prepared = plain.Prepare(
          "SELECT S.SNO, P.PNO FROM SUPPLIER S, PARTS P "
          "WHERE S.SNO = P.SNO");
      if (!prepared.ok() ||
          !plain.Execute(*prepared, {}, dop4).ok()) {
        failed.store(true);
      }
    }
  };
  std::vector<std::thread> pool;
  pool.emplace_back(prepare_worker);
  pool.emplace_back(prepare_worker);
  pool.emplace_back(execute_worker);
  execute_worker();
  for (std::thread& t : pool) t.join();
  EXPECT_FALSE(failed.load());
}

}  // namespace
}  // namespace uniqopt
