// Morsel-driven parallel + batch execution layer, measured end to end:
//
//   scan→filter→aggregate over a 100k-row SUPPLIER table, executed
//   serially (dop 1) and morsel-parallel at dop 2/4/8;
//
//   join + DISTINCT vs join with DISTINCT eliminated (the paper's
//   headline rewrite), serial and at dop 8 — elimination removes the
//   gather-side dedup barrier entirely.
//
// Histograms (scripts/bench_compare.py --exec-scaling reports each as a
// ratio over its dop-1 counterpart):
//   bench.exec.batch.ns      dop 1
//   bench.exec.dop2.ns       dop 2
//   bench.exec.dop4.ns       dop 4
//   bench.exec.parallel.ns   dop 8
//   bench.exec.join_distinct.ns / join_eliminated.ns (serial)
//   bench.exec.join_distinct_dop8.ns / join_eliminated_dop8.ns

#include "bench_util.h"

namespace uniqopt {
namespace bench {
namespace {

constexpr size_t kSuppliers = 100000;
constexpr size_t kPartsPerSupplier = 1;

// Range-predicate scan, the classic vectorization-friendly shape: scans
// borrow storage slices and the compiled PredicateProgram runs inline
// integer loops over each selection vector.
const char* kScanFilterAggSql =
    "SELECT COUNT(*), MIN(SNO) FROM SUPPLIER "
    "WHERE SNO >= 10000 AND SNO < 50000";

PhysicalOptions MakePhysical(unsigned dop) {
  PhysicalOptions physical;
  physical.dop = dop;
  return physical;
}

void RunScanFilterAgg(::benchmark::State& state, const char* series,
                      unsigned dop) {
  const Database& db = GetSupplierDb(kSuppliers, kPartsPerSupplier);
  PlanPtr plan = MustBind(db, kScanFilterAggSql);
  PhysicalOptions physical = MakePhysical(dop);
  obs::Histogram& latency =
      obs::MetricsRegistry::Global().GetHistogram(series);
  size_t rows = 0;
  for (auto _ : state) {
    obs::ScopedLatencyTimer timer(&latency);
    rows += MustExecute(plan, db, physical);
  }
  state.counters["rows"] = static_cast<double>(rows);
}

void BM_ScanFilterAgg_Batch(::benchmark::State& state) {
  RunScanFilterAgg(state, "bench.exec.batch.ns", /*dop=*/1);
}
BENCHMARK(BM_ScanFilterAgg_Batch);

void BM_ScanFilterAgg_Dop2(::benchmark::State& state) {
  RunScanFilterAgg(state, "bench.exec.dop2.ns", /*dop=*/2);
}
BENCHMARK(BM_ScanFilterAgg_Dop2);

void BM_ScanFilterAgg_Dop4(::benchmark::State& state) {
  RunScanFilterAgg(state, "bench.exec.dop4.ns", /*dop=*/4);
}
BENCHMARK(BM_ScanFilterAgg_Dop4);

void BM_ScanFilterAgg_Dop8(::benchmark::State& state) {
  RunScanFilterAgg(state, "bench.exec.parallel.ns", /*dop=*/8);
}
BENCHMARK(BM_ScanFilterAgg_Dop8);

// Join + DISTINCT vs the DISTINCT-eliminated rewrite. SNO ⊕ PNO covers
// the PARTS key, so Theorem 1 removes the DISTINCT; what the parallel
// layer gains is structural: the eliminated plan is a pure pipeline
// (concat merge), while the DISTINCT plan pays a dedup barrier at the
// gather point.
const char* kJoinDistinctSql =
    "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P "
    "WHERE S.SNO = P.SNO AND P.PNO < 40000";

void RunJoin(::benchmark::State& state, const char* series, bool eliminate,
             unsigned dop) {
  const Database& db = GetSupplierDb(kSuppliers, kPartsPerSupplier);
  PlanPtr plan = MustBind(db, kJoinDistinctSql);
  if (eliminate) plan = MustRewrite(plan);
  PhysicalOptions physical = MakePhysical(dop);
  obs::Histogram& latency =
      obs::MetricsRegistry::Global().GetHistogram(series);
  size_t rows = 0;
  for (auto _ : state) {
    obs::ScopedLatencyTimer timer(&latency);
    rows += MustExecute(plan, db, physical);
  }
  state.counters["rows"] = static_cast<double>(rows);
}

void BM_JoinDistinct_Serial(::benchmark::State& state) {
  RunJoin(state, "bench.exec.join_distinct.ns", /*eliminate=*/false,
          /*dop=*/1);
}
BENCHMARK(BM_JoinDistinct_Serial);

void BM_JoinEliminated_Serial(::benchmark::State& state) {
  RunJoin(state, "bench.exec.join_eliminated.ns", /*eliminate=*/true,
          /*dop=*/1);
}
BENCHMARK(BM_JoinEliminated_Serial);

void BM_JoinDistinct_Dop8(::benchmark::State& state) {
  RunJoin(state, "bench.exec.join_distinct_dop8.ns", /*eliminate=*/false,
          /*dop=*/8);
}
BENCHMARK(BM_JoinDistinct_Dop8);

void BM_JoinEliminated_Dop8(::benchmark::State& state) {
  RunJoin(state, "bench.exec.join_eliminated_dop8.ns", /*eliminate=*/true,
          /*dop=*/8);
}
BENCHMARK(BM_JoinEliminated_Dop8);

}  // namespace
}  // namespace bench
}  // namespace uniqopt

UNIQOPT_BENCH_MAIN();
