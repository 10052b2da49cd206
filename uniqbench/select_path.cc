#include "select_path.h"

#include "analysis/uniqueness.h"
#include "common/string_util.h"
#include "equiv/equiv.h"
#include "exec/cost_model.h"
#include "exec/planner.h"
#include "obs/advisor.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "plan/binder.h"
#include "rewrite/rewriter.h"
#include "verify/verify.h"

namespace uniqbench {

using uniqopt::PhysicalOptions;
using uniqopt::PreparedQuery;
using uniqopt::Row;

namespace {

/// Runs of Algorithm 1 so far (the registry's `analysis.algorithm1.ns`
/// sample count; 0 before the first run registers it).
uint64_t Algorithm1Runs() {
  const uniqopt::obs::Histogram* h =
      uniqopt::obs::MetricsRegistry::Global().FindHistogram(
          "analysis.algorithm1.ns");
  return h == nullptr ? 0 : h->count();
}

}  // namespace

void CheckPrepared(const PreparedQuery& prepared, Tally* tally) {
  if (!prepared.verified) {
    tally->Fail("prepared without verification: " + prepared.sql);
  }
  if (!prepared.verification.violations.empty()) {
    tally->Fail("verifier violations for " + prepared.sql + "\n" +
                prepared.verification.ToString());
  }
  if (prepared.verification.equiv_refuted != 0) {
    tally->Fail("equivalence prover refuted a rewrite of " + prepared.sql);
  }
}

uniqopt::Result<std::vector<Row>> ExecuteBound(
    const uniqopt::Database& db, const uniqopt::PlanPtr& plan,
    const std::vector<uniqopt::HostVariable>& host_vars, const Params& params,
    const PhysicalOptions& physical, uniqopt::ExecStats* stats,
    uniqopt::ExecProfile* profile) {
  uniqopt::ExecContext ctx;
  ctx.params.resize(host_vars.size());
  for (size_t i = 0; i < host_vars.size(); ++i) {
    bool bound = false;
    for (const auto& [name, value] : params) {
      if (uniqopt::EqualsIgnoreCase(name, host_vars[i].name)) {
        ctx.params[i] = value;
        bound = true;
        break;
      }
    }
    if (!bound) {
      return uniqopt::Status::InvalidArgument("host variable not bound: :" +
                                              host_vars[i].name);
    }
  }
  auto rows = uniqopt::ExecutePlan(plan, db, &ctx, physical, profile);
  if (stats != nullptr) *stats = ctx.stats;
  return rows;
}

bool RunSelect(const uniqopt::Optimizer& optimizer, const std::string& sql,
               const Params& params, SelectResult* out, Tally* tally) {
  const uint64_t start = NowNs();
  auto prepared = optimizer.PrepareShared(sql, &out->cache_hit);
  const uint64_t prepared_at = NowNs();
  if (!prepared.ok()) {
    tally->Fail("prepare failed: " + prepared.status().ToString() + ": " +
                sql);
    return false;
  }
  auto rows = optimizer.Execute(**prepared, params);
  const uint64_t done = NowNs();
  if (!rows.ok()) {
    tally->Fail("execute failed: " + rows.status().ToString() + ": " + sql);
    return false;
  }
  out->prepare_ns = prepared_at - start;
  out->total_ns = done - start;
  out->prepared = std::move(*prepared);
  out->rows = std::move(*rows);
  CheckPrepared(*out->prepared, tally);
  return true;
}

bool ReplayPrepare(const uniqopt::Optimizer& optimizer, bool cost_model,
                   const std::string& sql, ReplayedPrepare* out,
                   Tally* tally, SpanLog* spans, uint64_t op,
                   uint64_t parent) {
  const uniqopt::Database* db = optimizer.database();
  uniqopt::QueryPtr query;
  {
    ScopedSpan span(spans, "parser.parse", op, parent);
    auto r = uniqopt::ParseQuery(sql);
    span.Close();
    if (!r.ok()) {
      tally->Fail("replay parse failed: " + r.status().ToString());
      return false;
    }
    query = std::move(*r);
  }
  uniqopt::BoundQuery bound;
  {
    ScopedSpan span(spans, "plan.bind", op, parent);
    uniqopt::Binder binder(&db->catalog());
    auto r = binder.Bind(*query);
    span.Close();
    if (!r.ok()) {
      tally->Fail("replay bind failed: " + r.status().ToString());
      return false;
    }
    bound = std::move(*r);
  }
  // PrepareUncached collects near-misses whenever the advisor listens.
  uniqopt::RewriteOptions options = optimizer.rewrite_options();
  if (optimizer.advise() && uniqopt::obs::AdvisorStore::Global().enabled()) {
    options.analysis.collect_near_misses = true;
  }
  uniqopt::UniquenessVerdict verdict;
  {
    ScopedSpan span(spans, "analysis.analyze", op, parent);
    verdict = uniqopt::AnalyzeDistinct(bound.plan, options.analysis);
  }
  uniqopt::RewriteResult rewritten;
  {
    ScopedSpan span(spans, "rewrite.rewrite", op, parent);
    auto r = uniqopt::RewritePlan(bound.plan, options);
    span.Close();
    if (!r.ok()) {
      tally->Fail("replay rewrite failed: " + r.status().ToString());
      return false;
    }
    rewritten = std::move(*r);
  }
  out->optimized = rewritten.plan;
  out->physical = PhysicalOptions{};
  out->alternatives.clear();
  if (cost_model) {
    ScopedSpan span(spans, "cost.choose", op, parent);
    uniqopt::CostEstimator estimator(db);
    out->alternatives = uniqopt::StandardAlternatives(
        bound.plan, rewritten.plan, optimizer.default_physical().dop);
    out->chosen = uniqopt::ChooseBestAlternative(estimator, &out->alternatives);
    out->optimized = out->alternatives[out->chosen].plan;
    out->physical = out->alternatives[out->chosen].physical;
  }
  if (optimizer.verify_plans()) {
    uniqopt::verify::VerifyInput input;
    input.original = bound.plan;
    input.optimized = out->optimized;
    input.rewrites = &rewritten.applied;
    input.analysis = &verdict;
    input.options = optimizer.rewrite_options().analysis;
    input.check_equiv = false;
    ScopedSpan span(spans, "verify.verify", op, parent);
    uniqopt::verify::VerifyReport report = uniqopt::verify::VerifyPlan(input);
    span.Close();
    if (!report.Clean()) {
      tally->Fail("replay verifier violations for " + sql + "\n" +
                  report.ToString());
    }
  }
  out->certified = 0;
  out->proven = 0;
  if (optimizer.verify_plans() && optimizer.check_equiv()) {
    for (const uniqopt::AppliedRewrite& rewrite : rewritten.applied) {
      ScopedSpan span(spans, "equiv.certify", op, parent);
      uniqopt::equiv::Certificate cert = uniqopt::equiv::CertifyRewrite(rewrite);
      span.Close();
      ++out->certified;
      if (cert.verdict == uniqopt::equiv::Verdict::kProven) ++out->proven;
      if (cert.verdict == uniqopt::equiv::Verdict::kRefuted) {
        tally->Fail("replay refuted " + cert.ToString() + " for " + sql);
      }
    }
  }
  return true;
}

bool TraceSelect(const uniqopt::Optimizer& optimizer, const std::string& sql,
                 const Params& params, TraceContext* trace,
                 SelectResult* out) {
  SpanLog* log = trace->spans;
  LayerStats* layers = trace->layers;
  Tally* tally = trace->tally;
  const uint64_t op = trace->NextOp();

  ScopedSpan root(log, "op", op, 0);
  const uint64_t algorithm1_before = Algorithm1Runs();
  const uint64_t prepare_span = log->Begin("uniqopt.prepare", op, root.id());
  auto prepared = optimizer.PrepareShared(sql, &out->cache_hit);
  const uint64_t prepare_ns = log->End(prepare_span);
  if (!prepared.ok()) {
    tally->Fail("prepare failed: " + prepared.status().ToString() + ": " +
                sql);
    return false;
  }
  out->prepared = std::move(*prepared);
  const PreparedQuery& query = *out->prepared;
  CheckPrepared(query, tally);
  if (out->cache_hit) {
    log->Rename(prepare_span, "cache.hit");
  } else {
    layers->AddValue("analysis.algorithm1_runs_per_prepare",
                     static_cast<double>(Algorithm1Runs() - algorithm1_before));
    ScopedSpan replay(log, "replay", op, root.id());
    ReplayedPrepare replayed;
    if (!ReplayPrepare(optimizer, trace->cost_model, sql, &replayed, tally,
                       log, op, replay.id())) {
      return false;
    }
    replay.Close();
    if (replayed.optimized->ToString() != query.optimized_plan->ToString()) {
      tally->Fail("replayed plan differs from the prepared plan: " + sql);
    }
    if (trace->cost_model) {
      layers->AddValue("cost.alternatives",
                       static_cast<double>(replayed.alternatives.size()));
      layers->AddValue("cost.parallel_chosen",
                       replayed.physical.dop > 1 ? 1.0 : 0.0);
    }
    if (replayed.certified > 0) {
      layers->AddValue("equiv.proven_ratio",
                       static_cast<double>(replayed.proven) /
                           static_cast<double>(replayed.certified));
    }
  }

  const PhysicalOptions physical =
      query.cost_based ? query.chosen_physical : PhysicalOptions{};
  uniqopt::ExecProfile profile;
  uniqopt::ExecStats stats;
  const uint64_t exec_span = log->Begin("exec.execute", op, root.id());
  auto rows = ExecuteBound(*optimizer.database(), query.optimized_plan,
                           query.host_vars, params, physical, &stats,
                           &profile);
  const uint64_t execute_ns = log->End(exec_span);
  root.Close();
  if (!rows.ok()) {
    tally->Fail("execute failed: " + rows.status().ToString() + ": " + sql);
    return false;
  }
  out->rows = std::move(*rows);
  out->prepare_ns = prepare_ns;
  out->total_ns = prepare_ns + execute_ns;
  log->AddAttr(root.id(), "sql", sql);
  log->AddAttr(root.id(), "traced_latency_ns", std::to_string(out->total_ns));

  // Layer self times. The replay's spans are leaves; the facade's
  // residual is its prepare minus everything the replay attributed.
  std::map<std::string, int64_t> self = log->SelfTimes(op, {"op", "replay"});
  if (!out->cache_hit) {
    int64_t replayed_ns = 0;
    for (const auto& [name, ns] : self) {
      if (name != "uniqopt.prepare" && name != "exec.execute") {
        replayed_ns += ns;
      }
    }
    self["uniqopt.prepare_residual"] = self["uniqopt.prepare"] - replayed_ns;
    self.erase("uniqopt.prepare");
  }
  self.erase("exec.execute");
  const int64_t execute = static_cast<int64_t>(execute_ns);
  if (profile.parallel_dop() > 1) {
    self["parallel.gather"] = execute;
    uint64_t morsels = 0;
    uint64_t busy_ns = 0;
    for (const uniqopt::WorkerProfile& w : profile.workers()) {
      morsels += w.morsels;
      busy_ns += w.busy_ns;
    }
    layers->AddValue("parallel.morsels", static_cast<double>(morsels));
    layers->AddValue("parallel.worker_busy_ratio",
                     static_cast<double>(busy_ns) /
                         (static_cast<double>(profile.parallel_dop()) *
                          static_cast<double>(execute_ns)));
  } else {
    int64_t operators_ns = 0;
    for (const auto& [name, ns] : OperatorSelfTimes(profile)) {
      self["exec.op." + name] = ns;
      operators_ns += ns;
    }
    self["exec.self"] = execute - operators_ns;
  }
  int64_t sum = 0;
  for (const auto& [name, ns] : self) sum += ns;
  if (sum != static_cast<int64_t>(out->total_ns)) {
    tally->Fail("layer self times do not add up to the traced latency: " +
                sql);
  }
  layers->AddOp(self);
  layers->AddValue("exec.execute_us", static_cast<double>(execute_ns) / 1e3);
  layers->AddValue("parallel.dop_used",
                   profile.parallel_dop() > 1
                       ? static_cast<double>(profile.parallel_dop())
                       : 1.0);
  layers->AddValue("cache.hit", out->cache_hit ? 1.0 : 0.0);
  layers->AddValue("verify.violations",
                   static_cast<double>(query.verification.violations.size()));
  layers->AddValue("exec.rows_scanned", static_cast<double>(stats.rows_scanned));
  layers->AddValue("exec.hash_build_rows",
                   static_cast<double>(stats.hash_build_rows));
  layers->AddValue("exec.hash_probes", static_cast<double>(stats.hash_probes));
  layers->AddValue("exec.sort_comparisons",
                   static_cast<double>(stats.sort_comparisons));
  layers->AddValue("exec.inner_loop_rows",
                   static_cast<double>(stats.inner_loop_rows));
  layers->AddValue("index.probes_per_read",
                   static_cast<double>(stats.index_probes));
  trace->Retire(op);
  return true;
}

}  // namespace uniqbench
