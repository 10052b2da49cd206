// Characterization of the uniqueness proofs: the exact ProofTrace text,
// flat trace lines and NearMiss records that Algorithm 1 (§4), the
// Theorem 2 test (§5.2) and the rewriter's rejection sites produce for
// the paper's worked examples. Every rendering is compared byte for
// byte against tests/testdata/proof_characterization.golden, so any
// refactoring of the analysis layer must keep verdicts, proof wording
// and near-misses unchanged.
//
// On a mismatch the actual text of every case is written to
// <gtest TempDir>/proof_characterization.actual for inspection.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/subquery.h"
#include "analysis/uniqueness.h"
#include "obs/advisor.h"
#include "rewrite/rewriter.h"
#include "test_util.h"
#include "uniqopt/optimizer.h"
#include "workload/supplier_schema.h"

namespace uniqopt {
namespace {

constexpr char kGoldenPath[] =
    UNIQOPT_TESTDATA_DIR "/proof_characterization.golden";

/// Golden sections: "=== <name> ===" header lines, text up to the next
/// header.
std::map<std::string, std::string> LoadGolden() {
  std::map<std::string, std::string> sections;
  std::ifstream in(kGoldenPath);
  std::string line;
  std::string name;
  while (std::getline(in, line)) {
    if (line.rfind("=== ", 0) == 0 && line.size() > 8 &&
        line.compare(line.size() - 4, 4, " ===") == 0) {
      name = line.substr(4, line.size() - 8);
      sections[name];
      continue;
    }
    if (!name.empty()) sections[name] += line + "\n";
  }
  return sections;
}

void ExpectGolden(const std::string& name, const std::string& actual) {
  static const std::map<std::string, std::string> golden = LoadGolden();
  ASSERT_FALSE(golden.empty()) << "cannot read " << kGoldenPath;
  auto it = golden.find(name);
  bool match = it != golden.end() && it->second == actual;
  if (!match) {
    std::ofstream out(::testing::TempDir() + "proof_characterization.actual",
                      std::ios::app);
    out << "=== " << name << " ===\n" << actual;
  }
  ASSERT_NE(it, golden.end()) << "no golden section '" << name << "'";
  EXPECT_EQ(it->second, actual) << "case " << name;
}

std::string RenderLines(const std::string& title,
                        const std::vector<std::string>& lines) {
  std::string out = title + ":\n";
  for (const std::string& line : lines) out += "  " + line + "\n";
  return out;
}

std::string RenderNearMisses(const std::vector<obs::NearMiss>& misses) {
  std::string out = "near-misses:\n";
  for (const obs::NearMiss& m : misses) {
    out += "  goal=" + m.goal + " table=" + m.table + " alias=" + m.alias +
           " kind=" + obs::MissingFactKindName(m.kind) + " fact=" + m.fact +
           " replay=";
    for (size_t i = 0; i < m.replay_key_columns.size(); ++i) {
      out += (i > 0 ? "," : "") + m.replay_key_columns[i];
    }
    out += " bound=" + m.bound_columns + "\n";
  }
  return out;
}

std::string RenderVerdict(const UniquenessVerdict& v) {
  std::string out = "has_distinct=" + std::to_string(v.has_distinct) +
                    " distinct_unnecessary=" +
                    std::to_string(v.distinct_unnecessary) + "\n";
  out += RenderLines("trace", v.trace);
  out += "explain:\n" + v.ExplainProof();
  out += RenderNearMisses(v.near_misses);
  return out;
}

std::string RenderSubquery(const SubqueryVerdict& v) {
  std::string out =
      "at_most_one_match=" + std::to_string(v.at_most_one_match) + "\n";
  out += RenderLines("trace", v.trace);
  out += "explain:\n" + v.ExplainProof();
  out += RenderNearMisses(v.near_misses);
  return out;
}

std::string RenderRewrite(const RewriteResult& r) {
  std::string out = "plan:\n" + r.plan->ToString();
  for (const AppliedRewrite& a : r.applied) {
    out += std::string("applied ") + RewriteRuleIdToString(a.rule) + ": " +
           a.description + "\n";
    out += "before:\n" + a.evidence.before->ToString();
    out += "after:\n" + a.evidence.after->ToString();
    out += RenderLines("facts", a.evidence.facts);
    out += "proof:\n" + a.evidence.proof.ToText();
  }
  out += RenderNearMisses(r.near_misses);
  return out;
}

class ProofCharacterizationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(CreateSupplierSchema(&db_));
    // A table without any declared candidate key.
    ASSERT_OK(db_.ExecuteDdl(
        "CREATE TABLE NOKEY (SNO INTEGER NOT NULL, TAG VARCHAR(10))"));
    binder_ = std::make_unique<Binder>(&db_.catalog());
  }

  PlanPtr Bind(const std::string& sql) {
    auto bound = binder_->BindSql(sql);
    EXPECT_TRUE(bound.ok()) << sql << ": " << bound.status().ToString();
    return bound.ok() ? bound->plan : nullptr;
  }

  /// Algorithm 1 alone and the combined analyzer, near-misses on.
  void CheckDistinct(const std::string& name, const std::string& sql,
                     bool verbatim = false) {
    PlanPtr plan = Bind(sql);
    ASSERT_NE(plan, nullptr);
    Algorithm1Options options;
    options.collect_near_misses = true;
    options.verbatim_line10 = verbatim;
    auto a1 = AnalyzeDistinctAlgorithm1(plan, options);
    ASSERT_TRUE(a1.ok()) << a1.status().ToString();
    ExpectGolden(name + ".algorithm1", RenderVerdict(*a1));
    ExpectGolden(name + ".combined",
                 RenderVerdict(AnalyzeDistinct(plan, options)));
  }

  /// The Theorem 2 test on the EXISTS under the top projection.
  void CheckSubquery(const std::string& name, const std::string& sql) {
    PlanPtr plan = Bind(sql);
    ASSERT_NE(plan, nullptr);
    const ProjectNode* project = As<ProjectNode>(plan);
    ASSERT_NE(project, nullptr);
    const ExistsNode* exists = As<ExistsNode>(project->input());
    ASSERT_NE(exists, nullptr);
    AnalysisOptions options;
    options.collect_near_misses = true;
    auto verdict = TestSubqueryAtMostOneMatch(*exists, options);
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    ExpectGolden(name + ".theorem2", RenderSubquery(*verdict));
  }

  /// The whole rewriter, near-misses on.
  void CheckRewrite(const std::string& name, const std::string& sql,
                    RewriteOptions options = {}) {
    PlanPtr plan = Bind(sql);
    ASSERT_NE(plan, nullptr);
    options.analysis.collect_near_misses = true;
    auto result = RewritePlan(plan, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectGolden(name + ".rewrite", RenderRewrite(*result));
  }

  Database db_;
  std::unique_ptr<Binder> binder_;
};

// ---------------------------------------------------------------------
// Algorithm 1 (§4) on the paper's Examples 1, 2, 4–6.

TEST_F(ProofCharacterizationTest, Example1) {
  CheckDistinct("example1",
                "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, "
                "PARTS P WHERE S.SNO = P.SNO AND P.COLOR = 'RED'");
}

TEST_F(ProofCharacterizationTest, Example2) {
  CheckDistinct("example2",
                "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, "
                "PARTS P WHERE S.SNO = P.SNO AND P.COLOR = 'RED'");
}

TEST_F(ProofCharacterizationTest, Example4And5) {
  CheckDistinct("example4",
                "SELECT DISTINCT S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, "
                "PARTS P WHERE P.SNO = :SUPPLIER_NO AND S.SNO = P.SNO");
}

TEST_F(ProofCharacterizationTest, Example6) {
  CheckDistinct("example6",
                "SELECT DISTINCT S.SNO, PNO, PNAME, P.COLOR FROM SUPPLIER S, "
                "PARTS P WHERE S.SNAME = :SUPPLIER_NAME AND S.SNO = P.SNO");
  CheckDistinct("example6.unique_key",
                "SELECT DISTINCT P.OEM_PNO, P.PNAME FROM PARTS P "
                "WHERE P.COLOR = 'RED'");
}

TEST_F(ProofCharacterizationTest, Algorithm1EdgeCases) {
  CheckDistinct("verbatim_line10", "SELECT DISTINCT SNO, SNAME FROM SUPPLIER",
                /*verbatim=*/true);
  CheckDistinct("disjunction",
                "SELECT DISTINCT SNAME FROM SUPPLIER WHERE SNO = 1 OR SNO = 2");
  CheckDistinct("range_and_key",
                "SELECT DISTINCT S.SNAME, P.PNAME FROM SUPPLIER S, PARTS P "
                "WHERE S.SNO = P.SNO AND P.PNO > 3 AND S.SNO = 7");
  CheckDistinct("no_key_table",
                "SELECT DISTINCT N.SNO, N.TAG FROM NOKEY N WHERE N.SNO = 4");
  CheckDistinct("all_mode", "SELECT S.SNAME FROM SUPPLIER S");
}

// ---------------------------------------------------------------------
// The Theorem 2 test (§5.2) on Examples 7 and 8 and a key-less inner
// table.

TEST_F(ProofCharacterizationTest, Example7) {
  CheckSubquery("example7",
                "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S "
                "WHERE S.SNAME = :SUPPLIER_NAME AND EXISTS "
                "(SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND "
                "P.PNO = :PART_NO)");
}

TEST_F(ProofCharacterizationTest, Example8) {
  CheckSubquery("example8",
                "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS "
                "(SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND "
                "P.COLOR = 'RED')");
}

TEST_F(ProofCharacterizationTest, InnerTableWithoutKey) {
  CheckSubquery("inner_no_key",
                "SELECT ALL S.SNO FROM SUPPLIER S WHERE EXISTS "
                "(SELECT * FROM NOKEY N WHERE N.SNO = S.SNO)");
}

// ---------------------------------------------------------------------
// The rewriter: fired rules with their evidence, and the near-misses of
// the rejection sites (set-op operand, GROUP BY on key, Corollary 1
// outer block, Theorem 1 and Theorem 2 guards).

TEST_F(ProofCharacterizationTest, RewriteDistinctSites) {
  CheckRewrite("example1",
               "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, "
               "PARTS P WHERE S.SNO = P.SNO AND P.COLOR = 'RED'");
  CheckRewrite("example2",
               "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, "
               "PARTS P WHERE S.SNO = P.SNO AND P.COLOR = 'RED'");
}

TEST_F(ProofCharacterizationTest, RewriteSubquerySites) {
  CheckRewrite("example7",
               "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S "
               "WHERE S.SNAME = :SUPPLIER_NAME AND EXISTS "
               "(SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND "
               "P.PNO = :PART_NO)");
  // Theorem 2 fails; Corollary 1 fires on the duplicate-free outer block.
  CheckRewrite("example8",
               "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS "
               "(SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND "
               "P.COLOR = 'RED')");
  // Both fail: the outer block projects no key (Corollary 1 outer).
  CheckRewrite("corollary1_outer",
               "SELECT ALL S.SNAME FROM SUPPLIER S WHERE EXISTS "
               "(SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND "
               "P.COLOR = 'RED')");
  RewriteOptions join_to_subquery;
  join_to_subquery.join_to_subquery = true;
  CheckRewrite("join_to_subquery",
               "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S, PARTS P "
               "WHERE S.SNO = P.SNO AND P.PNO = :PART_NO",
               join_to_subquery);
}

TEST_F(ProofCharacterizationTest, RewriteSetOpSites) {
  CheckRewrite("example9",
               "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' "
               "INTERSECT "
               "SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa'");
  CheckRewrite("setop_operands",
               "SELECT SNAME FROM SUPPLIER INTERSECT SELECT ANAME FROM AGENTS");
  CheckRewrite("except",
               "SELECT SNO FROM SUPPLIER EXCEPT SELECT SNO FROM AGENTS");
  RewriteOptions no_exists;
  no_exists.intersect_to_exists = false;
  CheckRewrite("setop_distinct_removed",
               "SELECT SNO FROM SUPPLIER INTERSECT SELECT SNO FROM AGENTS",
               no_exists);
}

TEST_F(ProofCharacterizationTest, RewriteGroupBySites) {
  CheckRewrite("groupby_on_key",
               "SELECT SNO, SUM(BUDGET) FROM SUPPLIER GROUP BY SNO");
  CheckRewrite("groupby_not_key",
               "SELECT SNAME, SUM(BUDGET) FROM SUPPLIER GROUP BY SNAME");
}

// ---------------------------------------------------------------------
// The facade: the analyze-phase proof EXPLAIN shows, the rewrites and
// the merged, deduplicated near-misses of one Prepare.

TEST_F(ProofCharacterizationTest, PreparePipeline) {
  obs::AdvisorStore::Global().Clear();
  Optimizer optimizer(&db_);
  optimizer.set_verify_plans(false);
  for (const auto& [name, sql] : std::vector<std::pair<std::string,
                                                       std::string>>{
           {"example1",
            "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
            "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'"},
           {"example2",
            "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, "
            "PARTS P WHERE S.SNO = P.SNO AND P.COLOR = 'RED'"},
           {"corollary1_outer",
            "SELECT ALL S.SNAME FROM SUPPLIER S WHERE EXISTS "
            "(SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND "
            "P.COLOR = 'RED')"},
           {"setop_operands",
            "SELECT SNAME FROM SUPPLIER INTERSECT SELECT ANAME FROM AGENTS"},
       }) {
    auto prepared = optimizer.Prepare(sql);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    ExpectGolden(name + ".prepare",
                 prepared->Explain() + RenderNearMisses(prepared->near_misses));
  }
  obs::AdvisorStore::Global().Clear();
}

}  // namespace
}  // namespace uniqopt
