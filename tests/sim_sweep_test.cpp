// Determinism and structure tests for the sweep engine: serial vs 2-thread
// vs 8-thread runs of a Fig. 15-style device matrix must produce
// byte-identical ResultTables, and the report/export layer must detect
// write failures.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "backends/backends.hpp"
#include "core/lifetime_sim.hpp"
#include "obs/metrics.hpp"
#include "sim/result_table.hpp"
#include "sim/run_report.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_runner.hpp"
#include "util/rng.hpp"

namespace braidio {
namespace {

/// Fig. 15-style matrix: gain_vs_bluetooth over the device catalog.
sim::Scenario fig15_style_scenario(const core::LifetimeSimulator& sim,
                                   const core::LifetimeConfig& cfg) {
  const auto& catalog = energy::device_catalog();
  std::vector<std::string> labels;
  for (const auto& spec : catalog) labels.push_back(spec.name);
  return sim::Scenario(
      "fig15_style", {{"RX", labels}, {"TX", labels}}, {"gain"},
      [&sim, &cfg, &catalog](sim::SweepPoint& p) {
        const auto& rx = catalog[p.axis_index(0)];
        const auto& tx = catalog[p.axis_index(1)];
        const double g = sim.gain_vs_bluetooth(tx, rx, cfg);
        sim::RunRecord record;
        record.cells.push_back(util::format_engineering(g, 3));
        record.numbers.push_back(g);
        return record;
      });
}

/// A stochastic scenario: every point draws from its child stream, so this
/// detects any seeding scheme that depends on evaluation order.
sim::Scenario stochastic_scenario() {
  return sim::Scenario(
      "stochastic", {sim::Axis::indexed("point", 64)}, {"draw"},
      [](sim::SweepPoint& p) {
        util::Rng rng(p.seed());
        double sum = 0.0;
        for (int k = 0; k < 100; ++k) sum += rng.gaussian();
        sim::RunRecord record;
        record.cells.push_back(util::format_scientific(sum, 6));
        return record;
      });
}

TEST(SweepDeterminism, MatrixIdenticalAcrossThreadCounts) {
  core::LifetimeSimulator lifetime(backends::braidio_backend());
  core::LifetimeConfig cfg;
  cfg.distance_m = 0.5;
  const auto scenario = fig15_style_scenario(lifetime, cfg);

  sim::SweepOptions serial;
  serial.threads = 1;
  const auto reference = sim::SweepRunner(serial).run(scenario);
  EXPECT_EQ(reference.row_count(), 100u);
  EXPECT_EQ(reference.threads_used(), 1u);

  for (unsigned threads : {2u, 8u}) {
    sim::SweepOptions opts;
    opts.threads = threads;
    const auto parallel = sim::SweepRunner(opts).run(scenario);
    EXPECT_EQ(parallel.threads_used(), threads);
    EXPECT_EQ(reference.to_csv(), parallel.to_csv()) << threads;
    EXPECT_EQ(reference.to_json(), parallel.to_json()) << threads;
    EXPECT_EQ(reference.to_printer().to_string(),
              parallel.to_printer().to_string())
        << threads;
  }
}

TEST(SweepDeterminism, StochasticIdenticalAcrossThreadCounts) {
  const auto scenario = stochastic_scenario();
  sim::SweepOptions serial;
  serial.threads = 1;
  const auto reference = sim::SweepRunner(serial).run(scenario);
  for (unsigned threads : {2u, 8u}) {
    sim::SweepOptions opts;
    opts.threads = threads;
    EXPECT_EQ(reference.to_csv(),
              sim::SweepRunner(opts).run(scenario).to_csv())
        << threads;
  }
}

TEST(SweepDeterminism, SeedChangesStochasticOutput) {
  const auto scenario = stochastic_scenario();
  sim::SweepOptions a;
  a.threads = 1;
  sim::SweepOptions b;
  b.threads = 1;
  b.seed = a.seed + 1;
  EXPECT_NE(sim::SweepRunner(a).run(scenario).to_csv(),
            sim::SweepRunner(b).run(scenario).to_csv());
}

TEST(SweepStructure, RowsAreRowMajorOverAxes) {
  sim::Scenario scenario(
      "coords", {{"a", {"a0", "a1"}}, {"b", {"b0", "b1", "b2"}}}, {"idx"},
      [](sim::SweepPoint& p) {
        sim::RunRecord record;
        record.cells.push_back(std::to_string(p.flat_index()));
        return record;
      });
  EXPECT_EQ(scenario.point_count(), 6u);
  sim::SweepOptions opts;
  opts.threads = 2;
  const auto table = sim::SweepRunner(opts).run(scenario);
  ASSERT_EQ(table.row_count(), 6u);
  // Row 4 = a1, b1 (last axis fastest).
  EXPECT_EQ(table.axis_label(4, 0), "a1");
  EXPECT_EQ(table.axis_label(4, 1), "b1");
  EXPECT_EQ(table.record(4).cells.at(0), "4");
  // Pivot puts axis-0 values on rows.
  const auto pivot = table.pivot(0, 1, 0).to_string();
  EXPECT_NE(pivot.find("a \\ b"), std::string::npos);
}

TEST(SweepStructure, MetricsAreTrackedButNotInData) {
  const auto scenario = stochastic_scenario();
  sim::SweepOptions opts;
  opts.threads = 2;
  const auto table = sim::SweepRunner(opts).run(scenario);
  EXPECT_EQ(table.metrics().size(), table.row_count());
  EXPECT_GT(table.total_wall_seconds(), 0.0);
  EXPECT_EQ(table.eval_count(), 64u);
  EXPECT_EQ(table.to_csv().find("wall"), std::string::npos);
  EXPECT_EQ(table.to_json().find("wall"), std::string::npos);
  EXPECT_NE(table.metrics_summary().find("2 threads"), std::string::npos);
}

TEST(SweepStructure, ThreadsFromCliParsesBothForms) {
  const char* argv1[] = {"bench", "--threads", "6"};
  EXPECT_EQ(sim::threads_from_cli(3, const_cast<char**>(argv1)), 6u);
  const char* argv2[] = {"bench", "--threads=12"};
  EXPECT_EQ(sim::threads_from_cli(2, const_cast<char**>(argv2)), 12u);
  const char* argv3[] = {"bench", "--threads=garbage"};
  EXPECT_EQ(sim::threads_from_cli(2, const_cast<char**>(argv3)), 0u);
  const char* argv4[] = {"bench"};
  EXPECT_EQ(sim::threads_from_cli(1, const_cast<char**>(argv4)), 0u);
  // Counts that do not fit in `unsigned` are malformed, not wrapped.
  const char* argv5[] = {"bench", "--threads=4294967297"};
  EXPECT_EQ(sim::threads_from_cli(2, const_cast<char**>(argv5)), 0u);
  const char* argv6[] = {"bench", "--threads", "99999999999"};
  EXPECT_EQ(sim::threads_from_cli(3, const_cast<char**>(argv6)), 0u);
}

TEST(SweepFailure, ThrowingPointRethrowsAndCountsOnceInTheGlobalRegistry) {
  const sim::Scenario failing(
      "failing", {sim::Axis::indexed("point", 64)}, {"idx"},
      [](sim::SweepPoint& p) {
        if (p.flat_index() == 41) throw std::runtime_error("point 41");
        sim::RunRecord record;
        record.cells.push_back(std::to_string(p.flat_index()));
        return record;
      });
  for (unsigned threads : {1u, 4u}) {
    obs::reset_global_metrics();
    sim::SweepOptions opts;
    opts.threads = threads;
    EXPECT_THROW(sim::SweepRunner(opts).run(failing), std::runtime_error)
        << threads;
#if BRAIDIO_OBS_COMPILED
    // The failure is counted outside the point's scoped registry; the
    // successful points counted into per-point registries that the
    // rethrow discarded.
    const auto global = obs::global_metrics_snapshot();
    EXPECT_EQ(global.value(obs::Counter::SweepFailures), 1u) << threads;
    EXPECT_EQ(global.value(obs::Counter::SweepPoints), 0u) << threads;
#endif
  }
  obs::reset_global_metrics();
  sim::SweepOptions opts;
  opts.threads = 4;
  EXPECT_EQ(sim::SweepRunner(opts).run(stochastic_scenario()).row_count(),
            64u);
}

TEST(RunReport, ExportFailureIsDetected) {
  ASSERT_EQ(setenv("BRAIDIO_CSV_DIR",
                   "/nonexistent-braidio-dir/definitely/missing", 1),
            0);
  std::ostringstream echo;
  EXPECT_FALSE(sim::export_artifact("t", ".csv", "a,b\n", echo));
  EXPECT_TRUE(echo.str().empty());
  ASSERT_EQ(unsetenv("BRAIDIO_CSV_DIR"), 0);
}

TEST(RunReport, ExportWritesWhenDirExists) {
  const std::string dir = ::testing::TempDir();
  ASSERT_EQ(setenv("BRAIDIO_CSV_DIR", dir.c_str(), 1), 0);
  std::ostringstream echo;
  EXPECT_TRUE(sim::export_artifact("sim_sweep_test", ".csv", "a,b\n1,2\n",
                                   echo));
  EXPECT_NE(echo.str().find("sim_sweep_test.csv"), std::string::npos);
  std::ifstream in(dir + "/sim_sweep_test.csv");
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "a,b\n1,2\n");
  ASSERT_EQ(unsetenv("BRAIDIO_CSV_DIR"), 0);
}

TEST(RunReport, ExportNoopWithoutDir) {
  ASSERT_EQ(unsetenv("BRAIDIO_CSV_DIR"), 0);
  std::ostringstream echo;
  EXPECT_TRUE(sim::export_artifact("t", ".csv", "x\n", echo));
  EXPECT_TRUE(echo.str().empty());
}

TEST(RunReport, RendersHeaderChecksAndTables) {
  std::ostringstream os;
  sim::RunReport report(os, "Figure X", "Engine self-test");
  report.note("hello");
  report.check("some quantity", "1.0x", "1.1x");
  const auto table = sim::SweepRunner(sim::SweepOptions{1})
                         .run(stochastic_scenario());
  report.table(table);
  report.metrics(table);
  const std::string out = os.str();
  EXPECT_NE(out.find("Figure X — Engine self-test"), std::string::npos);
  EXPECT_NE(out.find("hello"), std::string::npos);
  EXPECT_NE(out.find("paper: 1.0x"), std::string::npos);
  EXPECT_NE(out.find("ours: 1.1x"), std::string::npos);
  EXPECT_NE(out.find("[sweep]"), std::string::npos);
}

TEST(ResultTable, ExportsMatchRecordedBytes) {
  // Every byte class the exporters treat differently: quote, backslash,
  // comma, newline, tab, a control character, a label past the 15-char
  // small-string buffer and an empty cell, in the scenario name, the axis
  // names, the labels, the column names and the cells. The two literals
  // were recorded from the ostringstream exporters.
  const sim::Scenario scenario(
      "esc\"aped\\",
      {{"a,\"x\"", {"p\\q", "a label of 24 characters"}},
       {"b\tc", {"tab\there", "x\ny", "\x01" "z"}}},
      {"v,1", "w\"2"},
      [](sim::SweepPoint& p) {
        static const char* const kCells[] = {
            "", "q\"uote", "back\\slash", "\x01", "comma,here", "new\nline"};
        sim::RunRecord record;
        record.cells = {std::to_string(p.flat_index()),
                        kCells[p.flat_index()]};
        return record;
      });
  sim::SweepOptions opts;
  opts.threads = 2;  // the default master seed, a 20-digit integer
  const auto table = sim::SweepRunner(opts).run(scenario);
  EXPECT_EQ(table.to_csv(),
            "\"a,\"\"x\"\"\",b\tc,\"v,1\",\"w\"\"2\"\n"
            "p\\q,tab\there,0,\n"
            "p\\q,\"x\ny\",1,\"q\"\"uote\"\n"
            "p\\q,\x01" "z,2,back\\slash\n"
            "a label of 24 characters,tab\there,3,\x01\n"
            "a label of 24 characters,\"x\ny\",4,\"comma,here\"\n"
            "a label of 24 characters,\x01" "z,5,\"new\nline\"\n");
  EXPECT_EQ(
      table.to_json(),
      "{\n"
      "  \"scenario\": \"esc\\\"aped\\\\\",\n"
      "  \"seed\": 11400714819323198485,\n"
      "  \"axes\": [\"a,\\\"x\\\"\", \"b\\tc\"],\n"
      "  \"rows\": [\n"
      "    {\"a,\\\"x\\\"\": \"p\\\\q\", \"b\\tc\": \"tab\\there\", "
      "\"v,1\": \"0\", \"w\\\"2\": \"\"},\n"
      "    {\"a,\\\"x\\\"\": \"p\\\\q\", \"b\\tc\": \"x\\ny\", "
      "\"v,1\": \"1\", \"w\\\"2\": \"q\\\"uote\"},\n"
      "    {\"a,\\\"x\\\"\": \"p\\\\q\", \"b\\tc\": \"\\u0001z\", "
      "\"v,1\": \"2\", \"w\\\"2\": \"back\\\\slash\"},\n"
      "    {\"a,\\\"x\\\"\": \"a label of 24 characters\", \"b\\tc\": "
      "\"tab\\there\", \"v,1\": \"3\", \"w\\\"2\": \"\\u0001\"},\n"
      "    {\"a,\\\"x\\\"\": \"a label of 24 characters\", \"b\\tc\": "
      "\"x\\ny\", \"v,1\": \"4\", \"w\\\"2\": \"comma,here\"},\n"
      "    {\"a,\\\"x\\\"\": \"a label of 24 characters\", \"b\\tc\": "
      "\"\\u0001z\", \"v,1\": \"5\", \"w\\\"2\": \"new\\nline\"}\n"
      "  ]\n"
      "}\n");
}

TEST(ChildStreams, StreamSeedIsStableAndDecorrelated) {
  // Pin the derivation rule: changing it silently would re-randomize every
  // recorded experiment.
  const auto s0 = util::Rng::stream_seed(1, 0);
  EXPECT_EQ(s0, util::Rng::stream_seed(1, 0));
  EXPECT_NE(s0, util::Rng::stream_seed(1, 1));
  EXPECT_NE(s0, util::Rng::stream_seed(2, 0));
  // Identical draw sequences from identical (seed, index).
  auto a = util::Rng::stream(7, 3);
  auto b = util::Rng::stream(7, 3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.uniform(), b.uniform());
  // Adjacent indices diverge immediately.
  auto c = util::Rng::stream(7, 4);
  EXPECT_NE(util::Rng::stream(7, 3).uniform(), c.uniform());
}

}  // namespace
}  // namespace braidio
