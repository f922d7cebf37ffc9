#include <sstream>

#include <gtest/gtest.h>

#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace braidio::util {
namespace {

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"mode", "power"});
  t.add_row({"active", "94.56 mW"});
  t.add_row({"backscatter", "36.4 uW"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("mode"), std::string::npos);
  EXPECT_NE(s.find("backscatter"), std::string::npos);
  // Header rule present.
  EXPECT_NE(s.find("---"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TablePrinter, ShortRowsPaddedLongRowsRejected) {
  TablePrinter t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_THROW(t.add_row({"1", "2", "3", "4"}), std::invalid_argument);
  EXPECT_THROW(TablePrinter({}), std::invalid_argument);
}

TEST(TablePrinter, StreamsToOstream) {
  TablePrinter t({"x"});
  t.add_row({"1"});
  std::ostringstream os;
  t.print(os);
  EXPECT_FALSE(os.str().empty());
}

TEST(FormatSiPower, PicksSensibleUnits) {
  EXPECT_EQ(format_si_power(0.129), "129 mW");
  EXPECT_EQ(format_si_power(16.54e-6), "16.54 uW");
  EXPECT_EQ(format_si_power(4.2), "4.2 W");
  EXPECT_EQ(format_si_power(0.0), "0 W");
  EXPECT_EQ(format_si_power(2e-9), "2 nW");
}

TEST(Format, FixedAndScientific) {
  EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
  const auto s = format_scientific(2546.0, 3);
  EXPECT_NE(s.find("e"), std::string::npos);
}

TEST(Csv, EscapesSpecialCells) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, RendersRowsAndValidatesWidth) {
  EXPECT_EQ(csv_document({"d", "ber"}, {{"0.5", "1e-3"}, {"1", "0.01"}}),
            "d,ber\n0.5,1e-3\n1,0.01\n");
}

TEST(Json, EscapesStringsAndRendersNumbers) {
  EXPECT_EQ(json_escape("hub/tag-1/active"), "hub/tag-1/active");
  EXPECT_EQ(json_escape("say \"hi\" \\ bye"), "say \\\"hi\\\" \\\\ bye");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape("x\x01y\x1f"), "x\\u0001y\\u001f");
  // The exporters' two number renderings: 17 significant digits for
  // round-trip values, fixed decimals (never an exponent, any magnitude).
  EXPECT_EQ(format_engineering(0.1, 17), "0.10000000000000001");
  EXPECT_EQ(format_engineering(2546.0, 17), "2546");
  EXPECT_EQ(format_engineering(1e-30, 17), "1.0000000000000001e-30");
  EXPECT_EQ(format_fixed(1.0 / 3.0, 3), "0.333");
  EXPECT_EQ(format_fixed(1e21, 0), "1000000000000000000000");
  EXPECT_EQ(format_fixed(-2.5e-7, 6), "-0.000000");
  EXPECT_EQ(format_fixed(1e60, 2).size(), 63U);
}

TEST(Log, LevelGateWorks) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  // Dropping below the gate must not crash and must not emit.
  ::testing::internal::CaptureStderr();
  BRAIDIO_LOG_INFO << "hidden";
  BRAIDIO_LOG_ERROR << "visible";
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.find("hidden"), std::string::npos);
  EXPECT_NE(err.find("visible"), std::string::npos);
  set_log_level(before);
}

}  // namespace
}  // namespace braidio::util
