#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
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

/// printf's rendering of `value` under `spec` ("%.*g", "%.*e" or "%.*f")
/// at a precision of at most 20. DBL_MAX in fixed notation with 20
/// decimals is 330 characters.
std::string printf_rendering(const char* spec, int precision, double value) {
  char buf[512];
  const int size = std::snprintf(buf, sizeof buf, spec, precision, value);
  EXPECT_TRUE(size > 0 && size < static_cast<int>(sizeof buf)) << size;
  return std::string(buf, static_cast<std::size_t>(size));
}

TEST(Format, NumbersMatchPrintfAtEveryPrecision) {
  // format_engineering is %.*g, format_scientific(v, p + 1) is %.*e and
  // format_fixed is %.*f, byte for byte, for the special values, the
  // rounding ties, the decade edges and 100k finite random bit patterns.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {0.0,
                                -0.0,
                                kInf,
                                -kInf,
                                kNan,
                                std::copysign(kNan, -1.0),
                                4.9e-324,
                                2.2250738585072014e-308,
                                DBL_MAX,
                                1.0 / 3.0,
                                0.5,
                                1.5,
                                2.5,
                                9.9999999999999995e-5,
                                1e15,
                                1e16,
                                1e17,
                                1e21};
  const std::size_t special = values.size();
  Rng rng(2016);
  while (values.size() < special + 100'000) {
    const double v = std::bit_cast<double>(
        rng.uniform_int(0, std::numeric_limits<std::uint64_t>::max()));
    if (std::isfinite(v)) values.push_back(v);
  }
  std::size_t mismatches = 0;
  std::string first;
  auto expect_same = [&](const std::string& ours, const char* spec, int p,
                         double v) {
    const std::string want = printf_rendering(spec, p, v);
    if (ours != want && mismatches++ == 0) {
      first = std::string(spec) + " p=" + std::to_string(p) + ": " + ours +
              " vs " + want;
    }
  };
  for (const double v : values) {
    for (int p = -1; p <= 20; ++p) {
      expect_same(format_engineering(v, p), "%.*g", p, v);
      expect_same(format_scientific(v, p + 1), "%.*e", p, v);
      if (p >= 0) expect_same(format_fixed(v, p), "%.*f", p, v);
    }
  }
  EXPECT_EQ(mismatches, 0u) << first;
}

TEST(Csv, EscapesSpecialCells) {
  // Cells append after what the string holds; a comma, quote or newline
  // quotes the cell and doubles its quotes.
  std::string out = "x|";
  for (const char* cell : {"plain", "a,b", "say \"hi\"", "two\nlines"}) {
    append_csv_cell(out, cell);
    out += '|';
  }
  EXPECT_EQ(out, "x|plain|\"a,b\"|\"say \"\"hi\"\"\"|\"two\nlines\"|");
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
