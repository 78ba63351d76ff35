#include "src/util/csv.h"

#include <sstream>

#include <gtest/gtest.h>

#include "src/util/error.h"
#include "src/util/rng.h"

namespace fa {
namespace {

std::vector<std::vector<std::string>> parse_all(const std::string& text) {
  std::istringstream in(text);
  CsvReader reader(in);
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  while (reader.read_row(row)) rows.push_back(row);
  return rows;
}

std::string write_all(const std::vector<std::vector<std::string>>& rows) {
  std::ostringstream out;
  CsvWriter writer(out);
  for (const auto& row : rows) writer.write_row(row);
  return out.str();
}

TEST(Csv, SimpleRoundTrip) {
  const std::vector<std::vector<std::string>> rows = {
      {"a", "b", "c"}, {"1", "2", "3"}};
  EXPECT_EQ(parse_all(write_all(rows)), rows);
}

TEST(Csv, QuotedFieldsRoundTrip) {
  const std::vector<std::vector<std::string>> rows = {
      {"plain", "with,comma", "with\"quote", "with\nnewline", ""}};
  EXPECT_EQ(parse_all(write_all(rows)), rows);
}

TEST(Csv, ReadsCrLfLines) {
  const auto rows = parse_all("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(Csv, LastLineWithoutNewline) {
  const auto rows = parse_all("a,b\nc,d");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(Csv, EmptyInputYieldsNoRows) {
  EXPECT_TRUE(parse_all("").empty());
}

TEST(Csv, UnterminatedQuoteThrows) {
  EXPECT_THROW(parse_all("\"abc"), Error);
}

TEST(Csv, EscapedQuoteInsideQuoted) {
  const auto rows = parse_all("\"he said \"\"hi\"\"\",x\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "he said \"hi\"");
  EXPECT_EQ(rows[0][1], "x");
}

TEST(Csv, RandomizedRoundTripProperty) {
  // Property: any table of fields drawn from a hostile alphabet (commas,
  // quotes, newlines, CR) survives a write/read round trip unchanged.
  fa::Rng rng(99);
  const std::string alphabet = "ab,\"\n\r x7";
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::vector<std::string>> rows;
    const auto n_rows = rng.uniform_int(1, 5);
    const auto n_cols = rng.uniform_int(1, 6);
    for (std::int64_t r = 0; r < n_rows; ++r) {
      std::vector<std::string> row;
      for (std::int64_t c = 0; c < n_cols; ++c) {
        std::string field;
        const auto len = rng.uniform_int(0, 8);
        for (std::int64_t k = 0; k < len; ++k) {
          field += alphabet[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(alphabet.size()) - 1))];
        }
        // CR-containing fields are exact because the writer quotes them.
        row.push_back(std::move(field));
      }
      rows.push_back(std::move(row));
    }
    ASSERT_EQ(parse_all(write_all(rows)), rows) << "trial " << trial;
  }
}

TEST(Csv, ParseIntValid) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
}

TEST(Csv, ParseIntInvalidThrows) {
  EXPECT_THROW(parse_int(""), Error);
  EXPECT_THROW(parse_int("12x"), Error);
  EXPECT_THROW(parse_int("abc"), Error);
}

TEST(Csv, ParseIntInvalidMessageQuotesTheField) {
  try {
    parse_int("12x");
    FAIL() << "parse_int accepted '12x'";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "parse_int: invalid integer '12x'");
  }
}

TEST(Csv, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(parse_double("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(parse_double("-1e3"), -1000.0);
}

TEST(Csv, ParseDoubleInvalidThrows) {
  EXPECT_THROW(parse_double(""), Error);
  EXPECT_THROW(parse_double("1.2.3"), Error);
}

TEST(Csv, ParseIntOutOfRangeThrows) {
  EXPECT_THROW(parse_int("99999999999999999999999"), Error);
  EXPECT_THROW(parse_int("-99999999999999999999999"), Error);
}

TEST(Csv, ParseFiniteDoubleValid) {
  EXPECT_DOUBLE_EQ(parse_finite_double("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(parse_finite_double("-0.75"), -0.75);
}

TEST(Csv, ParseFiniteDoubleRejectsNonFinite) {
  EXPECT_THROW(parse_finite_double("nan"), Error);
  EXPECT_THROW(parse_finite_double("NaN"), Error);
  EXPECT_THROW(parse_finite_double("inf"), Error);
  EXPECT_THROW(parse_finite_double("-inf"), Error);
  EXPECT_THROW(parse_finite_double("1e999"), Error);  // overflows to inf
  EXPECT_THROW(parse_finite_double("bogus"), Error);
}

TEST(Csv, BareCarriageReturnInUnquotedFieldIsSwallowed) {
  // A lone \r outside quotes is treated as line-ending noise and dropped;
  // \r that must survive a round trip has to be quoted (and the writer
  // always quotes it).
  const auto rows = parse_all("a\rb,c\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"ab", "c"}));
}

TEST(Csv, QuotedFieldSpansPhysicalLines) {
  const auto rows = parse_all("\"line one\nline two\",x\nnext,y\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "line one\nline two");
  EXPECT_EQ(rows[0][1], "x");
  EXPECT_EQ(rows[1], (std::vector<std::string>{"next", "y"}));
}

TEST(Csv, TrailingRowWithoutFinalNewline) {
  const auto rows = parse_all("a,b\n\"q\",last");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"q", "last"}));
}

TEST(Csv, EmptyFileReadsNoRowsRepeatedly) {
  std::istringstream in("");
  CsvReader reader(in);
  std::vector<std::string> row;
  EXPECT_FALSE(reader.read_row(row));
  EXPECT_FALSE(reader.read_row(row));  // stable at EOF
  EXPECT_TRUE(row.empty());
}

}  // namespace
}  // namespace fa
