// Tests of the text-table renderer and the CSV writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/csv.h"
#include "common/table.h"

namespace uniserver {
namespace {

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable table("demo");
  table.set_header({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "12345"});
  const std::string out = table.render();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 12345 |"), std::string::npos);
}

TEST(TextTableTest, ShortRowsPadWithEmptyCells) {
  TextTable table;
  table.set_header({"a", "b", "c"});
  table.add_row({"x"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| x |"), std::string::npos);
}

TEST(TextTableTest, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(-1.5, 0), "-2");  // round-to-even via iostream
  EXPECT_EQ(TextTable::pct(12.345, 1), "12.3%");
}

TEST(CsvWriterTest, EscapesSpecialCharacters) {
  CsvWriter csv({"a", "b"});
  csv.add_row({"plain", "with,comma"});
  csv.add_row({"with\"quote", "with\nnewline"});
  const std::string out = csv.str();
  EXPECT_NE(out.find("plain,\"with,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"with\"\"quote\""), std::string::npos);
}

TEST(CsvWriterTest, NumericRowsUsePrecision) {
  CsvWriter csv({"x"});
  csv.add_numeric_row({1.0 / 3.0}, 3);
  EXPECT_NE(csv.str().find("0.333"), std::string::npos);
}

TEST(CsvWriterTest, SaveWritesFile) {
  CsvWriter csv({"h1", "h2"});
  csv.add_row({"1", "2"});
  const std::string path = "/tmp/uniserver_test_csv.csv";
  ASSERT_TRUE(csv.save(path));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "h1,h2");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace uniserver
