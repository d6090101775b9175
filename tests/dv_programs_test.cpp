// The built-in program table and the program/param parsing every front
// end shares (dv/programs/builtins.h).

#include <gtest/gtest.h>

#include <string>

#include "common/check.h"
#include "dv/compiler.h"
#include "dv/programs/builtins.h"

namespace deltav::dv::programs {
namespace {

TEST(BuiltinPrograms, EveryTableNameCompiles) {
  for (const auto& p : kBuiltinPrograms) {
    SCOPED_TRACE(p.name);
    EXPECT_STREQ(builtin_program_source(p.name), p.source);
    EXPECT_EQ(load_program_source(p.name), p.source);
    EXPECT_FALSE(program_is_path(p.name));
    EXPECT_NO_THROW(compile(p.source, {}));
  }
}

TEST(BuiltinPrograms, UnknownNameListsEveryName) {
  try {
    builtin_program_source("no-such-program");
    FAIL();
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'no-such-program'"), std::string::npos) << what;
    for (const auto& p : kBuiltinPrograms)
      EXPECT_NE(what.find(p.name), std::string::npos) << p.name;
  }
}

TEST(BuiltinPrograms, PathSpecsReadFiles) {
  EXPECT_TRUE(program_is_path("dir/cc"));
  EXPECT_TRUE(program_is_path("my.dv"));
  EXPECT_FALSE(program_is_path(".dv"));
  EXPECT_THROW(load_program_source("no_such_file.dv"), CheckError);
  EXPECT_THROW(load_program_source(""), CheckError);
}

TEST(ParseParams, IntsAndFloats) {
  const auto params = parse_params("source=3,,eps=0.25,k=-2");
  ASSERT_EQ(params.size(), 3u);
  EXPECT_EQ(params.at("source").type, Type::kInt);
  EXPECT_EQ(params.at("source").as_i(), 3);
  EXPECT_EQ(params.at("eps").type, Type::kFloat);
  EXPECT_EQ(params.at("eps").as_f(), 0.25);
  EXPECT_EQ(params.at("k").as_i(), -2);
  EXPECT_TRUE(parse_params("").empty());
}

TEST(ParseParams, MalformedValuesNameTheItem) {
  for (const char* spec : {"source=x", "source=3x", "source=", "eps=1e5",
                           "eps=0.5.1"}) {
    try {
      parse_params(spec);
      FAIL() << spec;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("param '") + spec +
                                           "' has a malformed value"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(parse_params("source"), CheckError);
  EXPECT_THROW(parse_params("=3"), CheckError);
}

}  // namespace
}  // namespace deltav::dv::programs
