#include "util/status.h"

#include <gtest/gtest.h>

namespace vde {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("object foo");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: object foo");
}

TEST(Status, AllCodesHaveNames) {
  for (auto code : {StatusCode::kOk, StatusCode::kNotFound,
                    StatusCode::kCorruption, StatusCode::kInvalidArgument,
                    StatusCode::kIoError, StatusCode::kPermissionDenied,
                    StatusCode::kOutOfSpace, StatusCode::kBusy}) {
    EXPECT_FALSE(StatusCodeName(code).empty());
    EXPECT_NE(StatusCodeName(code), "Unknown");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r(Status::IoError("disk gone"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Status Fails() { return Status::Corruption("bad"); }

Status Propagates() {
  VDE_RETURN_IF_ERROR(Fails());
  return Status::Ok();
}

TEST(Status, ReturnIfErrorMacro) {
  EXPECT_TRUE(Propagates().IsCorruption());
}

Result<int> MakeInt(bool ok) {
  if (!ok) return Status::InvalidArgument("nope");
  return 7;
}

Status UsesAssign(bool ok, int* out) {
  VDE_ASSIGN_OR_RETURN(int v, MakeInt(ok));
  *out = v;
  return Status::Ok();
}

TEST(Status, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UsesAssign(true, &out).ok());
  EXPECT_EQ(out, 7);
  EXPECT_EQ(UsesAssign(false, &out).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace vde
