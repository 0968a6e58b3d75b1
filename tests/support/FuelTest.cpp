//===- tests/support/FuelTest.cpp -------------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "support/Fuel.h"

#include <gtest/gtest.h>

using namespace slp;

TEST(Fuel, UnlimitedNeverExhausts) {
  Fuel F;
  for (int I = 0; I != 1000; ++I)
    EXPECT_TRUE(F.consume());
  EXPECT_FALSE(F.exhausted());
  EXPECT_EQ(F.used(), 1000u);
}

TEST(Fuel, LimitedExhausts) {
  Fuel F(3);
  EXPECT_TRUE(F.consume());
  EXPECT_TRUE(F.consume());
  EXPECT_TRUE(F.consume());
  EXPECT_FALSE(F.consume());
  EXPECT_TRUE(F.exhausted());
}

TEST(Fuel, BulkConsumption) {
  Fuel F(10);
  EXPECT_TRUE(F.consume(10));
  EXPECT_FALSE(F.consume());
}
