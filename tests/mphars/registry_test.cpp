#include "mphars/registry.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hars {
namespace {

TEST(AppRegistry, StartsEmptyWithAllCoresFree) {
  AppRegistry r(4, 4);
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.fastest_cluster().free_count(), 4);
  EXPECT_EQ(r.slowest_cluster().free_count(), 4);
  EXPECT_EQ(r.fastest_cluster().frozen_flag, 0);
}

TEST(AppRegistry, AddInitializesNode) {
  AppRegistry r(4, 4);
  AppNode& n = r.add(7);
  EXPECT_EQ(n.app_id, 7);
  EXPECT_EQ(n.nprocs_b, 0);
  EXPECT_EQ(n.use_b_core.size(), 4u);
  EXPECT_EQ(n.use_l_core.size(), 4u);
  EXPECT_EQ(n.used_big_count(), 0);
  EXPECT_EQ(n.freezing_cnt_b, 0);
}

TEST(AppRegistry, FindById) {
  AppRegistry r(4, 4);
  r.add(1);
  r.add(2);
  EXPECT_NE(r.find(1), nullptr);
  EXPECT_NE(r.find(2), nullptr);
  EXPECT_EQ(r.find(3), nullptr);
  EXPECT_EQ(r.find(2)->app_id, 2);
}

TEST(AppRegistry, IterationInRegistrationOrder) {
  AppRegistry r(4, 4);
  r.add(5);
  r.add(3);
  r.add(9);
  std::vector<AppId> order;
  r.for_each([&](AppNode& n) { order.push_back(n.app_id); });
  EXPECT_EQ(order, (std::vector<AppId>{5, 3, 9}));
}

TEST(AppRegistry, RemoveKeepsRegistrationOrder) {
  AppRegistry r(4, 4);
  for (AppId id : {5, 3, 9, 4}) r.add(id);
  EXPECT_TRUE(r.remove(3));
  EXPECT_FALSE(r.remove(3));
  r.add(7);
  EXPECT_TRUE(r.remove(4));
  std::vector<AppId> order;
  r.for_each([&](AppNode& n) { order.push_back(n.app_id); });
  EXPECT_EQ(order, (std::vector<AppId>{5, 9, 7}));
  EXPECT_EQ(r.size(), 3u);
}

TEST(AppRegistry, ConstIteration) {
  AppRegistry r(4, 4);
  r.add(1);
  const AppRegistry& cr = r;
  int count = 0;
  cr.for_each([&](const AppNode&) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(ClusterData, FreeCountHelpers) {
  ClusterData c;
  c.free_core = {kFree, kNotFree, kFree, kFree};
  EXPECT_EQ(c.free_count(), 3);
}

TEST(AppNode, UsedCountHelpers) {
  AppNode n;
  n.use_b_core = {kUse, kUnuse, kUse, kUnuse};
  n.use_l_core = {kUnuse, kUnuse, kUnuse, kUse};
  EXPECT_EQ(n.used_big_count(), 2);
  EXPECT_EQ(n.used_little_count(), 1);
}

}  // namespace
}  // namespace hars
