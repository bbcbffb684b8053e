#include "mphars/core_allocator.hpp"

#include <gtest/gtest.h>

#include "mphars/registry.hpp"

namespace hars {
namespace {

constexpr int kBigStart = 4;

class CoreAllocatorTest : public testing::Test {
 protected:
  AppRegistry registry_{4, 4};
};

TEST_F(CoreAllocatorTest, FirstAllocationTakesLowestFreeSlots) {
  AppNode& a = registry_.add(0);
  a.nprocs_b = 2;
  a.nprocs_l = 1;
  const CpuMask mask = allocate_core_set(a, registry_.fastest_cluster(),
                                         registry_.slowest_cluster(),
                                         kBigStart);
  EXPECT_EQ(mask, CpuMask::single(0) | CpuMask::range(4, 2));
  EXPECT_EQ(a.used_big_count(), 2);
  EXPECT_EQ(a.used_little_count(), 1);
  EXPECT_EQ(registry_.fastest_cluster().free_count(), 2);
  EXPECT_EQ(registry_.slowest_cluster().free_count(), 3);
}

TEST_F(CoreAllocatorTest, SecondAppCannotTakeOwnedCores) {
  AppNode& a = registry_.add(0);
  a.nprocs_b = 2;
  allocate_core_set(a, registry_.fastest_cluster(), registry_.slowest_cluster(),
                    kBigStart);
  AppNode& b = registry_.add(1);
  b.nprocs_b = 2;
  const CpuMask mask_b = allocate_core_set(b, registry_.fastest_cluster(),
                                           registry_.slowest_cluster(),
                                           kBigStart);
  // A owns big slots 0-1 (cpus 4-5); B must get slots 2-3 (cpus 6-7).
  EXPECT_EQ(mask_b, CpuMask::range(6, 2));
  EXPECT_EQ((owned_big_mask(a, kBigStart) & owned_big_mask(b, kBigStart)).count(), 0);
}

TEST_F(CoreAllocatorTest, GrowKeepsExistingCores) {
  AppNode& a = registry_.add(0);
  a.nprocs_b = 1;
  allocate_core_set(a, registry_.fastest_cluster(), registry_.slowest_cluster(),
                    kBigStart);
  EXPECT_TRUE(owned_big_mask(a, kBigStart).test(4));
  a.nprocs_b = 3;
  const CpuMask mask = allocate_core_set(a, registry_.fastest_cluster(),
                                         registry_.slowest_cluster(),
                                         kBigStart);
  EXPECT_TRUE(mask.test(4));  // The old core is retained (no migration).
  EXPECT_EQ(mask.count(), 3);
}

TEST_F(CoreAllocatorTest, ShrinkReleasesToFreePool) {
  AppNode& a = registry_.add(0);
  a.nprocs_b = 4;
  allocate_core_set(a, registry_.fastest_cluster(), registry_.slowest_cluster(),
                    kBigStart);
  EXPECT_EQ(registry_.fastest_cluster().free_count(), 0);
  a.dec_big_core_cnt = 3;
  a.nprocs_b = 1;
  const CpuMask mask = allocate_core_set(a, registry_.fastest_cluster(),
                                         registry_.slowest_cluster(),
                                         kBigStart);
  EXPECT_EQ(mask.count(), 1);
  EXPECT_EQ(a.used_big_count(), 1);
  EXPECT_EQ(registry_.fastest_cluster().free_count(), 3);
}

TEST_F(CoreAllocatorTest, PaperExampleFreeCoresOnly) {
  // §4.1.3: A owns bigcore0-1; B (on littlecore0-1) asks for big cores and
  // must receive bigcore2-3 — the free ones.
  AppNode& a = registry_.add(0);
  a.nprocs_b = 2;
  allocate_core_set(a, registry_.fastest_cluster(), registry_.slowest_cluster(),
                    kBigStart);
  AppNode& b = registry_.add(1);
  b.nprocs_l = 2;
  allocate_core_set(b, registry_.fastest_cluster(), registry_.slowest_cluster(),
                    kBigStart);
  b.nprocs_b = 2;
  const CpuMask mask = allocate_core_set(b, registry_.fastest_cluster(),
                                         registry_.slowest_cluster(),
                                         kBigStart);
  EXPECT_TRUE(mask.test(6));
  EXPECT_TRUE(mask.test(7));
  EXPECT_FALSE(mask.test(4));
  EXPECT_FALSE(mask.test(5));
}

TEST_F(CoreAllocatorTest, ComesUpShortWhenPoolExhausted) {
  AppNode& a = registry_.add(0);
  a.nprocs_b = 3;
  allocate_core_set(a, registry_.fastest_cluster(), registry_.slowest_cluster(),
                    kBigStart);
  AppNode& b = registry_.add(1);
  b.nprocs_b = 3;  // Only 1 free remains.
  const CpuMask mask = allocate_core_set(b, registry_.fastest_cluster(),
                                         registry_.slowest_cluster(),
                                         kBigStart);
  EXPECT_EQ(mask.count(), 1);
  EXPECT_EQ(b.used_big_count(), 1);
}

TEST_F(CoreAllocatorTest, BookkeepingInvariantNoSlotBothFreeAndUsed) {
  AppNode& a = registry_.add(0);
  AppNode& b = registry_.add(1);
  // A sequence of grows and shrinks.
  const int seq_a[] = {2, 4, 1, 3, 0, 2};
  const int seq_b[] = {1, 0, 3, 1, 4, 2};
  for (int step = 0; step < 6; ++step) {
    for (auto [node, want] : {std::pair{&a, seq_a[step]}, {&b, seq_b[step]}}) {
      node->dec_big_core_cnt = std::max(0, node->used_big_count() - want);
      node->nprocs_b = want;
      allocate_core_set(*node, registry_.fastest_cluster(),
                        registry_.slowest_cluster(), kBigStart);
    }
    // Every slot: free XOR owned-by-exactly-one.
    for (int slot = 0; slot < 4; ++slot) {
      const int owners = (a.use_b_core[static_cast<std::size_t>(slot)] == kUse) +
                         (b.use_b_core[static_cast<std::size_t>(slot)] == kUse);
      const bool free_slot =
          registry_.fastest_cluster().free_core[static_cast<std::size_t>(slot)] == kFree;
      EXPECT_EQ(owners + (free_slot ? 1 : 0), 1)
          << "step " << step << " slot " << slot;
    }
  }
}

TEST_F(CoreAllocatorTest, ZeroRequestReturnsEmptyMask) {
  AppNode& a = registry_.add(0);
  a.nprocs_b = 0;
  a.nprocs_l = 0;
  EXPECT_TRUE(allocate_core_set(a, registry_.fastest_cluster(),
                                registry_.slowest_cluster(), kBigStart)
                  .empty());
}

TEST(OwnedMasks, ReflectUseArrays) {
  AppRegistry registry(4, 4);
  AppNode& a = registry.add(0);
  a.use_b_core[1] = kUse;
  a.use_b_core[3] = kUse;
  a.use_l_core[0] = kUse;
  EXPECT_EQ(owned_big_mask(a, 4), CpuMask::single(5) | CpuMask::single(7));
  EXPECT_EQ(owned_little_mask(a), CpuMask::single(0));
}

}  // namespace
}  // namespace hars
