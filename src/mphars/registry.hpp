// Application registry for MP-HARS: owns the AppNode storage, walked in
// registration order as Algorithm 3 walks its linked list, plus the
// per-cluster data of Table 4.2.
#pragma once

#include <memory>
#include <vector>

#include "mphars/app_node.hpp"

namespace hars {

class AppRegistry {
 public:
  /// `big_slots` / `little_slots` size the per-cluster core-slot arrays.
  AppRegistry(int big_slots, int little_slots);

  /// Creates and appends a node; all core slots of the new app start UNUSE.
  AppNode& add(AppId app_id);

  /// Destroys the node, returning all of its core slots to
  /// the clusters' free pools. Returns false if the app is unknown.
  bool remove(AppId app_id);

  AppNode* find(AppId app_id);
  const AppNode* find(AppId app_id) const;

  /// Algorithm 3's iterateNodes order: registration order (remove
  /// erases in place).
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (const auto& node : nodes_) fn(*node);
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& node : nodes_) fn(static_cast<const AppNode&>(*node));
  }

  std::size_t size() const { return nodes_.size(); }

  /// The two managed pools, named after the machine's perf-ranked
  /// capability API: "fastest" slots map onto the fastest cluster's cores
  /// and "slowest" onto the slowest cluster's (on two-cluster big.LITTLE
  /// parts these are exactly the big and little clusters).
  ClusterData& fastest_cluster() { return big_; }
  ClusterData& slowest_cluster() { return little_; }
  const ClusterData& fastest_cluster() const { return big_; }
  const ClusterData& slowest_cluster() const { return little_; }

 private:
  std::vector<std::unique_ptr<AppNode>> nodes_;
  ClusterData big_;
  ClusterData little_;
  int big_slots_;
  int little_slots_;
};

}  // namespace hars
