#include "mphars/registry.hpp"

namespace hars {

AppRegistry::AppRegistry(int big_slots, int little_slots)
    : big_slots_(big_slots), little_slots_(little_slots) {
  big_.free_core.assign(static_cast<std::size_t>(big_slots), kFree);
  little_.free_core.assign(static_cast<std::size_t>(little_slots), kFree);
}

AppNode& AppRegistry::add(AppId app_id) {
  auto node = std::make_unique<AppNode>();
  node->app_id = app_id;
  node->use_b_core.assign(static_cast<std::size_t>(big_slots_), kUnuse);
  node->use_l_core.assign(static_cast<std::size_t>(little_slots_), kUnuse);
  nodes_.push_back(std::move(node));
  return *nodes_.back();
}

bool AppRegistry::remove(AppId app_id) {
  for (auto it = nodes_.begin(); it != nodes_.end(); ++it) {
    if ((*it)->app_id != app_id) continue;
    AppNode& node = **it;
    // Return every owned slot to the free pools.
    for (std::size_t i = 0; i < node.use_b_core.size(); ++i) {
      if (node.use_b_core[i] == kUse) big_.free_core[i] = kFree;
    }
    for (std::size_t i = 0; i < node.use_l_core.size(); ++i) {
      if (node.use_l_core[i] == kUse) little_.free_core[i] = kFree;
    }
    nodes_.erase(it);
    return true;
  }
  return false;
}

AppNode* AppRegistry::find(AppId app_id) {
  for (auto& n : nodes_) {
    if (n->app_id == app_id) return n.get();
  }
  return nullptr;
}

const AppNode* AppRegistry::find(AppId app_id) const {
  return const_cast<AppRegistry*>(this)->find(app_id);
}

}  // namespace hars
