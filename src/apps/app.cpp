#include "apps/app.hpp"

#include <stdexcept>

namespace hars {

App::App(std::string name, int thread_count, SpeedModel speed)
    : name_(std::move(name)), thread_count_(thread_count), speed_(speed) {
  if (thread_count <= 0) {
    throw std::invalid_argument("App requires at least one thread");
  }
}

}  // namespace hars
