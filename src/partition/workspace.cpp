#include "partition/workspace.hpp"

namespace sc::partition {

PartitionWorkspace::Level& PartitionWorkspace::level(std::size_t i) {
  // Amortized lazy growth: a level is heap-allocated the first time that
  // depth is reached and recycled for every later partition call.
  while (levels.size() <= i) levels.push_back(std::make_unique<Level>());  // sc-lint: allow(transitive-alloc)
  return *levels[i];
}

void PartitionWorkspace::grow_jobs(std::vector<std::unique_ptr<BisectJob>>& jobs,
                                   std::size_t count) {
  // Amortized lazy growth, as in level() above.
  while (jobs.size() < count) jobs.push_back(std::make_unique<BisectJob>());  // sc-lint: allow(transitive-alloc)
}

PartitionWorkspace& PartitionWorkspace::local() {
  thread_local PartitionWorkspace ws;
  return ws;
}

}  // namespace sc::partition
