// Fixture: a common/ header pinned to the pool layer (above storage) by
// the fixture layers.json `files` entry.
#ifndef FIXTURE_COMMON_POOL_H_
#define FIXTURE_COMMON_POOL_H_

namespace common {
void RunPool();
}  // namespace common

#endif  // FIXTURE_COMMON_POOL_H_
