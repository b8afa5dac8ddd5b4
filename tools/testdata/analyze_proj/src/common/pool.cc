// Fixture: pinned to the pool layer by `files`, so including a storage
// header is a downward edge and stays silent.
#include "common/pool.h"

#include "storage/store.h"

namespace common {
void RunPool() {}
}  // namespace common
