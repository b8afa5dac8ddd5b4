// Fixture: a sibling of pool.cc that only the `dirs` entry maps, so it
// stays in the common layer and both includes are upward edges.
#include "common/pool.h"  // expect: layer
#include "storage/store.h"  // expect: layer

namespace common {
void Sibling() {}
}  // namespace common
