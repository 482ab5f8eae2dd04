// Lock-state assertions shared by the commit-protocol test suites: after any
// commit or abort, no record may be left holding a lock word (the two-verb
// lock strategy) or a seq lock bit (the fused §4.4 strategy).
#ifndef DRTMR_TESTS_LOCK_STATE_H_
#define DRTMR_TESTS_LOCK_STATE_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/cluster/node.h"
#include "src/store/record.h"
#include "src/store/table.h"

namespace drtmr {

// The record at `off` on `bus` holds neither lock.
inline void ExpectUnlocked(sim::MemoryBus* bus, uint64_t off, uint64_t key) {
  EXPECT_EQ(bus->ReadU64(nullptr, off + store::RecordLayout::kLockOff),
            store::LockWord::kUnlocked)
      << "lock word left held on key " << key;
  EXPECT_FALSE(store::SeqWord::Locked(bus->ReadU64(nullptr, off + store::RecordLayout::kSeqOff)))
      << "seq lock bit left set on key " << key;
}

// Every key of `table` in `keys`, hosted on node key % num_nodes (the layout
// the protocol suites load), holds neither lock.
inline void ExpectNoLocksHeld(cluster::Cluster* cluster, store::Table* table,
                              const std::vector<uint64_t>& keys) {
  for (const uint64_t key : keys) {
    const uint32_t node = static_cast<uint32_t>(key % cluster->num_nodes());
    const uint64_t off = table->hash(node)->Lookup(nullptr, key);
    ASSERT_NE(off, 0u) << "key " << key;
    ExpectUnlocked(cluster->node(node)->bus(), off, key);
  }
}

}  // namespace drtmr

#endif  // DRTMR_TESTS_LOCK_STATE_H_
