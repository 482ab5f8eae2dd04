// Host cost of single substrate calls. Inside the transaction workloads these
// calls happen inside txn/, where timing from outside cannot reach them, so
// every traced run also times them directly: batches of one call kind on a
// private 2-machine cluster, one thread, inputs drawn from the run's seed.
// Every call's status and every value read back is checked.
#ifndef PERFBENCH_SRC_SUBSTRATES_H_
#define PERFBENCH_SRC_SUBSTRATES_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SubstrateOp : uint32_t {
  kHtmBeginCommit = 0,  // HtmEngine::Begin + one 8-byte read and write + Commit
  kBusRead64,           // MemoryBus::Read of one 64-byte line
  kRdmaWrite,           // RdmaNic::Write, 64 bytes to the other machine
  kRdmaRead,            // RdmaNic::Read, 64 bytes from the other machine
  kRdmaCas,             // RdmaNic::CompareSwap on the other machine
  kHashInsert,          // HashStore::Insert
  kHashLookup,          // HashStore::Lookup
  kBtreeInsert,         // BTreeStore::Insert
  kBtreeLookup,         // BTreeStore::Lookup
  kCount
};
inline constexpr size_t kNumSubstrateOps = static_cast<size_t>(SubstrateOp::kCount);
// Metric-name stem: "htm_begin_commit", "bus_read64", ...
const char* SubstrateOpName(SubstrateOp op);

struct SubstrateCosts {
  std::array<double, kNumSubstrateOps> host_ns{};  // mean wall ns per call
  uint64_t calls_per_op = 0;
  uint64_t failed = 0;  // calls whose status or read-back value was wrong
  std::vector<std::string> failures;
};

// Runs `batches` rounds; each round times `batch` calls of every op in turn.
SubstrateCosts ProbeSubstrates(uint64_t seed, uint32_t batches, uint32_t batch);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SUBSTRATES_H_
