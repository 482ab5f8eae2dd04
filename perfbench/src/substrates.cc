#include "perfbench/src/substrates.h"

#include <memory>

#include "perfbench/src/spans.h"
#include "src/cluster/node.h"
#include "src/store/btree_store.h"
#include "src/store/hash_store.h"
#include "src/util/rand.h"

namespace perfbench {

namespace {

using namespace drtmr;

constexpr uint32_t kLines = 64;
constexpr uint32_t kValueSize = 40;

struct Line {
  uint64_t words[8];
};

}  // namespace

const char* SubstrateOpName(SubstrateOp op) {
  switch (op) {
    case SubstrateOp::kHtmBeginCommit:
      return "htm_begin_commit";
    case SubstrateOp::kBusRead64:
      return "bus_read64";
    case SubstrateOp::kRdmaWrite:
      return "rdma_write";
    case SubstrateOp::kRdmaRead:
      return "rdma_read";
    case SubstrateOp::kRdmaCas:
      return "rdma_cas";
    case SubstrateOp::kHashInsert:
      return "hash_insert";
    case SubstrateOp::kHashLookup:
      return "hash_lookup";
    case SubstrateOp::kBtreeInsert:
      return "btree_insert";
    case SubstrateOp::kBtreeLookup:
      return "btree_lookup";
    case SubstrateOp::kCount:
      break;
  }
  return "unknown";
}

SubstrateCosts ProbeSubstrates(uint64_t seed, uint32_t batches, uint32_t batch) {
  SubstrateCosts out;
  FastRand rng(seed ^ 0x5b5b5b5bull);

  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = 2;
  ccfg.workers_per_node = 1;
  ccfg.memory_bytes = 32u << 20;
  ccfg.log_bytes = 1u << 20;
  cluster::Cluster cluster(ccfg);
  cluster::Node* local = cluster.node(0);
  cluster::Node* remote = cluster.node(1);
  sim::ThreadContext* ctx = local->context(0);
  store::HashStore hash(local, 4096, kValueSize);
  store::BTreeStore btree;

  const uint64_t counter_off = local->allocator()->Alloc(64);
  const uint64_t lines_off = local->allocator()->Alloc(64 * kLines);
  const uint64_t remote_off = remote->allocator()->Alloc(64 * kLines);
  const uint64_t cas_off = remote->allocator()->Alloc(64);
  local->bus()->WriteU64(ctx, counter_off, 0);
  remote->bus()->WriteU64(remote->context(0), cas_off, 0);
  Line pattern[kLines];
  Line written[kLines];
  for (uint32_t j = 0; j < kLines; ++j) {
    for (uint64_t& w : pattern[j].words) {
      w = rng.Next();
    }
    local->bus()->Write(ctx, lines_off + 64 * j, &pattern[j], sizeof(Line));
    written[j] = Line{};
    remote->bus()->Write(remote->context(0), remote_off + 64 * j, &written[j], sizeof(Line));
  }

  std::vector<uint64_t> keys(batch);
  std::vector<uint64_t> offsets(batch);
  uint64_t htm_commits = 0;
  uint64_t cas_value = 0;
  std::array<uint64_t, kNumSubstrateOps> total_ns{};
  auto fail = [&](SubstrateOp op, const char* what) {
    if (out.failed++ < 8) {
      out.failures.push_back(std::string("substrate ") + SubstrateOpName(op) + ": " + what);
    }
  };
  // Times `batch` calls of `op`; `body(i)` returns false on a wrong result.
  auto timed = [&](SubstrateOp op, auto&& body) {
    const uint64_t t0 = HostNowNs();
    for (uint32_t i = 0; i < batch; ++i) {
      if (!body(i)) {
        fail(op, "wrong status or value");
      }
    }
    total_ns[static_cast<size_t>(op)] += HostNowNs() - t0;
  };

  for (uint32_t b = 0; b < batches; ++b) {
    cluster.ResetSimTime();
    for (uint32_t i = 0; i < batch; ++i) {
      keys[i] = (rng.Next() >> 8) + 1;
    }
    timed(SubstrateOp::kHtmBeginCommit, [&](uint32_t) {
      sim::HtmTxn* txn = local->htm()->Begin(ctx);
      uint64_t v = 0;
      const bool ok = txn->ReadU64(counter_off, &v) == Status::kOk &&
                      txn->WriteU64(counter_off, v + 1) == Status::kOk &&
                      txn->Commit() == Status::kOk;
      htm_commits += ok ? 1 : 0;
      return ok;
    });
    timed(SubstrateOp::kBusRead64, [&](uint32_t i) {
      const uint32_t j = (i * 7 + b) % kLines;
      Line got;
      local->bus()->Read(ctx, lines_off + 64 * j, &got, sizeof(got));
      return got.words[0] == pattern[j].words[0] && got.words[7] == pattern[j].words[7];
    });
    timed(SubstrateOp::kRdmaWrite, [&](uint32_t i) {
      const uint32_t j = i % kLines;
      written[j].words[0] = keys[i];
      return local->nic()->Write(ctx, 1, remote_off + 64 * j, &written[j], sizeof(Line)) ==
             Status::kOk;
    });
    timed(SubstrateOp::kRdmaRead, [&](uint32_t i) {
      const uint32_t j = (i * 5 + b) % kLines;
      Line got;
      return local->nic()->Read(ctx, 1, remote_off + 64 * j, &got, sizeof(got)) == Status::kOk &&
             got.words[0] == written[j].words[0];
    });
    timed(SubstrateOp::kRdmaCas, [&](uint32_t) {
      uint64_t observed = ~0ull;
      const bool ok = local->nic()->CompareSwap(ctx, 1, cas_off, cas_value, cas_value + 1,
                                                &observed) == Status::kOk &&
                      observed == cas_value;
      cas_value += ok ? 1 : 0;
      return ok;
    });
    timed(SubstrateOp::kHashInsert, [&](uint32_t i) {
      char value[kValueSize] = {};
      value[0] = static_cast<char>(keys[i]);
      return hash.Insert(ctx, keys[i], value, &offsets[i]) == Status::kOk;
    });
    timed(SubstrateOp::kHashLookup,
          [&](uint32_t i) { return hash.Lookup(ctx, keys[i]) == offsets[i]; });
    timed(SubstrateOp::kBtreeInsert,
          [&](uint32_t i) { return btree.Insert(ctx, keys[i], keys[i] * 64) == Status::kOk; });
    timed(SubstrateOp::kBtreeLookup,
          [&](uint32_t i) { return btree.Lookup(ctx, keys[i]) == keys[i] * 64; });
    // Untimed: empty both stores so every batch inserts into the same sizes.
    for (uint32_t i = 0; i < batch; ++i) {
      if (hash.Remove(ctx, keys[i]) != Status::kOk || btree.Remove(ctx, keys[i]) != Status::kOk) {
        fail(SubstrateOp::kHashInsert, "remove after insert failed");
      }
    }
  }

  uint64_t counter = 0;
  local->bus()->Read(ctx, counter_off, &counter, sizeof(counter));
  if (counter != htm_commits) {
    fail(SubstrateOp::kHtmBeginCommit, "counter does not match committed regions");
  }
  out.calls_per_op = static_cast<uint64_t>(batches) * batch;
  for (size_t op = 0; op < kNumSubstrateOps; ++op) {
    out.host_ns[op] =
        out.calls_per_op == 0 ? 0 : static_cast<double>(total_ns[op]) / out.calls_per_op;
  }
  return out;
}

}  // namespace perfbench
