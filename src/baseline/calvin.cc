#include "src/baseline/calvin.h"

#include <algorithm>
#include <cstring>

#include "src/sim/time_gate.h"
#include "src/store/record.h"
#include "src/util/logging.h"

namespace drtmr::baseline {

using store::RecordLayout;

CalvinEngine::CalvinEngine(txn::TxnEngine* base, const CalvinConfig& config)
    : base_(base), config_(config) {
  locks_.reserve(base->cluster()->num_nodes());
  for (uint32_t i = 0; i < base->cluster()->num_nodes(); ++i) {
    locks_.push_back(std::unique_ptr<Spinlock[]>(new Spinlock[kStripes]));
  }
}

CalvinTxn::CalvinTxn(CalvinEngine* engine, sim::ThreadContext* ctx)
    : engine_(engine), ctx_(ctx) {}

void CalvinTxn::Begin(bool read_only) {
  sim::TimeGate::Sync(&ctx_->clock);
  held_.clear();
  remote_nodes_.clear();
  write_set_.clear();
  mutations_.clear();
  engine_->NextSeq();
  ctx_->Charge(engine_->config().sequencing_ns);
}

void CalvinTxn::ChargeRemote(uint32_t node) {
  if (node == ctx_->node_id) {
    return;
  }
  for (uint32_t n : remote_nodes_) {
    if (n == node) {
      return;
    }
  }
  remote_nodes_.push_back(node);
  ctx_->Charge(engine_->config().remote_partition_ns);
}

Status CalvinTxn::Lock(store::Table* table, uint32_t node, uint64_t key) {
  const Held h{node, CalvinEngine::StripeOf(table, key)};
  for (const Held& held : held_) {
    if (held == h) {
      return Status::kOk;
    }
  }
  if (!engine_->stripe(h.node, h.stripe)->try_lock()) {
    ReleaseAll();
    return Status::kConflict;
  }
  held_.push_back(h);
  return Status::kOk;
}

void CalvinTxn::ReleaseAll() {
  for (const Held& h : held_) {
    engine_->stripe(h.node, h.stripe)->unlock();
  }
  held_.clear();
}

Status CalvinTxn::Read(store::Table* table, uint32_t node, uint64_t key, void* value_out) {
  for (const auto& w : write_set_) {
    if (w.access.table == table && w.access.node == node && w.access.key == key) {
      if (value_out != nullptr) {
        std::memcpy(value_out, w.value.data(), table->value_size());
      }
      return Status::kOk;
    }
  }
  Status s = Lock(table, node, key);
  if (s != Status::kOk) {
    return Status::kAborted;
  }
  ChargeRemote(node);
  const uint64_t off = table->Lookup(ctx_, node, key);
  if (off == 0) {
    return Status::kNotFound;
  }
  ctx_->Charge(engine_->base()->cost()->record_logic_ns);
  if (value_out != nullptr) {
    std::vector<std::byte> rec(table->record_bytes());
    engine_->base()->cluster()->node(node)->bus()->Read(ctx_, off, rec.data(), rec.size());
    RecordLayout::GatherValue(rec.data(), value_out, table->value_size());
  }
  return Status::kOk;
}

Status CalvinTxn::Write(store::Table* table, uint32_t node, uint64_t key, const void* value) {
  const Status s = Lock(table, node, key);
  if (s != Status::kOk) {
    return Status::kAborted;
  }
  ChargeRemote(node);
  const uint64_t off = table->Lookup(ctx_, node, key);
  if (off == 0) {
    return Status::kNotFound;
  }
  for (auto& w : write_set_) {
    if (w.access.table == table && w.access.node == node && w.access.key == key) {
      std::memcpy(w.value.data(), value, table->value_size());
      return Status::kOk;
    }
  }
  txn::WriteEntry w;
  w.access.table = table;
  w.access.node = node;
  w.access.key = key;
  w.access.offset = off;
  w.value.assign(static_cast<const std::byte*>(value),
                 static_cast<const std::byte*>(value) + table->value_size());
  write_set_.push_back(std::move(w));
  ctx_->Charge(engine_->base()->cost()->CopyNs(table->value_size()));
  return Status::kOk;
}

Status CalvinTxn::Insert(store::Table* table, uint32_t node, uint64_t key, const void* value) {
  ChargeRemote(node);
  txn::MutationEntry m;
  m.op = txn::MutationEntry::Op::kInsert;
  m.table = table;
  m.node = node;
  m.key = key;
  m.value.assign(static_cast<const std::byte*>(value),
                 static_cast<const std::byte*>(value) + table->value_size());
  mutations_.push_back(std::move(m));
  return Status::kOk;
}

Status CalvinTxn::Remove(store::Table* table, uint32_t node, uint64_t key) {
  ChargeRemote(node);
  txn::MutationEntry m;
  m.op = txn::MutationEntry::Op::kRemove;
  m.table = table;
  m.node = node;
  m.key = key;
  mutations_.push_back(std::move(m));
  return Status::kOk;
}

Status CalvinTxn::ScanLocal(store::Table* table, uint64_t lo, uint64_t hi,
                            const std::function<bool(uint64_t, const void*)>& fn) {
  std::vector<uint64_t> keys;
  table->btree(ctx_->node_id)->Scan(ctx_, lo, hi, [&](uint64_t key, uint64_t) {
    keys.push_back(key);
    return true;
  });
  std::vector<std::byte> value(table->value_size());
  for (uint64_t key : keys) {
    const Status s = Read(table, ctx_->node_id, key, value.data());
    if (s == Status::kNotFound) {
      continue;
    }
    if (s != Status::kOk) {
      return s;
    }
    if (!fn(key, value.data())) {
      break;
    }
  }
  return Status::kOk;
}

Status CalvinTxn::Commit() {
  // 2PL: all locks held; apply buffered writes, then mutations, then release.
  std::vector<std::byte> image;
  for (const auto& w : write_set_) {
    sim::MemoryBus* bus = engine_->base()->cluster()->node(w.access.node)->bus();
    const uint64_t inc = bus->ReadU64(ctx_, w.access.offset + RecordLayout::kIncOff);
    const uint64_t seq = bus->ReadU64(ctx_, w.access.offset + RecordLayout::kSeqOff);
    image.assign(w.access.table->record_bytes(), std::byte{0});
    RecordLayout::Init(image.data(), w.access.key, inc, seq + 2, w.value.data(),
                       w.access.table->value_size());
    bus->Write(ctx_, w.access.offset + RecordLayout::kSeqOff,
               image.data() + RecordLayout::kSeqOff, image.size() - RecordLayout::kSeqOff);
  }
  for (auto& m : mutations_) {
    // Past the commit point: kExists/kNotFound mean the mutation was already
    // applied (idempotent re-execution), so the status carries no new info.
    (void)engine_->base()->Mutate(ctx_, m);
  }
  ReleaseAll();
  engine_->stats().IncCommit();
  return Status::kOk;
}

void CalvinTxn::UserAbort() {
  ReleaseAll();
  engine_->stats().IncAbortUser();
}

}  // namespace drtmr::baseline
