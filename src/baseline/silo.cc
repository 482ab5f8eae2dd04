#include "src/baseline/silo.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "src/sim/time_gate.h"
#include "src/store/record.h"
#include "src/util/logging.h"

namespace drtmr::baseline {

using store::LockWord;
using store::RecordLayout;

SiloTxn::SiloTxn(SiloEngine* engine, sim::ThreadContext* ctx)
    : engine_(engine),
      ctx_(ctx),
      self_(engine->base()->cluster()->node(ctx->node_id)),
      lock_word_(LockWord::Make(ctx->node_id, ctx->worker_id)) {}

void SiloTxn::Begin(bool read_only) {
  sim::TimeGate::Sync(&ctx_->clock);
  read_only_ = read_only;
  read_set_.clear();
  write_set_.clear();
  mutations_.clear();
}

Status SiloTxn::SeqlockRead(store::Table* table, uint64_t key, void* value_out,
                            txn::AccessEntry* entry) {
  const uint64_t off = table->Lookup(ctx_, ctx_->node_id, key);
  if (off == 0) {
    return Status::kNotFound;
  }
  ctx_->Charge(engine_->base()->cost()->record_logic_ns);
  const size_t rec_bytes = table->record_bytes();
  std::vector<std::byte> buf(rec_bytes);
  std::vector<std::byte> buf2(rec_bytes);
  while (true) {
    self_->bus()->Read(ctx_, off, buf.data(), rec_bytes);
    if (LockWord::IsLocked(RecordLayout::GetLock(buf.data()))) {
      std::this_thread::yield();
      continue;
    }
    self_->bus()->Read(ctx_, off, buf2.data(), rec_bytes);
    if (RecordLayout::GetLock(buf2.data()) == 0 &&
        RecordLayout::GetSeq(buf.data()) == RecordLayout::GetSeq(buf2.data())) {
      break;
    }
  }
  entry->table = table;
  entry->node = ctx_->node_id;
  entry->key = key;
  entry->offset = off;
  entry->seq = RecordLayout::GetSeq(buf.data());
  entry->incarnation = RecordLayout::GetIncarnation(buf.data());
  if (value_out != nullptr) {
    RecordLayout::GatherValue(buf.data(), value_out, table->value_size());
  }
  return Status::kOk;
}

Status SiloTxn::Read(store::Table* table, uint32_t node, uint64_t key, void* value_out) {
  DRTMR_CHECK(node == ctx_->node_id) << "Silo is single-machine";
  for (const auto& w : write_set_) {
    if (w.access.table == table && w.access.key == key) {
      if (value_out != nullptr) {
        std::memcpy(value_out, w.value.data(), table->value_size());
      }
      return Status::kOk;
    }
  }
  txn::AccessEntry e;
  const Status s = SeqlockRead(table, key, value_out, &e);
  if (s != Status::kOk) {
    return s;
  }
  read_set_.push_back(e);
  return Status::kOk;
}

Status SiloTxn::Write(store::Table* table, uint32_t node, uint64_t key, const void* value) {
  DRTMR_CHECK(node == ctx_->node_id);
  ctx_->Charge(engine_->base()->cost()->CopyNs(table->value_size()));
  for (auto& w : write_set_) {
    if (w.access.table == table && w.access.key == key) {
      std::memcpy(w.value.data(), value, table->value_size());
      return Status::kOk;
    }
  }
  txn::WriteEntry w;
  w.value.assign(static_cast<const std::byte*>(value),
                 static_cast<const std::byte*>(value) + table->value_size());
  bool found = false;
  for (const auto& e : read_set_) {
    if (e.table == table && e.key == key) {
      w.access = e;
      found = true;
      break;
    }
  }
  if (!found) {
    txn::AccessEntry e;
    const Status s = SeqlockRead(table, key, nullptr, &e);
    if (s != Status::kOk) {
      return s;
    }
    w.access = e;
    w.blind = true;
  }
  write_set_.push_back(std::move(w));
  return Status::kOk;
}

Status SiloTxn::Insert(store::Table* table, uint32_t node, uint64_t key, const void* value) {
  DRTMR_CHECK(node == ctx_->node_id);
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

Status SiloTxn::Remove(store::Table* table, uint32_t node, uint64_t key) {
  DRTMR_CHECK(node == ctx_->node_id);
  txn::MutationEntry m;
  m.op = txn::MutationEntry::Op::kRemove;
  m.table = table;
  m.node = node;
  m.key = key;
  mutations_.push_back(std::move(m));
  return Status::kOk;
}

Status SiloTxn::ScanLocal(store::Table* table, uint64_t lo, uint64_t hi,
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

Status SiloTxn::Commit() {
  txn::TxnStats& stats = engine_->stats();
  // Phase 1: lock the write set in address order (no-wait: fail -> abort).
  std::vector<size_t> order(write_set_.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return write_set_[a].access.offset < write_set_[b].access.offset;
  });
  size_t locked = 0;
  Status result = Status::kOk;
  for (; locked < order.size(); ++locked) {
    const auto& w = write_set_[order[locked]];
    // Skip duplicate offsets (already locked by us).
    if (locked > 0 && write_set_[order[locked - 1]].access.offset == w.access.offset) {
      continue;
    }
    uint64_t obs;
    if (!self_->bus()->CasU64(ctx_, w.access.offset + RecordLayout::kLockOff, 0, lock_word_,
                              &obs)) {
      result = Status::kAborted;
      break;
    }
  }
  // Phase 2: validate the read set (seq unchanged, not locked by others).
  if (result == Status::kOk) {
    for (const auto& e : read_set_) {
      uint64_t meta[3];  // lock, inc, seq
      self_->bus()->Read(ctx_, e.offset, meta, sizeof(meta));
      if ((meta[0] != 0 && meta[0] != lock_word_) || meta[1] != e.incarnation ||
          meta[2] != e.seq) {
        result = Status::kAborted;
        break;
      }
    }
  }
  // Phase 3: apply + unlock.
  if (result == Status::kOk) {
    std::vector<std::byte> image;
    for (const auto& w : write_set_) {
      image.assign(w.access.table->record_bytes(), std::byte{0});
      uint64_t cur_seq = self_->bus()->ReadU64(ctx_, w.access.offset + RecordLayout::kSeqOff);
      RecordLayout::Init(image.data(), w.access.key, w.access.incarnation, cur_seq + 2,
                         w.value.data(), w.access.table->value_size());
      self_->bus()->Write(ctx_, w.access.offset + RecordLayout::kSeqOff,
                          image.data() + RecordLayout::kSeqOff,
                          image.size() - RecordLayout::kSeqOff);
    }
    for (auto& m : mutations_) {
      // Past the commit point: kExists/kNotFound mean the mutation was already
      // applied (idempotent re-execution), so the status carries no new info.
      (void)engine_->base()->Mutate(ctx_, m);
    }
    stats.IncCommit();
  } else {
    stats.IncAbortValidation();
  }
  for (size_t i = 0; i < locked; ++i) {
    const auto& w = write_set_[order[i]];
    if (i > 0 && write_set_[order[i - 1]].access.offset == w.access.offset) {
      continue;
    }
    uint64_t obs;
    self_->bus()->CasU64(ctx_, w.access.offset + RecordLayout::kLockOff, lock_word_, 0, &obs);
  }
  return result;
}

void SiloTxn::UserAbort() {
  engine_->stats().IncAbortUser();
}

}  // namespace drtmr::baseline
