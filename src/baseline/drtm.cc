#include "src/baseline/drtm.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/sim/time_gate.h"
#include "src/store/record.h"
#include "src/util/logging.h"

namespace drtmr::baseline {
namespace drtm_internal {

using store::LockWord;
using store::RecordLayout;

// ---------------- RecordingTxn ----------------

RemoteAccess* RecordingTxn::FindRemote(store::Table* table, uint32_t node, uint64_t key) {
  for (auto& a : remote_) {
    if (a.table == table && a.node == node && a.key == key) {
      return &a;
    }
  }
  return nullptr;
}

Status RecordingTxn::Read(store::Table* table, uint32_t node, uint64_t key, void* value_out) {
  cluster::Cluster* cluster = engine_->base()->cluster();
  if (node == ctx_->node_id) {
    local_.emplace_back(table, key);
    const uint64_t off = table->Lookup(nullptr, node, key);
    if (off == 0) {
      return Status::kNotFound;
    }
    if (value_out != nullptr) {
      std::vector<std::byte> rec(table->record_bytes());
      cluster->node(node)->bus()->Read(nullptr, off, rec.data(), rec.size());
      RecordLayout::GatherValue(rec.data(), value_out, table->value_size());
    }
    return Status::kOk;
  }
  RemoteAccess* a = FindRemote(table, node, key);
  if (a == nullptr) {
    const uint64_t off = table->hash(node)->Lookup(nullptr, key);
    if (off == 0) {
      return Status::kNotFound;
    }
    remote_.push_back(RemoteAccess{table, node, key, off, false, {}, {}});
    a = &remote_.back();
  }
  if (value_out != nullptr) {
    std::vector<std::byte> rec(table->record_bytes());
    cluster->node(node)->bus()->Read(nullptr, a->offset, rec.data(), rec.size());
    RecordLayout::GatherValue(rec.data(), value_out, table->value_size());
  }
  return Status::kOk;
}

Status RecordingTxn::Write(store::Table* table, uint32_t node, uint64_t key, const void* value) {
  if (node == ctx_->node_id) {
    local_.emplace_back(table, key);
    return table->Lookup(nullptr, node, key) != 0 ? Status::kOk : Status::kNotFound;
  }
  RemoteAccess* a = FindRemote(table, node, key);
  if (a == nullptr) {
    const uint64_t off = table->hash(node)->Lookup(nullptr, key);
    if (off == 0) {
      return Status::kNotFound;
    }
    remote_.push_back(RemoteAccess{table, node, key, off, true, {}, {}});
  } else {
    a->written = true;
  }
  return Status::kOk;
}

Status RecordingTxn::ScanLocal(store::Table* table, uint64_t lo, uint64_t hi,
                               const std::function<bool(uint64_t, const void*)>& fn) {
  std::vector<uint64_t> keys;
  table->btree(ctx_->node_id)->Scan(nullptr, lo, hi, [&](uint64_t key, uint64_t) {
    keys.push_back(key);
    return true;
  });
  std::vector<std::byte> value(table->value_size());
  for (uint64_t key : keys) {
    if (Read(table, ctx_->node_id, key, value.data()) != Status::kOk) {
      continue;
    }
    if (!fn(key, value.data())) {
      break;
    }
  }
  return Status::kOk;
}

// ---------------- ExecTxn ----------------

RemoteAccess* ExecTxn::FindRemote(store::Table* table, uint32_t node, uint64_t key) {
  for (auto& a : *remote_) {
    if (a.table == table && a.node == node && a.key == key) {
      return &a;
    }
  }
  return nullptr;
}

Status ExecTxn::LocalRead(store::Table* table, uint64_t key, void* value_out) {
  const uint64_t off = table->Lookup(ctx_, ctx_->node_id, key);
  if (off == 0) {
    return Status::kNotFound;
  }
  ctx_->Charge(engine_->base()->cost()->record_logic_ns);
  sim::MemoryBus* bus = engine_->base()->cluster()->node(ctx_->node_id)->bus();
  std::vector<std::byte> rec(table->record_bytes());
  if (htm_ != nullptr) {
    if (htm_->Read(off, rec.data(), rec.size()) != Status::kOk) {
      return Status::kAborted;
    }
    if (LockWord::IsLocked(RecordLayout::GetLock(rec.data()))) {
      // A remote committer (or fallback) holds this record: abort the region.
      htm_->Abort();
      return Status::kConflict;
    }
  } else {
    bus->Read(ctx_, off, rec.data(), rec.size());
  }
  if (value_out != nullptr) {
    RecordLayout::GatherValue(rec.data(), value_out, table->value_size());
  }
  return Status::kOk;
}

Status ExecTxn::LocalWrite(store::Table* table, uint64_t key, const void* value) {
  const uint64_t off = table->Lookup(ctx_, ctx_->node_id, key);
  if (off == 0) {
    return Status::kNotFound;
  }
  sim::MemoryBus* bus = engine_->base()->cluster()->node(ctx_->node_id)->bus();
  std::vector<std::byte> image(table->record_bytes());
  uint64_t meta[3];  // lock, inc, seq
  if (htm_ != nullptr) {
    if (htm_->Read(off, meta, sizeof(meta)) != Status::kOk) {
      return Status::kAborted;
    }
    if (LockWord::IsLocked(meta[0])) {
      htm_->Abort();
      return Status::kConflict;
    }
    RecordLayout::Init(image.data(), key, meta[1], meta[2] + 2, value, table->value_size());
    if (htm_->Write(off + RecordLayout::kSeqOff, image.data() + RecordLayout::kSeqOff,
                    image.size() - RecordLayout::kSeqOff) != Status::kOk) {
      return Status::kAborted;
    }
  } else {
    bus->Read(ctx_, off, meta, sizeof(meta));
    RecordLayout::Init(image.data(), key, meta[1], meta[2] + 2, value, table->value_size());
    bus->Write(ctx_, off + RecordLayout::kSeqOff, image.data() + RecordLayout::kSeqOff,
               image.size() - RecordLayout::kSeqOff);
  }
  return Status::kOk;
}

Status ExecTxn::Read(store::Table* table, uint32_t node, uint64_t key, void* value_out) {
  if (node == ctx_->node_id) {
    return LocalRead(table, key, value_out);
  }
  RemoteAccess* a = FindRemote(table, node, key);
  if (a == nullptr) {
    diverged_ = true;
    if (htm_ != nullptr) {
      htm_->Abort();
    }
    return Status::kAborted;
  }
  ctx_->Charge(engine_->base()->cost()->record_logic_ns / 4);
  if (value_out != nullptr) {
    RecordLayout::GatherValue(a->image.data(), value_out, table->value_size());
  }
  return Status::kOk;
}

Status ExecTxn::Write(store::Table* table, uint32_t node, uint64_t key, const void* value) {
  if (node == ctx_->node_id) {
    return LocalWrite(table, key, value);
  }
  RemoteAccess* a = FindRemote(table, node, key);
  if (a == nullptr) {
    diverged_ = true;
    if (htm_ != nullptr) {
      htm_->Abort();
    }
    return Status::kAborted;
  }
  RecordLayout::ScatterValue(a->image.data(), value, table->value_size());
  a->written = true;
  ctx_->Charge(engine_->base()->cost()->CopyNs(table->value_size()));
  return Status::kOk;
}

Status ExecTxn::Insert(store::Table* table, uint32_t node, uint64_t key, const void* value) {
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

Status ExecTxn::Remove(store::Table* table, uint32_t node, uint64_t key) {
  txn::MutationEntry m;
  m.op = txn::MutationEntry::Op::kRemove;
  m.table = table;
  m.node = node;
  m.key = key;
  mutations_.push_back(std::move(m));
  return Status::kOk;
}

Status ExecTxn::ScanLocal(store::Table* table, uint64_t lo, uint64_t hi,
                          const std::function<bool(uint64_t, const void*)>& fn) {
  std::vector<uint64_t> keys;
  table->btree(ctx_->node_id)->Scan(ctx_, lo, hi, [&](uint64_t key, uint64_t) {
    keys.push_back(key);
    return true;
  });
  std::vector<std::byte> value(table->value_size());
  for (uint64_t key : keys) {
    const Status s = LocalRead(table, key, value.data());
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

}  // namespace drtm_internal

// ---------------- DrTmEngine ----------------

using drtm_internal::ExecTxn;
using drtm_internal::RecordingTxn;
using drtm_internal::RemoteAccess;
using store::LockWord;
using store::RecordLayout;

// Reconnaissance restarts before Execute gives up.
constexpr uint32_t kMaxAttempts = 200000;

bool DrTmEngine::Execute(sim::ThreadContext* ctx, const std::function<bool(txn::TxnApi*)>& body) {
  cluster::Cluster* cluster = base_->cluster();
  cluster::Node* self = cluster->node(ctx->node_id);
  sim::RdmaNic* nic = self->nic();
  const uint64_t lock_word = LockWord::Make(ctx->node_id, ctx->worker_id);

  struct Target {
    uint32_t node;
    uint64_t offset;
    auto operator<=>(const Target&) const = default;
  };

  for (uint32_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
    sim::TimeGate::Sync(&ctx->clock);
    // Pass 1: reconnaissance (models chopping's a-priori knowledge; free).
    RecordingTxn rec(this, ctx);
    if (!body(&rec)) {
      return false;  // business abort / transient not-found: caller decides
    }

    // Lock + fetch the remote set in address order (2PL growing phase).
    std::vector<RemoteAccess> remote = std::move(rec.remote());
    std::sort(remote.begin(), remote.end(), [](const RemoteAccess& a, const RemoteAccess& b) {
      return std::tie(a.node, a.offset) < std::tie(b.node, b.offset);
    });
    std::vector<Target> held;
    bool lock_failed = false;
    for (auto& a : remote) {
      if (!held.empty() && held.back().node == a.node && held.back().offset == a.offset) {
        continue;  // duplicate record
      }
      uint64_t obs = 0;
      if (nic->CompareSwap(ctx, a.node, a.offset + RecordLayout::kLockOff, 0, lock_word, &obs) !=
          Status::kOk) {
        lock_failed = true;
        break;
      }
      held.push_back({a.node, a.offset});
    }
    auto unlock_all = [&] {
      for (const Target& t : held) {
        // Fire-and-forget unlock: nobody waits on the CAS outcome.
        (void)nic->CompareSwap(ctx, t.node, t.offset + RecordLayout::kLockOff, lock_word, 0,
                               nullptr);
      }
      held.clear();
    };
    if (lock_failed) {
      unlock_all();
      stats_.IncAbortLock();
      const uint64_t backoff = ctx->rng.Range(200, 2000);
      ctx->Charge(backoff);
      if ((attempt & 0xff) == 0xff) {
        // The lock holder may be descheduled on an oversubscribed host; give
        // it real time rather than burning retries.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      } else {
        std::this_thread::yield();
      }
      continue;
    }
    bool fetch_failed = false;
    for (auto& a : remote) {
      a.pristine.resize(a.table->record_bytes());
      if (nic->Read(ctx, a.node, a.offset, a.pristine.data(), a.pristine.size()) != Status::kOk ||
          RecordLayout::GetKey(a.pristine.data()) != a.key) {
        fetch_failed = true;
        break;
      }
    }
    if (fetch_failed) {
      unlock_all();
      continue;
    }

    // Pass 2: one big HTM region over the whole transaction body.
    bool committed = false;
    bool restart = false;
    for (uint32_t htm_try = 0; htm_try <= config_.htm_retry_threshold; ++htm_try) {
      if (htm_try == config_.htm_retry_threshold) {
        // Fallback: additionally lock every recorded local record (via
        // loopback RDMA CAS, uniform atomicity) and run without HTM.
        stats_.IncFallback();
        std::vector<Target> local_targets;
        for (const auto& [table, key] : rec.local()) {
          const uint64_t off = table->Lookup(ctx, ctx->node_id, key);
          if (off == 0) {
            continue;
          }
          local_targets.push_back({ctx->node_id, off});
        }
        std::sort(local_targets.begin(), local_targets.end());
        local_targets.erase(std::unique(local_targets.begin(), local_targets.end()),
                            local_targets.end());
        bool local_lock_failed = false;
        for (const Target& t : local_targets) {
          uint64_t obs = 0;
          int spins = 0;
          while (nic->CompareSwap(ctx, t.node, t.offset + RecordLayout::kLockOff, 0, lock_word,
                                  &obs) != Status::kOk) {
            if (obs == lock_word) {
              break;  // ours (remote set overlaps: loopback-local record)
            }
            if (++spins > 64) {
              // Bounded wait avoids hold-and-wait deadlock across fallbacks.
              local_lock_failed = true;
              break;
            }
            std::this_thread::yield();
          }
          if (local_lock_failed) {
            break;
          }
          held.push_back({t.node, t.offset});
        }
        if (local_lock_failed) {
          restart = true;
          break;
        }
        for (auto& a : remote) {
          a.image = a.pristine;
          a.written = false;
        }
        ExecTxn exec(this, ctx, &remote, /*htm=*/nullptr);
        const bool ok = body(&exec);
        if (ok && !exec.diverged()) {
          for (auto& m : exec.mutations()) {
            (void)base_->Mutate(ctx, m);  // past the commit point: idempotent
          }
          committed = true;
        } else {
          restart = true;  // diverged or failed: retry from reconnaissance
        }
        break;
      }
      for (auto& a : remote) {
        a.image = a.pristine;
        a.written = false;
      }
      sim::HtmTxn* htm = self->htm()->Begin(ctx, obs::HtmSite::kBaseline);
      DRTMR_CHECK(htm != nullptr);
      ExecTxn exec(this, ctx, &remote, htm);
      const bool ok = body(&exec);
      if (exec.diverged()) {
        if (ctx->current_htm != nullptr) {
          htm->Abort();
        }
        restart = true;
        break;
      }
      if (!ok) {
        // Covers both HTM/lock conflicts surfaced through the body and
        // transient not-found races; retry the region.
        if (ctx->current_htm != nullptr) {
          htm->Abort();
        }
        continue;  // HTM conflict or locked record: retry the region
      }
      if (htm->Commit() == Status::kOk) {
        for (auto& m : exec.mutations()) {
          (void)base_->Mutate(ctx, m);  // past the commit point: idempotent
        }
        committed = true;
        break;
      }
      stats_.IncHtmCommitRetry();
    }

    if (committed) {
      // Write back dirty remote copies (+ seq bump) and unlock everything.
      uint64_t completion = 0;
      bool any = false;
      for (auto& a : remote) {
        if (!a.written) {
          continue;
        }
        const uint64_t new_seq = RecordLayout::GetSeq(a.image.data()) + 2;
        RecordLayout::SetSeq(a.image.data(), new_seq);
        RecordLayout::SetVersions(a.image.data(), a.table->value_size(), new_seq);
        // Posted write-back: failures surface through the completion fence.
        (void)nic->Write(ctx, a.node, a.offset + RecordLayout::kSeqOff,
                         a.image.data() + RecordLayout::kSeqOff,
                         a.image.size() - RecordLayout::kSeqOff, &completion);
        any = true;
      }
      if (any) {
        nic->Fence(ctx, completion, base_->cost()->rdma_write_ns);
      }
      unlock_all();
      stats_.IncCommit();
      return true;
    }
    unlock_all();
    if (!restart) {
      stats_.IncAbortValidation();
    }
  }
  DRTMR_LOG(Warning) << "DrTM transaction exceeded max attempts";
  return false;
}

}  // namespace drtmr::baseline
