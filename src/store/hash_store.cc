#include "src/store/hash_store.h"

#include <cstring>
#include <vector>

#include "src/chk/protocol_analyzer.h"
#include "src/util/logging.h"

namespace drtmr::store {

namespace {
constexpr uint64_t kSlotBase = 16;  // byte offset of slot 0 within a bucket
constexpr uint64_t KeySlotOff(uint32_t i) { return kSlotBase + i * 16; }
constexpr uint64_t OffSlotOff(uint32_t i) { return kSlotBase + i * 16 + 8; }
}  // namespace

HashStore::HashStore(cluster::Node* node, uint64_t nbuckets, uint32_t value_size)
    : node_(node), nbuckets_(nbuckets), value_size_(value_size) {
  buckets_off_ = node->allocator()->Alloc(nbuckets * kCacheLineSize);
  DRTMR_CHECK(buckets_off_ != cluster::RegionAllocator::kInvalidOffset)
      << "out of registered memory for bucket array";
  // Region memory is zero-initialized, so all buckets start empty.
}

void HashStore::LoadBucket(sim::ThreadContext* ctx, uint64_t off, BucketImage* img) {
  // One line, one stripe: the load is atomic w.r.t. HTM commits and RDMA
  // writes, so a scanned bucket is never torn.
  node_->bus()->Read(ctx, off, img, sizeof(*img));
}

uint64_t HashStore::Lookup(sim::ThreadContext* ctx, uint64_t key) {
  uint64_t bucket = BucketOffset(key);
  BucketImage img;
  while (bucket != 0) {
    LoadBucket(ctx, bucket, &img);
    for (uint32_t i = 0; i < kSlotsPerBucket; ++i) {
      if (img.slots[i].key == key) {
        return img.slots[i].offset;
      }
    }
    bucket = img.next;
  }
  return kNoRecord;
}

uint64_t HashStore::AllocOverflowBucket() {
  const uint64_t off = node_->allocator()->Alloc(kCacheLineSize);
  DRTMR_CHECK(off != cluster::RegionAllocator::kInvalidOffset) << "out of memory for overflow";
  // Freshly allocated memory may be recycled: zero it through the bus so
  // concurrent readers never see stale slots once linked.
  std::byte zero[kCacheLineSize] = {};
  // drtmr-lint: allow(registered-memory): zeroing memory not yet linked/visible to any reader
  node_->bus()->Write(nullptr, off, zero, sizeof(zero));
  return off;
}

Status HashStore::Insert(sim::ThreadContext* ctx, uint64_t key, const void* value,
                         uint64_t* offset_out) {
  DRTMR_CHECK(key != 0) << "key 0 is reserved for empty slots";
  std::lock_guard<std::mutex> g(mutate_mu_);

  // Prepare the record outside the HTM region (it is private until linked).
  const size_t rec_bytes = record_bytes();
  const uint64_t rec_off = node_->allocator()->Alloc(rec_bytes);
  if (rec_off == cluster::RegionAllocator::kInvalidOffset) {
    return Status::kCapacity;
  }
  std::vector<std::byte> image(rec_bytes);
  // Incarnation and seq start even (committable). A recycled record slot must
  // keep its incarnation moving forward, otherwise a reader that captured the
  // pre-free incarnation could validate against the reincarnated record (ABA).
  uint64_t prev_inc = 0;
  node_->bus()->Read(nullptr, rec_off + RecordLayout::kIncOff, &prev_inc, sizeof(prev_inc));
  const uint64_t inc = prev_inc == 0 ? 2 : ((prev_inc + 2) & ~1ull);
  RecordLayout::Init(image.data(), key, inc, /*seq=*/2, value, value_size_);
  node_->bus()->Write(ctx, rec_off, image.data(), rec_bytes);
  if (ctx != nullptr) {
    ctx->Charge(node_->htm()->cost()->record_logic_ns);
  }

  // Publish the slot inside an HTM region (§4.3: inserts execute within an
  // HTM transaction on the hosting machine). Retried on conflict aborts from
  // concurrent readers; mutators are serialized by mutate_mu_. The whole
  // chain must be scanned for the key before reusing a freed slot — a
  // duplicate may live in an overflow bucket past the first free slot.
  while (true) {
    sim::HtmTxn* htm = node_->htm()->Begin(ctx, obs::HtmSite::kStore);
    DRTMR_CHECK(htm != nullptr) << "insert called inside an HTM region";
    uint64_t bucket = BucketOffset(key);
    uint64_t free_bucket = 0;
    int free_slot = -1;
    uint64_t last_bucket = bucket;
    bool retry = false;
    bool exists = false;
    while (bucket != 0 && !retry) {
      BucketImage img;
      if (htm->Read(bucket, &img, sizeof(img)) != Status::kOk) {
        retry = true;
        break;
      }
      for (uint32_t i = 0; i < kSlotsPerBucket; ++i) {
        if (img.slots[i].key == key) {
          exists = true;
          break;
        }
        if (img.slots[i].key == 0 && free_slot < 0) {
          free_bucket = bucket;
          free_slot = static_cast<int>(i);
        }
      }
      if (exists) {
        break;
      }
      last_bucket = bucket;
      bucket = img.next;
    }
    if (retry) {
      continue;
    }
    if (exists) {
      htm->Abort();
      node_->allocator()->Free(rec_off, rec_bytes);
      return Status::kExists;
    }
    if (free_slot >= 0) {
      const uint32_t i = static_cast<uint32_t>(free_slot);
      if (htm->WriteU64(free_bucket + OffSlotOff(i), rec_off) == Status::kOk &&
          htm->WriteU64(free_bucket + KeySlotOff(i), key) == Status::kOk &&
          htm->Commit() == Status::kOk) {
        if (chk::AnalyzerEnabled()) {
          chk::ProtocolAnalyzer::Global().RegisterRecord(node_->bus(), rec_off, value_size_,
                                                         image.data());
        }
        if (offset_out != nullptr) {
          *offset_out = rec_off;
        }
        return Status::kOk;
      }
      continue;
    }
    // Chain a fresh overflow bucket and place the key in its first slot.
    const uint64_t ovf = AllocOverflowBucket();
    if (htm->WriteU64(ovf + KeySlotOff(0), key) == Status::kOk &&
        htm->WriteU64(ovf + OffSlotOff(0), rec_off) == Status::kOk &&
        htm->WriteU64(last_bucket + 0, ovf) == Status::kOk && htm->Commit() == Status::kOk) {
      if (chk::AnalyzerEnabled()) {
        chk::ProtocolAnalyzer::Global().RegisterRecord(node_->bus(), rec_off, value_size_,
                                                       image.data());
      }
      if (offset_out != nullptr) {
        *offset_out = rec_off;
      }
      return Status::kOk;
    }
    node_->allocator()->Free(ovf, kCacheLineSize);
  }
}

Status HashStore::Remove(sim::ThreadContext* ctx, uint64_t key) {
  std::lock_guard<std::mutex> g(mutate_mu_);
  while (true) {
    sim::HtmTxn* htm = node_->htm()->Begin(ctx, obs::HtmSite::kStore);
    DRTMR_CHECK(htm != nullptr) << "remove called inside an HTM region";
    uint64_t bucket = BucketOffset(key);
    bool retry = false;
    while (true) {
      BucketImage img;
      if (htm->Read(bucket, &img, sizeof(img)) != Status::kOk) {
        retry = true;
        break;
      }
      int found = -1;
      for (uint32_t i = 0; i < kSlotsPerBucket; ++i) {
        if (img.slots[i].key == key) {
          found = static_cast<int>(i);
          break;
        }
      }
      if (found >= 0) {
        const uint32_t i = static_cast<uint32_t>(found);
        const uint64_t rec_off = img.slots[i].offset;
        // Bump the incarnation so in-flight transactions that read this
        // record fail commit-time validation (§4.3); then unlink.
        uint64_t inc;
        if (htm->ReadU64(rec_off + RecordLayout::kIncOff, &inc) != Status::kOk ||
            htm->WriteU64(rec_off + RecordLayout::kIncOff, inc + 1) != Status::kOk ||
            htm->WriteU64(bucket + KeySlotOff(i), 0) != Status::kOk ||
            htm->WriteU64(bucket + OffSlotOff(i), 0) != Status::kOk ||
            htm->Commit() != Status::kOk) {
          retry = true;
          break;
        }
        // Drop the analyzer's shadow before the offset can be recycled.
        if (chk::AnalyzerEnabled()) {
          chk::ProtocolAnalyzer::Global().UnregisterRecord(node_->bus(), rec_off);
        }
        node_->allocator()->Free(rec_off, record_bytes());
        return Status::kOk;
      }
      if (img.next == 0) {
        htm->Abort();
        return Status::kNotFound;
      }
      bucket = img.next;
    }
    if (retry) {
      continue;
    }
  }
}

Status HashStore::InsertImage(sim::ThreadContext* ctx, uint64_t key, const std::byte* image,
                              size_t len) {
  DRTMR_CHECK(len == record_bytes());
  // Recovery's re-host and the migration pump both run on their node's
  // tool slot, which owns one HTM descriptor per node; mutate_mu_ is per
  // table, so one lock across every store keeps them off it together.
  static std::mutex image_mu;
  std::lock_guard<std::mutex> image_g(image_mu);
  std::lock_guard<std::mutex> g(mutate_mu_);
  const uint64_t existing = Lookup(ctx, key);
  if (existing != kNoRecord) {
    std::vector<std::byte> cur(8);
    uint64_t cur_seq = 0;
    node_->bus()->Read(ctx, existing + RecordLayout::kSeqOff, &cur_seq, sizeof(cur_seq));
    if (RecordLayout::GetSeq(image) > cur_seq) {
      // Recovery/bootstrap overwrite of a quiescent record: a sanctioned
      // whole-image writer, not an unlocked-write violation.
      chk::ScopedPrivilegedWriter priv;
      node_->bus()->Write(ctx, existing, image, len);
    }
    return Status::kOk;
  }
  const uint64_t rec_off = node_->allocator()->Alloc(len);
  if (rec_off == cluster::RegionAllocator::kInvalidOffset) {
    return Status::kCapacity;
  }
  node_->bus()->Write(ctx, rec_off, image, len);
  // Publish through the same HTM path as Insert.
  while (true) {
    sim::HtmTxn* htm = node_->htm()->Begin(ctx, obs::HtmSite::kStore);
    DRTMR_CHECK(htm != nullptr);
    uint64_t bucket = BucketOffset(key);
    bool retry = false;
    bool done = false;
    while (!done) {
      BucketImage img;
      if (htm->Read(bucket, &img, sizeof(img)) != Status::kOk) {
        retry = true;
        break;
      }
      int free_slot = -1;
      for (uint32_t i = 0; i < kSlotsPerBucket; ++i) {
        if (img.slots[i].key == 0 && free_slot < 0) {
          free_slot = static_cast<int>(i);
        }
      }
      if (free_slot >= 0) {
        const uint32_t i = static_cast<uint32_t>(free_slot);
        if (htm->WriteU64(bucket + OffSlotOff(i), rec_off) != Status::kOk ||
            htm->WriteU64(bucket + KeySlotOff(i), key) != Status::kOk ||
            htm->Commit() != Status::kOk) {
          retry = true;
        }
        done = true;
        break;
      }
      if (img.next != 0) {
        bucket = img.next;
        continue;
      }
      const uint64_t ovf = AllocOverflowBucket();
      if (htm->WriteU64(ovf + KeySlotOff(0), key) != Status::kOk ||
          htm->WriteU64(ovf + OffSlotOff(0), rec_off) != Status::kOk ||
          htm->WriteU64(bucket + 0, ovf) != Status::kOk || htm->Commit() != Status::kOk) {
        node_->allocator()->Free(ovf, kCacheLineSize);
        retry = true;
      }
      done = true;
    }
    if (!retry) {
      if (chk::AnalyzerEnabled()) {
        chk::ProtocolAnalyzer::Global().RegisterRecord(node_->bus(), rec_off, value_size_, image);
      }
      return Status::kOk;
    }
  }
}

void HashStore::ForEachKey(const std::function<void(uint64_t key, uint64_t offset)>& fn) {
  std::lock_guard<std::mutex> g(mutate_mu_);
  for (uint64_t b = 0; b < nbuckets_; ++b) {
    uint64_t bucket = buckets_off_ + b * kCacheLineSize;
    BucketImage img;
    while (bucket != 0) {
      LoadBucket(nullptr, bucket, &img);
      for (uint32_t i = 0; i < kSlotsPerBucket; ++i) {
        if (img.slots[i].key != 0) {
          fn(img.slots[i].key, img.slots[i].offset);
        }
      }
      bucket = img.next;
    }
  }
}

uint64_t HashStore::RemoteLookup(sim::ThreadContext* ctx, sim::RdmaNic* nic, uint32_t target_node,
                                 uint64_t key, uint32_t* rdma_reads) {
  uint64_t bucket = BucketOffset(key);
  uint32_t reads = 0;
  BucketImage img;
  uint64_t result = kNoRecord;
  while (bucket != 0) {
    if (nic->Read(ctx, target_node, bucket, &img, sizeof(img)) != Status::kOk) {
      break;
    }
    reads++;
    bool next = false;
    for (uint32_t i = 0; i < kSlotsPerBucket; ++i) {
      if (img.slots[i].key == key) {
        result = img.slots[i].offset;
        break;
      }
    }
    if (result == kNoRecord && img.next != 0) {
      bucket = img.next;
      next = true;
    }
    if (!next) {
      break;
    }
  }
  if (rdma_reads != nullptr) {
    *rdma_reads = reads;
  }
  return result;
}

}  // namespace drtmr::store
