// Offline serializability checker (DESIGN.md §9).
//
// Rebuilds the direct serialization graph from a recorded history
// (chk/history.h) and fails on cycles. Because every record carries a
// versioned seqnum and the recorder logs exact versions, dependency edges are
// derived from data, not timing:
//   WR  writer of version v        -> each reader that observed v
//   WW  writer of version v        -> writer of the next version of the key
//   RW  reader that observed v     -> writer of the next version after v
// A committed history is serializable iff this graph is acyclic (the
// classical DSG condition; reads here are "committed reads" so the graph is
// exact, not approximate).
//
// Structural invariants checked before the cycle search:
//  * no two committed transactions install the same version of a key
//    (a duplicate means a lost update — two commits based on one snapshot);
//  * every observed read version was produced by a recorded write or is the
//    seed state (version <= 2, the seq stores install records at);
//  * a key's write chain advances by exactly the seq step (2 under
//    replication, 1 without) — a gap means a committed write vanished.
// The last two are downgraded to tolerated when `expect_complete` is false
// (histories that legitimately lose a crashed node's tail records).
#ifndef DRTMR_SRC_CHK_CHECKER_H_
#define DRTMR_SRC_CHK_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/chk/history.h"

namespace drtmr::chk {

struct CheckOptions {
  // Seq distance between consecutive versions of one record:
  // SeqRules::RemoteCommitSeq step — 2 with replication, 1 without.
  uint64_t version_step = 2;
  // When false (a node was killed mid-run, so its latest commits may be
  // missing from the history), unknown read versions and write-chain gaps are
  // tolerated; cycles and duplicate versions are always failures.
  bool expect_complete = true;
};

struct CheckResult {
  bool ok = true;
  size_t num_txns = 0;
  size_t num_keys = 0;
  size_t num_edges = 0;
  // Structural violations + cycle description, human-readable.
  std::vector<std::string> violations;
  // txn_ids of one dependency cycle, in order, if found.
  std::vector<uint64_t> cycle;

  std::string Summary() const;
};

CheckResult CheckSerializability(const std::vector<TxnRec>& history,
                                 const CheckOptions& opts = {});

}  // namespace drtmr::chk

#endif  // DRTMR_SRC_CHK_CHECKER_H_
