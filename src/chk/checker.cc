#include "src/chk/checker.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace drtmr::chk {

namespace {

// Records are installed at seq 2 by store inserts/loaders, so an observed
// version <= 2 with no recorded writer is the pre-history seed state, not a
// violation; every committed write installs a version > 2.
constexpr uint64_t kSeedVersionMax = 2;
// Cap on recorded violation messages.
constexpr size_t kMaxViolations = 20;

struct PerKey {
  // (version, txn index); writers carry final installed versions, readers the
  // normalized observed version.
  std::vector<std::pair<uint64_t, size_t>> writers;
  std::vector<std::pair<uint64_t, size_t>> readers;
};

void AddViolation(CheckResult* res, std::string msg) {
  res->ok = false;
  if (res->violations.size() < kMaxViolations) {
    res->violations.push_back(std::move(msg));
  }
}

std::string Fmt(const char* fmt, uint32_t table, uint64_t key, uint64_t version,
                uint64_t a = 0, uint64_t b = 0) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), fmt, table, static_cast<unsigned long long>(key),
                static_cast<unsigned long long>(version), static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  return buf;
}

}  // namespace

CheckResult CheckSerializability(const std::vector<TxnRec>& history, const CheckOptions& opts) {
  CheckResult res;
  res.num_txns = history.size();

  std::map<std::pair<uint32_t, uint64_t>, PerKey> keys;
  for (size_t i = 0; i < history.size(); ++i) {
    for (const AccessRec& r : history[i].reads) {
      keys[{r.table_id, r.key}].readers.emplace_back(r.version, i);
    }
    for (const AccessRec& w : history[i].writes) {
      keys[{w.table_id, w.key}].writers.emplace_back(w.version, i);
    }
  }
  res.num_keys = keys.size();

  // adjacency[i] = txn indices that must serialize after txn i.
  std::vector<std::vector<size_t>> adj(history.size());
  auto add_edge = [&](size_t from, size_t to) {
    if (from == to) {
      return;  // intra-transaction read-modify-write
    }
    adj[from].push_back(to);
    ++res.num_edges;
  };

  for (auto& [id, pk] : keys) {
    const uint32_t table = id.first;
    const uint64_t key = id.second;
    std::sort(pk.writers.begin(), pk.writers.end());

    // Duplicate installed versions: two commits grew the same snapshot — a
    // lost update regardless of history completeness.
    for (size_t w = 0; w + 1 < pk.writers.size(); ++w) {
      if (pk.writers[w].first == pk.writers[w + 1].first) {
        AddViolation(&res,
                     Fmt("lost update: table %u key %llu version %llu installed by two "
                         "transactions (ids %llu and %llu)",
                         table, key, pk.writers[w].first, history[pk.writers[w].second].txn_id,
                         history[pk.writers[w + 1].second].txn_id));
      }
    }
    // Write-chain continuity: versions advance by exactly the seq step.
    if (opts.expect_complete) {
      for (size_t w = 0; w + 1 < pk.writers.size(); ++w) {
        const uint64_t cur = pk.writers[w].first;
        const uint64_t nxt = pk.writers[w + 1].first;
        if (nxt != cur && nxt != cur + opts.version_step) {
          AddViolation(&res,
                       Fmt("write gap: table %u key %llu jumps from version %llu to %llu "
                           "(a committed write is missing)",
                           table, key, cur, nxt));
        }
      }
    }

    // WW edges between consecutive distinct versions.
    for (size_t w = 0; w + 1 < pk.writers.size(); ++w) {
      if (pk.writers[w].first != pk.writers[w + 1].first) {
        add_edge(pk.writers[w].second, pk.writers[w + 1].second);
      }
    }

    for (const auto& [version, reader] : pk.readers) {
      // Locate the writer that produced the observed version.
      auto it = std::lower_bound(pk.writers.begin(), pk.writers.end(),
                                 std::make_pair(version, size_t{0}));
      const bool known = it != pk.writers.end() && it->first == version;
      if (!known && version > kSeedVersionMax) {
        if (opts.expect_complete) {
          AddViolation(&res,
                       Fmt("dirty/lost read: table %u key %llu version %llu observed by txn "
                           "%llu but never installed by a committed write",
                           table, key, version, history[reader].txn_id));
        }
        continue;  // no anchor for edges
      }
      if (known) {
        add_edge(it->second, reader);  // WR
        ++it;
      } else {
        it = pk.writers.begin();  // read of the seed state: RW to first writer
      }
      // RW anti-dependency to the next version's writer (skip duplicates of
      // the observed version, if any).
      while (it != pk.writers.end() && it->first == version) {
        ++it;
      }
      if (it != pk.writers.end()) {
        add_edge(reader, it->second);
      }
    }
  }

  // Cycle search: iterative 3-color DFS, reconstructing one cycle via the
  // parent chain.
  enum : uint8_t { kWhite = 0, kGray, kBlack };
  std::vector<uint8_t> color(history.size(), kWhite);
  std::vector<size_t> parent(history.size(), ~size_t{0});
  for (size_t root = 0; root < history.size() && res.cycle.empty(); ++root) {
    if (color[root] != kWhite) {
      continue;
    }
    // Stack of (node, next child index).
    std::vector<std::pair<size_t, size_t>> stack;
    stack.emplace_back(root, 0);
    color[root] = kGray;
    while (!stack.empty() && res.cycle.empty()) {
      auto& [node, child] = stack.back();
      if (child >= adj[node].size()) {
        color[node] = kBlack;
        stack.pop_back();
        continue;
      }
      const size_t next = adj[node][child++];
      if (color[next] == kWhite) {
        color[next] = kGray;
        parent[next] = node;
        stack.emplace_back(next, 0);
      } else if (color[next] == kGray) {
        // Back edge node -> next closes a cycle next -> ... -> node -> next.
        std::vector<size_t> path;
        for (size_t v = node;; v = parent[v]) {
          path.push_back(v);
          if (v == next) {
            break;
          }
        }
        std::reverse(path.begin(), path.end());
        for (size_t v : path) {
          res.cycle.push_back(history[v].txn_id);
        }
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "dependency cycle of %zu transactions (first id %llu, node %u worker %u, "
                      "commit at %lluns)",
                      path.size(), static_cast<unsigned long long>(history[path[0]].txn_id),
                      history[path[0]].node, history[path[0]].worker,
                      static_cast<unsigned long long>(history[path[0]].commit_ns));
        AddViolation(&res, buf);
      }
    }
  }

  return res;
}

std::string CheckResult::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: %zu txns, %zu keys, %zu edges, %zu violation(s)",
                ok ? "serializable" : "NOT SERIALIZABLE", num_txns, num_keys, num_edges,
                violations.size());
  std::string out = buf;
  for (const std::string& v : violations) {
    out += "\n  ";
    out += v;
  }
  return out;
}

}  // namespace drtmr::chk
