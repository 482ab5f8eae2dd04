#include "src/cluster/node.h"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <random>
#include <thread>

#include "src/cluster/coordinator.h"
#include "src/cluster/region_allocator.h"

namespace drtmr::cluster {
namespace {

TEST(RegionAllocator, AlignmentAndExhaustion) {
  RegionAllocator a(64, 64 + 3 * 64);
  const uint64_t o1 = a.Alloc(10);  // rounds to 64
  const uint64_t o2 = a.Alloc(65);  // rounds to 128
  EXPECT_EQ(o1 % 64, 0u);
  EXPECT_EQ(o2 % 64, 0u);
  EXPECT_NE(o1, o2);
  EXPECT_EQ(a.Alloc(64), RegionAllocator::kInvalidOffset);
  a.Free(o2, 65);
  EXPECT_EQ(a.Alloc(70), o2);  // same size class reuses the freed block
}

TEST(RegionAllocator, DeterministicAcrossInstances) {
  RegionAllocator a(64, 1 << 20);
  RegionAllocator b(64, 1 << 20);
  for (int i = 0; i < 100; ++i) {
    const uint64_t sz = 64 + (i % 7) * 64;
    EXPECT_EQ(a.Alloc(sz), b.Alloc(sz));
  }
}

TEST(Cluster, BuildsNodesWithSymmetricLayout) {
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.workers_per_node = 2;
  cfg.memory_bytes = 4 << 20;
  cfg.log_bytes = 1 << 20;
  Cluster c(cfg);
  ASSERT_EQ(c.num_nodes(), 3u);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(c.node(i)->id(), i);
    EXPECT_EQ(c.node(i)->log_begin(), (4u << 20) - (1u << 20));
    EXPECT_EQ(c.node(i)->num_slots(), cfg.workers_per_node + cfg.aux_threads + 1);
    EXPECT_NE(c.node(i)->nic(), nullptr);
  }
  // Symmetric allocation: same sequence of allocs yields same offsets.
  EXPECT_EQ(c.node(0)->allocator()->Alloc(128), c.node(1)->allocator()->Alloc(128));
}

TEST(Cluster, KillMakesNodeUnreachable) {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.memory_bytes = 2 << 20;
  cfg.log_bytes = 1 << 19;
  Cluster c(cfg);
  sim::ThreadContext* ctx = c.node(0)->context(0);
  uint64_t v;
  EXPECT_EQ(c.node(0)->nic()->Read(ctx, 1, 0, &v, sizeof(v)), Status::kOk);
  c.Kill(1);
  EXPECT_TRUE(c.node(1)->killed());
  EXPECT_EQ(c.node(0)->nic()->Read(ctx, 1, 0, &v, sizeof(v)), Status::kUnavailable);
  c.Revive(1);
  EXPECT_EQ(c.node(0)->nic()->Read(ctx, 1, 0, &v, sizeof(v)), Status::kOk);
}

TEST(Cluster, BackupPlacementWrapsAround)
{
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.memory_bytes = 2 << 20;
  cfg.log_bytes = 1 << 19;
  Cluster c(cfg);
  EXPECT_EQ(c.BackupOf(2, 1), 0u);
  EXPECT_EQ(c.BackupOf(2, 2), 1u);
  EXPECT_EQ(c.BackupOf(0, 1), 1u);
}

TEST(Node, ServiceThreadHandlesMessages) {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.memory_bytes = 2 << 20;
  cfg.log_bytes = 1 << 19;
  Cluster c(cfg);
  std::atomic<int> handled{0};
  std::atomic<int> idles{0};
  c.node(1)->StartService(
      [&](sim::ThreadContext*, const sim::Message& m) {
        EXPECT_EQ(m.src_node, 0u);
        handled.fetch_add(1);
      },
      [&](sim::ThreadContext*) {
        idles.fetch_add(1);
        return false;
      });

  sim::ThreadContext* ctx = c.node(0)->context(0);
  for (int i = 0; i < 5; ++i) {
    std::vector<std::byte> payload(8, std::byte{0x7});
    ASSERT_EQ(c.node(0)->nic()->Send(ctx, 1, std::move(payload)), Status::kOk);
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (handled.load() < 5 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  c.node(1)->StopService();
  EXPECT_EQ(handled.load(), 5);
  EXPECT_GT(idles.load(), 0);
}

// ---- service doorbell: the service thread sleeps until work lands ----

ClusterConfig SmallCluster() {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.memory_bytes = 2 << 20;
  cfg.log_bytes = 1 << 19;
  return cfg;
}

void SendOne(Cluster* c) {
  std::vector<std::byte> payload(8, std::byte{0x7});
  ASSERT_EQ(c->node(0)->nic()->Send(c->node(0)->context(0), 1, std::move(payload)), Status::kOk);
}

// Waits (real time) until `counter` reaches `want`; false on timeout. Polls
// without sleeping so a caller can act within a fraction of a microsecond.
bool WaitFor(const std::atomic<int>& counter, int want, std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (counter.load() < want) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// Lost-wakeup teeth: every SEND must be handled before the next one goes out,
// so a wakeup lost at any point of the arm/re-check/sleep sequence stalls the
// exchange. The sender reacts to each hand-off at once, so random gaps of
// 0-3 us sweep its next send across the service's empty pass and arm; longer
// ones find the service asleep.
TEST(Node, ServiceHandlesEverySendAcrossSleeps) {
  Cluster c(SmallCluster());
  std::atomic<int> handled{0};
  // An idle hook that takes about a microsecond, like a pump pass, holds the
  // service between its queue check and its arm long enough to be hit.
  c.node(1)->StartService([&](sim::ThreadContext*, const sim::Message&) { handled.fetch_add(1); },
                          [](sim::ThreadContext*) {
                            const auto until =
                                std::chrono::steady_clock::now() + std::chrono::microseconds(1);
                            while (std::chrono::steady_clock::now() < until) {
                            }
                            return false;
                          });
  std::mt19937 rng(7);
  constexpr int kSends = 3000;
  for (int i = 0; i < kSends; ++i) {
    const uint32_t pick = rng() % 4;
    if (pick == 3) {
      std::this_thread::sleep_for(std::chrono::microseconds(rng() % 200));  // likely asleep
    } else if (pick != 0) {
      // Lands around the empty pass, the arm and the re-check.
      const auto until = std::chrono::steady_clock::now() + std::chrono::nanoseconds(rng() % 3000);
      while (std::chrono::steady_clock::now() < until) {
      }
    }
    SendOne(&c);
    ASSERT_TRUE(WaitFor(handled, i + 1, std::chrono::seconds(10)))
        << "send " << i << " was never handled: lost wakeup";
  }
  c.node(1)->StopService();
  EXPECT_EQ(handled.load(), kSends);
}

TEST(Node, StopServiceWakesASleepingService) {
  Cluster c(SmallCluster());
  c.node(1)->StartService([](sim::ThreadContext*, const sim::Message&) {},
                          [](sim::ThreadContext*) { return false; });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it fall asleep
  std::atomic<int> stopped{0};
  std::thread stopper([&] {
    c.node(1)->StopService();
    stopped.store(1);
  });
  const bool prompt = WaitFor(stopped, 1, std::chrono::seconds(2));
  if (!prompt) {
    SendOne(&c);  // unstick the service so the test can finish
  }
  stopper.join();
  EXPECT_TRUE(prompt) << "StopService did not wake the sleeping service";
  EXPECT_FALSE(c.node(1)->service_running());
}

TEST(Node, KilledServiceSleepsAndReviveResumesIt) {
  Cluster c(SmallCluster());
  std::atomic<int> handled{0};
  c.node(1)->StartService([&](sim::ThreadContext*, const sim::Message&) { handled.fetch_add(1); },
                          [](sim::ThreadContext*) { return false; });
  // Node-level kill only: the fabric still delivers, so messages queue up for
  // a service that must not handle them until the machine is revived.
  c.node(1)->Kill();
  for (int i = 0; i < 3; ++i) {
    SendOne(&c);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(handled.load(), 0) << "a killed machine's service handled a message";
  c.Revive(1);
  EXPECT_TRUE(WaitFor(handled, 3, std::chrono::seconds(10)))
      << "Revive did not wake the service: handled " << handled.load() << " of 3";
  SendOne(&c);
  EXPECT_TRUE(WaitFor(handled, 4, std::chrono::seconds(10)));
  c.node(1)->StopService();
}

// Guards against a reintroduced idle spin: a started, idle cluster's service
// threads must stay off the CPU. The main thread sleeps throughout, so the
// process CPU time is the services'.
TEST(Node, IdleServicesUseAlmostNoCpu) {
  ClusterConfig cfg = SmallCluster();
  cfg.num_nodes = 3;
  Cluster c(cfg);
  for (uint32_t n = 0; n < c.num_nodes(); ++n) {
    c.node(n)->StartService([](sim::ThreadContext*, const sim::Message&) {},
                            [](sim::ThreadContext*) { return false; });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // settle into sleep
  const double cpu0 = ProcessCpuSeconds();
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const double cpu = ProcessCpuSeconds() - cpu0;
  for (uint32_t n = 0; n < c.num_nodes(); ++n) {
    c.node(n)->StopService();
  }
  EXPECT_LT(cpu, 0.05 * wall) << c.num_nodes() << " idle service threads used " << cpu
                              << " s of CPU in " << wall << " s";
}

TEST(Coordinator, JoinRenewReconfigure) {
  Coordinator coord;
  coord.Join(0, /*now_ms=*/0, /*lease_ms=*/10);
  coord.Join(1, 0, 10);
  coord.Join(2, 0, 10);
  const uint64_t e0 = coord.epoch();
  ClusterView v = coord.view();
  EXPECT_EQ(v.members.size(), 3u);
  EXPECT_TRUE(v.Contains(1));

  // Nodes 0 and 2 renew; node 1 goes silent.
  coord.Renew(0, 8, 10);
  coord.Renew(2, 8, 10);
  std::vector<uint32_t> suspected;
  EXPECT_FALSE(coord.Reconfigure(9, &suspected));
  EXPECT_TRUE(coord.Reconfigure(12, &suspected));
  ASSERT_EQ(suspected.size(), 1u);
  EXPECT_EQ(suspected[0], 1u);
  v = coord.view();
  EXPECT_GT(v.epoch, e0);
  EXPECT_FALSE(v.Contains(1));
  EXPECT_TRUE(v.Contains(0));
  EXPECT_TRUE(v.Contains(2));
}

TEST(Coordinator, ExplicitRemoveBumpsEpoch) {
  Coordinator coord;
  coord.Join(0, 0, 100);
  coord.Join(1, 0, 100);
  const uint64_t e = coord.epoch();
  coord.Remove(0);
  EXPECT_EQ(coord.epoch(), e + 1);
  EXPECT_FALSE(coord.view().Contains(0));
}

TEST(Coordinator, RejoinAfterSuspicion) {
  Coordinator coord;
  coord.Join(0, 0, 10);
  coord.Reconfigure(20, nullptr);
  EXPECT_FALSE(coord.view().Contains(0));
  coord.Join(0, 30, 10);
  EXPECT_TRUE(coord.view().Contains(0));
}

}  // namespace
}  // namespace drtmr::cluster
