// Copyright (c) NetKernel reproduction authors.
// Unit tests for the shared-memory substrate: NQE layout, lockless SPSC
// rings (single-threaded semantics + real multi-threaded stress), hugepage
// pool, NK devices.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/shm/hugepage_pool.h"
#include "src/shm/nk_device.h"
#include "src/shm/nqe.h"
#include "src/shm/spsc_ring.h"

namespace netkernel::shm {
namespace {

TEST(Nqe, IsExactly32Bytes) {
  EXPECT_EQ(sizeof(Nqe), 32u);  // paper Figure 3
}

TEST(Nqe, FieldRoundTrip) {
  Nqe n = MakeNqe(NqeOp::kSend, 7, 3, 0xdeadbeef, 0x1122334455667788ULL, 0xabcdef01, 4096);
  EXPECT_EQ(n.Op(), NqeOp::kSend);
  EXPECT_EQ(n.vm_id, 7);
  EXPECT_EQ(n.queue_set, 3);
  EXPECT_EQ(n.vm_sock, 0xdeadbeefu);
  EXPECT_EQ(n.op_data, 0x1122334455667788ULL);
  EXPECT_EQ(n.data_ptr, 0xabcdef01u);
  EXPECT_EQ(n.size, 4096u);
}

TEST(Nqe, SurvivesMemcpy) {
  // NQEs cross shared memory as raw bytes; they must be trivially copyable.
  static_assert(std::is_trivially_copyable_v<Nqe>);
  Nqe a = MakeNqe(NqeOp::kConnect, 1, 2, 3, PackAddr(0x0a000001, 443));
  uint8_t buf[32];
  std::memcpy(buf, &a, 32);
  Nqe b;
  std::memcpy(&b, buf, 32);
  EXPECT_EQ(b.Op(), NqeOp::kConnect);
  EXPECT_EQ(AddrIp(b.op_data), 0x0a000001u);
  EXPECT_EQ(AddrPort(b.op_data), 443);
}

TEST(Nqe, AddrPacking) {
  uint64_t packed = PackAddr(0xc0a80101, 65535);
  EXPECT_EQ(AddrIp(packed), 0xc0a80101u);
  EXPECT_EQ(AddrPort(packed), 65535);
}

TEST(Nqe, OpNamesAreDistinct) {
  EXPECT_EQ(NqeOpName(NqeOp::kSend), "send");
  EXPECT_EQ(NqeOpName(NqeOp::kRecvData), "recv_data");
  EXPECT_EQ(NqeOpName(NqeOp::kHeartbeat), "heartbeat");
}

// ---------------------------------------------------------------------------
// SPSC ring
// ---------------------------------------------------------------------------

TEST(SpscRing, FillAndDrain) {
  SpscRing<int> ring(8);
  EXPECT_EQ(ring.capacity(), 7u);
  for (int i = 0; i < 7; ++i) EXPECT_TRUE(ring.TryEnqueue(i));
  EXPECT_FALSE(ring.TryEnqueue(99));  // full
  for (int i = 0; i < 7; ++i) {
    int v;
    ASSERT_TRUE(ring.TryDequeue(&v));
    EXPECT_EQ(v, i);
  }
  int v;
  EXPECT_FALSE(ring.TryDequeue(&v));  // empty
}

TEST(SpscRing, WrapAround) {
  SpscRing<int> ring(4);
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(ring.TryEnqueue(round));
    ASSERT_TRUE(ring.TryEnqueue(round + 1000));
    int a, b;
    ASSERT_TRUE(ring.TryDequeue(&a));
    ASSERT_TRUE(ring.TryDequeue(&b));
    EXPECT_EQ(a, round);
    EXPECT_EQ(b, round + 1000);
  }
}

TEST(SpscRing, Peek) {
  SpscRing<int> ring(8);
  int v;
  EXPECT_FALSE(ring.Peek(&v));
  ring.TryEnqueue(5);
  EXPECT_TRUE(ring.Peek(&v));
  EXPECT_EQ(v, 5);
  EXPECT_EQ(ring.Size(), 1u);  // peek does not consume
  ring.TryDequeue(&v);
  EXPECT_FALSE(ring.Peek(&v));
}

TEST(SpscRing, BatchOperations) {
  SpscRing<int> ring(16);
  int in[10] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(ring.EnqueueBatch(in, 10), 10u);
  EXPECT_EQ(ring.Size(), 10u);
  int out[4];
  EXPECT_EQ(ring.DequeueBatch(out, 4), 4u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[3], 3);
  // Batch enqueue beyond free space is partial.
  int more[20];
  for (int i = 0; i < 20; ++i) more[i] = 100 + i;
  EXPECT_EQ(ring.EnqueueBatch(more, 20), 9u);  // 15 slots - 6 occupied
  int rest[32];
  EXPECT_EQ(ring.DequeueBatch(rest, 32), 15u);
  EXPECT_EQ(rest[0], 4);
  EXPECT_EQ(rest[14], 108);
}

TEST(SpscRing, ConcurrentStressPreservesSequence) {
  // Real threads: producer writes a counter; consumer checks strict order.
  SpscRing<uint64_t> ring(1024);
  constexpr uint64_t kTotal = 200000;
  std::atomic<bool> fail{false};
  std::thread consumer([&] {
    uint64_t expect = 0;
    uint64_t v;
    while (expect < kTotal) {
      if (ring.TryDequeue(&v)) {
        if (v != expect) {
          fail = true;
          return;
        }
        ++expect;
      }
    }
  });
  std::thread producer([&] {
    for (uint64_t i = 0; i < kTotal;) {
      if (ring.TryEnqueue(i)) ++i;
    }
  });
  producer.join();
  consumer.join();
  EXPECT_FALSE(fail.load());
  EXPECT_TRUE(ring.Empty());
}

TEST(SpscRing, ConcurrentBatchStress) {
  SpscRing<uint64_t> ring(256);
  constexpr uint64_t kTotal = 100000;
  std::atomic<bool> fail{false};
  std::thread consumer([&] {
    uint64_t expect = 0;
    uint64_t buf[64];
    while (expect < kTotal) {
      size_t n = ring.DequeueBatch(buf, 64);
      for (size_t i = 0; i < n; ++i) {
        if (buf[i] != expect++) {
          fail = true;
          return;
        }
      }
    }
  });
  std::thread producer([&] {
    uint64_t next = 0;
    uint64_t buf[32];
    while (next < kTotal) {
      size_t want = std::min<uint64_t>(32, kTotal - next);
      for (size_t i = 0; i < want; ++i) buf[i] = next + i;
      next += ring.EnqueueBatch(buf, want);
    }
  });
  producer.join();
  consumer.join();
  EXPECT_FALSE(fail.load());
}

TEST(SpscRing, ConcurrentBatchWraparoundStress) {
  // A deliberately tiny ring with mutually-prime batch sizes: the head/tail
  // indices wrap every few operations and the batch copies straddle the
  // wrap boundary constantly. Regression guard for EnqueueBatch/DequeueBatch
  // index arithmetic under real two-thread concurrency. The ring is nearly
  // always full/empty, so yield on every stall — on a core-starved machine a
  // raw spin burns whole scheduler timeslices per handoff.
  SpscRing<uint64_t> ring(8);
  constexpr uint64_t kTotal = 50000;
  std::atomic<bool> fail{false};
  std::thread consumer([&] {
    uint64_t expect = 0;
    uint64_t buf[5];
    while (expect < kTotal) {
      size_t n = ring.DequeueBatch(buf, 5);
      if (n == 0) std::this_thread::yield();
      for (size_t i = 0; i < n; ++i) {
        if (buf[i] != expect++) {
          fail = true;
          return;
        }
      }
    }
  });
  std::thread producer([&] {
    uint64_t next = 0;
    uint64_t buf[3];
    while (next < kTotal) {
      size_t want = std::min<uint64_t>(3, kTotal - next);
      for (size_t i = 0; i < want; ++i) buf[i] = next + i;
      size_t pushed = ring.EnqueueBatch(buf, want);
      if (pushed == 0) std::this_thread::yield();
      next += pushed;
    }
  });
  producer.join();
  consumer.join();
  EXPECT_FALSE(fail.load());
  EXPECT_TRUE(ring.Empty());
  // The ring wrapped ~kTotal/7 times; indices must still agree exactly.
  uint64_t v = 123;
  EXPECT_TRUE(ring.TryEnqueue(v));
  uint64_t out = 0;
  EXPECT_TRUE(ring.TryDequeue(&out));
  EXPECT_EQ(out, 123u);
}

// ---------------------------------------------------------------------------
// Hugepage pool
// ---------------------------------------------------------------------------

TEST(HugepagePool, AllocFreeReuse) {
  HugepagePool pool(1 * kMiB);
  uint64_t a = pool.Alloc(100);
  ASSERT_NE(a, HugepagePool::kInvalidOffset);
  EXPECT_EQ(pool.bytes_in_use(), 128u);  // rounded to class size
  pool.Free(a);
  EXPECT_EQ(pool.bytes_in_use(), 0u);
  uint64_t b = pool.Alloc(100);
  EXPECT_EQ(a, b);  // free list reuse
}

TEST(HugepagePool, ClassSizes) {
  EXPECT_EQ(HugepagePool::ClassSize(1), 64u);
  EXPECT_EQ(HugepagePool::ClassSize(64), 64u);
  EXPECT_EQ(HugepagePool::ClassSize(65), 128u);
  EXPECT_EQ(HugepagePool::ClassSize(4096), 4096u);
  EXPECT_EQ(HugepagePool::ClassSize(4097), 8192u);
  EXPECT_EQ(HugepagePool::ClassSize(64 * 1024), 64u * 1024);
}

TEST(HugepagePool, DataIsWritable) {
  HugepagePool pool(1 * kMiB);
  uint64_t off = pool.Alloc(256);
  std::memset(pool.Data(off), 0xab, 256);
  EXPECT_EQ(pool.Data(off)[255], 0xab);
}

TEST(HugepagePool, ExhaustionReturnsInvalid) {
  HugepagePool pool(256 * 1024);
  std::vector<uint64_t> offs;
  for (;;) {
    uint64_t o = pool.Alloc(64 * 1024);
    if (o == HugepagePool::kInvalidOffset) break;
    offs.push_back(o);
  }
  EXPECT_GE(offs.size(), 2u);
  EXPECT_GT(pool.alloc_failures(), 0u);
  // Freeing restores capacity.
  pool.Free(offs.back());
  EXPECT_NE(pool.Alloc(64 * 1024), HugepagePool::kInvalidOffset);
}

TEST(HugepagePool, OversizeRequestFails) {
  HugepagePool pool(1 * kMiB);
  EXPECT_EQ(pool.Alloc(HugepagePool::kMaxChunk + 1), HugepagePool::kInvalidOffset);
}

TEST(HugepagePool, DistinctAllocationsDoNotOverlap) {
  HugepagePool pool(4 * kMiB);
  Rng rng(3);
  struct Alloc {
    uint64_t off;
    uint32_t size;
    uint8_t tag;
  };
  std::vector<Alloc> live;
  for (int i = 0; i < 2000; ++i) {
    if (live.size() > 20 && rng.NextBool(0.5)) {
      size_t idx = rng.NextBounded(live.size());
      // Verify the tag survived, then free.
      for (uint32_t b = 0; b < live[idx].size; b += 97) {
        ASSERT_EQ(pool.Data(live[idx].off)[b], live[idx].tag);
      }
      pool.Free(live[idx].off);
      live.erase(live.begin() + static_cast<long>(idx));
    } else {
      uint32_t size = 1u << (6 + rng.NextBounded(7));  // 64..4096
      uint64_t off = pool.Alloc(size);
      if (off == HugepagePool::kInvalidOffset) continue;
      uint8_t tag = static_cast<uint8_t>(rng.Next());
      std::memset(pool.Data(off), tag, size);
      live.push_back({off, size, tag});
    }
  }
  for (auto& a : live) {
    for (uint32_t b = 0; b < a.size; b += 97) {
      ASSERT_EQ(pool.Data(a.off)[b], a.tag);
    }
  }
}

// Resident set size of this process: the second field of /proc/self/statm,
// in pages.
uint64_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  return got == 2 ? resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE)) : 0;
}

TEST(HugepagePool, RegionResidentOnlyWhereCarved) {
  // The region is reserved at full size, but a pool must cost resident memory
  // only for what its allocator carved, not for the whole region up front.
  constexpr uint64_t kRegion = 256 * kMiB;
  const uint64_t before = ResidentBytes();
  ASSERT_GT(before, 0u) << "no /proc/self/statm";
  HugepagePool pool(kRegion);
  const uint64_t off = pool.Alloc(HugepagePool::kMaxChunk);
  ASSERT_NE(off, HugepagePool::kInvalidOffset);
  const uint8_t* data = pool.Data(off);
  EXPECT_TRUE(std::all_of(data, data + HugepagePool::kMaxChunk, [](uint8_t b) { return b == 0; }));
  EXPECT_EQ(pool.Generation(off), 1u);
  std::memset(pool.Data(off), 0x5a, HugepagePool::kMaxChunk);
  EXPECT_FALSE(pool.IsAllocated(kRegion / 2));
  EXPECT_EQ(pool.region_bytes(), kRegion);
  EXPECT_GT(pool.carved_bytes(), HugepagePool::kMaxChunk);
  EXPECT_LT(pool.carved_bytes(), 2 * HugepagePool::kMaxChunk);
  const uint64_t after = ResidentBytes();
  // A quarter of the region leaves room for sanitizer shadow pages.
  EXPECT_LT(after > before ? after - before : 0, kRegion / 4);
}

// ---------------------------------------------------------------------------
// NK device
// ---------------------------------------------------------------------------

TEST(NkDevice, QueueSetsPerVcpu) {
  NkDevice dev("vm0", 4);
  EXPECT_EQ(dev.num_queue_sets(), 4);
  dev.AddQueueSet();
  EXPECT_EQ(dev.num_queue_sets(), 5);  // queues scale with vCPUs (§4.4)
}

TEST(NkDevice, OutboundInboundDetection) {
  NkDevice dev("vm0", 2);
  EXPECT_FALSE(dev.HasOutbound());
  EXPECT_FALSE(dev.HasInbound());
  dev.queue_set(1).job.TryEnqueue(MakeNqe(NqeOp::kSocket, 1, 1, 1));
  EXPECT_TRUE(dev.HasOutbound());
  dev.queue_set(0).receive.TryEnqueue(MakeNqe(NqeOp::kRecvData, 1, 0, 1));
  EXPECT_TRUE(dev.HasInbound());
}

TEST(NkDevice, WakeCallback) {
  NkDevice dev("vm0", 1);
  int wakes = 0;
  dev.SetWakeCallback([&] { ++wakes; });
  dev.Wake();
  dev.Wake();
  EXPECT_EQ(wakes, 2);
}

}  // namespace
}  // namespace netkernel::shm
