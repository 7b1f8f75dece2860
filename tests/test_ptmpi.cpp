// The in-process MPI substitute: point-to-point semantics, collectives,
// nonblocking requests, shared-memory windows and statistics recording —
// plus randomized stress tests (interleaved nonblocking traffic with mixed
// tags and sizes, degenerate alltoallv counts, shared-window reuse under
// contention) covering the paths the band-parallel propagator leans on.

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <mutex>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "ptmpi/comm.hpp"

using namespace ptim;

TEST(Ptmpi, RankIdentity) {
  std::vector<int> seen(6, -1);
  ptmpi::run_ranks(6, 2, [&](ptmpi::Comm& c) {
    seen[static_cast<size_t>(c.rank())] = c.rank();
    EXPECT_EQ(c.size(), 6);
    EXPECT_EQ(c.node(), c.rank() / 2);
    EXPECT_EQ(c.node_rank(), c.rank() % 2);
  });
  for (int r = 0; r < 6; ++r) EXPECT_EQ(seen[static_cast<size_t>(r)], r);
}

TEST(Ptmpi, SendRecvPair) {
  ptmpi::run_ranks(2, 1, [](ptmpi::Comm& c) {
    if (c.rank() == 0) {
      const double x = 42.5;
      c.send(1, &x, sizeof(x), 7);
    } else {
      double y = 0.0;
      c.recv(0, &y, sizeof(y), 7);
      EXPECT_EQ(y, 42.5);
    }
  });
}

TEST(Ptmpi, TagMatching) {
  // Messages with different tags are matched independently of arrival order.
  ptmpi::run_ranks(2, 1, [](ptmpi::Comm& c) {
    if (c.rank() == 0) {
      const int a = 1, b = 2;
      c.send(1, &a, sizeof(a), /*tag=*/10);
      c.send(1, &b, sizeof(b), /*tag=*/20);
    } else {
      int b = 0, a = 0;
      c.recv(0, &b, sizeof(b), 20);  // out of order on purpose
      c.recv(0, &a, sizeof(a), 10);
      EXPECT_EQ(a, 1);
      EXPECT_EQ(b, 2);
    }
  });
}

TEST(Ptmpi, NonblockingRing) {
  const int p = 5;
  std::vector<int> results(p, -1);
  ptmpi::run_ranks(p, 1, [&](ptmpi::Comm& c) {
    const int me = c.rank();
    const int next = (me + 1) % p;
    const int prev = (me - 1 + p) % p;
    int payload = me, incoming = -1;
    auto rr = c.irecv(prev, &incoming, sizeof(int), 0);
    auto rs = c.isend(next, &payload, sizeof(int), 0);
    c.wait(rs);
    c.wait(rr);
    results[static_cast<size_t>(me)] = incoming;
  });
  for (int r = 0; r < p; ++r)
    EXPECT_EQ(results[static_cast<size_t>(r)], (r - 1 + p) % p);
}

TEST(Ptmpi, SendrecvRotatesRing) {
  const int p = 4;
  std::vector<int> results(p, -1);
  ptmpi::run_ranks(p, 1, [&](ptmpi::Comm& c) {
    const int me = c.rank();
    int out_v = 100 + me, in_v = -1;
    c.sendrecv((me + 1) % p, &out_v, sizeof(int), (me - 1 + p) % p, &in_v,
               sizeof(int));
    results[static_cast<size_t>(me)] = in_v;
  });
  for (int r = 0; r < p; ++r)
    EXPECT_EQ(results[static_cast<size_t>(r)], 100 + (r - 1 + p) % p);
}

TEST(Ptmpi, BcastFromEveryRoot) {
  const int p = 4;
  for (int root = 0; root < p; ++root) {
    std::vector<double> results(p, 0.0);
    ptmpi::run_ranks(p, 2, [&](ptmpi::Comm& c) {
      double v = (c.rank() == root) ? 3.14 * (root + 1) : 0.0;
      c.bcast(&v, sizeof(v), root);
      results[static_cast<size_t>(c.rank())] = v;
    });
    for (int r = 0; r < p; ++r)
      EXPECT_EQ(results[static_cast<size_t>(r)], 3.14 * (root + 1));
  }
}

TEST(Ptmpi, AllreduceSums) {
  const int p = 6;
  std::vector<real_t> results(p, 0.0);
  ptmpi::run_ranks(p, 3, [&](ptmpi::Comm& c) {
    std::vector<real_t> v{static_cast<real_t>(c.rank() + 1), 2.0};
    c.allreduce_sum(v.data(), v.size());
    results[static_cast<size_t>(c.rank())] = v[0];
    EXPECT_NEAR(v[1], 2.0 * p, 1e-12);
  });
  const real_t expect = p * (p + 1) / 2.0;
  for (int r = 0; r < p; ++r)
    EXPECT_NEAR(results[static_cast<size_t>(r)], expect, 1e-12);
}

TEST(Ptmpi, AllreduceComplex) {
  ptmpi::run_ranks(3, 1, [](ptmpi::Comm& c) {
    cplx v{1.0, static_cast<real_t>(c.rank())};
    c.allreduce_sum(&v, 1);
    EXPECT_NEAR(std::abs(v - cplx(3.0, 3.0)), 0.0, 1e-12);
  });
}

TEST(Ptmpi, Allgatherv) {
  const int p = 4;
  ptmpi::run_ranks(p, 2, [&](ptmpi::Comm& c) {
    // Rank r contributes r+1 elements of value r.
    std::vector<size_t> counts;
    for (int r = 0; r < p; ++r) counts.push_back(static_cast<size_t>(r + 1));
    std::vector<cplx> mine(static_cast<size_t>(c.rank() + 1),
                           cplx(c.rank(), 0.0));
    const size_t total = std::accumulate(counts.begin(), counts.end(),
                                         size_t{0});
    std::vector<cplx> all(total);
    c.allgatherv(mine.data(), mine.size(), all.data(), counts);
    size_t idx = 0;
    for (int r = 0; r < p; ++r)
      for (int k = 0; k <= r; ++k)
        EXPECT_NEAR(std::abs(all[idx++] - cplx(r, 0.0)), 0.0, 1e-14);
  });
}

TEST(Ptmpi, AlltoallvNonUniform) {
  const int p = 3;
  ptmpi::run_ranks(p, 1, [&](ptmpi::Comm& c) {
    const int me = c.rank();
    // Rank s sends (s + d + 1) elements of value 10*s + d to rank d.
    std::vector<size_t> send_counts(p), recv_counts(p);
    size_t stotal = 0, rtotal = 0;
    for (int d = 0; d < p; ++d) {
      send_counts[static_cast<size_t>(d)] = static_cast<size_t>(me + d + 1);
      recv_counts[static_cast<size_t>(d)] = static_cast<size_t>(d + me + 1);
      stotal += send_counts[static_cast<size_t>(d)];
      rtotal += recv_counts[static_cast<size_t>(d)];
    }
    std::vector<cplx> send(stotal), recv(rtotal);
    size_t pos = 0;
    for (int d = 0; d < p; ++d)
      for (size_t k = 0; k < send_counts[static_cast<size_t>(d)]; ++k)
        send[pos++] = cplx(10.0 * me + d, 0.0);
    c.alltoallv(send.data(), send_counts, recv.data(), recv_counts);
    pos = 0;
    for (int s = 0; s < p; ++s)
      for (size_t k = 0; k < recv_counts[static_cast<size_t>(s)]; ++k)
        EXPECT_NEAR(std::abs(recv[pos++] - cplx(10.0 * s + me, 0.0)), 0.0,
                    1e-14);
  });
}

TEST(Ptmpi, ShmSharedWithinNode) {
  const int p = 4;  // 2 nodes x 2 ranks
  ptmpi::run_ranks(p, 2, [&](ptmpi::Comm& c) {
    cplx* buf = c.shm_allocate("window", 4);
    c.barrier();
    if (c.node_rank() == 0) buf[0] = cplx(100.0 + c.node(), 0.0);
    c.barrier();
    // Both ranks of the node see the leader's write; nodes are isolated.
    EXPECT_NEAR(std::abs(buf[0] - cplx(100.0 + c.node(), 0.0)), 0.0, 1e-14);
  });
}

TEST(Ptmpi, StatsRecorded) {
  ptmpi::run_ranks(2, 1, [](ptmpi::Comm& c) {
    std::vector<cplx> v(100, cplx(1.0));
    c.allreduce_sum(v.data(), v.size());
    if (c.rank() == 0) {
      const double x = 1.0;
      c.send(1, &x, sizeof(x));
    } else {
      double y;
      c.recv(0, &y, sizeof(y));
    }
  });
  const auto& stats = ptmpi::last_run_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].ops.at("Allreduce").calls, 1);
  EXPECT_EQ(stats[0].ops.at("Allreduce").bytes,
            static_cast<long long>(100 * sizeof(cplx)));
  EXPECT_EQ(stats[0].ops.at("Send").calls, 1);
  EXPECT_EQ(stats[1].ops.at("Recv").calls, 1);
  EXPECT_GE(stats[0].total_seconds(), 0.0);
}

// ------------------------------------------------------- stress tests ---

namespace {

// A deterministic pseudo-random traffic plan: message m carries `size`
// bytes, each byte a function of (src, dst, tag, index).
struct PlannedMessage {
  int src, dst, tag;
  size_t size;
};

unsigned char payload_byte(const PlannedMessage& m, size_t i) {
  return static_cast<unsigned char>(
      (static_cast<size_t>(m.src) * 131 + static_cast<size_t>(m.dst) * 31 +
       static_cast<size_t>(m.tag) * 7 + i) &
      0xff);
}

// Up to `per_pair` messages for every ordered (src, dst) pair with distinct
// tags (ptmpi matches FIFO within a (source, tag) queue, so same-tag
// messages must stay ordered; distinct tags may be received in any order).
std::vector<PlannedMessage> make_plan(int p, int per_pair, unsigned seed) {
  Rng rng(seed);
  std::vector<PlannedMessage> plan;
  for (int s = 0; s < p; ++s)
    for (int d = 0; d < p; ++d) {
      if (s == d) continue;
      const int n = 1 + static_cast<int>(rng.next_u64() % per_pair);
      for (int k = 0; k < n; ++k) {
        PlannedMessage m;
        m.src = s;
        m.dst = d;
        m.tag = 100 + k;  // unique per (src, dst)
        m.size = rng.next_u64() % 2048;  // includes zero-byte messages
        plan.push_back(m);
      }
    }
  return plan;
}

}  // namespace

TEST(PtmpiStress, InterleavedIsendIrecvMixedTagsAndSizes) {
  const int p = 4;
  for (unsigned seed : {1u, 2u, 3u}) {
    const std::vector<PlannedMessage> plan = make_plan(p, 3, seed);
    ptmpi::run_ranks(p, 2, [&](ptmpi::Comm& c) {
      const int me = c.rank();
      // My outbound and inbound slices, each shuffled with a rank-specific
      // deterministic rng so posting order differs from matching order.
      std::vector<size_t> outbound, inbound;
      for (size_t i = 0; i < plan.size(); ++i) {
        if (plan[i].src == me) outbound.push_back(i);
        if (plan[i].dst == me) inbound.push_back(i);
      }
      Rng rng(seed * 977 + static_cast<unsigned>(me));
      auto shuffle = [&](std::vector<size_t>& v) {
        for (size_t i = v.size(); i > 1; --i)
          std::swap(v[i - 1], v[rng.next_u64() % i]);
      };
      shuffle(outbound);
      shuffle(inbound);

      std::vector<std::vector<unsigned char>> sendbuf(outbound.size()),
          recvbuf(inbound.size());
      std::vector<ptmpi::Request> reqs;
      // Interleave: post an irecv, then an isend, then the next irecv, ...
      const size_t rounds = std::max(outbound.size(), inbound.size());
      for (size_t r = 0; r < rounds; ++r) {
        if (r < inbound.size()) {
          const PlannedMessage& m = plan[inbound[r]];
          recvbuf[r].assign(m.size, 0);
          reqs.push_back(c.irecv(m.src, recvbuf[r].data(), m.size, m.tag));
        }
        if (r < outbound.size()) {
          const PlannedMessage& m = plan[outbound[r]];
          sendbuf[r].resize(m.size);
          for (size_t i = 0; i < m.size; ++i)
            sendbuf[r][i] = payload_byte(m, i);
          reqs.push_back(c.isend(m.dst, sendbuf[r].data(), m.size, m.tag));
        }
      }
      for (auto& rq : reqs) c.wait(rq);
      // Verify every inbound payload byte-for-byte.
      for (size_t r = 0; r < inbound.size(); ++r) {
        const PlannedMessage& m = plan[inbound[r]];
        for (size_t i = 0; i < m.size; ++i)
          ASSERT_EQ(recvbuf[r][i], payload_byte(m, i))
              << "seed " << seed << " msg " << inbound[r] << " byte " << i;
      }
    });
  }
}

TEST(PtmpiStress, AlltoallvEmptyAndDegenerateCounts) {
  const int p = 4;
  // Rank 3 sends nothing to anyone; nobody sends to rank 0 except itself;
  // everything else follows a deterministic sparse pattern.
  ptmpi::run_ranks(p, 2, [&](ptmpi::Comm& c) {
    const int me = c.rank();
    auto count = [](int s, int d) -> size_t {
      if (s == 3) return 0;                  // fully empty sender
      if (d == 0 && s != 0) return 0;        // starved receiver
      return static_cast<size_t>((s + 2 * d) % 3);  // sprinkled zeros
    };
    std::vector<size_t> send_counts(p), recv_counts(p);
    size_t stotal = 0, rtotal = 0;
    for (int d = 0; d < p; ++d) {
      send_counts[static_cast<size_t>(d)] = count(me, d);
      recv_counts[static_cast<size_t>(d)] = count(d, me);
      stotal += send_counts[static_cast<size_t>(d)];
      rtotal += recv_counts[static_cast<size_t>(d)];
    }
    std::vector<cplx> send(std::max<size_t>(stotal, 1)),
        recv(std::max<size_t>(rtotal, 1), cplx(-99.0, -99.0));
    size_t pos = 0;
    for (int d = 0; d < p; ++d)
      for (size_t k = 0; k < send_counts[static_cast<size_t>(d)]; ++k)
        send[pos++] = cplx(me, d);
    c.alltoallv(send.data(), send_counts, recv.data(), recv_counts);
    pos = 0;
    for (int s = 0; s < p; ++s)
      for (size_t k = 0; k < recv_counts[static_cast<size_t>(s)]; ++k)
        EXPECT_NEAR(std::abs(recv[pos++] - cplx(s, me)), 0.0, 1e-14);
    EXPECT_EQ(pos, rtotal);
  });
}

TEST(PtmpiStress, ShmWindowReductionUnderContention) {
  // Many rounds of node-shared reductions with varying window sizes and
  // alternating window names: every rank writes its own slot concurrently,
  // the node leader reduces, all node members check the same total. The
  // size change forces reallocation between rounds; the name alternation
  // exercises window identity.
  const int p = 6;
  const int rpn = 3;
  const int rounds = 25;
  ptmpi::run_ranks(p, rpn, [&](ptmpi::Comm& c) {
    for (int r = 0; r < rounds; ++r) {
      const size_t slots = static_cast<size_t>(rpn);
      const size_t width = 1 + static_cast<size_t>(r % 4);
      const std::string name = (r % 2 == 0) ? "win_even" : "win_odd";
      cplx* win = c.shm_allocate(name, slots * width);
      // Concurrent disjoint writes: rank slot * width.
      for (size_t k = 0; k < width; ++k)
        win[static_cast<size_t>(c.node_rank()) * width + k] =
            cplx(c.rank() + 1, static_cast<real_t>(r + k));
      c.barrier();
      // Leader reduces into slot 0.
      if (c.node_rank() == 0)
        for (int nr = 1; nr < rpn; ++nr)
          for (size_t k = 0; k < width; ++k)
            win[k] += win[static_cast<size_t>(nr) * width + k];
      c.barrier();
      // Expected: sum of (global rank + 1) over the node's ranks.
      real_t expect = 0.0;
      for (int nr = 0; nr < rpn; ++nr)
        expect += static_cast<real_t>(c.node() * rpn + nr + 1);
      for (size_t k = 0; k < width; ++k)
        EXPECT_NEAR(std::real(win[k]), expect, 1e-12)
            << "round " << r << " k " << k;
      c.barrier();  // nobody re-allocates while others still read
    }
  });
}

TEST(PtmpiStress, AllgathervRealAndZeroContributions) {
  const int p = 4;
  ptmpi::run_ranks(p, 2, [&](ptmpi::Comm& c) {
    // Rank 2 contributes nothing (the empty band-block case).
    std::vector<size_t> counts;
    for (int r = 0; r < p; ++r)
      counts.push_back(r == 2 ? 0 : static_cast<size_t>(r + 1));
    const size_t mine = counts[static_cast<size_t>(c.rank())];
    std::vector<real_t> send(std::max<size_t>(mine, 1),
                             static_cast<real_t>(c.rank()) + 0.25);
    const size_t total =
        std::accumulate(counts.begin(), counts.end(), size_t{0});
    std::vector<real_t> all(total, -1.0);
    c.allgatherv(send.data(), mine, all.data(), counts);
    size_t idx = 0;
    for (int r = 0; r < p; ++r)
      for (size_t k = 0; k < counts[static_cast<size_t>(r)]; ++k)
        EXPECT_NEAR(all[idx++], static_cast<real_t>(r) + 0.25, 1e-14);
  });
}

TEST(PtmpiStress, DeterministicAllreduceBitIdentical) {
  // The property the distributed propagator relies on: repeated runs of the
  // same reduction produce bit-identical results on every rank regardless
  // of scheduling.
  const int p = 4;
  const size_t n = 257;
  std::vector<std::vector<real_t>> results(3);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<std::vector<real_t>> per_rank(p);
    ptmpi::run_ranks(p, 2, [&](ptmpi::Comm& c) {
      Rng rng(1000 + static_cast<unsigned>(c.rank()));
      std::vector<real_t> v(n);
      for (auto& x : v) x = rng.uniform(-1.0, 1.0);
      c.allreduce_sum(v.data(), n);
      per_rank[static_cast<size_t>(c.rank())] = v;
    });
    for (int r = 1; r < p; ++r)
      ASSERT_EQ(per_rank[0], per_rank[static_cast<size_t>(r)]) << "trial "
                                                               << trial;
    results[static_cast<size_t>(trial)] = per_rank[0];
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[1], results[2]);
}

// ------------------------------------------------- FP32 typed overloads --

TEST(PtmpiF32, TypedSendRecvRoundTrip) {
  ptmpi::run_ranks(2, 1, [](ptmpi::Comm& c) {
    if (c.rank() == 0) {
      const std::vector<float> f{1.5f, -2.25f, 3.0f};
      const std::vector<cplxf> z{{1.0f, -1.0f}, {0.5f, 2.0f}};
      c.send(1, f.data(), f.size(), 1);
      c.send(1, z.data(), z.size(), 2);
    } else {
      std::vector<float> f(3);
      std::vector<cplxf> z(2);
      c.recv(0, f.data(), f.size(), 1);
      c.recv(0, z.data(), z.size(), 2);
      EXPECT_EQ(f[0], 1.5f);
      EXPECT_EQ(f[1], -2.25f);
      EXPECT_EQ(f[2], 3.0f);
      EXPECT_EQ(z[0], cplxf(1.0f, -1.0f));
      EXPECT_EQ(z[1], cplxf(0.5f, 2.0f));
    }
  });
  // Typed counts are elements: the recorded bytes reflect the FP32 width.
  const auto& st = ptmpi::last_run_stats()[0];
  EXPECT_EQ(st.ops.at("Send").bytes,
            static_cast<long long>(3 * sizeof(float) + 2 * sizeof(cplxf)));
}

TEST(PtmpiF32, TypedSendrecvRotatesRing) {
  const int p = 4;
  std::vector<cplxf> results(p);
  ptmpi::run_ranks(p, 1, [&](ptmpi::Comm& c) {
    const int me = c.rank();
    cplxf out_v(100.0f + static_cast<float>(me), -1.0f), in_v(0.0f);
    c.sendrecv((me + 1) % p, &out_v, 1, (me - 1 + p) % p, &in_v, 1);
    results[static_cast<size_t>(me)] = in_v;
  });
  for (int r = 0; r < p; ++r)
    EXPECT_EQ(results[static_cast<size_t>(r)],
              cplxf(100.0f + static_cast<float>((r - 1 + p) % p), -1.0f));
}

TEST(PtmpiF32, TypedBcastAndAllreduce) {
  const int p = 3;
  ptmpi::run_ranks(p, 1, [&](ptmpi::Comm& c) {
    std::vector<cplxf> v(4, cplxf(0.0f));
    if (c.rank() == 1)
      for (size_t i = 0; i < v.size(); ++i)
        v[i] = cplxf(static_cast<float>(i), 0.5f);
    c.bcast(v.data(), v.size(), /*root=*/1);
    for (size_t i = 0; i < v.size(); ++i)
      EXPECT_EQ(v[i], cplxf(static_cast<float>(i), 0.5f));

    float s = static_cast<float>(c.rank() + 1);
    c.allreduce_sum(&s, 1);
    EXPECT_EQ(s, static_cast<float>(p * (p + 1) / 2));

    cplxf z(1.0f, static_cast<float>(c.rank()));
    c.allreduce_sum(&z, 1);
    EXPECT_EQ(z, cplxf(3.0f, 3.0f));
  });
}

TEST(PtmpiF32, ZeroElementMessagesLegal) {
  // Zero-count typed traffic (empty band blocks) must be matched and
  // completed without touching any buffer.
  ptmpi::run_ranks(2, 1, [](ptmpi::Comm& c) {
    if (c.rank() == 0) {
      c.send(1, static_cast<const cplxf*>(nullptr), 0, 5);
      cplxf dummy;
      c.sendrecv(1, static_cast<const cplxf*>(nullptr), 0, 1, &dummy, 1, 6);
    } else {
      c.recv(0, static_cast<cplxf*>(nullptr), 0, 5);
      const cplxf payload(7.0f, -7.0f);
      c.sendrecv(0, &payload, 1, 0, static_cast<cplxf*>(nullptr), 0, 6);
    }
    float* none = nullptr;
    c.bcast(none, 0, 0);
    c.allreduce_sum(none, 0);
  });
}

namespace {

// Deterministic per-direction message size for the mixed-precision stress
// test: both endpoints of a pair can compute each other's outbound sizes
// without sharing rng state. Sprinkles zeros (~1 in 8).
size_t planned_count(unsigned seed, int src, int dst, int round, int width,
                     size_t cap) {
  const size_t h = static_cast<size_t>(seed) * 2654435761u +
                   static_cast<size_t>(src) * 97 +
                   static_cast<size_t>(dst) * 31 +
                   static_cast<size_t>(round) * 7 +
                   static_cast<size_t>(width);
  return (h % 8 == 0) ? 0 : h % cap;
}

}  // namespace

TEST(PtmpiStress, RandomizedMixedPrecisionTraffic) {
  // Interleaved FP64/FP32 messages with mixed tags and sizes (including
  // zero): the typed overloads share one mailbox, so nothing may be
  // reinterpreted across widths. XOR pairing makes every round a perfect
  // matching (peer(peer) == me for p a power of two) and cycles through all
  // p-1 distinct topologies; values are exactly representable so equality
  // checks are exact.
  const int p = 4;
  for (unsigned seed : {11u, 12u, 13u}) {
    ptmpi::run_ranks(p, 2, [&](ptmpi::Comm& c) {
      const int me = c.rank();
      for (int round = 0; round < 9; ++round) {
        const int peer = me ^ (1 + round % (p - 1));
        const size_t n64 = planned_count(seed, me, peer, round, 64, 33);
        const size_t n32 = planned_count(seed, me, peer, round, 32, 65);
        const size_t m64 = planned_count(seed, peer, me, round, 64, 33);
        const size_t m32 = planned_count(seed, peer, me, round, 32, 65);
        std::vector<cplx> s64(n64), r64(m64, cplx(-1.0, -1.0));
        std::vector<cplxf> s32(n32), r32(m32, cplxf(-1.0f, -1.0f));
        for (size_t i = 0; i < n64; ++i)
          s64[i] = cplx(me * 1000 + round, static_cast<real_t>(i));
        for (size_t i = 0; i < n32; ++i)
          s32[i] = cplxf(static_cast<float>(me), static_cast<float>(i));
        // Both widths in flight between the same pair, distinct tags; the
        // FP64 leg goes through the raw-byte API, the FP32 leg through the
        // typed element-count overload.
        c.sendrecv(peer, s64.data(), n64 * sizeof(cplx), peer, r64.data(),
                   m64 * sizeof(cplx), /*tag=*/2 * round);
        c.sendrecv(peer, s32.data(), n32, peer, r32.data(), m32,
                   /*tag=*/2 * round + 1);
        for (size_t i = 0; i < m64; ++i)
          ASSERT_EQ(r64[i], cplx(peer * 1000 + round, static_cast<real_t>(i)))
              << "seed " << seed << " round " << round;
        for (size_t i = 0; i < m32; ++i)
          ASSERT_EQ(r32[i],
                    cplxf(static_cast<float>(peer), static_cast<float>(i)))
              << "seed " << seed << " round " << round;
      }
    });
  }
}

TEST(Ptmpi, ExceptionPropagates) {
  bool threw = false;
  try {
    ptmpi::run_ranks(2, 1, [](ptmpi::Comm& c) {
      if (c.rank() == 1) throw Error("rank 1 exploded");
      // Rank 0 must not deadlock: no communication here.
    });
  } catch (const Error& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("exploded"), std::string::npos);
  }
  EXPECT_TRUE(threw);
}

TEST(Ptmpi, RanksSplitTheCallersOpenMpBudget) {
  // Each rank's team is the caller's budget over the rank count (at least
  // one thread), not the process default: p ranks together start no more
  // OpenMP threads than the caller would alone.
  const int saved = omp_get_max_threads();
  auto seen_by_ranks = [](int caller_threads, int nranks) {
    omp_set_num_threads(caller_threads);
    std::vector<int> seen(static_cast<size_t>(nranks), 0);
    ptmpi::run_ranks(nranks, 1, [&](ptmpi::Comm& c) {
      seen[static_cast<size_t>(c.rank())] = omp_get_max_threads();
    });
    return seen;
  };
  EXPECT_EQ(seen_by_ranks(6, 3), std::vector<int>(3, 2));
  EXPECT_EQ(seen_by_ranks(2, 3), std::vector<int>(3, 1));
  EXPECT_EQ(seen_by_ranks(6, 1), std::vector<int>(1, 6));
  omp_set_num_threads(saved);
}

TEST(Ptmpi, FetchAddClaimsDisjointPartition) {
  // The MPI_Fetch_and_op(SUM) stand-in behind the campaign's idle-worker
  // job handoff: concurrent claimants must see strictly increasing previous
  // values, i.e. partition the index space with no gap and no double-claim.
  constexpr int kJobs = 23;
  std::vector<int> owner(kJobs, -1);
  std::mutex mu;
  ptmpi::run_ranks(4, 2, [&](ptmpi::Comm& c) {
    while (true) {
      const long idx = c.fetch_add("test.claim", 1);
      ASSERT_GE(idx, 0);
      if (idx >= kJobs) break;
      std::lock_guard<std::mutex> lock(mu);
      EXPECT_EQ(owner[static_cast<size_t>(idx)], -1)
          << "index " << idx << " claimed twice";
      owner[static_cast<size_t>(idx)] = c.rank();
    }
    // A split communicator scopes counters by its own context: the same
    // name starts from zero per subcommunicator, independent of the
    // world-level cursor above.
    ptmpi::Comm half = c.split(c.rank() / 2, c.rank() % 2);
    const long v = half.fetch_add("test.claim", 1);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 2);
  });
  for (int i = 0; i < kJobs; ++i)
    EXPECT_NE(owner[static_cast<size_t>(i)], -1) << "index " << i
                                                 << " never claimed";
}

TEST(WireModel, DelaysPointToPointDelivery) {
  ptmpi::set_wire_model(20e-3, 0.0);
  Timer t;
  ptmpi::run_ranks(2, 1, [&](ptmpi::Comm& c) {
    double x = 1.0;
    if (c.rank() == 0)
      c.send(1, &x, sizeof(x));
    else
      c.recv(0, &x, sizeof(x));
  });
  ptmpi::set_wire_model(0.0, 0.0);
  EXPECT_GE(t.seconds(), 15e-3);  // the recv waited out the wire time
}
