#include "shard/plan.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace memxct::shard {

std::int64_t ExchangePlan::halo_elements() const {
  std::int64_t n = 0;
  for (const Round& r : rounds)
    for (const auto& pk : r.pack_index) n += static_cast<std::int64_t>(pk.size());
  return n;
}

std::int64_t ExchangePlan::bytes() const {
  std::int64_t b = 0;
  for (const Round& r : rounds) {
    for (const auto& v : r.pack_index)
      b += static_cast<std::int64_t>(v.size() * sizeof(idx_t));
    for (const auto& v : r.send_displ)
      b += static_cast<std::int64_t>(v.size() * sizeof(nnz_t));
    for (const auto& v : r.scatter_pos)
      b += static_cast<std::int64_t>(v.size() * sizeof(idx_t));
  }
  for (const auto& v : self_index)
    b += static_cast<std::int64_t>(v.size() * sizeof(idx_t));
  for (const auto& v : self_pos)
    b += static_cast<std::int64_t>(v.size() * sizeof(idx_t));
  return b;
}

std::string ExchangePlan::fingerprint() const {
  std::ostringstream os;
  os << "P" << num_shards << ";G" << group_size << ";T" << tiles << ";R"
     << rounds_per_tile << '\n';
  const auto dump = [&os](const char* tag, const auto& vecs) {
    os << tag;
    for (const auto& v : vecs) {
      os << '|';
      for (const auto& e : v) os << e << ',';
    }
    os << '\n';
  };
  for (const Round& r : rounds) {
    os << "r:" << (r.from_staging ? 1 : 0) << (r.to_staging ? 1 : 0) << '\n';
    dump("pk", r.pack_index);
    dump("sd", r.send_displ);
    dump("sp", r.scatter_pos);
  }
  dump("si", self_index);
  dump("so", self_pos);
  return os.str();
}

namespace {

/// (global index, position in the destination's footprint) — one halo entry.
using Entry = std::pair<idx_t, idx_t>;

}  // namespace

ExchangePlan build_exchange_plan(const dist::DomainPartition& input_owner,
                                 const std::vector<std::vector<idx_t>>& footprint,
                                 const std::vector<std::vector<int>>& first_tile,
                                 int tiles, int group_size) {
  const int P = input_owner.num_ranks();
  MEMXCT_CHECK_MSG(tiles >= 1, "exchange plan: tiles must be >= 1");
  MEMXCT_CHECK(static_cast<int>(footprint.size()) == P);
  MEMXCT_CHECK(static_cast<int>(first_tile.size()) == P);

  ExchangePlan plan;
  plan.num_shards = P;
  plan.group_size = group_size > 1 ? group_size : 1;
  plan.tiles = tiles;
  plan.rounds_per_tile = plan.group_size > 1 ? 2 : 1;
  plan.self_index.resize(static_cast<std::size_t>(P));
  plan.self_pos.resize(static_cast<std::size_t>(P));

  // need[t][q][p]: halo entries owned by q, consumed by p, first used in
  // tile t. footprint[p] is sorted and ownership is contiguous, so a single
  // ascending scan yields every bucket already in (index ascending) order.
  std::vector<std::vector<std::vector<std::vector<Entry>>>> need(
      static_cast<std::size_t>(tiles),
      std::vector<std::vector<std::vector<Entry>>>(
          static_cast<std::size_t>(P),
          std::vector<std::vector<Entry>>(static_cast<std::size_t>(P))));
  for (int p = 0; p < P; ++p) {
    const auto& fp = footprint[static_cast<std::size_t>(p)];
    const auto& ft = first_tile[static_cast<std::size_t>(p)];
    MEMXCT_CHECK_MSG(ft.size() == fp.size(),
                     "exchange plan: first_tile shape mismatch");
    for (std::size_t i = 0; i < fp.size(); ++i) {
      const idx_t g = fp[i];
      const int q = input_owner.owner(g);
      if (q == p) {
        plan.self_index[static_cast<std::size_t>(p)].push_back(g);
        plan.self_pos[static_cast<std::size_t>(p)].push_back(
            static_cast<idx_t>(i));
        continue;
      }
      const int t = ft[i];
      MEMXCT_CHECK_MSG(t >= 0 && t < tiles,
                       "exchange plan: first_tile out of range");
      need[static_cast<std::size_t>(t)][static_cast<std::size_t>(q)]
          [static_cast<std::size_t>(p)]
              .emplace_back(g, static_cast<idx_t>(i));
    }
  }

  const int G = plan.group_size;
  const auto group_of = [G](int p) { return p / G; };
  const auto proxy_of = [G](int g) { return g * G; };
  const int num_groups = G > 1 ? (P + G - 1) / G : P;

  for (int t = 0; t < tiles; ++t) {
    const auto& nt = need[static_cast<std::size_t>(t)];
    if (plan.rounds_per_tile == 1) {
      // Flat: owners send straight to consumers. Arrival order at p is
      // (source ascending, index ascending), matching scatter_pos order.
      Round r;
      r.pack_index.resize(static_cast<std::size_t>(P));
      r.send_displ.assign(static_cast<std::size_t>(P),
                          std::vector<nnz_t>(static_cast<std::size_t>(P) + 1, 0));
      r.scatter_pos.resize(static_cast<std::size_t>(P));
      for (int q = 0; q < P; ++q) {
        auto& pk = r.pack_index[static_cast<std::size_t>(q)];
        auto& sd = r.send_displ[static_cast<std::size_t>(q)];
        for (int p = 0; p < P; ++p) {
          for (const Entry& e :
               nt[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)])
            pk.push_back(e.first);
          sd[static_cast<std::size_t>(p) + 1] = static_cast<nnz_t>(pk.size());
        }
      }
      for (int p = 0; p < P; ++p)
        for (int q = 0; q < P; ++q)
          for (const Entry& e :
               nt[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)])
            r.scatter_pos[static_cast<std::size_t>(p)].push_back(e.second);
      plan.rounds.push_back(std::move(r));
      continue;
    }

    // Two-level. Round 1: each owner q sends, per destination group, the
    // sorted deduplicated union of the group's needs to the group proxy —
    // an index consumed by several members of one group crosses the
    // group boundary once instead of once per member.
    // uni[g][q] is that union; the proxy's receive buffer (grouped by
    // source ascending, indices ascending within a source) becomes the
    // staging buffer round 2 forwards from.
    std::vector<std::vector<std::vector<idx_t>>> uni(
        static_cast<std::size_t>(num_groups),
        std::vector<std::vector<idx_t>>(static_cast<std::size_t>(P)));
    for (int g = 0; g < num_groups; ++g) {
      for (int q = 0; q < P; ++q) {
        auto& u = uni[static_cast<std::size_t>(g)][static_cast<std::size_t>(q)];
        for (int p = g * G; p < std::min(P, (g + 1) * G); ++p)
          for (const Entry& e :
               nt[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)])
            u.push_back(e.first);
        std::sort(u.begin(), u.end());
        u.erase(std::unique(u.begin(), u.end()), u.end());
      }
    }
    // Staging offset of source q's block within proxy(g)'s buffer.
    std::vector<std::vector<nnz_t>> stage_off(
        static_cast<std::size_t>(num_groups),
        std::vector<nnz_t>(static_cast<std::size_t>(P) + 1, 0));
    for (int g = 0; g < num_groups; ++g)
      for (int q = 0; q < P; ++q)
        stage_off[static_cast<std::size_t>(g)][static_cast<std::size_t>(q) + 1] =
            stage_off[static_cast<std::size_t>(g)][static_cast<std::size_t>(q)] +
            static_cast<nnz_t>(
                uni[static_cast<std::size_t>(g)][static_cast<std::size_t>(q)]
                    .size());

    Round r1;
    r1.to_staging = true;
    r1.pack_index.resize(static_cast<std::size_t>(P));
    r1.send_displ.assign(static_cast<std::size_t>(P),
                         std::vector<nnz_t>(static_cast<std::size_t>(P) + 1, 0));
    for (int q = 0; q < P; ++q) {
      auto& pk = r1.pack_index[static_cast<std::size_t>(q)];
      auto& sd = r1.send_displ[static_cast<std::size_t>(q)];
      // Walk destinations; only proxies receive nonzero blocks.
      for (int p = 0; p < P; ++p) {
        if (p % G == 0) {
          const int g = group_of(p);
          const auto& u =
              uni[static_cast<std::size_t>(g)][static_cast<std::size_t>(q)];
          pk.insert(pk.end(), u.begin(), u.end());
        }
        sd[static_cast<std::size_t>(p) + 1] = static_cast<nnz_t>(pk.size());
      }
    }
    plan.rounds.push_back(std::move(r1));

    // Round 2: proxies forward per-member copies out of staging. A member's
    // block is packed (owner ascending, index ascending) — the same order
    // the flat round would deliver, so scatter_pos semantics are shared.
    Round r2;
    r2.from_staging = true;
    r2.pack_index.resize(static_cast<std::size_t>(P));
    r2.send_displ.assign(static_cast<std::size_t>(P),
                         std::vector<nnz_t>(static_cast<std::size_t>(P) + 1, 0));
    r2.scatter_pos.resize(static_cast<std::size_t>(P));
    for (int g = 0; g < num_groups; ++g) {
      const int src = proxy_of(g);
      auto& pk = r2.pack_index[static_cast<std::size_t>(src)];
      auto& sd = r2.send_displ[static_cast<std::size_t>(src)];
      for (int p = 0; p < P; ++p) {
        if (group_of(p) == g) {
          for (int q = 0; q < P; ++q) {
            const auto& u =
                uni[static_cast<std::size_t>(g)][static_cast<std::size_t>(q)];
            for (const Entry& e :
                 nt[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)]) {
              const auto it = std::lower_bound(u.begin(), u.end(), e.first);
              MEMXCT_CHECK_MSG(it != u.end() && *it == e.first,
                               "exchange plan: staged index missing");
              pk.push_back(static_cast<idx_t>(
                  stage_off[static_cast<std::size_t>(g)]
                           [static_cast<std::size_t>(q)] +
                  static_cast<nnz_t>(it - u.begin())));
              r2.scatter_pos[static_cast<std::size_t>(p)].push_back(e.second);
            }
          }
        }
        sd[static_cast<std::size_t>(p) + 1] = static_cast<nnz_t>(pk.size());
      }
    }
    plan.rounds.push_back(std::move(r2));
  }

  return plan;
}

std::int64_t ReduceTraffic::total_partial_rows() const {
  std::int64_t n = 0;
  for (const std::int64_t rows : rank_partial_rows) n += rows;
  return n;
}

perf::CommStats ReduceTraffic::rank_stats(int rank) const {
  const std::size_t P = rank_partial_rows.size();
  const auto r = static_cast<std::size_t>(rank);
  perf::CommStats s;
  for (std::size_t q = 0; q < P; ++q) {
    if (q == r) continue;
    if (const std::int64_t out = traffic[r * P + q]; out > 0) {
      s.bytes_sent += out * static_cast<std::int64_t>(sizeof(real));
      s.messages_sent += 1;
    }
    if (const std::int64_t in = traffic[q * P + r]; in > 0) {
      s.bytes_received += in * static_cast<std::int64_t>(sizeof(real));
      s.messages_received += 1;
    }
  }
  return s;
}

ReduceTraffic reduce_traffic(const sparse::CsrMatrix& a,
                             const dist::DomainPartition& sino,
                             const dist::DomainPartition& tomo) {
  MEMXCT_CHECK(sino.num_ranks() == tomo.num_ranks());
  MEMXCT_CHECK(sino.total() == a.num_rows);
  MEMXCT_CHECK(tomo.total() == a.num_cols);
  const auto P = static_cast<std::size_t>(tomo.num_ranks());
  ReduceTraffic t;
  t.traffic.assign(P * P, 0);
  t.rank_nnz.assign(P, 0);
  t.rank_partial_rows.assign(P, 0);
  for (idx_t r = 0; r < a.num_rows; ++r) {
    const auto owner = static_cast<std::size_t>(sino.owner(r));
    nnz_t k = a.displ[r];
    while (k < a.displ[r + 1]) {
      const int p = tomo.owner(a.ind[k]);
      const idx_t limit = tomo.end(p);
      const nnz_t run = k;
      while (k < a.displ[r + 1] && a.ind[k] < limit) ++k;
      const auto src = static_cast<std::size_t>(p);
      t.rank_nnz[src] += k - run;
      t.rank_partial_rows[src] += 1;
      t.traffic[src * P + owner] += 1;
    }
  }

  constexpr auto kEntry =
      static_cast<std::int64_t>(sizeof(idx_t) + sizeof(real));
  constexpr auto kDispl = static_cast<std::int64_t>(sizeof(nnz_t));
  constexpr auto kIndex = static_cast<std::int64_t>(sizeof(idx_t));
  t.rank_memory_bytes.assign(P, 0);
  for (std::size_t p = 0; p < P; ++p) {
    std::int64_t received = 0;
    for (std::size_t src = 0; src < P; ++src)
      received += t.traffic[src * P + p];
    const std::int64_t rows = t.rank_partial_rows[p];
    const std::int64_t cols = tomo.size(static_cast<int>(p));
    t.rank_memory_bytes[p] = 2 * t.rank_nnz[p] * kEntry +
                             (rows + 1 + cols + 1) * kDispl +
                             (rows + received) * kIndex;
  }
  return t;
}

}  // namespace memxct::shard
