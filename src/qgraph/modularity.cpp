#include "qgraph/modularity.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "util/cancellation.hpp"

namespace qq::graph {

double modularity(const Graph& g, const std::vector<int>& community_of) {
  if (community_of.size() != static_cast<std::size_t>(g.num_nodes())) {
    throw std::invalid_argument("modularity: assignment size mismatch");
  }
  const double m = g.total_weight();
  if (m <= 0.0) return 0.0;
  // Σ_in per community (edge weight fully inside) and Σ_tot (sum of
  // weighted degrees of its members).
  std::unordered_map<int, double> sum_in;
  std::unordered_map<int, double> sum_tot;
  for (const Edge& e : g.edges()) {
    const int cu = community_of[static_cast<std::size_t>(e.u)];
    const int cv = community_of[static_cast<std::size_t>(e.v)];
    if (cu == cv) sum_in[cu] += e.w;
    sum_tot[cu] += e.w;
    sum_tot[cv] += e.w;
  }
  double q = 0.0;
  for (const auto& [c, tot] : sum_tot) {
    const double in = sum_in.count(c) ? sum_in.at(c) : 0.0;
    const double frac_tot = tot / (2.0 * m);
    q += in / m - frac_tot * frac_tot;
  }
  return q;
}

namespace {

/// ΔQ of joining communities c and d. The one definition every scan and
/// update uses, so a cached value and a rescanned one are the same double.
double delta_q(double e_cd, double a_c, double a_d) {
  return 2.0 * (e_cd - a_c * a_d);
}

/// Community-merge bookkeeping for CNM. Communities are identified by a
/// representative index; `e[a][b]` is the fraction of edge weight between
/// live communities a and b (2·e for internal), `a[c]` the fraction of
/// edge endpoints in c; a merge erases the absorbed community from every
/// map, so maps hold live communities only. `best_dq[c]`/`best_d[c]` cache
/// c's best partner: the first strict maximum of ΔQ over d > c in e[c]'s
/// iteration order (-inf / -1 when c has none or is dead).
struct CnmState {
  std::vector<std::unordered_map<int, double>> e;
  std::vector<double> a;
  std::vector<double> best_dq;
  std::vector<int> best_d;

  void rescan(int c) {
    const auto sc = static_cast<std::size_t>(c);
    double dq_max = -std::numeric_limits<double>::infinity();
    int arg = -1;
    for (const auto& [d, e_cd] : e[sc]) {
      if (d <= c) continue;
      const double dq = delta_q(e_cd, a[sc], a[static_cast<std::size_t>(d)]);
      if (dq > dq_max) {
        dq_max = dq;
        arg = d;
      }
    }
    best_dq[sc] = dq_max;
    best_d[sc] = arg;
  }
};

}  // namespace

std::vector<std::vector<NodeId>> greedy_modularity_communities(
    const Graph& g, const util::RequestContext* context) {
  const NodeId n = g.num_nodes();
  const auto nn = static_cast<std::size_t>(n);
  std::vector<std::vector<NodeId>> singletons;
  singletons.reserve(nn);
  for (NodeId u = 0; u < n; ++u) singletons.push_back({u});
  const double m = g.total_weight();
  if (m <= 0.0 || n <= 1) return singletons;

  CnmState st;
  st.e.resize(nn);
  st.a.assign(nn, 0.0);
  const std::vector<Edge>& edges = g.edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (context != nullptr && i % 4096 == 0) context->throw_if_stopped();
    const Edge& edge = edges[i];
    const double frac = edge.w / (2.0 * m);
    st.e[static_cast<std::size_t>(edge.u)][edge.v] += frac;
    st.e[static_cast<std::size_t>(edge.v)][edge.u] += frac;
    st.a[static_cast<std::size_t>(edge.u)] += frac;
    st.a[static_cast<std::size_t>(edge.v)] += frac;
  }
  st.best_dq.resize(nn);
  st.best_d.resize(nn);
  for (NodeId c = 0; c < n; ++c) st.rescan(c);

  std::vector<int> identity(nn);
  for (NodeId u = 0; u < n; ++u) identity[static_cast<std::size_t>(u)] = u;
  double q = modularity(g, identity);
  double best_q = q;
  // (kept, absorbed) per merge; the best partition is the state after the
  // first `best_step` merges.
  std::vector<std::pair<int, int>> merges;
  merges.reserve(nn);
  std::size_t best_step = 0;

  // Merge until one community per connected component remains. Picking
  // the first strict maximum of the cached pairs in ascending c reproduces
  // a full scan of every map: lowest c first, then its map order.
  for (;;) {
    if (context != nullptr) context->throw_if_stopped();
    double best = -std::numeric_limits<double>::infinity();
    int best_a = -1;
    for (NodeId c = 0; c < n; ++c) {
      if (st.best_dq[static_cast<std::size_t>(c)] > best) {
        best = st.best_dq[static_cast<std::size_t>(c)];
        best_a = c;
      }
    }
    if (best_a < 0) break;  // no connected pair left
    const int best_b = st.best_d[static_cast<std::size_t>(best_a)];

    // Merge best_b into best_a.
    auto& ea = st.e[static_cast<std::size_t>(best_a)];
    auto& eb = st.e[static_cast<std::size_t>(best_b)];
    for (const auto& [d, w] : eb) {
      if (d == best_a) continue;
      ea[d] += w;
      auto& ed = st.e[static_cast<std::size_t>(d)];
      ed.erase(best_b);
      ed[best_a] = ea[d];
    }
    ea.erase(best_b);
    eb.clear();
    st.a[static_cast<std::size_t>(best_a)] +=
        st.a[static_cast<std::size_t>(best_b)];
    st.best_dq[static_cast<std::size_t>(best_b)] =
        -std::numeric_limits<double>::infinity();
    st.best_d[static_cast<std::size_t>(best_b)] = -1;

    merges.emplace_back(best_a, best_b);
    q += best;
    if (q > best_q + 1e-12) {
      best_q = q;
      best_step = merges.size();
    }

    // Only best_a and its neighbours can have a new best partner. A
    // neighbour d > best_b sees neither endpoint as a candidate, and the
    // erase-then-insert on its map keeps its size, so it never rehashes
    // and the order of its other entries holds.
    st.rescan(best_a);
    for (const auto& [d, e_da] : ea) {
      if (d > best_b) continue;
      const auto sd = static_cast<std::size_t>(d);
      if (st.best_d[sd] == best_a || st.best_d[sd] == best_b ||
          st.best_d[sd] < 0) {
        st.rescan(d);
      } else if (d < best_a) {
        const double dq =
            delta_q(e_da, st.a[sd], st.a[static_cast<std::size_t>(best_a)]);
        if (dq > st.best_dq[sd]) {
          st.best_dq[sd] = dq;
          st.best_d[sd] = best_a;
        } else if (dq == st.best_dq[sd]) {
          st.rescan(d);  // a tie goes to whichever the map orders first
        }
      }
    }
  }

  // Replay the merges up to the best step and group nodes by root.
  std::vector<int> parent = identity;
  for (std::size_t k = 0; k < best_step; ++k) {
    parent[static_cast<std::size_t>(merges[k].second)] = merges[k].first;
  }
  std::vector<std::vector<NodeId>> groups(nn);
  for (NodeId u = 0; u < n; ++u) {
    int root = u;
    while (parent[static_cast<std::size_t>(root)] != root) {
      root = parent[static_cast<std::size_t>(root)];
    }
    groups[static_cast<std::size_t>(root)].push_back(u);  // ascending
  }
  std::vector<std::vector<NodeId>> out;
  for (auto& members : groups) {
    if (!members.empty()) out.push_back(std::move(members));
  }
  std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
    if (x.size() != y.size()) return x.size() > y.size();
    return x.front() < y.front();
  });
  return out;
}

}  // namespace qq::graph
