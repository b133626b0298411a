#include "graph/analysis.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace stt {

std::vector<int> combinational_levels(const Netlist& nl) {
  std::vector<int> level(nl.size(), 0);
  for (const CellId id : nl.topo_order()) {
    const Cell& c = nl.cell(id);
    if (c.kind == CellKind::kInput || c.kind == CellKind::kDff) continue;
    int lvl = 0;
    for (const CellId f : c.fanins) lvl = std::max(lvl, level[f] + 1);
    level[id] = lvl;
  }
  return level;
}

namespace {

// 0-1 BFS where crossing into (or out of) a DFF costs 1, everything else 0.
// `forward` selects the edge direction: forward = PI->PO orientation.
std::vector<int> zero_one_bfs(const Netlist& nl,
                              const std::vector<CellId>& sources,
                              bool forward) {
  std::vector<int> dist(nl.size(), kUnreachable);
  std::deque<CellId> queue;
  for (const CellId s : sources) {
    if (dist[s] != 0) {
      dist[s] = 0;
      queue.push_front(s);
    }
  }
  while (!queue.empty()) {
    const CellId u = queue.front();
    queue.pop_front();
    const int du = dist[u];
    auto relax = [&](CellId v, int w) {
      if (du + w < dist[v]) {
        dist[v] = du + w;
        if (w == 0) {
          queue.push_front(v);
        } else {
          queue.push_back(v);
        }
      }
    };
    if (forward) {
      for (const CellId v : nl.cell(u).fanouts) {
        relax(v, nl.cell(v).kind == CellKind::kDff ? 1 : 0);
      }
    } else {
      // Walking backward from u to its driver v: if u itself is a DFF, the
      // step crosses one flip-flop.
      const int w = nl.cell(u).kind == CellKind::kDff ? 1 : 0;
      for (const CellId v : nl.cell(u).fanins) relax(v, w);
    }
  }
  return dist;
}

}  // namespace

std::vector<int> seq_depth_to_po(const Netlist& nl) {
  std::vector<CellId> sources(nl.outputs().begin(), nl.outputs().end());
  return zero_one_bfs(nl, sources, /*forward=*/false);
}

std::vector<int> seq_depth_from_pi(const Netlist& nl) {
  std::vector<CellId> sources(nl.inputs().begin(), nl.inputs().end());
  return zero_one_bfs(nl, sources, /*forward=*/true);
}

std::vector<int> tarjan_scc_csr(std::span<const std::uint32_t> offsets,
                                std::span<const std::uint32_t> targets,
                                int& num_components) {
  const std::size_t n = offsets.empty() ? 0 : offsets.size() - 1;
  std::vector<int> comp(n, -1), low(n, 0), index(n, -1);
  std::vector<std::uint32_t> stack;
  std::vector<bool> on_stack(n, false);
  int next_index = 0;
  num_components = 0;

  // Iterative Tarjan to survive deep graphs.
  struct Frame {
    std::uint32_t node;
    std::uint32_t edge;  // cursor relative to offsets[node]
  };
  std::vector<Frame> call;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    call.push_back({root, 0});
    while (!call.empty()) {
      auto& [u, edge] = call.back();
      if (edge == 0) {
        index[u] = low[u] = next_index++;
        stack.push_back(u);
        on_stack[u] = true;
      }
      bool descended = false;
      while (offsets[u] + edge < offsets[u + 1]) {
        const std::uint32_t v = targets[offsets[u] + edge++];
        if (index[v] == -1) {
          call.push_back({v, 0});
          descended = true;
          break;
        }
        if (on_stack[v]) low[u] = std::min(low[u], index[v]);
      }
      if (descended) continue;
      if (low[u] == index[u]) {
        while (true) {
          const std::uint32_t w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          comp[w] = num_components;
          if (w == u) break;
        }
        ++num_components;
      }
      const std::uint32_t finished = u;
      call.pop_back();
      if (!call.empty()) {
        const std::uint32_t parent = call.back().node;
        low[parent] = std::min(low[parent], low[finished]);
      }
    }
  }
  return comp;
}

int circuit_seq_depth(const Netlist& nl) {
  // SCCs of the whole driver->reader cell graph, flip-flops included. The
  // combinational subgraph is acyclic, so two flip-flops share a component
  // exactly when they share a flip-flop-graph SCC, and every PI -> PO cell
  // path crosses the same flip-flop SCCs, in the same order, as the
  // corresponding flip-flop-graph path.
  const std::size_t n = nl.size();
  std::vector<std::uint32_t> offsets(n + 1, 0);
  std::vector<std::uint32_t> targets;
  for (CellId u = 0; u < n; ++u) {
    for (const CellId v : nl.cell(u).fanouts) targets.push_back(v);
    offsets[u + 1] = static_cast<std::uint32_t>(targets.size());
  }
  int num_comp = 0;
  const std::vector<int> comp = tarjan_scc_csr(offsets, targets, num_comp);

  // Component weights: number of flip-flops. Members grouped by component
  // (counting sort) so the condensation is walked without building it.
  std::vector<int> weight(num_comp, 0);
  for (const CellId d : nl.dffs()) ++weight[comp[d]];
  std::vector<std::uint32_t> first(num_comp + 1, 0);
  for (CellId u = 0; u < n; ++u) ++first[comp[u] + 1];
  for (int c = 0; c < num_comp; ++c) first[c + 1] += first[c];
  std::vector<CellId> members(n);
  {
    std::vector<std::uint32_t> cursor(first.begin(), first.end() - 1);
    for (CellId u = 0; u < n; ++u) members[cursor[comp[u]]++] = u;
  }

  // best[c] = heaviest flip-flop chain from component c to a component that
  // holds a PO, -1 when none is reachable. Components are numbered in
  // reverse topological order, so successors (lower index) come first.
  std::vector<long long> best(num_comp, -1);
  for (const CellId po : nl.outputs()) best[comp[po]] = weight[comp[po]];
  for (int c = 0; c < num_comp; ++c) {
    long long reach = -1;
    for (std::uint32_t m = first[c]; m < first[c + 1]; ++m) {
      const CellId u = members[m];
      for (std::uint32_t e = offsets[u]; e < offsets[u + 1]; ++e) {
        const int succ = comp[targets[e]];
        if (succ != c) reach = std::max(reach, best[succ]);
      }
    }
    if (reach >= 0) best[c] = std::max(best[c], weight[c] + reach);
  }
  long long d = -1;
  for (const CellId pi : nl.inputs()) d = std::max(d, best[comp[pi]]);
  return d <= 0 ? 1 : static_cast<int>(d);
}

namespace {

std::vector<CellId> cone(const Netlist& nl, std::span<const CellId> roots,
                         bool forward) {
  std::vector<bool> seen(nl.size(), false);
  std::vector<CellId> work(roots.begin(), roots.end());
  std::vector<CellId> out;
  while (!work.empty()) {
    const CellId u = work.back();
    work.pop_back();
    if (u == kNullCell || seen[u]) continue;
    seen[u] = true;
    out.push_back(u);
    const Cell& c = nl.cell(u);
    const auto& next = forward ? c.fanouts : c.fanins;
    for (const CellId v : next) work.push_back(v);
  }
  return out;
}

}  // namespace

std::vector<CellId> fanin_cone(const Netlist& nl,
                               std::span<const CellId> roots) {
  return cone(nl, roots, /*forward=*/false);
}

std::vector<CellId> fanout_cone(const Netlist& nl,
                                std::span<const CellId> roots) {
  return cone(nl, roots, /*forward=*/true);
}

}  // namespace stt
