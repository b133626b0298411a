#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "defense/registry.hpp"
#include "graph/analysis.hpp"
#include "graph/paths.hpp"
#include "io/bench_io.hpp"
#include "synth/generator.hpp"
#include "tech/tech_library.hpp"

namespace stt {
namespace {

// PI -> g1 -> FF1 -> g2 -> FF2 -> g3 -> PO : a clean 2-flip-flop pipeline.
Netlist pipeline() {
  Netlist nl("pipe");
  const CellId x = nl.add_input("x");
  const CellId y = nl.add_input("y");
  const CellId g1 = nl.add_gate(CellKind::kAnd, "g1", {x, y});
  const CellId f1 = nl.add_dff("f1", g1);
  const CellId g2 = nl.add_gate(CellKind::kOr, "g2", {f1, x});
  const CellId f2 = nl.add_dff("f2", g2);
  const CellId g3 = nl.add_gate(CellKind::kXor, "g3", {f2, y});
  nl.mark_output(g3);
  nl.finalize();
  return nl;
}

TEST(Levels, Pipeline) {
  const Netlist nl = pipeline();
  const auto lvl = combinational_levels(nl);
  EXPECT_EQ(lvl[nl.find("x")], 0);
  EXPECT_EQ(lvl[nl.find("f1")], 0);  // FF outputs are sources
  EXPECT_EQ(lvl[nl.find("g1")], 1);
  EXPECT_EQ(lvl[nl.find("g2")], 1);
  EXPECT_EQ(lvl[nl.find("g3")], 1);
}

TEST(Levels, ChainDepth) {
  Netlist nl;
  CellId prev = nl.add_input("a");
  const CellId b = nl.add_input("b");
  for (int i = 0; i < 5; ++i) {
    prev = nl.add_gate(CellKind::kNand, "n" + std::to_string(i), {prev, b});
  }
  nl.mark_output(prev);
  nl.finalize();
  EXPECT_EQ(combinational_levels(nl)[prev], 5);
}

TEST(SeqDepth, ToPoCountsFlipFlops) {
  const Netlist nl = pipeline();
  const auto d = seq_depth_to_po(nl);
  EXPECT_EQ(d[nl.find("g3")], 0);
  EXPECT_EQ(d[nl.find("f2")], 0);  // f2's *output* reaches PO directly
  EXPECT_EQ(d[nl.find("g2")], 1);  // must cross f2
  EXPECT_EQ(d[nl.find("g1")], 2);  // crosses f1 and f2
  EXPECT_EQ(d[nl.find("x")], 1);   // best route: via g2, crossing f2
  EXPECT_EQ(d[nl.find("y")], 0);   // y feeds g3 directly
}

TEST(SeqDepth, FromPi) {
  const Netlist nl = pipeline();
  const auto d = seq_depth_from_pi(nl);
  EXPECT_EQ(d[nl.find("g1")], 0);
  EXPECT_EQ(d[nl.find("f1")], 1);
  // f2's cheapest justification is x -> g2 -> f2: one flip-flop crossing.
  EXPECT_EQ(d[nl.find("f2")], 1);
  EXPECT_EQ(d[nl.find("g3")], 0);  // y reaches g3 with no flip-flop
}

TEST(SeqDepth, UnreachableIsMarked) {
  Netlist nl;
  const CellId a = nl.add_input("a");
  const CellId g = nl.add_gate(CellKind::kNot, "g", {a});
  (void)g;  // g drives nothing and is not an output
  nl.finalize();
  const auto d = seq_depth_to_po(nl);
  EXPECT_EQ(d[g], kUnreachable);
}

TEST(CircuitSeqDepth, PipelineIsTwo) {
  EXPECT_EQ(circuit_seq_depth(pipeline()), 2);
}

TEST(CircuitSeqDepth, CombinationalIsOne) {
  Netlist nl;
  const CellId a = nl.add_input("a");
  const CellId g = nl.add_gate(CellKind::kNot, "g", {a});
  nl.mark_output(g);
  nl.finalize();
  EXPECT_EQ(circuit_seq_depth(nl), 1);
}

TEST(CircuitSeqDepth, SelfLoopCountsOnce) {
  // An FF in a feedback loop is one SCC: contributes its size once.
  const Netlist nl = embedded_netlist("count2");
  const int d = circuit_seq_depth(nl);
  EXPECT_GE(d, 1);
  EXPECT_LE(d, 2);
}

TEST(CircuitSeqDepth, S27) {
  const Netlist nl = embedded_netlist("s27");
  const int d = circuit_seq_depth(nl);
  // s27's three flip-flops form a feedback structure; depth is bounded by 3.
  EXPECT_GE(d, 1);
  EXPECT_LE(d, 3);
}

// Tarjan SCC over an adjacency list: flattened to the CSR form that
// tarjan_scc_csr takes, edge order (and so the numbering) preserved.
std::vector<int> tarjan_scc_adj(
    const std::vector<std::vector<std::uint32_t>>& adj, int& num_components) {
  std::vector<std::uint32_t> offsets{0};
  std::vector<std::uint32_t> targets;
  for (const auto& row : adj) {
    targets.insert(targets.end(), row.begin(), row.end());
    offsets.push_back(static_cast<std::uint32_t>(targets.size()));
  }
  return tarjan_scc_csr(offsets, targets, num_components);
}

TEST(Tarjan, KnownComponents) {
  // 0 -> 1 -> 2 -> 0 (SCC of 3), 3 -> 4, 2 -> 3.
  std::vector<std::vector<std::uint32_t>> adj(5);
  adj[0] = {1};
  adj[1] = {2};
  adj[2] = {0, 3};
  adj[3] = {4};
  int n = 0;
  const auto comp = tarjan_scc_adj(adj, n);
  EXPECT_EQ(n, 3);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_NE(comp[2], comp[3]);
  EXPECT_NE(comp[3], comp[4]);
  // Reverse topological numbering: edges go to lower component ids.
  EXPECT_GT(comp[2], comp[3]);
  EXPECT_GT(comp[3], comp[4]);
}

TEST(Tarjan, EmptyAndSingleton) {
  std::vector<std::vector<std::uint32_t>> adj;
  int n = -1;
  tarjan_scc_adj(adj, n);
  EXPECT_EQ(n, 0);
  adj.resize(1);
  const auto comp = tarjan_scc_adj(adj, n);
  EXPECT_EQ(n, 1);
  EXPECT_EQ(comp[0], 0);
}

TEST(Cones, FaninConeOfPipeline) {
  const Netlist nl = pipeline();
  const CellId roots[] = {nl.find("g2")};
  const auto cone = fanin_cone(nl, roots);
  const std::set<CellId> set(cone.begin(), cone.end());
  EXPECT_TRUE(set.count(nl.find("g2")));
  EXPECT_TRUE(set.count(nl.find("f1")));
  EXPECT_TRUE(set.count(nl.find("g1")));  // crosses the flip-flop
  EXPECT_TRUE(set.count(nl.find("x")));
  EXPECT_FALSE(set.count(nl.find("g3")));
}

TEST(Cones, FanoutConeOfPipeline) {
  const Netlist nl = pipeline();
  const CellId roots[] = {nl.find("g1")};
  const auto cone = fanout_cone(nl, roots);
  const std::set<CellId> set(cone.begin(), cone.end());
  EXPECT_TRUE(set.count(nl.find("f1")));
  EXPECT_TRUE(set.count(nl.find("g3")));
  EXPECT_FALSE(set.count(nl.find("y")));
}

TEST(IoPath, SegmentsSplitAtSequentialCells) {
  const Netlist nl = pipeline();
  IoPath path;
  path.cells = {nl.find("x"), nl.find("g1"), nl.find("f1"),
                nl.find("g2"), nl.find("f2"), nl.find("g3")};
  path.ff_count = 2;
  const auto segs = path.segments(nl);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0], std::vector<CellId>{nl.find("g1")});
  EXPECT_EQ(segs[1], std::vector<CellId>{nl.find("g2")});
  EXPECT_EQ(segs[2], std::vector<CellId>{nl.find("g3")});
}

TEST(PathSampling, WalkEndsAtPiAndPo) {
  const Netlist nl = pipeline();
  Rng rng(1);
  const IoPath path = sample_io_path(nl, nl.find("g2"), rng);
  ASSERT_FALSE(path.cells.empty());
  EXPECT_EQ(nl.cell(path.cells.front()).kind, CellKind::kInput);
  EXPECT_TRUE(nl.cell(path.cells.back()).is_output);
  // ff_count matches the DFFs actually on the walk.
  int ffs = 0;
  for (const CellId id : path.cells) {
    ffs += nl.cell(id).kind == CellKind::kDff;
  }
  EXPECT_EQ(ffs, path.ff_count);
}

class PathPoolProperty : public ::testing::TestWithParam<int> {};

TEST_P(PathPoolProperty, PoolInvariantsOnGeneratedCircuits) {
  CircuitProfile profile{"pool", 8, 6, 8, 120, 8};
  const Netlist nl = generate_circuit(profile, GetParam());
  Rng rng(GetParam() * 31);
  PathPoolOptions opt;
  opt.sample_fraction = 0.10;
  const auto pool = build_path_pool(nl, rng, opt);
  ASSERT_FALSE(pool.empty());
  int prev_depth = std::numeric_limits<int>::max();
  std::set<std::vector<CellId>> unique;
  for (const IoPath& p : pool) {
    EXPECT_EQ(nl.cell(p.cells.front()).kind, CellKind::kInput);
    EXPECT_TRUE(nl.cell(p.cells.back()).is_output);
    EXPECT_LE(p.ff_count, prev_depth);  // sorted deepest first
    prev_depth = p.ff_count;
    EXPECT_TRUE(unique.insert(p.cells).second);  // deduplicated
    // Consecutive cells are actually connected.
    for (std::size_t i = 1; i < p.cells.size(); ++i) {
      const auto& fi = nl.cell(p.cells[i]).fanins;
      EXPECT_NE(std::find(fi.begin(), fi.end(), p.cells[i - 1]), fi.end());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathPoolProperty, ::testing::Range(1, 9));

TEST(PathPool, ExcludeFilterApplies) {
  const Netlist nl = pipeline();
  Rng rng(5);
  PathPoolOptions opt;
  opt.min_ffs = 0;
  const auto all = build_path_pool(nl, rng, opt);
  ASSERT_FALSE(all.empty());
  // Excluding everything gives an empty pool.
  const auto none = build_path_pool(nl, rng, opt,
                                    [](const IoPath&) { return true; });
  EXPECT_TRUE(none.empty());
}


// -- equivalence with the flip-flop dependency graph --------------------------

// Circuit depth D on the flip-flop graph: one node per flip-flop plus SRC
// (the PIs) and SNK (the POs), an edge wherever one sequential source
// combinationally reaches the next sink, found by one backward walk per
// flip-flop and per PO. It pins circuit_seq_depth's cell-graph
// condensation.
namespace reference {

// Sequential sources (DFF outputs / any PI) combinationally reaching `start`
// walking backward. Returns DFF ids; sets `from_pi` if a PI is reached.
std::vector<CellId> comb_seq_sources(const Netlist& nl, CellId start,
                                     bool& from_pi, std::vector<int>& mark,
                                     int stamp) {
  std::vector<CellId> result;
  from_pi = false;
  std::vector<CellId> work{start};
  while (!work.empty()) {
    const CellId u = work.back();
    work.pop_back();
    if (mark[u] == stamp) continue;
    mark[u] = stamp;
    const Cell& c = nl.cell(u);
    if (c.kind == CellKind::kDff) {
      result.push_back(u);
      continue;  // do not cross the flip-flop
    }
    if (c.kind == CellKind::kInput) {
      from_pi = true;
      continue;
    }
    for (const CellId f : c.fanins) work.push_back(f);
  }
  return result;
}

int circuit_seq_depth(const Netlist& nl) {
  const auto dffs = nl.dffs();
  const auto n_ff = dffs.size();
  // FF-graph nodes: [0, n_ff) = flip-flops, n_ff = SRC (PIs), n_ff+1 = SNK.
  const std::uint32_t kSrc = static_cast<std::uint32_t>(n_ff);
  const std::uint32_t kSnk = kSrc + 1;
  std::vector<std::vector<std::uint32_t>> adj(n_ff + 2);

  std::vector<std::uint32_t> ff_index(nl.size(), 0);
  for (std::uint32_t i = 0; i < n_ff; ++i) ff_index[dffs[i]] = i;

  std::vector<int> mark(nl.size(), -1);
  int stamp = 0;
  for (std::uint32_t i = 0; i < n_ff; ++i) {
    bool from_pi = false;
    const CellId d_pin = nl.cell(dffs[i]).fanins.empty()
                             ? kNullCell
                             : nl.cell(dffs[i]).fanins[0];
    if (d_pin == kNullCell) continue;
    for (const CellId src : comb_seq_sources(nl, d_pin, from_pi, mark, stamp++)) {
      adj[ff_index[src]].push_back(i);
    }
    if (from_pi) adj[kSrc].push_back(i);
  }
  for (const CellId po : nl.outputs()) {
    bool from_pi = false;
    for (const CellId src : comb_seq_sources(nl, po, from_pi, mark, stamp++)) {
      adj[ff_index[src]].push_back(kSnk);
    }
    if (from_pi) adj[kSrc].push_back(kSnk);
  }

  int num_comp = 0;
  const std::vector<int> comp = tarjan_scc_adj(adj, num_comp);

  // Component weights: number of flip-flops (SRC/SNK weigh 0).
  std::vector<int> weight(num_comp, 0);
  for (std::uint32_t i = 0; i < n_ff; ++i) ++weight[comp[i]];

  // Condensation edges; components numbered in reverse topological order, so
  // an edge goes from a higher comp index to a lower (or equal, intra-SCC).
  std::vector<std::vector<int>> cadj(num_comp);
  for (std::uint32_t u = 0; u < adj.size(); ++u) {
    for (const std::uint32_t v : adj[u]) {
      if (comp[u] != comp[v]) cadj[comp[u]].push_back(comp[v]);
    }
  }

  // best[c] = heaviest FF chain starting in c and ending at SNK's component.
  const int snk_comp = comp[kSnk];
  std::vector<long long> best(num_comp, -1);
  best[snk_comp] = weight[snk_comp];
  for (int c = 0; c < num_comp; ++c) {  // children (lower index) first
    long long reach = -1;
    for (const int child : cadj[c]) reach = std::max(reach, best[child]);
    if (reach >= 0) best[c] = std::max(best[c], weight[c] + reach);
  }
  const long long d = best[comp[kSrc]];
  return d <= 0 ? 1 : static_cast<int>(d);
}

}  // namespace reference

void expect_depth(const Netlist& nl, int want) {
  EXPECT_EQ(reference::circuit_seq_depth(nl), want);
  EXPECT_EQ(circuit_seq_depth(nl), want);
}

TEST(CircuitSeqDepth, MatchesFlipFlopGraphReference) {
  const TechLibrary lib = TechLibrary::cmos90_stt();
  defense::DefenseOptions dopt;
  dopt.seed = 7;
  for (const CircuitProfile& profile : iscas89_profiles()) {
    const Netlist original = generate_circuit(profile, 7);
    for (const std::string kind : {"", "dependent", "xor", "const"}) {
      SCOPED_TRACE(profile.name + "/" + kind);
      const Netlist nl =
          kind.empty()
              ? original
              : defense::registry().apply(kind, original, lib, dopt).locked;
      EXPECT_EQ(circuit_seq_depth(nl), reference::circuit_seq_depth(nl));
    }
  }

  {
    SCOPED_TRACE("PO driven from inside a flip-flop loop");
    Netlist nl("po_in_loop");
    const CellId x = nl.add_input("x");
    const CellId f1 = nl.add_dff("f1");
    const CellId f2 = nl.add_dff("f2", f1);
    const CellId g = nl.add_gate(CellKind::kAnd, "g", {x, f2});
    nl.connect(f1, {g});
    nl.mark_output(g);
    nl.finalize();
    expect_depth(nl, 2);
  }
  {
    SCOPED_TRACE("DFF driving a PO directly");
    Netlist nl("dff_po");
    const CellId x = nl.add_input("x");
    nl.mark_output(nl.add_dff("f", x));
    nl.finalize();
    expect_depth(nl, 1);
  }
  {
    SCOPED_TRACE("PI wired straight to a PO");
    Netlist nl("pi_po");
    const CellId x = nl.add_input("x");
    const CellId f1 = nl.add_dff("f1", x);
    const CellId f2 = nl.add_dff("f2", f1);
    nl.mark_output(x);
    nl.mark_output(nl.add_gate(CellKind::kNot, "g", {f2}));
    nl.finalize();
    expect_depth(nl, 2);
  }
  {
    SCOPED_TRACE("flip-flops no PI reaches");
    Netlist nl("unreached");
    const CellId x = nl.add_input("x");
    const CellId one = nl.add_const(true, "one");
    const CellId f = nl.add_dff("f", one);
    const CellId f3 = nl.add_dff("f3");
    const CellId f4 = nl.add_dff("f4", f3);
    nl.connect(f3, {nl.add_gate(CellKind::kNot, "n", {f4})});
    nl.mark_output(nl.add_gate(CellKind::kAnd, "g", {f, x}));
    nl.mark_output(nl.add_gate(CellKind::kOr, "h", {f4, x}));
    nl.finalize();
    expect_depth(nl, 1);
  }
  {
    SCOPED_TRACE("flip-flop chain feeding a loop");
    Netlist nl("chain_loop");
    const CellId x = nl.add_input("x");
    const CellId fa = nl.add_dff("fa", x);
    const CellId fb = nl.add_dff("fb", fa);
    const CellId fd = nl.add_dff("fd");
    const CellId g = nl.add_gate(CellKind::kXor, "g", {fb, fd});
    const CellId fc = nl.add_dff("fc", g);
    nl.connect(fd, {fc});
    nl.mark_output(fd);
    nl.finalize();
    expect_depth(nl, 4);
  }
}

}  // namespace
}  // namespace stt
