#include "sim/scoap.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <utility>

namespace stt {

namespace {

constexpr double kInfCost = 1e17;

double cap(double v) { return std::min(v, kInfCost); }

// Truth mask of a combinational cell (configured view).
std::uint64_t func_mask(const Cell& c) {
  switch (c.kind) {
    case CellKind::kConst0:
      return 0;
    case CellKind::kConst1:
      return full_mask(0);
    case CellKind::kLut:
      return c.lut_mask;
    default:
      return gate_truth_mask(c.kind, c.fanin_count());
  }
}

// A cube over a cell's inputs: input i is assigned iff bit i of `care` is
// set, and then to bit i of `value`; unassigned inputs are don't-cares.
struct Cube {
  std::uint8_t care = 0;
  std::uint8_t value = 0;
};

// Truth-table rows covered by a cube over `k` inputs.
std::uint64_t cube_rows(int k, unsigned care, unsigned value) {
  std::uint64_t rows = 0;
  for (std::uint32_t row = 0; row < num_rows(k); ++row) {
    if ((row & care) == value) rows |= 1ull << row;
  }
  return rows;
}

// Append to `out` the prime cubes over the inputs outside `free_input`
// whose rows satisfy `holds`: those from which no assigned input can be
// freed with `holds` still true.
template <typename Holds>
void add_primes(std::vector<Cube>& out, int k, unsigned free_input,
                Holds holds) {
  for (unsigned care = 0; care < num_rows(k); ++care) {
    if (care & free_input) continue;
    // Every value pattern over the assigned inputs.
    for (unsigned value = care;; value = (value - 1) & care) {
      if (holds(cube_rows(k, care, value))) {
        bool prime = true;
        for (unsigned m = care; m && prime; m &= m - 1) {
          const unsigned bit = m & (~m + 1);
          prime = !holds(cube_rows(k, care & ~bit, value & ~bit));
        }
        if (prime) {
          out.push_back({static_cast<std::uint8_t>(care),
                         static_cast<std::uint8_t>(value)});
        }
      }
      if (value == 0) break;
    }
  }
}

// The prime cubes of one (function mask, arity) pair. A cube's SCOAP cost
// sums non-negative controllabilities in fan-in order, and rounded
// addition is monotone, so a cube never costs less than a prime cube whose
// literals it contains: the minimum over the primes equals the minimum
// over all 3^k cubes.
struct PrimeCubes {
  PrimeCubes(std::uint64_t mask, int k) {
    add_primes(justify[0], k, 0,
               [&](std::uint64_t rows) { return (rows & mask) == 0; });
    add_primes(justify[1], k, 0,
               [&](std::uint64_t rows) { return (rows & ~mask) == 0; });
    for (int i = 0; i < k; ++i) {
      // Rows with input i low where flipping input i keeps the output.
      const std::uint64_t same =
          ~(mask ^ (mask >> (1u << i))) & ~cube_rows(k, 1u << i, 1u << i);
      add_primes(sensitize[i], k, 1u << i,
                 [&](std::uint64_t rows) { return (rows & same) == 0; });
    }
  }

  /// Prime implicants of the off-set / on-set: the minimal cubes that
  /// justify the output to 0 / 1.
  std::array<std::vector<Cube>, 2> justify;
  /// Per input i, the minimal side-input cubes (input i free) under which
  /// the output is sensitive to input i.
  std::array<std::vector<Cube>, kMaxLutInputs> sensitize;
};

// Cost of assigning a cube's inputs: 1 plus the controllability of each
// assigned input in fan-in order, capped.
double cube_cost(Cube q, const Cell& c, const ScoapResult& r) {
  double cost = 1;
  for (unsigned m = q.care; m; m &= m - 1) {
    const int i = std::countr_zero(m);
    cost += ((q.value >> i) & 1) ? r.cc1[c.fanins[i]] : r.cc0[c.fanins[i]];
  }
  return cap(cost);
}

double min_cost(const std::vector<Cube>& cubes, const Cell& c,
                const ScoapResult& r) {
  double best = kInfCost;
  for (const Cube q : cubes) best = std::min(best, cube_cost(q, c, r));
  return best;
}

}  // namespace

double ScoapResult::resolvability(const Netlist& nl, CellId id) const {
  const Cell& c = nl.cell(id);
  double justify = 0;
  for (const CellId f : c.fanins) {
    justify += std::min(cc0[f], cc1[f]);
  }
  return cap(justify + co[id]);
}

ScoapResult compute_scoap(const Netlist& nl, const ScoapOptions& opt) {
  ScoapResult r;
  r.cc0.assign(nl.size(), kInfCost);
  r.cc1.assign(nl.size(), kInfCost);
  r.co.assign(nl.size(), kInfCost);

  const auto order = nl.topo_order();

  // Prime-cube tables, one per distinct (function, arity) among the cells
  // evaluated through cubes (map nodes are stable, so cells keep pointers).
  std::map<std::pair<std::uint64_t, int>, PrimeCubes> tables;
  std::vector<const PrimeCubes*> primes(nl.size(), nullptr);
  for (const CellId id : order) {
    const Cell& c = nl.cell(id);
    const int k = c.fanin_count();
    if (!is_combinational(c.kind) || k == 0 || k > kMaxLutInputs) continue;
    if (opt.attacker_view && c.kind == CellKind::kLut) continue;
    const std::uint64_t mask = func_mask(c) & full_mask(k);
    primes[id] = &tables.try_emplace({mask, k}, mask, k).first->second;
  }

  // A cell's values only move when an input's do, so both sweeps visit a
  // cell only when it is dirty: forward, when a fan-in's controllability
  // dropped since the cell was last evaluated; backward, when its own
  // observability dropped since it last contributed to its fan-ins. A
  // skipped cell would have recomputed exactly its previous candidates,
  // which the in-place minimum already holds.
  std::vector<std::uint8_t> dirty(nl.size(), 1);

  // ---- controllability: forward relaxation --------------------------------
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    bool changed = false;
    for (const CellId id : order) {
      if (!dirty[id]) continue;
      dirty[id] = 0;
      const Cell& c = nl.cell(id);
      double new0 = r.cc0[id];
      double new1 = r.cc1[id];
      switch (c.kind) {
        case CellKind::kInput:
          new0 = new1 = 1;
          break;
        case CellKind::kConst0:
          new0 = 0;
          break;
        case CellKind::kConst1:
          new1 = 0;
          break;
        case CellKind::kDff:
          if (!c.fanins.empty()) {
            new0 = cap(r.cc0[c.fanins[0]] + opt.sequential_increment);
            new1 = cap(r.cc1[c.fanins[0]] + opt.sequential_increment);
          }
          break;
        default: {
          if (opt.attacker_view && c.kind == CellKind::kLut) {
            new0 = new1 = opt.unknown_lut_cost;
            break;
          }
          if (c.fanin_count() > kMaxLutInputs) {
            // Wide standard gates: closed-form SCOAP rules.
            double sum0 = 0, sum1 = 0, min0 = kInfCost, min1 = kInfCost,
                   summin = 0;
            for (const CellId f : c.fanins) {
              sum0 += r.cc0[f];
              sum1 += r.cc1[f];
              min0 = std::min(min0, r.cc0[f]);
              min1 = std::min(min1, r.cc1[f]);
              summin += std::min(r.cc0[f], r.cc1[f]);
            }
            switch (c.kind) {
              case CellKind::kAnd:
                new1 = cap(sum1 + 1);
                new0 = cap(min0 + 1);
                break;
              case CellKind::kNand:
                new0 = cap(sum1 + 1);
                new1 = cap(min0 + 1);
                break;
              case CellKind::kOr:
                new0 = cap(sum0 + 1);
                new1 = cap(min1 + 1);
                break;
              case CellKind::kNor:
                new1 = cap(sum0 + 1);
                new0 = cap(min1 + 1);
                break;
              default:  // XOR/XNOR: parity, both values cost every input
                new0 = new1 = cap(summin + 1);
                break;
            }
            break;
          }
          // Minimize over *cubes* (each input 0/1/don't-care): a cube is a
          // valid justification of value v when every completion produces
          // v, and only the assigned inputs are charged. This yields the
          // textbook values (e.g. CC0(AND2) = min(CC0 inputs) + 1).
          new0 = min_cost(primes[id]->justify[0], c, r);
          new1 = min_cost(primes[id]->justify[1], c, r);
          break;
        }
      }
      if (new0 < r.cc0[id] || new1 < r.cc1[id]) {
        r.cc0[id] = std::min(r.cc0[id], new0);
        r.cc1[id] = std::min(r.cc1[id], new1);
        changed = true;
        for (const CellId f : c.fanouts) dirty[f] = 1;
      }
    }
    if (!changed) break;
  }

  // ---- observability: backward relaxation ---------------------------------
  for (const CellId id : nl.outputs()) r.co[id] = 0;
  std::fill(dirty.begin(), dirty.end(), 1);
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    bool changed = false;
    auto lower = [&](CellId f, double v) {
      if (v < r.co[f]) {
        r.co[f] = v;
        changed = true;
        dirty[f] = 1;
      }
    };
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const CellId id = *it;
      if (!dirty[id]) continue;
      dirty[id] = 0;
      const Cell& c = nl.cell(id);
      // Observability of this cell's *inputs* through this cell.
      if (c.kind == CellKind::kDff) {
        if (!c.fanins.empty()) {
          lower(c.fanins[0], cap(r.co[id] + opt.sequential_increment));
        }
        continue;
      }
      if (!is_combinational(c.kind) || c.fanins.empty()) continue;
      if (opt.attacker_view && c.kind == CellKind::kLut) {
        // Propagation through an unknown function is blocked for a testing
        // attacker: charge the unknown-LUT penalty.
        for (const CellId f : c.fanins) {
          lower(f, cap(r.co[id] + opt.unknown_lut_cost));
        }
        continue;
      }
      if (c.fanin_count() > kMaxLutInputs) {
        // Wide standard gates: sensitize by fixing the side inputs to the
        // gate's non-controlling value (AND/NAND: 1, OR/NOR: 0, XOR: any).
        for (int i = 0; i < c.fanin_count(); ++i) {
          double side = 1;
          for (int j = 0; j < c.fanin_count(); ++j) {
            if (j == i) continue;
            const CellId f = c.fanins[j];
            switch (c.kind) {
              case CellKind::kAnd:
              case CellKind::kNand:
                side += r.cc1[f];
                break;
              case CellKind::kOr:
              case CellKind::kNor:
                side += r.cc0[f];
                break;
              default:
                side += std::min(r.cc0[f], r.cc1[f]);
                break;
            }
          }
          lower(c.fanins[i], cap(r.co[id] + side));
        }
        continue;
      }
      // Cheapest side-input *cube* under which the output is sensitive to
      // input i for every completion of the unassigned inputs.
      for (int i = 0; i < c.fanin_count(); ++i) {
        const double best = min_cost(primes[id]->sensitize[i], c, r);
        lower(c.fanins[i], cap(r.co[id] + best));
      }
    }
    if (!changed) break;
  }
  return r;
}

}  // namespace stt
