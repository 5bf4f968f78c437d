#include "power/energy.hh"

#include <iomanip>

#include "sim/logging.hh"

namespace mbus {
namespace power {

const char *
energyCategoryName(EnergyCategory c)
{
    switch (c) {
      case EnergyCategory::SegmentClk: return "seg_clk";
      case EnergyCategory::SegmentData: return "seg_data";
      case EnergyCategory::Comb: return "comb";
      case EnergyCategory::Fifo: return "fifo";
      case EnergyCategory::Drive: return "drive";
      case EnergyCategory::Mediator: return "mediator";
      case EnergyCategory::Leakage: return "leakage";
      case EnergyCategory::External: return "external";
      default: return "?";
    }
}

EnergyLedger::EnergyLedger(std::size_t nodeCount)
{
    resize(nodeCount);
}

void
EnergyLedger::resize(std::size_t nodeCount)
{
    if (nodeCount > perNode_.size())
        perNode_.resize(nodeCount, Row{});
}

void
EnergyLedger::charge(std::size_t node, EnergyCategory cat, double joules)
{
    if (node >= perNode_.size())
        mbus_panic("energy charge to unknown node ", node);
    perNode_[node][static_cast<std::size_t>(cat)] += joules;
}

void
EnergyLedger::price(std::size_t node, EnergyCategory cat, double joules,
                    std::uint64_t count)
{
    if (node >= perNode_.size())
        mbus_panic("energy price to unknown node ", node);
    perNode_[node][static_cast<std::size_t>(cat)] =
        joules * static_cast<double>(count);
}

double
EnergyLedger::nodeTotal(std::size_t node) const
{
    if (node >= perNode_.size())
        return 0.0;
    double sum = 0.0;
    for (double v : perNode_[node])
        sum += v;
    return sum;
}

double
EnergyLedger::nodeCategory(std::size_t node, EnergyCategory cat) const
{
    if (node >= perNode_.size())
        return 0.0;
    return perNode_[node][static_cast<std::size_t>(cat)];
}

double
EnergyLedger::categoryTotal(EnergyCategory cat) const
{
    double sum = 0.0;
    for (const auto &row : perNode_)
        sum += row[static_cast<std::size_t>(cat)];
    return sum;
}

double
EnergyLedger::total() const
{
    double sum = 0.0;
    for (std::size_t n = 0; n < perNode_.size(); ++n)
        sum += nodeTotal(n);
    return sum;
}

void
EnergyLedger::reset()
{
    for (auto &row : perNode_)
        row.fill(0.0);
}

void
EnergyLedger::report(std::ostream &os) const
{
    os << std::left << std::setw(6) << "node";
    for (std::size_t c = 0; c < kNumCategories; ++c) {
        os << std::right << std::setw(12)
           << energyCategoryName(static_cast<EnergyCategory>(c));
    }
    os << std::right << std::setw(12) << "total[pJ]" << "\n";

    for (std::size_t n = 0; n < perNode_.size(); ++n) {
        os << std::left << std::setw(6) << n;
        for (std::size_t c = 0; c < kNumCategories; ++c) {
            os << std::right << std::setw(12) << std::fixed
               << std::setprecision(2) << perNode_[n][c] * 1e12;
        }
        os << std::right << std::setw(12) << std::fixed
           << std::setprecision(2) << nodeTotal(n) * 1e12 << "\n";
    }
    os.unsetf(std::ios::fixed);
}

} // namespace power
} // namespace mbus
