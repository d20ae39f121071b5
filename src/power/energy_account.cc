#include "power/energy_account.hh"

#include "sim/logging.hh"

namespace gals
{

Unit
clockUnitOf(DomainId d)
{
    switch (d) {
      case DomainId::fetch:
        return Unit::fetchClock;
      case DomainId::decode:
        return Unit::decodeClock;
      case DomainId::intd:
        return Unit::intClock;
      case DomainId::fpd:
        return Unit::fpClock;
      case DomainId::memd:
        return Unit::memClock;
      default:
        gals_panic("bad domain id");
    }
}

EnergyAccount::EnergyAccount(const PowerModel &model) : model_(model)
{
    for (unsigned i = 0; i < numUnits; ++i) {
        const Unit u = static_cast<Unit>(i);
        if (isClockUnit(u) || u == Unit::fifo || u == Unit::resultBus)
            continue; // charged per event, not per cycle
        DomainUnits &du = domainUnits_[domainIndex(unitDomain(u))];
        du.units[du.count++] = static_cast<std::uint8_t>(i);
    }
    for (unsigned d = 0; d < numDomains; ++d)
        domainUnits_[d].clock = clockUnitOf(static_cast<DomainId>(d));
}

void
EnergyAccount::chargeImmediate(Unit u, std::uint64_t n, double vdd)
{
    const double scale = model_.tech().energyScale(vdd);
    energyNj_[static_cast<unsigned>(u)] +=
        n * model_.accessEnergyNj(u) * scale;
}

void
EnergyAccount::chargeEnergyNj(Unit u, double nj, double vdd)
{
    const double scale = model_.tech().energyScale(vdd);
    energyNj_[static_cast<unsigned>(u)] += nj * scale;
}

void
EnergyAccount::domainCycle(DomainId d, double vdd)
{
    const double scale = model_.tech().energyScale(vdd);
    const double idle = model_.tech().idleFraction;

    gals_assert(domainIndex(d) < numDomains, "bad domain id");
    const DomainUnits &du = domainUnits_[domainIndex(d)];
    for (unsigned k = 0; k < du.count; ++k) {
        const unsigned i = du.units[k];
        const double ea = model_.accessEnergyNj(static_cast<Unit>(i));
        if (cycleAccesses_[i] > 0) {
            energyNj_[i] += cycleAccesses_[i] * ea * scale;
            cycleAccesses_[i] = 0;
        } else {
            energyNj_[i] += idle * ea * scale;
        }
    }

    const Unit clk = du.clock;
    energyNj_[static_cast<unsigned>(clk)] +=
        model_.accessEnergyNj(clk) * scale;
}

void
EnergyAccount::globalClockCycle(double vdd)
{
    chargeImmediate(Unit::globalClock, 1, vdd);
}

double
EnergyAccount::totalNj() const
{
    double sum = 0.0;
    for (const double e : energyNj_)
        sum += e;
    return sum;
}

double
EnergyAccount::clockEnergyNj() const
{
    double sum = 0.0;
    for (unsigned i = 0; i < numUnits; ++i)
        if (isClockUnit(static_cast<Unit>(i)))
            sum += energyNj_[i];
    return sum;
}

void
EnergyAccount::reset()
{
    cycleAccesses_.fill(0);
    energyNj_.fill(0.0);
}

} // namespace gals
