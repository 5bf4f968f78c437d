#include "backend/mbus_message_backend.hh"

#include <array>

#include "mbus/config.hh"
#include "mbus/data_phase.hh"
#include "mbus/layer_controller.hh"
#include "power/constants.hh"
#include "sim/logging.hh"

namespace mbus {
namespace backend {

MbusMessageBackend::MbusMessageBackend(sim::Simulator &sim,
                                       const BusParams &params)
    : sim_(sim), params_(params),
      nodes_(static_cast<std::size_t>(params.nodes)),
      lanes_(params.dataLanes),
      energy_(power::kSimCalibration,
              2 * power::kPadCapF + (params.wireCapF >= 0
                                         ? params.wireCapF
                                         : power::kWireCapF)),
      ledger_(nodes_), hop_(hopDelayFromNs(params.hopDelayNs)),
      period_(sim::periodFromHz(params.busClockHz)), half_(period_ / 2),
      flush_((static_cast<sim::SimTime>(params.nodes) + 2) * hop_)
{
    if (params.nodes < 2 || params.nodes > 14)
        mbus_fatal("message-level MBus needs 2..14 nodes, got ",
                   params.nodes);
    if (lanes_ < 1 || lanes_ > 4)
        mbus_fatal("MBus supports 1..4 DATA lanes, got ", lanes_);
    if (params.busClockHz > maxSafeClockHz())
        mbus_fatal("bus clock ", params.busClockHz / 1e6,
                   " MHz exceeds the safe limit ",
                   maxSafeClockHz() / 1e6, " MHz for ", nodes_,
                   " nodes");
    // The script assumes every edge has flushed the ring before the
    // next one is driven; at H == R ring checks and ticks would tie.
    if (hop_ == 0 || half_ <= flush_)
        mbus_fatal("message-level MBus needs 0 < (n + 2) hops < P/2");
    counts_.resize(nodes_);
    laneLevel_.assign(static_cast<std::size_t>(lanes_ - 1), 1);
    idleAt_.assign(nodes_, 0);
}

double
MbusMessageBackend::maxSafeClockHz() const
{
    bus::SystemConfig ring;
    ring.hopDelay = hop_;
    return bus::safeClockLimitHz(ring, nodes_);
}

bus::Address
MbusMessageBackend::unicastAddress(std::size_t node, bool fullAddressing,
                                   std::uint8_t fuId) const
{
    if (fullAddressing)
        return bus::Address::fullAddr(
            kFullPrefixBase + static_cast<std::uint32_t>(node), fuId);
    return bus::Address::shortAddr(static_cast<std::uint8_t>(node + 1),
                                   fuId);
}

std::vector<std::size_t>
MbusMessageBackend::receiversOf(std::size_t sender,
                                const bus::Address &dest) const
{
    std::vector<std::size_t> out;
    if (dest.isBroadcast()) {
        // Every chip subscribes to the first user channel; the system
        // channels (enumeration, config) act on the bus itself.
        if (dest.channel() != bus::kChannelUserBase)
            mbus_fatal("message-level MBus: broadcast channel ",
                       int(dest.channel()), " is out of model");
        for (std::size_t j = 0; j < nodes_; ++j)
            if (j != sender)
                out.push_back(j);
        return out;
    }
    std::size_t to = nodes_;
    if (dest.isFull()) {
        std::uint32_t p = dest.fullPrefix();
        if (p >= kFullPrefixBase && p < kFullPrefixBase + nodes_)
            to = p - kFullPrefixBase;
    } else if (dest.shortPrefix() >= 1 && dest.shortPrefix() <= nodes_) {
        to = dest.shortPrefix() - 1u;
    }
    // Register and memory FUs make the receiving layer act (and
    // reply); only mailbox-bound unicasts are in model.
    bool mailbox = dest.fuId() != bus::kFuRegisterWrite &&
                   dest.fuId() != bus::kFuMemoryWrite &&
                   dest.fuId() != bus::kFuMemoryRead;
    if (to == nodes_ || to == sender || !mailbox)
        mbus_fatal("message-level MBus: unicast ", dest.toString(),
                   " from node ", sender, " is out of model");
    out.push_back(to);
    return out;
}

void
MbusMessageBackend::send(std::size_t node, bus::Message msg,
                         bus::SendCallback cb)
{
    if (node >= nodes_)
        mbus_fatal("message-level MBus: no node ", node);
    if (busy_)
        mbus_fatal("message-level MBus: concurrent sends (arbitration) "
                   "are out of model");
    if (msg.payload.size() > bus::kMinMaxMessageBytes)
        mbus_fatal("message-level MBus: payloads past the mediator "
                   "watchdog limit are out of model");
    // A chip still inside the last transaction requests the bus from
    // its post-idle window, one period after it goes idle.
    sim::SimTime now = sim_.now();
    sim::SimTime tReq = now < idleAt_[node] ? idleAt_[node] + period_ : now;
    sim::SimTime arrival =
        tReq + static_cast<sim::SimTime>(nodes_ - node) * hop_;
    if (arrival <= sleepAt_)
        mbus_fatal("message-level MBus: request before the mediator "
                   "sleeps is out of model");
    transact(node, std::move(msg), std::move(cb), tReq);
}

void
MbusMessageBackend::transact(std::size_t s, bus::Message msg,
                             bus::SendCallback cb, sim::SimTime tReq)
{
    const std::vector<std::size_t> rx = receiversOf(s, msg.dest);
    const bool bcast = msg.dest.isBroadcast();
    const auto w = static_cast<std::uint64_t>(lanes_);
    const int addrBits = msg.dest.bitCount();
    const std::uint32_t encoded = msg.dest.encoded();
    const std::uint64_t payloadBits = 8 * msg.payload.size();
    const std::uint64_t dataCycles =
        payloadBits == 0 ? 0 : (payloadBits + w - 1) / w;
    const std::uint64_t c = static_cast<std::uint64_t>(addrBits) +
                            dataCycles;
    // Lane 0 leaves the reserved cycle high, then carries the address
    // and the data; every change is one edge on every segment. Extra
    // lanes move only in data cycles and keep their last level across
    // transactions.
    bool level = true;
    std::uint64_t x0 = 0;
    for (int i = addrBits - 1; i >= 0; --i) {
        bool b = ((encoded >> i) & 1) != 0;
        x0 += b != level;
        level = b;
    }
    std::array<bool, bus::kMaxDataLanes> entry{};
    entry[0] = level;
    for (std::uint64_t l = 1; l < w; ++l)
        entry[l] = laneLevel_[l - 1] != 0;
    const bus::LaneRun run =
        bus::laneTransitions(msg.payload, lanes_, 0, dataCycles, entry);
    x0 += run.edges[0];
    const bool lastBit = run.last[0];
    std::uint64_t xLanes = 0;
    for (std::uint64_t l = 1; l < w; ++l) {
        xLanes += run.edges[l];
        laneLevel_[l - 1] = run.last[l];
    }

    // --- Timeline (see the file comment) ------------------------------
    const sim::SimTime h = hop_, H = half_, R = flush_;
    const auto n = static_cast<sim::SimTime>(nodes_);
    const auto C = static_cast<sim::SimTime>(c);
    // Interjection toggles until three have come back around the ring
    // and DATA ends high: six after a 1, seven after a 0.
    const sim::SimTime K = lastBit ? 6 : 7;
    const sim::SimTime start =
        tReq + (n - static_cast<sim::SimTime>(s)) * h + period_;
    const sim::SimTime tI = s == 0 ? start + (2 * C + 5) * H + h
                                   : start + (2 * C + 6) * H + R;
    const sim::SimTime tC = tI + (K + 1) * H;

    // --- Edges and charges --------------------------------------------
    // CLK: every segment carries the clocking phase up to rising edge
    // 3 + C (2C + 6 edges) and the eight control edges; segments
    // upstream of a member transmitter also carry the falling edge it
    // does not forward and the mediator's restoring rise.
    // DATA: every segment carries the request fall and reserved-cycle
    // rise, the address/data changes, the K toggles and, for unicasts,
    // the ACK fall and idle rise. Downstream of a member transmitter
    // the two toggles it absorbs before detecting the interjection are
    // missing; upstream, the mediator's arbitration park-high and
    // release are added.
    const std::uint64_t ackEdges = bcast ? 0 : 2;
    const std::uint64_t upstreamClk = 2 * c + 16, downstreamClk = 2 * c + 14;
    const std::uint64_t data = 2 + x0 + static_cast<std::uint64_t>(K) +
                               ackEdges + xLanes;
    for (std::size_t j = 0; j < nodes_; ++j) {
        bool upstream = s != 0 && j < s;
        counts_[j].clkEdges += upstream ? upstreamClk : downstreamClk;
        counts_[j].dataEdges += s == 0 ? data : upstream ? data + 2
                                                         : data - 2;
    }
    for (std::size_t j : rx) {
        // Upstream receivers latch one extra cycle on the restore.
        bool upstream = s != 0 && j < s;
        counts_[j].fifoBits += (dataCycles + (upstream ? 1 : 0)) * w;
    }
    counts_[s].driveCycles += c;
    cycles_ += c + 7;

    for (std::size_t j = 0; j < nodes_; ++j)
        idleAt_[j] = tC + 7 * H + lambda(j);
    sleepAt_ = tC + 7 * H + R;
    busy_ = true;
    busyNode_ = s;

    // --- Kernel events --------------------------------------------------
    // Each chip resolves on its own control rising edge 3; ties between
    // chips 0 and 1 go in node order, as their clock listeners do.
    const sim::SimTime resolve = tC + 5 * H;
    bus::TxResult result;
    result.status = bcast ? bus::TxStatus::Broadcast : bus::TxStatus::Ack;
    result.bytesSent = msg.payload.size();
    result.completedAt = resolve + lambda(s);
    std::size_t next = 0;
    auto deliverUpTo = [&](std::size_t limit) {
        for (; next < rx.size() && rx[next] < limit; ++next) {
            bus::ReceivedMessage m;
            m.dest = msg.dest.isFull()
                         ? bus::Address::decodeFull(encoded)
                         : bus::Address::decodeShort(
                               static_cast<std::uint8_t>(encoded));
            m.payload = msg.payload;
            m.receivedAt = resolve + lambda(rx[next]);
            std::size_t j = rx[next];
            sim_.scheduleAt(m.receivedAt, [this, j, m] {
                if (handler_) {
                    ++dispatches_;
                    handler_(j, m);
                }
            });
        }
    };
    deliverUpTo(s);
    sim_.scheduleAt(result.completedAt, [this, cb, result] {
        busy_ = false;
        if (cb) {
            ++dispatches_;
            cb(result);
        }
    });
    deliverUpTo(nodes_);
    // The mediator's return to sleep: runUntilIdle() ends here.
    sim_.scheduleAt(sleepAt_, [this] { sim_.poke(); });
}

void
MbusMessageBackend::interject(std::size_t)
{
    mbus_fatal("message-level MBus: interjection is out of model");
}

std::size_t
MbusMessageBackend::pendingTx(std::size_t node) const
{
    return busy_ && busyNode_ == node ? 1 : 0;
}

void
MbusMessageBackend::retime(std::size_t, double, std::function<void()>)
{
    mbus_fatal("message-level MBus: retiming is out of model");
}

bool
MbusMessageBackend::runUntilIdle(sim::SimTime timeout)
{
    // Idle begins only at a return to sleep, which pokes.
    if (!idle())
        sim_.runUntil(timeout, [this] { return idle(); });
    return idle();
}

void
MbusMessageBackend::attachTrace(sim::TraceRecorder &)
{
    mbus_fatal("message-level MBus: waveforms need the edge engine");
}

void
MbusMessageBackend::priceEnergy() const
{
    for (std::size_t j = 0; j < nodes_; ++j) {
        power::SlotCounts k = counts_[j];
        // Chip 0 clocks off its own CLK_OUT, members off their input.
        k.localClkEdges = counts_[j == 0 ? 0 : j - 1].clkEdges;
        if (j == 0)
            k.mediatorCycles = cycles_;
        energy_.priceSlot(ledger_, j, k);
    }
}

double
MbusMessageBackend::switchingJ() const
{
    priceEnergy();
    return ledger_.total();
}

double
MbusMessageBackend::nodeEnergyJ(std::size_t node) const
{
    priceEnergy();
    return ledger_.nodeTotal(node);
}

double
MbusMessageBackend::leakageJ() const
{
    return power::kIdleLeakagePerChipW * static_cast<double>(nodes_) *
           sim::toSeconds(sim_.now());
}

double
MbusMessageBackend::poweredSeconds(std::size_t) const
{
    return sim::toSeconds(sim_.now()); // Never gated.
}

std::uint64_t
MbusMessageBackend::nodeEdges(std::size_t node) const
{
    return counts_[node].clkEdges + counts_[node].dataEdges;
}

} // namespace backend
} // namespace mbus
