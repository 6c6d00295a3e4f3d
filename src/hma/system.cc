#include "hma/system.hh"

#include <algorithm>
#include <bit>
#include <memory>
#include <queue>

#include "common/logging.hh"
#include "eventlog/eventlog.hh"
#include "health/health.hh"
#include "hma/core_model.hh"
#include "prof/prof.hh"
#include "reliability/avf.hh"
#include "telemetry/telemetry.hh"

namespace ramp
{

namespace
{

/** Telemetry handles of the simulator hot path (one lookup ever). */
struct SystemTelemetry
{
    telemetry::Counter &hbmAccesses =
        telemetry::metrics().counter("hma.accesses.hbm");
    telemetry::Counter &ddrAccesses =
        telemetry::metrics().counter("hma.accesses.ddr");
    telemetry::Counter &runs =
        telemetry::metrics().counter("hma.runs");
    telemetry::Counter &instructions =
        telemetry::metrics().counter("hma.instructions");
    telemetry::Counter &boundaries =
        telemetry::metrics().counter(
            "migration.interval_boundaries");
    telemetry::Counter &epochs =
        telemetry::metrics().counter("migration.epochs");
    telemetry::Counter &promoted =
        telemetry::metrics().counter("migration.pages_promoted");
    telemetry::Counter &demoted =
        telemetry::metrics().counter("migration.pages_demoted");
    telemetry::Counter &swaps =
        telemetry::metrics().counter("migration.swaps");
    telemetry::HistogramMetric &epochPages =
        telemetry::metrics().histogram(
            "migration.epoch_pages",
            telemetry::FixedHistogram::linear(0, 512, 16));
    telemetry::HistogramMetric &epochGap =
        telemetry::metrics().histogram(
            "migration.epoch_gap_intervals",
            telemetry::FixedHistogram::linear(0, 32, 16));
    telemetry::Counter &regionOps =
        telemetry::metrics().counter("region.scheme_actions");
    telemetry::Counter &regionPages =
        telemetry::metrics().counter("region.scheme_pages");
    telemetry::Counter &faultsInjected =
        telemetry::metrics().counter("faults.injected");
    telemetry::Counter &faultsCorrectable =
        telemetry::metrics().counter("faults.correctable");
    telemetry::Counter &faultsUncorrected =
        telemetry::metrics().counter("faults.uncorrected");
    telemetry::Counter &faultsCapacityPages =
        telemetry::metrics().counter("faults.capacity_pages");
    telemetry::Counter &faultsRetired =
        telemetry::metrics().counter("faults.retired");
    telemetry::Counter &faultsRemaps =
        telemetry::metrics().counter("faults.remaps");
    telemetry::Counter &faultsSweepMoves =
        telemetry::metrics().counter("faults.sweep_moves");
    telemetry::Counter &faultsRetries =
        telemetry::metrics().counter("faults.retries");
    telemetry::Counter &faultsDegradedRuns =
        telemetry::metrics().counter("faults.degraded_runs");
};

SystemTelemetry &
systemTelemetry()
{
    static SystemTelemetry telemetry;
    return telemetry;
}

} // namespace

HmaSystem::HmaSystem(const SystemConfig &config)
    : config_(config), hbm_(config.hbm), ddr_(config.ddr)
{
    if (config.cores <= 0)
        ramp_fatal("system needs at least one core");
}

namespace
{

/** Slot of a page outside the run's traces. */
constexpr std::uint32_t noSlot = UINT32_MAX;

/** Cached-tier sentinel: re-read the placement on the next access. */
constexpr std::uint8_t staleTier = 0xff;

/** Residency sentinel: the page is not in HBM. */
constexpr Cycle outOfHbm = UINT64_MAX;

/** Pages per AVF line-block chunk (64 KB). */
constexpr std::size_t chunkPages = 64;

} // namespace

struct HmaSystem::RunPages
{
    /** Per-access state of one page. */
    struct Slot
    {
        AvfLineState *lines = nullptr; ///< null until first touch
        Addr frameBase = 0;            ///< device address of the frame
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint8_t tier = staleTier; ///< MemoryId, or staleTier
    };

    /**
     * Stamp every request with its page's slot: slots are handed
     * out in trace order by an open-addressing PageId -> slot table
     * (multiplicative hash; tenant ids `t << 24` are too sparse to
     * index directly). Residency starts from the placement.
     */
    RunPages(const std::vector<CoreTrace> &traces,
             const PlacementMap &placement)
    {
        rehash(1024);
        requestSlots.resize(traces.size());
        for (std::size_t core = 0; core < traces.size(); ++core) {
            auto &out = requestSlots[core];
            out.reserve(traces[core].size());
            for (const MemRequest &req : traces[core])
                out.push_back(intern(pageOf(req.addr)));
        }
        slots.resize(pages.size());
        hbmCycles.assign(pages.size(), 0);
        hbmSince.resize(pages.size());
        for (std::size_t slot = 0; slot < pages.size(); ++slot)
            hbmSince[slot] =
                placement.memoryOf(pages[slot]) == MemoryId::HBM
                    ? 0
                    : outOfHbm;
        touchOrder.reserve(pages.size());
    }

    /** Slot of a page, or noSlot when the traces never touch it. */
    std::uint32_t find(PageId page) const
    {
        const std::size_t i = bucket(page);
        return keys[i] == page ? keySlots[i] : noSlot;
    }

    /** First access: allocate the page's line block. */
    void firstTouch(std::uint32_t slot)
    {
        if (chunkUsed == chunkPages) {
            lineChunks.push_back(std::make_unique<AvfLineState[]>(
                chunkPages * linesPerPage));
            chunkUsed = 0;
        }
        slots[slot].lines =
            lineChunks.back().get() + chunkUsed++ * linesPerPage;
        touchOrder.push_back(slot);
    }

    /**
     * A placement mutation moved the page (or gave it a new frame):
     * drop its cached tier/frame and track HBM entry and exit.
     */
    void moved(PageId page, MemoryId from, MemoryId to, Cycle now)
    {
        const std::uint32_t slot = find(page);
        if (slot == noSlot)
            return;
        slots[slot].tier = staleTier;
        if (from == to)
            return;
        if (to == MemoryId::HBM) {
            hbmSince[slot] = now;
        } else if (hbmSince[slot] != outOfHbm) {
            hbmCycles[slot] += now - hbmSince[slot];
            hbmSince[slot] = outOfHbm;
        }
    }

    /** Accesses to the page so far (0 when untouched). */
    std::uint64_t hotness(PageId page) const
    {
        const std::uint32_t slot = find(page);
        return slot == noSlot
                   ? 0
                   : slots[slot].reads + slots[slot].writes;
    }

    /** Share of [0, makespan) the slot's page spent in HBM. */
    double hbmFraction(std::uint32_t slot, Cycle makespan) const
    {
        Cycle total = hbmCycles[slot];
        if (hbmSince[slot] != outOfHbm)
            total += makespan - std::min(makespan, hbmSince[slot]);
        return std::min(1.0, static_cast<double>(total) /
                                 static_cast<double>(makespan));
    }

    /** Slot -> page. */
    std::vector<PageId> pages;
    std::vector<Slot> slots;
    /** Per core, the slot of every request. */
    std::vector<std::vector<std::uint32_t>> requestSlots;
    /** Slots in first-touch order of the global issue stream. */
    std::vector<std::uint32_t> touchOrder;
    /** @{ @name HBM residency for the SER integral */
    std::vector<Cycle> hbmSince; ///< entry cycle, or outOfHbm
    std::vector<Cycle> hbmCycles; ///< closed HBM intervals
    /** @} */

  private:
    /** The page's bucket, or the empty one ending its probe run. */
    std::size_t bucket(PageId page) const
    {
        std::size_t i = static_cast<std::size_t>(
            (page * 0x9e3779b97f4a7c15ull) >> shift);
        while (keys[i] != page && keys[i] != invalidPage)
            i = (i + 1) & mask;
        return i;
    }

    std::uint32_t intern(PageId page)
    {
        const std::size_t i = bucket(page);
        if (keys[i] == page)
            return keySlots[i];
        const auto slot = static_cast<std::uint32_t>(pages.size());
        keys[i] = page;
        keySlots[i] = slot;
        pages.push_back(page);
        if (2 * pages.size() > keys.size()) // load factor <= 1/2
            rehash(2 * keys.size());
        return slot;
    }

    void rehash(std::size_t size)
    {
        keys.assign(size, invalidPage);
        keySlots.assign(size, 0);
        mask = size - 1;
        shift = 64 - static_cast<unsigned>(std::countr_zero(size));
        for (std::size_t slot = 0; slot < pages.size(); ++slot) {
            const std::size_t i = bucket(pages[slot]);
            keys[i] = pages[slot];
            keySlots[i] = static_cast<std::uint32_t>(slot);
        }
    }

    std::vector<PageId> keys; ///< invalidPage marks an empty bucket
    std::vector<std::uint32_t> keySlots;
    std::size_t mask = 0;
    unsigned shift = 64;
    std::vector<std::unique_ptr<AvfLineState[]>> lineChunks;
    std::size_t chunkUsed = chunkPages;
};

namespace
{

/** Device addresses of every line of a page (allocates the frame). */
std::vector<Addr>
pageLineAddrs(PlacementMap &map, PageId page)
{
    std::vector<Addr> addrs;
    addrs.reserve(linesPerPage);
    const Addr base = pageBase(page);
    for (std::uint64_t l = 0; l < linesPerPage; ++l)
        addrs.push_back(map.deviceAddr(base + l * lineSize));
    return addrs;
}

} // namespace

void
HmaSystem::scheduleTransfer(Cycle &next_slot,
                            const std::vector<Addr> &src_addrs,
                            MemoryId src_mem,
                            const std::vector<Addr> &dst_addrs,
                            MemoryId dst_mem,
                            std::deque<MigOp> &transfers)
{
    for (std::size_t i = 0; i < src_addrs.size(); ++i) {
        transfers.push_back({next_slot, src_addrs[i], src_mem,
                             false});
        transfers.push_back({next_slot, dst_addrs[i], dst_mem, true});
        next_slot += config_.migLineSpacingCycles;
    }
}

void
HmaSystem::applyDecision(PlacementMap &map,
                         const MigrationDecision &decision, Cycle now,
                         RunPages &run, std::deque<MigOp> &transfers)
{
    // Pace this decision's copies after any still-draining ones.
    Cycle next_slot = now;
    if (!transfers.empty())
        next_slot = std::max(next_slot, transfers.back().when);

    // Evictions first: they free the frames promotions fill.
    for (const PageId page : decision.evictions) {
        auto src_addrs = pageLineAddrs(map, page);
        if (!map.evictToDdr(page))
            continue;
        run.moved(page, MemoryId::HBM, MemoryId::DDR, now);
        scheduleTransfer(next_slot, src_addrs, MemoryId::HBM,
                         pageLineAddrs(map, page), MemoryId::DDR,
                         transfers);
    }

    for (const auto &[hbm_page, ddr_page] : decision.swaps) {
        auto hbm_addrs = pageLineAddrs(map, hbm_page);
        auto ddr_addrs = pageLineAddrs(map, ddr_page);
        if (!map.swap(hbm_page, ddr_page))
            continue;
        run.moved(hbm_page, MemoryId::HBM, MemoryId::DDR, now);
        run.moved(ddr_page, MemoryId::DDR, MemoryId::HBM, now);
        // Out-of-HBM copy and into-HBM copy; frames were exchanged,
        // so the new device addresses are the old partner's.
        scheduleTransfer(next_slot, hbm_addrs, MemoryId::HBM,
                         pageLineAddrs(map, hbm_page), MemoryId::DDR,
                         transfers);
        scheduleTransfer(next_slot, ddr_addrs, MemoryId::DDR,
                         pageLineAddrs(map, ddr_page), MemoryId::HBM,
                         transfers);
    }

    for (const PageId page : decision.promotions) {
        auto src_addrs = pageLineAddrs(map, page);
        if (!map.promoteToHbm(page))
            continue;
        run.moved(page, MemoryId::DDR, MemoryId::HBM, now);
        scheduleTransfer(next_slot, src_addrs, MemoryId::DDR,
                         pageLineAddrs(map, page), MemoryId::HBM,
                         transfers);
    }

    // Region batch ops (already ordered demotions-first by the
    // scheme engine). Each op is one capacity-checked batch move and
    // one ledger record, not N page decisions.
    for (const RegionOp &op : decision.regionOps) {
        if (op.action == RegionAction::None)
            continue;
        const MemoryId dst = op.action == RegionAction::Demote
                                 ? MemoryId::DDR
                                 : MemoryId::HBM;
        const MemoryId src = dst == MemoryId::HBM ? MemoryId::DDR
                                                  : MemoryId::HBM;
        // Two-phase move: peek the movable set to capture source
        // device addresses, batch-move, then capture destinations.
        const auto movable =
            map.movablePages(op.first, op.pages, dst);
        std::vector<std::vector<Addr>> src_addrs;
        src_addrs.reserve(movable.size());
        for (const PageId page : movable)
            src_addrs.push_back(pageLineAddrs(map, page));
        const std::uint64_t moved =
            map.moveRange(op.first, op.pages, dst);
        for (std::size_t i = 0; i < movable.size(); ++i) {
            const PageId page = movable[i];
            run.moved(page, src, dst, now);
            scheduleTransfer(next_slot, src_addrs[i], src,
                             pageLineAddrs(map, page), dst,
                             transfers);
        }
        if (op.action == RegionAction::Pin)
            map.pinRange(op.first, op.pages);
        RAMP_TELEM({
            auto &tel = systemTelemetry();
            tel.regionOps.add(1);
            tel.regionPages.add(moved);
        });
        RAMP_EVLOG({
            eventlog::EventRecord record;
            record.kind = eventlog::EventKind::Region;
            record.policy = eventlog::PolicyId::RegionMigration;
            record.epoch = now;
            record.page = op.first;
            record.partner = invalidPage;
            record.region = op.region;
            record.span = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(op.pages, UINT32_MAX));
            record.moved = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(moved, UINT32_MAX));
            record.detail = static_cast<std::uint8_t>(op.action);
            record.src = eventlog::tierOf(src);
            record.dst = eventlog::tierOf(dst);
            record.hotness = op.density;
            record.avf = op.avf;
            record.threshHot = op.threshHot;
            record.threshRisk = op.threshRisk;
            eventlog::emit(record);
        });
    }
}

void
HmaSystem::applyFaultEpoch(FaultInjector &injector,
                           std::uint64_t epoch, Cycle now,
                           PlacementMap &map, MigrationEngine *engine,
                           ResponseState &response, SimResult &result,
                           RunPages &run, std::deque<MigOp> &transfers)
{
    const auto faults = injector.onEpoch(epoch);

    // Pace response copies after any still-draining ones, exactly
    // like a migration decision would.
    Cycle next_slot = now;
    if (!transfers.empty())
        next_slot = std::max(next_slot, transfers.back().when);

    // Phase 1: land this epoch's faults.
    for (const InjectedFault &fault : faults) {
        ++result.faultsInjected;

        std::uint64_t capacity_pages = 0;
        if (fault.kind == FaultEventKind::CapacityLoss) {
            capacity_pages = fault.pages;
            if (capacity_pages == 0 && fault.pct > 0)
                capacity_pages = static_cast<std::uint64_t>(
                    static_cast<double>(map.hbmCapacityPages()) *
                    fault.pct / 100.0);
        }
        const MemoryId struck_tier =
            fault.kind == FaultEventKind::CapacityLoss
                ? fault.tier
                : map.memoryOf(fault.page);
        RAMP_TELEM(systemTelemetry().faultsInjected.add(1));
        RAMP_EVLOG({
            eventlog::EventRecord record;
            record.kind = eventlog::EventKind::Inject;
            record.policy = eventlog::PolicyId::FaultInject;
            record.epoch = now;
            record.page = fault.page;
            record.partner = invalidPage;
            record.detail = static_cast<std::uint8_t>(fault.kind);
            record.region = static_cast<std::uint32_t>(fault.source);
            record.span = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(capacity_pages, UINT32_MAX));
            record.moved = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(fault.count, UINT32_MAX));
            record.src = eventlog::tierOf(struck_tier);
            record.dst = eventlog::tierOf(struck_tier);
            eventlog::emit(record);
        });

        switch (fault.kind) {
          case FaultEventKind::Correctable: {
            // Correctable strikes survive ECC; they only raise the
            // page's effective risk for the classifiers.
            RAMP_TELEM(
                systemTelemetry().faultsCorrectable.add(1));
            response.noteCorrectable(fault.page, fault.count);
            if (engine != nullptr)
                engine->onFault(fault.page, false, now);
            break;
          }
          case FaultEventKind::Uncorrected: {
            RAMP_TELEM(
                systemTelemetry().faultsUncorrected.add(1));
            // Capture the dying frame's addresses before the retire
            // drops it — the salvage copy reads from there.
            const auto src_addrs = pageLineAddrs(map, fault.page);
            const RetireOutcome outcome =
                map.retirePage(fault.page);
            if (!outcome.retired) {
                if (engine != nullptr)
                    engine->onFault(fault.page, true, now);
                break; // second strike on an already-retired page
            }
            ++result.pagesRetired;
            RAMP_TELEM(systemTelemetry().faultsRetired.add(1));
            // A same-tier remap still swaps the frame.
            run.moved(fault.page, outcome.from, outcome.to, now);
            // Salvage copy onto the fresh frame (same tier when the
            // survivor was full; the remap is then owed and retried).
            scheduleTransfer(next_slot, src_addrs, outcome.from,
                             pageLineAddrs(map, fault.page),
                             outcome.to, transfers);
            RAMP_EVLOG({
                eventlog::EventRecord record;
                record.kind = eventlog::EventKind::Retire;
                record.policy = eventlog::PolicyId::FaultInject;
                record.epoch = now;
                record.page = fault.page;
                record.partner = invalidPage;
                record.src = eventlog::tierOf(outcome.from);
                record.dst = eventlog::tierOf(outcome.to);
                record.hotness =
                    static_cast<float>(run.hotness(fault.page));
                record.avf = 0.0f; // AVF folds at run end
                eventlog::emit(record);
            });
            if (outcome.crossedTier) {
                ++result.responseMoves;
                RAMP_TELEM(systemTelemetry().faultsRemaps.add(1));
                RAMP_EVLOG({
                    eventlog::EventRecord record;
                    record.kind = eventlog::EventKind::Remap;
                    record.policy =
                        eventlog::PolicyId::FaultInject;
                    record.epoch = now;
                    record.page = fault.page;
                    record.partner = invalidPage;
                    record.src = eventlog::tierOf(outcome.from);
                    record.dst = eventlog::tierOf(outcome.to);
                    record.detail = 0; // retire
                    eventlog::emit(record);
                });
            } else {
                response.queueRemap(fault.page, epoch);
            }
            if (engine != nullptr)
                engine->onFault(fault.page, true, now);
            break;
          }
          case FaultEventKind::CapacityLoss: {
            const std::uint64_t lost =
                map.loseCapacity(fault.tier, capacity_pages);
            result.capacityLostPages += lost;
            RAMP_TELEM(
                systemTelemetry().faultsCapacityPages.add(lost));
            if (lost > 0) {
                // Losing tier capacity is permanent: the run keeps
                // going, but in degraded mode from here on.
                if (!response.degraded()) {
                    response.setDegraded();
                    RAMP_TELEM(systemTelemetry()
                                   .faultsDegradedRuns.add(1));
                }
                RAMP_EVLOG({
                    eventlog::EventRecord record;
                    record.kind = eventlog::EventKind::Degrade;
                    record.policy =
                        eventlog::PolicyId::FaultInject;
                    record.epoch = now;
                    record.page = invalidPage;
                    record.partner = invalidPage;
                    record.detail = 0; // capacity-backlog
                    record.span = static_cast<std::uint32_t>(
                        std::min<std::uint64_t>(lost, UINT32_MAX));
                    record.moved = 0;
                    record.hotness = static_cast<float>(
                        map.overfullHbmPages());
                    eventlog::emit(record);
                });
            }
            break;
          }
        }
    }

    // Phase 2: retry owed cross-tier remaps (backoff on failure).
    for (const PageId page : response.dueRemaps(epoch)) {
        const auto movable =
            map.movablePages(page, 1, MemoryId::HBM);
        if (!movable.empty()) {
            const auto src_addrs = pageLineAddrs(map, page);
            map.moveRange(page, 1, MemoryId::HBM);
            map.pinRange(page, 1);
            run.moved(page, MemoryId::DDR, MemoryId::HBM, now);
            scheduleTransfer(next_slot, src_addrs, MemoryId::DDR,
                             pageLineAddrs(map, page),
                             MemoryId::HBM, transfers);
            response.resolveRemap(page);
            ++result.responseMoves;
            RAMP_TELEM(systemTelemetry().faultsRemaps.add(1));
            RAMP_EVLOG({
                eventlog::EventRecord record;
                record.kind = eventlog::EventKind::Remap;
                record.policy = eventlog::PolicyId::FaultInject;
                record.epoch = now;
                record.page = page;
                record.partner = invalidPage;
                record.src = eventlog::tierOf(MemoryId::DDR);
                record.dst = eventlog::tierOf(MemoryId::HBM);
                record.detail = 2; // retry
                eventlog::emit(record);
            });
        } else {
            RAMP_TELEM(systemTelemetry().faultsRetries.add(1));
            if (response.backoff(page, epoch)) {
                // Out of retries: the page stays where it landed,
                // pinned, and the run is degraded.
                map.pinRange(page, 1);
                if (!response.degraded()) {
                    response.setDegraded();
                    RAMP_TELEM(systemTelemetry()
                                   .faultsDegradedRuns.add(1));
                }
                RAMP_EVLOG({
                    eventlog::EventRecord record;
                    record.kind = eventlog::EventKind::Degrade;
                    record.policy =
                        eventlog::PolicyId::FaultInject;
                    record.epoch = now;
                    record.page = page;
                    record.partner = invalidPage;
                    record.detail = 1; // remap-failed
                    record.hotness = static_cast<float>(
                        response.backlog());
                    eventlog::emit(record);
                });
            }
        }
    }

    // Phase 3: bounded emergency demotion while the HBM is overfull
    // (capacity loss can strand more residents than frames).
    const std::uint64_t backlog = map.overfullHbmPages();
    if (backlog > 0) {
        const std::uint64_t budget = std::min<std::uint64_t>(
            backlog, injector.config().sweepCapPages);
        const auto victims = sweepVictims(
            map, [&run](PageId page) { return run.hotness(page); },
            budget);
        std::uint64_t swept = 0;
        for (const PageId page : victims) {
            const auto src_addrs = pageLineAddrs(map, page);
            if (map.moveRange(page, 1, MemoryId::DDR) == 0)
                continue;
            run.moved(page, MemoryId::HBM, MemoryId::DDR, now);
            scheduleTransfer(next_slot, src_addrs, MemoryId::HBM,
                             pageLineAddrs(map, page),
                             MemoryId::DDR, transfers);
            ++swept;
            ++result.responseMoves;
            RAMP_TELEM(systemTelemetry().faultsSweepMoves.add(1));
            RAMP_EVLOG({
                eventlog::EventRecord record;
                record.kind = eventlog::EventKind::Remap;
                record.policy = eventlog::PolicyId::FaultInject;
                record.epoch = now;
                record.page = page;
                record.partner = invalidPage;
                record.src = eventlog::tierOf(MemoryId::HBM);
                record.dst = eventlog::tierOf(MemoryId::DDR);
                record.detail = 1; // sweep
                eventlog::emit(record);
            });
        }
        const std::uint64_t remaining = map.overfullHbmPages();
        if (remaining > 0) {
            // Budget exhausted with backlog left: note it once per
            // epoch so ramp_explain can chart the drain.
            RAMP_EVLOG({
                eventlog::EventRecord record;
                record.kind = eventlog::EventKind::Degrade;
                record.policy = eventlog::PolicyId::FaultInject;
                record.epoch = now;
                record.page = invalidPage;
                record.partner = invalidPage;
                record.detail = 0; // capacity-backlog
                record.span = 0;
                record.moved = static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(swept, UINT32_MAX));
                record.hotness = static_cast<float>(remaining);
                eventlog::emit(record);
            });
        }
    }
}

SimResult
HmaSystem::run(const std::vector<CoreTrace> &traces,
               PlacementMap placement, MigrationEngine *engine,
               FaultInjector *injector)
{
    return runInPlace(traces, placement, engine, injector);
}

SimResult
HmaSystem::runInPlace(const std::vector<CoreTrace> &traces,
                      PlacementMap &placement,
                      MigrationEngine *engine,
                      FaultInjector *injector)
{
    if (static_cast<int>(traces.size()) > config_.cores)
        ramp_fatal("more traces than configured cores");

    RAMP_TELEM_SPAN(run_span, "hma.run", "sim",
                    telemetry::traceArg(
                        "engine",
                        engine != nullptr ? engine->name()
                                          : "static"));
    RAMP_PROF_SCOPE_PMU(run_prof, "hma.run");

    SimResult result;
    RunPages run(traces, placement);

    std::vector<CoreModel> cores;
    cores.reserve(traces.size());
    for (const auto &trace : traces)
        cores.emplace_back(trace, config_.issueWidth, config_.robSize,
                           config_.maxOutstandingReads);

    // Global issue order: earliest-ready core first.
    using Entry = std::pair<Cycle, std::size_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
    for (std::size_t i = 0; i < cores.size(); ++i)
        if (!cores[i].done())
            pq.push({cores[i].nextIssueTime(), i});

    Cycle next_boundary =
        engine != nullptr ? engine->interval() : 0;
    Cycle last_epoch = 0; ///< Previous non-empty decision boundary.
    ResponseState response(
        injector != nullptr ? injector->config().maxRetries : 8);
    Cycle next_inject =
        injector != nullptr ? injector->epochCycles() : 0;
    std::uint64_t inject_epoch = 0; ///< 1-based, like FaultEvent.

    // Health timeline: every injector epoch and every non-empty
    // migration boundary hands the recorder one sample with this
    // epoch's deltas (health/health.hh). High-water marks live out
    // here so the deltas survive across boundaries; the capture
    // costs one relaxed load per boundary when the timeline is off.
    std::uint64_t health_prev_faults = 0;
    std::uint64_t health_prev_retired = 0;
    std::uint64_t health_prev_lost = 0;
    std::uint64_t health_prev_moves = 0;
    auto health_sample = [&](std::uint64_t epoch,
                             std::uint64_t churn) {
        health::TimelineSample sample;
        sample.source = "system";
        sample.epoch = epoch;
        sample.moves = churn;
        sample.faultsInjected =
            result.faultsInjected - health_prev_faults;
        sample.pagesRetired =
            result.pagesRetired - health_prev_retired;
        sample.capacityLost =
            result.capacityLostPages - health_prev_lost;
        health_prev_faults = result.faultsInjected;
        health_prev_retired = result.pagesRetired;
        health_prev_lost = result.capacityLostPages;
        sample.backlog =
            static_cast<double>(placement.overfullHbmPages());
        sample.degraded = response.degraded();
        health::ShardSample shard;
        shard.capacityPages = placement.hbmCapacityPages();
        shard.usedPages = placement.hbmUsedPages();
        shard.occupancy =
            shard.capacityPages == 0
                ? health::unmeasured
                : static_cast<double>(shard.usedPages) /
                      static_cast<double>(shard.capacityPages);
        shard.degraded = response.degraded();
        shard.retired = result.pagesRetired;
        sample.shards.push_back(shard);
        health::record(std::move(sample));
    };

    std::deque<MigOp> transfers;
    auto drain_transfers = [&](Cycle up_to) {
        while (!transfers.empty() && transfers.front().when <= up_to) {
            const MigOp op = transfers.front();
            transfers.pop_front();
            DramMemory &dram =
                op.mem == MemoryId::HBM ? hbm_ : ddr_;
            dram.access(op.when, op.devAddr, op.isWrite);
        }
    };

    while (!pq.empty()) {
        const auto [ready, core_idx] = pq.top();
        pq.pop();
        CoreModel &core = cores[core_idx];
        const Cycle issue_t = core.nextIssueTime();

        // Interval boundaries strictly before this issue. Injector
        // epochs interleave with engine boundaries in cycle order;
        // the injector wins ties so fault responses land before a
        // same-cycle migration decision sees the placement.
        while ((engine != nullptr && next_boundary <= issue_t) ||
               (injector != nullptr && next_inject <= issue_t)) {
            const bool engine_due =
                engine != nullptr && next_boundary <= issue_t;
            const bool inject_due =
                injector != nullptr && next_inject <= issue_t;
            if (inject_due &&
                (!engine_due || next_inject <= next_boundary)) {
                drain_transfers(next_inject);
                ++inject_epoch;
                {
                    RAMP_PROF_SCOPE(fault_prof, "hma.fault_epoch");
                    applyFaultEpoch(*injector, inject_epoch,
                                    next_inject, placement, engine,
                                    response, result, run,
                                    transfers);
                }
                RAMP_HEALTH({
                    health_sample(inject_epoch,
                                  result.responseMoves -
                                      health_prev_moves);
                    health_prev_moves = result.responseMoves;
                });
                next_inject += injector->epochCycles();
                continue;
            }
            drain_transfers(next_boundary);
            RAMP_PROF_SCOPE(epoch_prof, "hma.migration_epoch");
            const auto decision =
                engine->onInterval(next_boundary, placement);
            RAMP_TELEM(systemTelemetry().boundaries.add(1));
            if (!decision.empty()) {
                ++result.migrationEvents;
                RAMP_TELEM({
                    auto &tel = systemTelemetry();
                    tel.epochs.add(1);
                    tel.promoted.add(decision.promotions.size() +
                                     decision.swaps.size());
                    tel.demoted.add(decision.evictions.size() +
                                    decision.swaps.size());
                    tel.swaps.add(decision.swaps.size());
                    tel.epochPages.observe(static_cast<double>(
                        decision.pagesMoved()));
                    tel.epochGap.observe(
                        static_cast<double>(next_boundary -
                                            last_epoch) /
                        static_cast<double>(engine->interval()));
                });
                RAMP_EVLOG({
                    eventlog::EventRecord record;
                    record.kind = eventlog::EventKind::Epoch;
                    record.policy = eventlog::policyIdFromName(
                        engine->name());
                    record.epoch = next_boundary;
                    // Epoch records reuse the score fields as the
                    // boundary's move counts (record.hh).
                    record.hotness = static_cast<float>(
                        decision.promotions.size());
                    record.wrRatio = static_cast<float>(
                        decision.evictions.size());
                    record.avf = static_cast<float>(
                        decision.swaps.size());
                    eventlog::emit(record);
                });
                last_epoch = next_boundary;
                applyDecision(placement, decision, next_boundary,
                              run, transfers);
                RAMP_HEALTH(health_sample(
                    next_boundary / engine->interval(),
                    decision.pagesMoved()));
            }
            next_boundary += engine->interval();
        }
        drain_transfers(issue_t);

        const MemRequest &req = core.current();
        const PageId page = pageOf(req.addr);
        const std::uint32_t slot =
            run.requestSlots[core_idx][core.position()];
        RunPages::Slot &state = run.slots[slot];
        if (state.lines == nullptr)
            run.firstTouch(slot);
        if (state.tier == staleTier) {
            state.tier =
                static_cast<std::uint8_t>(placement.memoryOf(page));
            state.frameBase = placement.deviceAddr(pageBase(page));
        }
        const MemoryId mem = static_cast<MemoryId>(state.tier);
        const Addr dev_addr = state.frameBase + req.addr % pageSize;
#ifndef NDEBUG
        if (mem != placement.memoryOf(page) ||
            dev_addr != placement.deviceAddr(req.addr))
            ramp_panic("stale cached placement of page ", page);
#endif

        if (engine != nullptr)
            engine->onAccess(page, req.isWrite, mem);
        if (injector != nullptr)
            injector->onAccess(page, req.isWrite, mem);
        const Cycle penalty =
            engine != nullptr ? engine->remapPenalty(page) : 0;

        avfLineAccess(state.lines[lineInPage(req.addr)], req.isWrite,
                      issue_t);
        if (req.isWrite)
            ++state.writes;
        else
            ++state.reads;

        DramMemory &dram = mem == MemoryId::HBM ? hbm_ : ddr_;
        const Cycle completion =
            dram.access(issue_t + penalty, dev_addr, req.isWrite);

        ++result.requests;
        if (req.isWrite)
            ++result.writes;
        else
            ++result.reads;
        if (mem == MemoryId::HBM)
            ++result.hbmAccessFraction; // normalised below
        RAMP_TELEM(mem == MemoryId::HBM
                       ? systemTelemetry().hbmAccesses.add(1)
                       : systemTelemetry().ddrAccesses.add(1));

        if (core.retire(req.isWrite ? issue_t : completion)) {
            pq.push({core.nextIssueTime(), core_idx});
            // Start loading what the core's next request needs, one
            // round of the other cores ahead of its access: its AVF
            // line (the previous round fetched its slot) and the slot
            // of the request after it. Line blocks miss the host
            // caches at campaign footprints. Kept inline: in a member
            // function of RunPages, gcc 12 -O2 dropped the prefetches.
            const auto &core_slots = run.requestSlots[core_idx];
            const std::size_t next = core.position();
            if (next + 1 < core_slots.size())
                __builtin_prefetch(&run.slots[core_slots[next + 1]]);
            const AvfLineState *lines = run.slots[core_slots[next]].lines;
            if (lines != nullptr)
                __builtin_prefetch(lines +
                                   lineInPage(core.current().addr));
        }
    }

    // Finish any still-draining page copies.
    drain_transfers(UINT64_MAX);

    for (const auto &core : cores) {
        result.instructions += core.instructions();
        result.makespan = std::max(result.makespan,
                                   core.finishTime());
    }
    result.makespan = std::max<Cycle>(result.makespan, 1);
    result.ipc = static_cast<double>(result.instructions) /
                 static_cast<double>(result.makespan);
    result.mpki = result.instructions == 0
                      ? 0.0
                      : static_cast<double>(result.requests) *
                            1000.0 /
                            static_cast<double>(result.instructions);
    result.hbmAccessFraction =
        result.requests == 0
            ? 0.0
            : result.hbmAccessFraction /
                  static_cast<double>(result.requests);

    // Fold the slots into the profile in first-touch order: the
    // same insertion sequence as per-access recording, so the
    // profile iterates (and the sums below add up) in the same order.
    const double window = static_cast<double>(linesPerPage) *
                          static_cast<double>(result.makespan);
    std::vector<Cycle> ace(run.pages.size());
    for (const std::uint32_t slot : run.touchOrder) {
        const RunPages::Slot &state = run.slots[slot];
        ace[slot] = pageAceTime(state.lines);
        PageStats stats;
        stats.reads = state.reads;
        stats.writes = state.writes;
        stats.avf = static_cast<double>(ace[slot]) / window; // Eq 1
        result.profile.setStats(run.pages[slot], stats);
    }

    // Footprint-mean AVF and residency-weighted Equation 2.
    const SerParams &ser = config_.ser;
    double ace_sum = 0;
    for (const auto &[page, stats] : result.profile.pages()) {
        const std::uint32_t slot = run.find(page);
        ace_sum += static_cast<double>(ace[slot]);
        const double in_hbm = run.hbmFraction(slot, result.makespan);
        result.ser += stats.avf *
                      (ser.fitPerPage(MemoryId::HBM) * in_hbm +
                       ser.fitPerPage(MemoryId::DDR) *
                           (1.0 - in_hbm));
    }
    if (!run.touchOrder.empty())
        result.memoryAvf =
            ace_sum /
            (window * static_cast<double>(run.touchOrder.size()));

    result.hbmStats = hbm_.stats();
    result.ddrStats = ddr_.stats();
    const std::uint64_t total_reads =
        result.hbmStats.reads + result.ddrStats.reads;
    if (total_reads > 0) {
        result.avgReadLatency =
            static_cast<double>(result.hbmStats.totalReadLatency +
                                result.ddrStats.totalReadLatency) /
            static_cast<double>(total_reads);
    }
    result.migratedPages = placement.migrations();
    result.responseRetries = response.retries();
    result.degraded = response.degraded();
    RAMP_TELEM({
        auto &tel = systemTelemetry();
        tel.runs.add(1);
        tel.instructions.add(result.instructions);
    });
    return result;
}

} // namespace ramp
