#include "layers.hh"

#include <algorithm>
#include <memory>

#include "dram/memory.hh"
#include "hma/experiment.hh"
#include "placement/profile.hh"
#include "reliability/avf.hh"
#include "report.hh"

namespace perfbench
{

using namespace ramp;

namespace
{

/** Keeps results alive so the timed loops are not optimised away. */
volatile double sink = 0;

template <typename Body>
double
timeNs(std::uint64_t accesses, Body body)
{
    const auto start = Clock::now();
    body();
    return secondsSince(start) * 1e9 / static_cast<double>(accesses);
}

} // namespace

LayerBudget
measureLayers(const ReplayInput &input, int repeats)
{
    // Round-robin interleave of the cores.
    std::vector<MemRequest> stream;
    for (std::size_t i = 0;; ++i) {
        bool any = false;
        for (const CoreTrace &trace : input.traces) {
            if (i < trace.size()) {
                stream.push_back(trace[i]);
                any = true;
            }
        }
        if (!any)
            break;
    }
    const std::uint64_t n = stream.size();

    // Untimed: where each access lands, and the run's cycle spacing
    // (so the AVF and DRAM models see realistic inter-access times).
    std::vector<MemoryId> mem(n);
    std::vector<Addr> dev(n);
    {
        PlacementMap map = input.placement;
        for (std::uint64_t k = 0; k < n; ++k) {
            mem[k] = map.memoryOf(pageOf(stream[k].addr));
            dev[k] = map.deviceAddr(stream[k].addr);
        }
    }
    auto engine = [&]() -> std::unique_ptr<MigrationEngine> {
        return input.engine
                   ? makeEngine(DynamicScheme::CrossCounter,
                                input.config)
                   : nullptr;
    };
    LayerBudget budget;
    Cycle spacing = 1;
    {
        auto warm = engine();
        HmaSystem system(input.config);
        const SimResult r =
            system.run(input.traces, input.placement, warm.get());
        spacing = std::max<Cycle>(1, r.makespan / std::max<Cycle>(1, n));
        const std::uint64_t hits = r.hbmStats.rowHits + r.ddrStats.rowHits;
        const std::uint64_t total =
            hits + r.hbmStats.rowMisses + r.ddrStats.rowMisses;
        budget.rowHitRatio =
            total == 0 ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(total);
        budget.hbmAccessFrac = r.hbmAccessFraction;
    }

    std::vector<double> lookup, profile, avf, fold, dram, eng, hma;
    for (int r = 0; r < repeats; ++r) {
        {
            PlacementMap map = input.placement;
            lookup.push_back(timeNs(n, [&] {
                std::uint64_t acc = 0;
                for (const MemRequest &req : stream) {
                    acc += static_cast<std::uint64_t>(
                        map.memoryOf(pageOf(req.addr)));
                    acc += map.deviceAddr(req.addr);
                }
                sink = static_cast<double>(acc);
            }));
        }
        {
            PageProfile pages;
            profile.push_back(timeNs(n, [&] {
                for (const MemRequest &req : stream)
                    pages.recordAccess(pageOf(req.addr), req.isWrite);
            }));
        }
        {
            AvfTracker tracker;
            avf.push_back(timeNs(n, [&] {
                for (std::uint64_t k = 0; k < n; ++k)
                    tracker.onAccess(stream[k].addr, stream[k].isWrite,
                                     k * spacing);
            }));
            fold.push_back(timeNs(n, [&] {
                tracker.finalize(n * spacing + 1);
                double acc = tracker.memoryAvf();
                for (const auto &[page, page_avf] : tracker.pageAvfs())
                    acc += page_avf;
                sink = acc;
            }));
        }
        {
            DramMemory hbm(input.config.hbm);
            DramMemory ddr(input.config.ddr);
            dram.push_back(timeNs(n, [&] {
                Cycle acc = 0;
                for (std::uint64_t k = 0; k < n; ++k)
                    acc += (mem[k] == MemoryId::HBM ? hbm : ddr)
                               .access(k * spacing, dev[k],
                                       stream[k].isWrite);
                sink = static_cast<double>(acc);
            }));
        }
        if (auto e = engine()) {
            eng.push_back(timeNs(n, [&] {
                for (std::uint64_t k = 0; k < n; ++k)
                    e->onAccess(pageOf(stream[k].addr),
                                stream[k].isWrite, mem[k]);
            }));
        }
        {
            PlacementMap map = input.placement;
            auto e = engine();
            HmaSystem system(input.config);
            hma.push_back(timeNs(n, [&] {
                sink = system.run(input.traces, std::move(map), e.get())
                           .ipc;
            }));
        }
    }

    budget.accesses = n;
    budget.lookupNs = median(lookup);
    budget.profileNs = median(profile);
    budget.avfNs = median(avf);
    budget.foldNs = median(fold);
    budget.dramNs = median(dram);
    budget.engineNs = median(eng);
    budget.hmaNs = median(hma);
    budget.sumNs = budget.lookupNs + budget.profileNs + budget.avfNs +
                   budget.foldNs + budget.dramNs + budget.engineNs;
    budget.residualNs = budget.hmaNs - budget.sumNs;
    return budget;
}

} // namespace perfbench
