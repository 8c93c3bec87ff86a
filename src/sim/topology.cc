#include "sim/topology.hh"

#include <string>
#include <utility>

#include "common/logging.hh"

namespace dx::sim
{

Topology
TopologyBuilder::build(Component &root) const
{
    cfg_.validate();

    Topology t;
    t.dram = std::make_unique<mem::DramSystem>(cfg_.dram);
    t.dramPort = std::make_unique<cache::DramPort>(*t.dram);
    t.router = std::make_unique<cache::RangeRouter>(*t.dramPort);

    cache::Cache::Config llcCfg = cfg_.llc;
    llcCfg.name = "llc";
    t.llc = std::make_unique<cache::Cache>(llcCfg, t.router.get());

    for (unsigned i = 0; i < cfg_.cores; ++i) {
        cache::Cache::Config l2c = cfg_.l2;
        l2c.name = "l2";
        t.l2s.push_back(
            std::make_unique<cache::Cache>(l2c, t.llc.get()));
        cache::Cache::Config l1c = cfg_.l1;
        l1c.name = "l1d";
        t.l1s.push_back(
            std::make_unique<cache::Cache>(l1c, t.l2s.back().get()));

        // Inclusive-LLC membership (back-invalidate targets) is a
        // protocol relation, separate from the naming tree.
        t.llc->addChild(t.l1s.back().get());
        t.llc->addChild(t.l2s.back().get());

        if (cfg_.stridePrefetchers) {
            // DMP needs the full-resolution access stream (per-element
            // pcs and values), so it replaces the L1 prefetcher; the
            // L2 stride prefetcher stays in both configurations.
            if (cfg_.dmp) {
                auto dmp =
                    std::make_unique<prefetch::IndirectPrefetcher>(
                        cfg_.dmpCfg, &mem_);
                t.l1s.back()->adopt(*dmp);
                t.l1s.back()->setPrefetcher(std::move(dmp));
            } else {
                t.l1s.back()->setPrefetcher(
                    std::make_unique<cache::StridePrefetcher>());
            }
            t.l2s.back()->setPrefetcher(
                std::make_unique<cache::StridePrefetcher>());
        }

        t.cores.push_back(std::make_unique<cpu::Core>(
            cfg_.core, static_cast<int>(i), t.l1s.back().get()));
        t.cores.back()->adopt(*t.l1s.back());
        t.cores.back()->adopt(*t.l2s.back());
        root.adopt(*t.cores.back());
    }

    // DX100 instances: cores are multiplexed contiguously.
    for (unsigned inst = 0; inst < cfg_.dx100Instances; ++inst) {
        dx100::Dx100Config dxc = cfg_.dx;
        // Give each instance disjoint MMIO/SPD windows.
        dxc.mmioBase = cfg_.dx.mmioBase + (Addr{inst} << 28);
        dxc.spdBase = cfg_.dx.spdBase + (Addr{inst} << 28);

        dx100::CoherencyAgent agent;
        agent.setLlc(t.llc.get());
        agent.addCache(t.llc.get());
        for (auto &c : t.l1s)
            agent.addCache(c.get());
        for (auto &c : t.l2s)
            agent.addCache(c.get());

        t.dxs.push_back(std::make_unique<dx100::Dx100>(
            dxc, *t.dram, t.llc.get(), agent, cfg_.cores));
        if (cfg_.dx100Instances > 1)
            t.dxs.back()->rename("dx100_" + std::to_string(inst));
        t.router->addRange(dxc.spdBase, dxc.spdSize(),
                           &t.dxs.back()->spdPort());
        t.runtimes.push_back(std::make_unique<runtime::Dx100Runtime>(
            *t.dxs.back(), mem_));
        root.adopt(*t.dxs.back());
    }

    // Multiple instances uphold the Single-Writer invariant through a
    // coarse-grained region directory (§6.6).
    if (t.dxs.size() > 1) {
        t.regionDir = std::make_unique<dx100::RegionDirectory>();
        for (unsigned inst = 0; inst < t.dxs.size(); ++inst) {
            t.dxs[inst]->setRegionDirectory(t.regionDir.get(),
                                            static_cast<int>(inst));
        }
    }

    // Core <-> DX100 MMIO multiplexing, contiguous blocks of cores.
    if (!t.dxs.empty()) {
        for (unsigned i = 0; i < cfg_.cores; ++i)
            t.cores[i]->setMmioDevice(
                t.dxs[cfg_.dx100InstanceFor(i)].get());
    }

    root.adopt(*t.llc);
    root.adopt(*t.dram);
    return t;
}

} // namespace dx::sim
